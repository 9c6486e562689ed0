"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output on failure) and enforces the criterion's runtime budget
where one is pinned. Tolerances here are contractual; do not loosen them
to make a failing build green.
"""

import functools
import json
import math
import time

import numpy as np

import symwedge.cli as cli
from symwedge import (
    MODE_PROJECTED,
    MODE_RANK,
    MODE_SMOOTH,
    Configuration,
    DomainSpec,
    LatticeSpec,
    Permutation,
    Symmetry,
    TargetFunction,
    build_antisym,
    build_sym,
    builtin_target,
    cauchy_factor_check,
    convergence_sweep,
    elementary_direct,
    elementary_from_power_sums,
    enumerate_wedge,
    eval_antisym,
    eval_sym,
    eval_sym_feature_form,
    feature_count,
    gradient_bound_estimate,
    invert_power_sums,
    load_model,
    parity,
    permanent_bruteforce,
    permanent_ryser,
    permanent_ryser_logdomain,
    permute,
    power_sums,
    sample_configurations,
    wedge_size,
)
from helpers import configurations

BOUND_SLACK = 1e-12


def criterion(num, label, budget_s=None):
    """Wrap a test body so it reports one PASS/FAIL line and its runtime."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"FAIL criterion {num}: {label} ({elapsed:.2f}s)")
                raise
            elapsed = time.perf_counter() - start
            if budget_s is not None and elapsed >= budget_s:
                print(
                    f"FAIL criterion {num}: {label} "
                    f"({elapsed:.2f}s over the {budget_s}s budget)"
                )
                raise AssertionError(f"criterion {num} exceeded {budget_s}s: {elapsed:.2f}s")
            print(f"PASS criterion {num}: {label} ({elapsed:.2f}s)")

        return wrapper

    return deco


def unit_domain(d, N):
    return DomainSpec(d=d, N=N, lo=0.0, hi=1.0)


@criterion(1, "permanent routes agree with brute force", budget_s=5.0)
def test_criterion_01_permanent_oracle():
    rng = np.random.Generator(np.random.Philox(1001))
    for _ in range(500):
        n = int(rng.integers(1, 8))
        A = rng.uniform(-1.0, 1.0, (n, n)).tolist()
        want = permanent_bruteforce(A)
        assert abs(permanent_ryser(A) - want) <= 1e-10 * (1.0 + abs(want))
    for _ in range(200):
        n = int(rng.integers(1, 8))
        A = rng.uniform(0.1, 1.1, (n, n)).tolist()
        want = permanent_bruteforce(A)
        assert abs(permanent_ryser_logdomain(A) - want) <= 1e-9 * (1.0 + abs(want))


@criterion(2, "elementary symmetric recurrence matches enumeration", budget_s=1.0)
def test_criterion_02_recurrence():
    rng = np.random.Generator(np.random.Philox(1002))
    for _ in range(100):
        n = int(rng.integers(1, 7))
        xs = tuple(int(v) for v in rng.integers(-5, 6, n))
        E = power_sums(xs)
        for k in range(1, n + 1):
            assert elementary_from_power_sums(E, k) == elementary_direct(xs, k)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        xs = tuple(float(v) for v in rng.uniform(-1.5, 1.5, n))
        E = power_sums(xs)
        for k in range(1, n + 1):
            assert abs(elementary_from_power_sums(E, k) - elementary_direct(xs, k)) <= 1e-10


@criterion(3, "power-sum inversion round trip", budget_s=2.0)
def test_criterion_03_round_trip():
    rng = np.random.Generator(np.random.Philox(1003))
    for _ in range(100):
        n = int(rng.integers(1, 7))
        xs = sorted(float(v) for v in rng.random(n))
        got = invert_power_sums(power_sums(tuple(xs)))
        assert all(abs(g - x) <= 1e-7 for g, x in zip(got, xs))


SYM_TARGETS = ("sum-coords", "gaussian-pair-sym", "product-smooth-sym")
ANTISYM_TARGETS = ("vandermonde-gauss-antisym", "vandermonde-sum-antisym")
BOX_CONFIGS = ((2, 1), (2, 2), (3, 1))


@criterion(4, "symmetric sup error within spacing bound, slope near 1", budget_s=60.0)
def test_criterion_04_sym_error_bound():
    deltas = (0.5, 0.25, 0.125)
    for N, d in BOX_CONFIGS:
        domain = unit_domain(d, N)
        S = sample_configurations(domain, 10_000, seed=2000 + 10 * N + d)
        for name in SYM_TARGETS:
            f = builtin_target(name)
            build = lambda delta: build_sym(f, LatticeSpec.from_domain(domain, delta), N)
            result = convergence_sweep(f, deltas, S, build)
            for row in result.rows:
                assert row.sup_error <= row.bound + BOUND_SLACK, (name, N, d, row)
            assert result.slope is not None
            assert 0.8 <= result.slope <= 1.2, (name, N, d, result.slope)


@criterion(5, "feature-form evaluator matches the table evaluator", budget_s=30.0)
def test_criterion_05_feature_form():
    for d, N in ((1, 2), (1, 3), (2, 2), (2, 3)):
        domain = unit_domain(d, N)
        spec = LatticeSpec.from_domain(domain, 0.25)
        tab = build_sym(builtin_target("gaussian-pair-sym"), spec, N)
        S = sample_configurations(domain, 1000, seed=3000 + 10 * N + d)
        for X in configurations(S):
            assert abs(eval_sym_feature_form(tab, X) - eval_sym(tab, X)) <= 1e-9


@criterion(6, "feature count equals wedge size times 2^N", budget_s=1.0)
def test_criterion_06_feature_count():
    for n in range(1, 5):
        for d in range(1, 3):
            for N in range(1, 5):
                spec = LatticeSpec.from_counts(n, d, 0.0, 1.0)
                ws = wedge_size(spec, N)
                assert ws == math.comb(n**d + N - 1, N)
                assert ws == sum(1 for _ in enumerate_wedge(spec, N))
    for N, d, n in ((2, 1, 2), (3, 1, 4), (2, 2, 3)):
        spec = LatticeSpec.from_counts(n, d, 0.0, 1.0)
        tab = build_sym(builtin_target("sum-coords"), spec, N)
        epsilon = 0.5 * math.sqrt(N * d) * N ** (-1.0 / d)
        report = feature_count(tab, epsilon, 1.0)
        assert report.wedge_count == wedge_size(spec, N)
        assert report.M == report.wedge_count * 2**N


@criterion(7, "anti-symmetric equivariance, mode agreement, error bound", budget_s=60.0)
def test_criterion_07_antisym():
    for N, d in BOX_CONFIGS:
        domain = unit_domain(d, N)
        spec = LatticeSpec.from_domain(domain, 0.25)
        f = builtin_target("vandermonde-gauss-antisym")
        rank = build_antisym(f, spec, N, mode=MODE_RANK)
        proj = build_antisym(f, spec, N, mode=MODE_PROJECTED)
        S = sample_configurations(domain, 1000, seed=4000 + 10 * N + d)
        rng = np.random.Generator(np.random.Philox(4100 + 10 * N + d))
        for X in configurations(S):
            sigma = Permutation(tuple(int(i) for i in rng.permutation(N)))
            sign = float(parity(sigma))
            for tab in (rank, proj):
                assert eval_antisym(tab, permute(X, sigma)) == sign * eval_antisym(tab, X)
            assert abs(eval_antisym(rank, X) - eval_antisym(proj, X)) <= 1e-10

    for name in ANTISYM_TARGETS:
        f = builtin_target(name)
        for N, d in BOX_CONFIGS:
            domain = unit_domain(d, N)
            S = sample_configurations(domain, 10_000, seed=4200 + 10 * N + d)
            Xs = configurations(S)
            fvals = [f(X) for X in Xs]
            L = gradient_bound_estimate(f, S)
            for delta in (0.25, 0.125):
                spec = LatticeSpec.from_domain(domain, delta)
                bound = delta * math.sqrt(N * d) * L + BOUND_SLACK
                for mode in (MODE_RANK, MODE_PROJECTED):
                    tab = build_antisym(f, spec, N, mode=mode)
                    worst = max(
                        abs(v - eval_antisym(tab, X))
                        for v, X in zip(fvals, Xs)
                    )
                    assert worst <= bound, (name, N, d, delta, mode, worst, bound)


@criterion(8, "pair-difference quotient is permutation invariant", budget_s=5.0)
def test_criterion_08_factor_check():
    domain = unit_domain(1, 3)
    S = sample_configurations(domain, 2000, seed=1008)
    for name in ANTISYM_TARGETS:
        assert cauchy_factor_check(builtin_target(name), S, 0.05) <= 1e-9


@criterion(9, "byte-identical reruns and bit-exact persistence", budget_s=5.0)
def test_criterion_09_determinism(tmp_path):
    config = tmp_path / "cfg.json"
    out = tmp_path / "out"
    config.write_text(
        json.dumps(
            {
                "kind": "antisym-c2",
                "d": 1,
                "N": 2,
                "target": "vandermonde-gauss-antisym",
                "delta": 0.25,
                "out": str(out),
                "seed": 11,
                "samples": 500,
            }
        )
    )
    argv = ["verify", "--config", str(config)]
    assert cli.main(argv) == 0
    first = {
        name: (out / name).read_bytes() for name in ("report.json", "report.csv")
    }
    assert cli.main(argv) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob

    assert cli.main(["build", "--config", str(config)]) == 0
    tab = load_model(str(out / "model.swm"))
    loaded = load_model(str(out / "model.swm"))
    S = sample_configurations(unit_domain(1, 2), 100, seed=12)
    for X in configurations(S):
        assert eval_antisym(loaded, X) == eval_antisym(tab, X)


@criterion(10, "smooth mode: exact constants, no jumps across cell faces")
def test_criterion_10_smooth():
    domain = unit_domain(1, 2)
    spec = LatticeSpec.from_domain(domain, 0.25)
    width = spec.delta / 4.0

    const = TargetFunction(lambda X: 3.0, Symmetry.SYMMETRIC, name="const")
    tab_c = build_sym(const, spec, 2, mode=MODE_SMOOTH, smooth_width=width)
    S = sample_configurations(domain, 500, seed=1010)
    Xs = configurations(S)
    for X in Xs:
        assert abs(eval_sym(tab_c, X) - 3.0) <= 1e-12

    f = builtin_target("gaussian-pair-sym")
    tab = build_sym(f, spec, 2, mode=MODE_SMOOTH, smooth_width=width)
    values = [eval_sym(tab, X) for X in Xs]
    value_range = max(values) - min(values)
    assert value_range > 0.0

    h = 1e-4
    rng = np.random.Generator(np.random.Philox(1011))
    for face in (0.25, 0.5, 0.75):
        for _ in range(50):
            other = float(rng.uniform(0.0, 1.0))
            lo = Configuration.from_rows([[face - h / 2.0], [other]])
            hi = Configuration.from_rows([[face + h / 2.0], [other]])
            jump = abs(eval_sym(tab, hi) - eval_sym(tab, lo))
            assert jump <= 1e-2 * value_range, (face, other, jump)
