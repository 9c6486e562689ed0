import math
import tracemalloc
from dataclasses import replace
from itertools import permutations as _all_permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symwedge import (
    MODE_PROJECTED,
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
    eval_antisym,
    eval_sym,
    gradient_bound_estimate,
    invariance_suite,
    parity,
    permute,
    run_verification,
    sample_configurations,
    sup_error,
    vandermonde_product,
)
import symwedge.harness as harness
from symwedge.approx_sym import corner_values
from symwedge.lattice import corner_configuration, enumerate_wedge
from helpers import configurations, wedge_rows

UNIT_12 = DomainSpec(d=1, N=2, lo=0.0, hi=1.0)
UNIT_13 = DomainSpec(d=1, N=3, lo=0.0, hi=1.0)
SUM_12 = builtin_target("sum-coords")


def cfg(*rows):
    return Configuration.from_rows(rows)


def sweep(f, domain, deltas, S):
    """A convergence sweep of ``f``'s indicator tables (rank mode when anti-symmetric)."""
    build = build_sym if f.declared_symmetry is Symmetry.SYMMETRIC else build_antisym

    def build_at(delta):
        return build(f, LatticeSpec.from_domain(domain, delta), domain.N)

    return convergence_sweep(f, deltas, S, build_at)


def values_on(e, S):
    return [e(X) for X in configurations(S)]


def constant_target(value):
    return TargetFunction(
        evaluator=lambda X: value,
        declared_symmetry=Symmetry.SYMMETRIC,
        name="constant",
    )


# ---------------------------------------------------------------- sampling


def test_sampling_is_deterministic():
    a = sample_configurations(UNIT_12, 100, 7)
    b = sample_configurations(UNIT_12, 100, 7)
    assert configurations(a) == configurations(b)
    assert a.seed == 7 and a.count == 100


def test_sampling_different_seeds_differ():
    a = sample_configurations(UNIT_12, 10, 7)
    b = sample_configurations(UNIT_12, 10, 8)
    assert configurations(a) != configurations(b)


def test_sampling_count_validation():
    with pytest.raises(ValueError):
        sample_configurations(UNIT_12, 0, 7)


def test_sampling_marginal_means():
    dom = DomainSpec(d=2, N=2, lo=0.0, hi=1.0)
    S = sample_configurations(dom, 100_000, 12345)
    arr = np.array([X.rows for X in configurations(S)])
    se = 1.0 / math.sqrt(12.0 * S.count)
    for i in range(2):
        for a in range(2):
            assert abs(arr[:, i, a].mean() - 0.5) <= 3.0 * se


def test_samples_stay_in_domain():
    dom = DomainSpec(d=1, N=3, lo=-2.0, hi=3.0)
    S = sample_configurations(dom, 500, 9)
    for X in configurations(S):
        assert (X.N, X.d) == (3, 1)
        assert all(dom.lo <= row[0] <= dom.hi for row in X.rows)


# ---------------------------------------------------------------- gradients


def test_gradient_bound_of_linear_target():
    S = sample_configurations(UNIT_12, 500, 21)
    assert gradient_bound_estimate(SUM_12, S) == pytest.approx(math.sqrt(2.0), abs=1e-8)


def test_gradient_bound_of_constant_target():
    S = sample_configurations(UNIT_12, 200, 22)
    assert gradient_bound_estimate(constant_target(4.0), S) <= 1e-8


def test_gradient_bound_step_stability(monkeypatch):
    f = builtin_target("gaussian-pair-sym")
    S = sample_configurations(UNIT_12, 2000, 23)
    coarse = gradient_bound_estimate(f, S)
    monkeypatch.setattr(harness, "DEFAULT_FD_STEP_FRACTION", 5e-5)
    fine = gradient_bound_estimate(f, S)
    assert abs(coarse - fine) < 1e-6


def test_gradient_bound_rejects_non_finite_target():
    bad = TargetFunction(
        evaluator=lambda X: float("nan"),
        declared_symmetry=Symmetry.SYMMETRIC,
        name="bad",
    )
    S = sample_configurations(UNIT_12, 5, 25)
    with pytest.raises(ValueError):
        gradient_bound_estimate(bad, S)


def test_gradient_bound_rejects_a_step_that_underflows_before_evaluating():
    calls = []
    f = TargetFunction(lambda X: calls.append(X) or 0.0, Symmetry.SYMMETRIC)
    S = sample_configurations(DomainSpec(d=1, N=2, lo=0.0, hi=1e-320), 4, seed=0)
    with pytest.raises(ValueError, match=r"^span 1e-320 is too small for a finite-difference step$"):
        gradient_bound_estimate(f, S)
    assert calls == []


def reference_gradient_bound(f, S, h):
    # Reference stencil: every evaluation rebuilds all N rows through
    # Configuration.from_rows.
    lo, hi = S.domain.lo + h, S.domain.hi - h
    best = 0.0
    for X in configurations(S):
        rows = [[min(max(c, lo), hi) for c in row] for row in X.rows]
        norm2 = 0.0
        for i in range(len(rows)):
            for a in range(len(rows[i])):
                c = rows[i][a]
                rows[i][a] = c + h
                up = f(Configuration.from_rows(rows))
                rows[i][a] = c - h
                down = f(Configuration.from_rows(rows))
                rows[i][a] = c
                g = (up - down) / (2.0 * h)
                norm2 += g * g
        best = max(best, math.sqrt(norm2))
    return best


def slot_weighted(X):
    # Not symmetric: a perturbation applied to the wrong row or axis shows.
    total = 0.0
    for i, row in enumerate(X.rows):
        for a, c in enumerate(row):
            total += (i + 1) * (a + 2) * c * c + math.sin(3.0 * c * (i + a + 1))
    return total


@pytest.mark.parametrize("N", [1, 3, 4])
@pytest.mark.parametrize("d", [1, 2])
def test_gradient_bound_matches_reference_stencil(N, d, monkeypatch):
    domain = DomainSpec(d=d, N=N, lo=-0.5, hi=1.5)
    S = sample_configurations(domain, 60, 100 + 10 * N + d)
    targets = [
        slot_weighted,
        builtin_target("gaussian-pair-sym", {}),
        builtin_target("vandermonde-gauss-antisym", {}),
    ]
    # the default step, and one (h = 0.2) wide enough that many samples get clipped
    for fraction in (harness.DEFAULT_FD_STEP_FRACTION, 0.1):
        monkeypatch.setattr(harness, "DEFAULT_FD_STEP_FRACTION", fraction)
        for f in targets:
            got = gradient_bound_estimate(f, S)
            assert got.hex() == reference_gradient_bound(f, S, fraction * domain.span).hex()


# ---------------------------------------------------------------- sup error


def test_sup_error_of_exact_approximation():
    S = sample_configurations(UNIT_12, 200, 31)
    values = values_on(SUM_12, S)
    err, _ = sup_error(values, values, S)
    assert err == 0.0


def test_sup_error_of_constant_tabulator():
    spec = LatticeSpec.from_domain(UNIT_12, 0.25)
    tab = build_sym(constant_target(1.5), spec, 2)
    S = sample_configurations(UNIT_12, 200, 32)
    approx = values_on(lambda X: eval_sym(tab, X), S)
    err, _ = sup_error(values_on(constant_target(1.5), S), approx, S)
    assert err <= 1e-12


def test_sup_error_band_for_sum_coords():
    spec = LatticeSpec.from_domain(UNIT_12, 0.25)
    tab = build_sym(SUM_12, spec, 2)
    S = sample_configurations(UNIT_12, 10_000, 33)
    err, arg = sup_error(values_on(SUM_12, S), values_on(lambda X: eval_sym(tab, X), S), S)
    assert 0.2 <= err <= 0.5
    assert abs(SUM_12(arg) - eval_sym(tab, arg)) == err


# ---------------------------------------------------------------- invariance


def test_invariance_residual_zero_for_tabulators():
    spec = LatticeSpec.from_domain(UNIT_13, 0.25)
    S = sample_configurations(UNIT_13, 200, 41)
    f_sym = builtin_target("gaussian-pair-sym")
    tab = build_sym(f_sym, spec, 3)
    assert invariance_suite([lambda X: eval_sym(tab, X)], S, 8, Symmetry.SYMMETRIC) == [0.0]
    f_anti = builtin_target("vandermonde-gauss-antisym")
    anti = build_antisym(f_anti, spec, 3)
    assert (
        invariance_suite([lambda X: eval_antisym(anti, X)], S, 8, Symmetry.ANTISYMMETRIC)
        == [0.0]
    )


def test_invariance_detects_broken_evaluator():
    spec = LatticeSpec.from_domain(UNIT_12, 0.25)
    tab = build_sym(SUM_12, spec, 2)
    S = sample_configurations(UNIT_12, 100, 42)
    broken = lambda X: eval_sym(tab, X) + X.rows[0][0]
    assert invariance_suite([broken], S, 8, Symmetry.SYMMETRIC)[0] > 1e-3


def test_invariance_suite_validation():
    S = sample_configurations(UNIT_12, 10, 43)
    with pytest.raises(ValueError):
        invariance_suite([SUM_12], S, 0, Symmetry.SYMMETRIC)


def test_non_finite_values_are_errors_naming_the_sample():
    # NaN where x1 + x2 > 1.5: no corner of the delta = 1/4 lattice lies
    # there, so the table is finite while the target is NaN on 34 of 200
    # samples; a fold with > or max would drop every NaN
    def value(X, law):
        x1, x2 = (row[0] for row in X.rows)
        return math.nan if x1 + x2 > 1.5 else law(x1, x2)

    probe = TargetFunction(
        evaluator=lambda X: value(X, lambda a, b: a + b),
        declared_symmetry=Symmetry.SYMMETRIC,
        name="nan-probe",
    )
    S = sample_configurations(UNIT_12, 200, 3)
    sums = [sum(row[0] for row in X.rows) for X in configurations(S)]
    assert sum(v > 1.5 for v in sums) == 34
    first = next(k for k, v in enumerate(sums) if v > 1.5)
    tab = build_sym(probe, LatticeSpec.from_domain(UNIT_12, 0.25), 2)
    approx = lambda X: eval_sym(tab, X)
    at_first = f"nan at sample {first}$"
    with pytest.raises(ValueError, match=f"non-finite target value {at_first}"):
        sup_error(values_on(probe, S), values_on(approx, S), S)
    with pytest.raises(ValueError, match=f"non-finite approximation {at_first}"):
        sup_error(values_on(approx, S), values_on(probe, S), S)
    with pytest.raises(ValueError, match=f"non-finite value {at_first}"):
        invariance_suite([probe], S, 8, Symmetry.SYMMETRIC)
    with pytest.raises(ValueError, match=f"non-finite target value {at_first}"):
        run_verification(probe, tab, S, 1.0, 8, 0.05)

    antisym_probe = TargetFunction(
        evaluator=lambda X: value(X, lambda a, b: a - b),
        declared_symmetry=Symmetry.ANTISYMMETRIC,
        name="nan-probe-antisym",
    )
    kept = [
        k for k, X in enumerate(configurations(S))
        if abs(X.rows[0][0] - X.rows[1][0]) >= 0.05
    ]
    first_kept = next(k for k in kept if sums[k] > 1.5)
    message = f"non-finite quotient residual nan at sample {first_kept}$"
    with pytest.raises(ValueError, match=message):
        cauchy_factor_check(antisym_probe, S, min_gap=0.05)


def test_invariance_suite_is_seed_deterministic():
    S = sample_configurations(UNIT_13, 50, 44)
    f = builtin_target("product-smooth-sym")
    r1 = invariance_suite([f], S, 6, Symmetry.SYMMETRIC)
    r2 = invariance_suite([f], S, 6, Symmetry.SYMMETRIC)
    assert r1 == r2


def recorded(f, batch):
    """f, recording the rows it is evaluated on (as row tuples) in a list,
    through its batch when ``batch`` is set and once per configuration
    (``batch`` None) otherwise."""
    seen = []
    if batch:
        traced = replace(
            f, batch=lambda P: seen.extend(tuple(map(tuple, r)) for r in P.tolist()) or f.batch(P)
        )
    else:
        traced = replace(f, evaluator=lambda X: seen.append(X.rows) or f.evaluator(X), batch=None)
    return traced, seen


def sample_rows(S):
    return [tuple(map(tuple, r)) for r in S.points.tolist()]


def test_invariance_suite_evaluates_each_draw_once():
    S = sample_configurations(UNIT_13, 300, 45)
    f, seen = recorded(builtin_target("vandermonde-gauss-antisym", {}), batch=True)
    assert invariance_suite([f], S, 8, Symmetry.ANTISYMMETRIC)[0] <= 1e-15
    assert len(seen) == 300 + 300 * 8  # the samples, then each draw once


def reference_invariance(evaluators, S, n_perms, symmetry):
    """invariance_suite's residuals, one draw at a time: one Philox generator
    keyed as the suite keys it, and per draw, in sample order, the stable
    argsort of its next N doubles as a Permutation, its permuted
    Configuration and its parity."""
    worst = [0.0] * len(evaluators)
    rng = np.random.Generator(np.random.Philox(key=S.seed ^ harness._PERM_SEED_SALT))
    for X in configurations(S):
        for _ in range(n_perms):
            images = np.argsort(rng.random(S.domain.N), kind="stable")
            sigma = Permutation(tuple(images.tolist()))
            sign = parity(sigma) if symmetry is Symmetry.ANTISYMMETRIC else 1
            Y = permute(X, sigma)
            for i, e in enumerate(evaluators):
                worst[i] = max(worst[i], abs(e(Y) - sign * e(X)))
    return worst


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_invariance_suite_equals_a_per_draw_reference_bit_for_bit(data):
    N, d = data.draw(st.integers(1, 5)), data.draw(st.sampled_from([1, 2]))
    symmetry = data.draw(st.sampled_from(list(Symmetry)))
    n_perms = data.draw(st.sampled_from([1, 3, 8]))
    domain = DomainSpec(d=d, N=N, lo=-0.5, hi=1.5)
    count, seed = data.draw(st.integers(1, 12)), data.draw(st.integers(0, (1 << 128) - 1))
    S = sample_configurations(domain, count, seed)
    spec = LatticeSpec.from_counts(6 if d == 1 else 3, d, -0.5, 1.5)
    if symmetry is Symmetry.SYMMETRIC:
        f = builtin_target("gaussian-pair-sym")
        tab = build_sym(f, spec, N)
        approx = lambda X: eval_sym(tab, X)
    else:
        f = builtin_target("vandermonde-gauss-antisym")
        tab = build_antisym(f, spec, N)
        approx = lambda X: eval_antisym(tab, X)
    # slot_weighted obeys neither law, so a wrong draw or sign shows in its residual
    evaluators = (f, approx, slot_weighted)
    with pytest.MonkeyPatch.context() as patch:
        # blocks of a few samples, or of one sample's draws
        patch.setattr(harness, "_BLOCK", data.draw(st.integers(1, 3 * n_perms)))
        got = invariance_suite(evaluators, S, n_perms, symmetry)
    want = reference_invariance(evaluators, S, n_perms, symmetry)
    assert [r.hex() for r in got] == [r.hex() for r in want]


def test_invariance_draws_are_uniform_over_the_permutations():
    # 6 permutations at N = 3, so each is hit 10,000 times in expectation,
    # with sigma = sqrt(60,000 * 1/6 * 5/6) ~ 91
    S = sample_configurations(UNIT_13, 7_500, 46)
    f, seen = recorded(builtin_target("product-smooth-sym"), batch=True)
    bases = [f.batch(S.points)]
    del seen[:]  # given the bases, the suite evaluates f on the permuted copies only
    invariance_suite([f], S, 8, Symmetry.SYMMETRIC, bases=bases)
    copies = np.array(seen)[:, :, 0].reshape(S.count, 8, 3)
    # the position of each sample point in its copy gives the draw's images
    images = np.argmax(copies[:, :, :, None] == S.points[:, None, None, :, 0], axis=3)
    draws, hits = np.unique(images.reshape(-1, 3), axis=0, return_counts=True)
    assert len(draws) == 6 and hits.sum() == 60_000
    assert (np.abs(hits - 10_000) <= 5 * math.sqrt(60_000 / 6 * 5 / 6)).all()


def test_the_target_is_evaluated_once_on_each_sample():
    domain = DomainSpec(d=2, N=3, lo=0.0, hi=1.0)
    S = sample_configurations(domain, 40, 9)
    samples = sample_rows(S)
    distinct = set(samples)
    for batch in (True, False):
        f, seen = recorded(builtin_target("gaussian-pair-sym"), batch)

        def build_at(delta):
            return build_sym(f, LatticeSpec.from_domain(domain, delta), 3)

        tab = build_at(0.25)
        seen.clear()
        run_verification(f, tab, S, 1.0, 4, 0.05)
        # the samples, then their 4 permuted copies each (an identity draw
        # repeats a sample's rows, so the copies are told apart by position)
        assert seen[:40] == samples and len(seen) == 40 + 40 * 4
        copies = np.sort(np.array(seen[40:]).reshape(40, 4, 3, 2), axis=2)
        assert (copies == np.sort(S.points, axis=1)[:, None]).all()
        seen.clear()
        # stencil rows and corners never equal a sample's rows
        convergence_sweep(f, [0.5, 0.25, 0.125], S, build_at)
        assert [rows for rows in seen if rows in distinct] == samples


# Every tabulator kind, indicator and smooth: its builder and build options.
KINDS = {
    "sym": (build_sym, {}),
    "sym-smooth": (build_sym, {"mode": MODE_SMOOTH}),
    "antisym-c1": (build_antisym, {}),
    "antisym-c2": (build_antisym, {"mode": MODE_PROJECTED}),
    "antisym-c2-smooth": (build_antisym, {"mode": MODE_PROJECTED}),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("N", [3, 4])
@pytest.mark.parametrize("d", [1, 2])
def test_one_pass_over_two_evaluators_equals_two_passes(kind, N, d):
    build, options = KINDS[kind]
    spec = LatticeSpec.from_counts(6 if d == 1 else 3, d, 0.0, 1.0)
    if kind.endswith("smooth"):
        options = dict(options, smooth_width=spec.delta / 4)
    if build is build_sym:
        f, evaluate, symmetry = builtin_target("gaussian-pair-sym"), eval_sym, Symmetry.SYMMETRIC
    else:
        f = builtin_target("vandermonde-gauss-antisym")
        evaluate, symmetry = eval_antisym, Symmetry.ANTISYMMETRIC
    tab = build(f, spec, N, **options)
    approx = lambda X: evaluate(tab, X)
    S = sample_configurations(DomainSpec(d=d, N=N, lo=0.0, hi=1.0), 60, 10 * N + d)
    both = invariance_suite((f, approx), S, 4, symmetry)
    apart = invariance_suite([f], S, 4, symmetry) + invariance_suite([approx], S, 4, symmetry)
    assert [r.hex() for r in both] == [r.hex() for r in apart]


@pytest.mark.parametrize(
    "f, build, n_perms",
    [
        (builtin_target("gaussian-pair-sym"), build_sym, 8),
        (builtin_target("vandermonde-gauss-antisym"), build_antisym, 5),  # runs the Cauchy check
    ],
)
def test_run_verification_permutes_each_draw_once(f, build, n_perms):
    S = sample_configurations(UNIT_13, 150, 46)
    tab = build(f, LatticeSpec.from_domain(UNIT_13, 0.25), 3)
    traced, seen = recorded(f, batch=True)
    report = run_verification(traced, tab, S, 1.0, n_perms, 0.05)
    kept = 0
    if report.cauchy_residual is not None:
        for X in configurations(S):
            xs = [row[0] for row in X.rows]
            kept += min(abs(a - b) for i, a in enumerate(xs) for b in xs[i + 1 :]) >= 0.05
        assert kept > 0
    # the samples, each draw once, and per kept sample its base and its 3! - 1
    # other orders (the identity's residual needs no evaluation)
    assert len(seen) == 150 + 150 * n_perms + math.factorial(3) * kept


def assert_same_as_validated(X):
    """X equals, and hashes as, the checked construction of its rows, and
    holds its rows as a tuple of float tuples, as that construction does."""
    checked = Configuration.from_rows(X.rows)
    assert X == checked and hash(X) == hash(checked)
    assert type(X.rows) is tuple
    assert all(type(row) is tuple for row in X.rows)
    assert all(type(c) is float for row in X.rows for c in row)


@pytest.mark.parametrize("N, d", [(1, 1), (3, 2), (4, 1)])
def test_configurations_built_unchecked_equal_checked_ones(N, d):
    # every Configuration the package builds (rows evaluated one at a time,
    # permuted copies, cell corners) is the checked construction of its rows
    domain = DomainSpec(d=d, N=N, lo=-0.5, hi=1.5)
    S = sample_configurations(domain, 20, 47)
    rng = np.random.Generator(np.random.Philox(key=47))
    draws = (domain.lo + domain.span * rng.random((20, N, d))).tolist()
    evaluated = []
    harness._evaluate(lambda X: evaluated.append(X) or 0.0, S.points)
    assert [X.rows for X in evaluated] == [tuple(tuple(row) for row in rows) for rows in draws]
    seen = []
    gradient_bound_estimate(lambda X: seen.append(X) or 0.0, S)
    assert len(seen) == 20 * 2 * N * d
    for X in evaluated:
        for images in _all_permutations(range(N)):
            seen.append(harness.permute(X, Permutation(images)))
    spec = LatticeSpec.from_counts(3, d, -0.5, 1.5)
    corners = []
    record = TargetFunction(lambda X: corners.append(X) or 0.0, Symmetry.SYMMETRIC)
    corner_values(record, spec, wedge_rows(spec.site_count, N, False))
    assert corners == [corner_configuration(spec, zs) for zs in enumerate_wedge(spec, N)]
    for X in evaluated + seen + corners:
        assert_same_as_validated(X)


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("d", [1, 2])
def test_reports_are_equal_through_the_batch_and_one_call_per_row(kind, d):
    build, options = KINDS[kind]
    name = "gaussian-pair-sym" if build is build_sym else "vandermonde-gauss-antisym"
    f = builtin_target(name)
    unbatched = replace(f, batch=None)
    domain = DomainSpec(d=d, N=3, lo=0.0, hi=1.0)
    S = sample_configurations(domain, 150, 48 + d)
    if kind.endswith("smooth"):
        options = dict(options, smooth_width=1 / 16)

    def build_at(delta):
        return build(f, LatticeSpec.from_domain(domain, delta), 3, **options)

    tab = build_at(0.25)
    reports = [
        run_verification(g, tab, S, gradient_bound_estimate(g, S), 4, 0.05)
        for g in (f, unbatched)
    ]
    assert repr(reports[0]) == repr(reports[1])
    sweeps = [
        convergence_sweep(g, [0.5, 0.25, 0.125], S, build_at) for g in (f, unbatched)
    ]
    rows = [[replace(r, wall_time_s=0.0) for r in res.rows] for res in sweeps]
    assert repr(rows[0]) == repr(rows[1])
    fits = [repr((res.slope, res.gradient_bound)) for res in sweeps]
    assert fits[0] == fits[1]


def test_run_verification_peak_memory_is_bounded():
    # The harness works on blocks of samples, so its arrays do not grow with
    # the sample count; evaluating one configuration at a time it peaked at
    # 2.12 MB at this shape.
    domain = DomainSpec(d=2, N=3, lo=0.0, hi=1.0)
    f = builtin_target("gaussian-pair-sym")
    tab = build_sym(f, LatticeSpec.from_domain(domain, 0.25), 3)
    S = sample_configurations(domain, 20_000, 5)
    tracemalloc.start()
    try:
        run_verification(f, tab, S, 1.0, 8, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("block", [8, 64])
@pytest.mark.parametrize("kind", ["sym", "antisym-c1"])
def test_no_evaluation_exceeds_the_block_and_reports_are_unchanged(monkeypatch, kind, block):
    # At N = 5 the stencil has 10 rows per sample, the Cauchy check 5! - 1
    # other orders and the invariance pass 50 draws per sample: each is split
    # across calls when the block is smaller, in the same draw order.
    build, name = (build_sym, "gaussian-pair-sym") if kind == "sym" else (
        build_antisym, "vandermonde-gauss-antisym"
    )
    f = builtin_target(name)
    domain = DomainSpec(d=1, N=5, lo=0.0, hi=1.0)
    tab = build(f, LatticeSpec.from_domain(domain, 0.25), 5)
    S = sample_configurations(domain, 40, 49)

    def verify(g):
        return run_verification(g, tab, S, gradient_bound_estimate(g, S), 50, 0.01)

    unpatched = verify(f)
    sizes = []

    def sized(batch):
        return lambda *args: sizes.append(len(args[-1])) or batch(*args)

    monkeypatch.setattr(harness, "_BLOCK", block)
    monkeypatch.setattr(harness, "eval_sym_batch", sized(harness.eval_sym_batch))
    monkeypatch.setattr(harness, "eval_antisym_batch", sized(harness.eval_antisym_batch))
    patched = verify(replace(f, batch=sized(f.batch)))
    assert repr(patched) == repr(unpatched)
    if kind == "antisym-c1":
        assert patched.cauchy_residual is not None
    assert max(sizes) <= block
    assert len(sizes) > 40 * 50 // block  # the permuted copies alone need this many calls


@pytest.mark.parametrize("block", [1, 8, 64, 4096])
def test_cauchy_orders_come_in_blocks_in_permutations_order(monkeypatch, block):
    monkeypatch.setattr(harness, "_BLOCK", block)
    for N in range(1, 8):
        blocks = list(harness._other_permutations(N))
        assert max(map(len, blocks)) <= block
        orders = [tuple(row) for images in blocks for row in images.tolist()]
        assert orders == list(_all_permutations(range(N)))[1:]


@pytest.mark.parametrize("block", [8, 4096])
def test_cauchy_names_the_first_sample_with_a_non_finite_residual(monkeypatch, block):
    # Sample 2's quotient is non-finite only at an order late in the list, and
    # sample 5's at every order: with blocks of 8 orders, sample 5 fails in
    # an earlier block than sample 2, and sample 2 is still the one named.
    monkeypatch.setattr(harness, "_BLOCK", block)
    domain = DomainSpec(d=1, N=4, lo=0.0, hi=1.0)
    S = sample_configurations(domain, 8, 50)
    late = S.points[2, ::-1, 0].tolist()  # sample 2 reversed: the last order
    poisoned = S.points[5, :, 0].tolist()

    def value(X):
        xs = [row[0] for row in X.rows]
        if xs == late or sorted(xs) == sorted(poisoned) and xs != poisoned:
            return math.inf
        return vandermonde_product(xs)

    f = TargetFunction(value, Symmetry.ANTISYMMETRIC)
    with pytest.raises(ValueError, match="^non-finite quotient residual inf at sample 2$"):
        cauchy_factor_check(f, S, 1e-6)


def test_sampling_a_domain_too_wide_for_a_finite_span_is_an_error():
    with pytest.raises(ValueError, match="too wide to sample"):
        sample_configurations(DomainSpec(d=1, N=2, lo=-1e308, hi=1e308), 10, 1)


# Hex outputs recorded on an earlier commit: a change that moves any bit of
# the gradient bound or the invariance residual fails here, not only a
# change that makes two runs disagree.
PINNED_HARNESS_HEX = {
    "gradient gaussian-pair-sym": "0x1.44ec3adb91c1dp+1",
    "gradient vandermonde-gauss-antisym": "0x1.f23986c2ddb70p-3",
    "invariance gaussian-pair-sym": "0x1.0000000000000p-51",
    "invariance vandermonde-gauss-antisym": "0x1.8000000000000p-57",
}


def test_harness_outputs_are_pinned():
    S = sample_configurations(DomainSpec(d=2, N=3, lo=0.0, hi=1.0), 200, 7)
    got = {}
    for name, symmetry in (
        ("gaussian-pair-sym", Symmetry.SYMMETRIC),
        ("vandermonde-gauss-antisym", Symmetry.ANTISYMMETRIC),
    ):
        f = builtin_target(name, {})
        got[f"gradient {name}"] = gradient_bound_estimate(f, S).hex()
        got[f"invariance {name}"] = invariance_suite([f], S, 8, symmetry)[0].hex()
    assert got == PINNED_HARNESS_HEX


# ---------------------------------------------------------------- sweeps


# (delta, sup_error, bound, wedge_count, M) per row, then (L_hat, slope).
PINNED_SWEEP_HEX = {
    "product-smooth-sym": (
        [
            ("0x1.0000000000000p-1", "0x1.40d7b83191c47p+0", "0x1.987ec11e8b828p+0", 4, 32),
            ("0x1.0000000000000p-2", "0x1.5f1b0fa4c0976p-1", "0x1.987ec11e8b828p-1", 20, 160),
            ("0x1.0000000000000p-3", "0x1.673b2118c5604p-2", "0x1.987ec11e8b828p-2", 120, 960),
        ],
        ("0x1.d7b08671d7cf3p+0", "0x1.d642a17af4316p-1"),
    ),
    "vandermonde-sum-antisym": (
        [
            ("0x1.0000000000000p-1", "0x1.d4894391c75dfp-3", "0x1.0f8de4ba9fde9p+1", 4, 32),
            ("0x1.0000000000000p-2", "0x1.c31ab9af02442p-3", "0x1.0f8de4ba9fde9p+0", 20, 160),
            ("0x1.0000000000000p-3", "0x1.e701c2eb077e3p-4", "0x1.0f8de4ba9fde9p-1", 120, 960),
        ],
        ("0x1.399059595dda3p+1", "0x1.e3709586fdc6fp-2"),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SWEEP_HEX))
def test_convergence_sweep_rows_are_pinned(name):
    S = sample_configurations(UNIT_13, 200, 5)
    res = sweep(builtin_target(name, {}), UNIT_13, [0.5, 0.25, 0.125], S)
    rows = [
        (r.delta.hex(), r.sup_error.hex(), r.bound.hex(), r.wedge_count, r.M) for r in res.rows
    ]
    assert (rows, (res.gradient_bound.hex(), res.slope.hex())) == PINNED_SWEEP_HEX[name]


def test_sweep_slope_first_order():
    S = sample_configurations(UNIT_12, 3000, 51)
    res = sweep(SUM_12, UNIT_12, (0.5, 0.25, 0.125), S)
    assert res.slope is not None
    assert 0.8 <= res.slope <= 1.2


def test_sweep_antisym_target_slope():
    f = builtin_target("vandermonde-sum-antisym")
    S = sample_configurations(UNIT_12, 3000, 52)
    res = sweep(f, UNIT_12, (0.5, 0.25, 0.125), S)
    assert res.slope is not None
    assert 0.8 <= res.slope <= 1.2


def test_sweep_constant_target_has_no_slope():
    S = sample_configurations(UNIT_12, 500, 53)
    res = sweep(constant_target(2.0), UNIT_12, (0.5, 0.25, 0.125), S)
    assert res.slope is None
    assert all(row.sup_error <= 1e-12 for row in res.rows)


def test_sweep_errors_monotone_and_rows_consistent():
    S = sample_configurations(UNIT_12, 3000, 54)
    res = sweep(SUM_12, UNIT_12, (0.5, 0.25, 0.125, 0.0625), S)
    errs = [row.sup_error for row in res.rows]
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
    for row in res.rows:
        assert row.M == row.wedge_count * 4
        assert row.bound == pytest.approx(
            row.delta * math.sqrt(2.0) * res.gradient_bound, rel=1e-12
        )


def test_sweep_validation():
    S = sample_configurations(UNIT_12, 10, 55)
    with pytest.raises(ValueError):
        sweep(SUM_12, UNIT_12, (0.5, 0.25), S)
    with pytest.raises(ValueError):
        sweep(SUM_12, UNIT_12, (0.25, 0.5, 0.125), S)


# ---------------------------------------------------------------- cauchy


def pure_vandermonde(N):
    return TargetFunction(
        evaluator=lambda X: vandermonde_product(tuple(row[0] for row in X.rows)),
        declared_symmetry=Symmetry.ANTISYMMETRIC,
        name="pure-vandermonde",
    )


def test_cauchy_pure_vandermonde_is_exactly_factored():
    S = sample_configurations(UNIT_13, 500, 61)
    assert cauchy_factor_check(pure_vandermonde(3), S, min_gap=0.05) <= 1e-12


def test_cauchy_vandermonde_times_sum():
    f = builtin_target("vandermonde-sum-antisym")
    S = sample_configurations(UNIT_13, 500, 62)
    assert cauchy_factor_check(f, S, min_gap=0.05) <= 1e-9


def test_cauchy_detects_non_antisymmetric_mutant():
    mutant = TargetFunction(
        evaluator=lambda X: vandermonde_product(tuple(row[0] for row in X.rows))
        + X.rows[0][0],
        declared_symmetry=Symmetry.ANTISYMMETRIC,
        name="mutant",
    )
    S = sample_configurations(UNIT_13, 200, 63)
    assert cauchy_factor_check(mutant, S, min_gap=0.05) > 1e-3


def test_cauchy_validation():
    S = sample_configurations(UNIT_13, 100, 64)
    with pytest.raises(ValueError):
        cauchy_factor_check(pure_vandermonde(3), S, min_gap=0.0)
    with pytest.raises(ValueError):
        cauchy_factor_check(pure_vandermonde(3), S, min_gap=2.0)  # filters everything
    dom2 = DomainSpec(d=2, N=2, lo=0.0, hi=1.0)
    S2 = sample_configurations(dom2, 10, 65)
    f2 = builtin_target("vandermonde-gauss-antisym")
    with pytest.raises(ValueError):
        cauchy_factor_check(f2, S2, min_gap=0.05)


# ---------------------------------------------------------------- reports


def verify(f, domain, delta, samples, seed, build=build_sym, **build_options):
    S = sample_configurations(domain, samples, seed)
    tab = build(f, LatticeSpec.from_domain(domain, delta), domain.N, **build_options)
    return run_verification(f, tab, S, gradient_bound_estimate(f, S), 8, 0.05)


def test_run_verification_sym_passes():
    report = verify(SUM_12, UNIT_12, 0.25, 2000, 71)
    assert report.kind == "sym"
    assert (report.N, report.d, report.delta, report.samples, report.seed) == (2, 1, 0.25, 2000, 71)
    assert report.passed
    assert report.bound_satisfied
    assert report.sup_error <= report.bound + 1e-12
    assert report.invariance_max_residual == 0.0
    assert report.cauchy_residual is None
    assert {c.name for c in report.checks} >= {
        "target_symmetry_residual",
        "sup_error_within_budget",
        "invariance_residual",
    }


def test_run_verification_antisym_includes_cauchy():
    f = builtin_target("vandermonde-gauss-antisym")
    report = verify(f, UNIT_12, 0.25, 2000, 72, build=build_antisym, mode=MODE_PROJECTED)
    assert report.kind == "antisym-c2"
    assert report.cauchy_residual is not None
    assert report.passed


@pytest.mark.parametrize("name", ["vandermonde-gauss-antisym", "vandermonde-sum-antisym"])
@pytest.mark.parametrize("N, delta", [(3, 1 / 4), (3, 1 / 8), (4, 1 / 4)])
def test_smooth_projected_meets_its_budget(name, N, delta):
    # the paper's construction: a partition of unity times the projected pair
    # product, whose error over an entry's support grows as the entry's
    # smallest pair projection shrinks
    domain = DomainSpec(d=2, N=N, lo=0.0, hi=1.0)
    f = builtin_target(name, {})
    report = verify(
        f, domain, delta, 2000, 3, build=build_antisym, mode=MODE_PROJECTED,
        smooth_width=delta / 4,
    )
    assert report.passed, report.checks


def test_run_verification_rejects_a_tabulator_of_the_other_symmetry():
    antisym = builtin_target("vandermonde-gauss-antisym")
    S = sample_configurations(UNIT_12, 10, 1)
    spec = LatticeSpec.from_domain(UNIT_12, 0.5)
    message = "antisym-c1 tabulator against target 'sum-coords', which is symmetric"
    with pytest.raises(ValueError, match=message):
        run_verification(SUM_12, build_antisym(antisym, spec, 2), S, 1.0, 8, 0.05)
    with pytest.raises(ValueError, match="a sym tabulator .* which is antisymmetric"):
        run_verification(antisym, build_sym(SUM_12, spec, 2), S, 1.0, 8, 0.05)


def test_verification_report_consistency_enforced():
    # the verdicts are derived from the measured values, so they cannot disagree
    report = verify(SUM_12, UNIT_12, 0.5, 200, 74)
    from dataclasses import replace

    assert report.bound_satisfied and report.passed
    assert not replace(report, sup_error=2.0 * report.bound + 1.0).bound_satisfied
    check = report.checks[0]
    assert replace(check, value=check.threshold).passed
    assert not replace(check, value=math.nextafter(check.threshold, math.inf)).passed
    failed = replace(report, checks=(replace(check, threshold=-1.0),) + report.checks[1:])
    assert not failed.passed


def test_run_verification_smooth_mode():
    f = builtin_target("gaussian-pair-sym")
    report = verify(f, UNIT_12, 0.25, 1000, 75, mode=MODE_SMOOTH, smooth_width=0.06)
    assert report.passed
    smooth_check = {c.name: c for c in report.checks}["invariance_residual"]
    assert smooth_check.threshold == 1e-12
