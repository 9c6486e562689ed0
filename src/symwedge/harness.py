"""Empirical verification: seeded sampling, measured gradient bounds,
sup-error scans, invariance suites, convergence sweeps.

The harness builds nothing: it measures tabulators a caller builds, taking N,
d and the spacing from them. A non-finite value is a ValueError (``max`` drops NaN).

One invariance pass checks every evaluator it is given (``run_verification``
passes the target and the tabulator) against one set of permuted
configurations. Configurations the harness makes itself (samples, stencil
rows, permuted copies) are built without re-validation: their coordinates are
finite Philox draws or clipped copies of them.

Everything here is deterministic given (seed, inputs). Sampling uses a
counter-based bit generator (Philox) keyed directly by the seed, so sample
sets regenerate bit-identically across runs and machines.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import permutations as _all_permutations
from typing import Callable, Sequence

import numpy as np

from .core import (
    Configuration,
    DomainSpec,
    Permutation,
    Symmetry,
    TargetFunction,
    _configuration,
    _point,
    parity,
    permute,
    vandermonde_product,
)
from .approx_sym import SymmetricTabulator, error_budget, eval_sym
from .approx_sym import build_sym  # noqa: F401  (benches/tracing.py wraps this binding)
from .approx_antisym import eval_antisym
from .approx_antisym import build_antisym  # noqa: F401  (benches/tracing.py wraps this binding)
from .persistence import Tabulator

__all__ = [
    "SampleSet",
    "sample_configurations",
    "gradient_bound_estimate",
    "sup_error",
    "invariance_suite",
    "SweepRow",
    "SweepResult",
    "convergence_sweep",
    "cauchy_factor_check",
    "CheckResult",
    "VerificationReport",
    "run_verification",
    "DEFAULT_FD_STEP_FRACTION",
]

DEFAULT_FD_STEP_FRACTION = 1e-4
BOUND_SLACK = 1e-12
CONSTANT_ERROR_FLOOR = 1e-12
_PERM_SEED_SALT = 0x9E3779B97F4A7C15  # decorrelates permutation draws from sample draws


def _finite(value: float, what: str, k: int) -> float:
    if not math.isfinite(value):
        raise ValueError(f"non-finite {what} {value} at sample {k}")
    return value


@dataclass(frozen=True)
class SampleSet:
    """Configurations drawn i.i.d. uniformly from the domain box."""

    domain: DomainSpec
    seed: int
    configurations: tuple[Configuration, ...]

    @property
    def count(self) -> int:
        return len(self.configurations)


def sample_configurations(domain: DomainSpec, count: int, seed: int) -> SampleSet:
    """Draw ``count`` configurations, deterministic in ``seed``."""
    if count < 1:
        raise ValueError(f"need at least one sample, got {count}")
    if not math.isfinite(domain.span):
        raise ValueError(f"domain [{domain.lo}, {domain.hi}] is too wide to sample")
    rng = np.random.Generator(np.random.Philox(key=seed))
    raw = domain.lo + domain.span * rng.random((count, domain.N, domain.d))
    configurations = tuple(
        _configuration(tuple([_point(tuple(row)) for row in rows])) for rows in raw.tolist()
    )
    return SampleSet(domain=domain, seed=seed, configurations=configurations)


def gradient_bound_estimate(f: Callable[[Configuration], float], S: SampleSet) -> float:
    """Max over samples of the Euclidean norm of the central-difference
    gradient (all N*d slots), with step h = DEFAULT_FD_STEP_FRACTION * span
    and samples clipped to the interior so the stencil stays inside the domain.

    Each sample's N clipped Points are built once; a stencil evaluation
    swaps in a new Point for the one perturbed row only. Stencil rows are
    finite coordinates +- h, so their Points and Configurations are built
    unchecked.
    """
    domain = S.domain
    h = DEFAULT_FD_STEP_FRACTION * domain.span
    lo, hi = domain.lo + h, domain.hi - h
    two_h = 2.0 * h
    best = 0.0
    for X in S.configurations:
        rows = [[min(max(c, lo), hi) for c in p.coords] for p in X.points]
        points = [_point(tuple(row)) for row in rows]
        norm2 = 0.0
        for i, row in enumerate(rows):
            clipped = points[i]
            for a, c in enumerate(row):
                row[a] = c + h
                points[i] = _point(tuple(row))
                up = f(_configuration(tuple(points)))
                row[a] = c - h
                points[i] = _point(tuple(row))
                down = f(_configuration(tuple(points)))
                row[a] = c
                g = (up - down) / two_h
                if not math.isfinite(g):
                    raise ValueError(f"non-finite derivative at slot ({i}, {a})")
                norm2 += g * g
            points[i] = clipped
        best = max(best, math.sqrt(norm2))
    return best


def sup_error(
    f: Callable[[Configuration], float],
    approx: Callable[[Configuration], float],
    S: SampleSet,
) -> tuple[float, Configuration]:
    """Largest sampled |f - approx| and the configuration attaining it."""
    best = -1.0
    arg = S.configurations[0]
    for k, X in enumerate(S.configurations):
        err = abs(_finite(f(X), "target value", k) - _finite(approx(X), "approximation", k))
        if err > best:
            best = err
            arg = X
    return best, arg


def reset_philox(bit_generator: np.random.Philox, key: int) -> None:
    """Put a Philox bit generator in the state ``Philox(key=key)`` starts in.

    Philox is counter based: its stream is a pure function of (key, counter),
    so the draws that follow equal a freshly built generator's, without the
    OS-entropy seeding that every construction pays for.
    """
    if not 0 <= key < 1 << 128:
        raise ValueError("key must be positive and less than 2**128.")
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (key % (1 << 64), key // (1 << 64))},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _random_permutations(
    rng: np.random.Generator, N: int, count: int, seed: int
) -> list[tuple[int, ...]]:
    """Image tuples of ``count`` permutations drawn as from
    ``Generator(Philox(key=seed))``, reusing ``rng`` (a Philox generator)
    instead of building one."""
    reset_philox(rng.bit_generator, seed)
    return [tuple(rng.permutation(N).tolist()) for _ in range(count)]


def invariance_suite(
    evaluators: Sequence[Callable[[Configuration], float]],
    S: SampleSet,
    n_perms: int,
    symmetry: Symmetry,
) -> list[float]:
    """Max residual of the declared permutation law for each evaluator e, over
    random permutations seeded from ``S.seed``: |e(sigma X) - e(X)| for
    symmetric evaluators, |e(sigma X) - sign(sigma) e(X)| for anti-symmetric
    ones. Returns one residual per evaluator, in order.

    The permutations of a sample are drawn once and each permuted
    configuration is built once, through this module's ``permute`` binding,
    for all evaluators; the evaluators are called in order on it. One
    Permutation and its sign are built per distinct draw (at most N!).
    """
    if n_perms < 1:
        raise ValueError("need at least one permutation per sample")
    seed = S.seed ^ _PERM_SEED_SALT
    N = S.domain.N
    rng = np.random.Generator(np.random.Philox(key=0))
    signed: dict[tuple[int, ...], tuple[Permutation, int]] = {}
    worst = [0.0] * len(evaluators)
    for k, X in enumerate(S.configurations):
        bases = [_finite(e(X), "value", k) for e in evaluators]
        # Philox keys lie in [0, 2**128), so the per-sample keys wrap there.
        for images in _random_permutations(rng, N, n_perms, (seed + k) % (1 << 128)):
            if images not in signed:
                sigma = Permutation(images)
                signed[images] = sigma, parity(sigma)
            sigma, sign = signed[images]
            law = 1 if symmetry is Symmetry.SYMMETRIC else sign
            Y = permute(X, sigma)
            for i, e in enumerate(evaluators):
                permuted = _finite(e(Y), "permuted value", k)
                worst[i] = max(worst[i], abs(permuted - law * bases[i]))
    return worst


@dataclass(frozen=True)
class SweepRow:
    delta: float
    sup_error: float
    bound: float
    wedge_count: int
    M: int
    wall_time_s: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    slope: float | None
    gradient_bound: float


def convergence_sweep(
    f: TargetFunction,
    deltas: Sequence[float],
    S: SampleSet,
    build: Callable[[float], Tabulator],
) -> SweepResult:
    """Measure the tabulator ``build(delta)`` returns at each spacing (the
    builder chooses the construction and lattice) and fit the log-log slope
    of the sampled sup error against the spacing.

    Spacings must be given in strictly descending order (at least three).
    Rows at or below the constant-function floor of 1e-12 are excluded from
    the fit; if fewer than two rows remain the slope is undefined.
    """
    deltas = [float(v) for v in deltas]
    if len(deltas) < 3:
        raise ValueError("need at least three spacings")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("spacings must be strictly descending")
    L_hat = gradient_bound_estimate(f, S)
    rows = []
    for delta in deltas:
        start = time.perf_counter()
        tab = build(delta)
        err, _ = sup_error(f, _evaluator(tab)[1], S)
        elapsed = time.perf_counter() - start
        rows.append(
            SweepRow(
                delta=delta,
                sup_error=err,
                bound=error_budget(delta, tab.N, tab.spec.d, L_hat),
                wedge_count=tab.stats.wedge_count,
                M=tab.stats.wedge_count * (1 << tab.N),
                wall_time_s=elapsed,
            )
        )
    fit = [(r.delta, r.sup_error) for r in rows if r.sup_error > CONSTANT_ERROR_FLOOR]
    if len(fit) >= 2:
        xs = np.log([p[0] for p in fit])
        ys = np.log([p[1] for p in fit])
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = None
    return SweepResult(rows=tuple(rows), slope=slope, gradient_bound=L_hat)


def cauchy_factor_check(
    f: Callable[[Configuration], float], S: SampleSet, min_gap: float
) -> float:
    """For d = 1 anti-symmetric targets: divide out the pair-difference
    product and measure how far the quotient is from permutation invariance,
    over samples whose points are pairwise at least min_gap apart."""
    if S.domain.d != 1:
        raise ValueError("the factor check is defined for d = 1 only")
    if min_gap <= 0.0:
        raise ValueError("min_gap must be positive")
    kept = []
    for k, X in enumerate(S.configurations):
        xs = [p.coords[0] for p in X.points]
        gap = min(
            (abs(a - b) for i, a in enumerate(xs) for b in xs[i + 1 :]),
            default=math.inf,
        )
        if gap >= min_gap:
            kept.append((k, X, xs))
    if not kept:
        raise ValueError(f"no sample is diagonal-free at min_gap = {min_gap}")
    N = S.domain.N
    perms = [Permutation(p) for p in _all_permutations(range(N))]
    worst = 0.0
    for k, X, xs in kept:
        base = f(X) / vandermonde_product(xs)
        for sigma in perms:
            Y = permute(X, sigma)
            quotient = f(Y) / vandermonde_product([p.coords[0] for p in Y.points])
            worst = max(worst, _finite(abs(quotient - base), "quotient residual", k))
    return worst


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.value <= self.threshold


@dataclass(frozen=True)
class VerificationReport:
    """Everything one verification run measured; the verdicts are derived."""

    target: str
    kind: str
    d: int
    N: int
    delta: float
    samples: int
    seed: int
    gradient_bound: float
    sup_error: float
    argmax_configuration: Configuration
    bound: float
    invariance_max_residual: float
    cauchy_residual: float | None
    checks: tuple[CheckResult, ...]

    @property
    def bound_satisfied(self) -> bool:
        return self.sup_error <= self.bound + BOUND_SLACK

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _evaluator(tab: Tabulator) -> tuple[Symmetry, Callable[[Configuration], float]]:
    """The law ``tab`` obeys, and its evaluator through this module's bindings."""
    if isinstance(tab, SymmetricTabulator):
        return Symmetry.SYMMETRIC, lambda X: eval_sym(tab, X)
    return Symmetry.ANTISYMMETRIC, lambda X: eval_antisym(tab, X)


def run_verification(
    f: TargetFunction,
    tab: Tabulator,
    S: SampleSet,
    gradient_bound: float,
    n_perms: int,
    min_gap: float,
) -> VerificationReport:
    """Run the full measurement suite on a built tabulator of ``f`` over ``S``.

    ``gradient_bound`` is the bound measured on ``S``; the error budget is
    tab.spec.delta * sqrt(N d) * gradient_bound. The invariance threshold is
    0 for an indicator tabulator and 1e-12 for a smooth one; both invariance
    checks draw ``n_perms`` permutations per sample. The Cauchy check runs
    for anti-symmetric tabulators in d = 1, over the samples whose points are
    at least ``min_gap`` apart. Raises ValueError when the tabulator's
    symmetry differs from ``f.declared_symmetry``.
    """
    symmetry, approx = _evaluator(tab)
    if f.declared_symmetry is not symmetry:
        raise ValueError(
            f"cannot verify a {tab.kind} tabulator against target {f.name!r}, "
            f"which is {f.declared_symmetry.value}"
        )
    N, d, delta = tab.N, tab.spec.d, tab.spec.delta

    scale = 1.0
    for k, X in enumerate(S.configurations):
        scale = max(scale, abs(_finite(f(X), "target value", k)))
    sup, arg = sup_error(f, approx, S)
    budget = error_budget(delta, N, d, gradient_bound)
    target_residual, invariance = invariance_suite((f, approx), S, n_perms, symmetry)
    target_residual /= scale
    cauchy = None
    if symmetry is Symmetry.ANTISYMMETRIC and d == 1:
        cauchy = cauchy_factor_check(f, S, min_gap)

    invariance_threshold = 0.0 if tab.smooth_width is None else 1e-12
    checks = [
        CheckResult("target_symmetry_residual", target_residual, 1e-12),
        CheckResult("sup_error_within_budget", sup, budget + BOUND_SLACK),
        CheckResult("invariance_residual", invariance, invariance_threshold),
    ]
    if cauchy is not None:
        checks.append(CheckResult("cauchy_factor_residual", cauchy, 1e-9))

    return VerificationReport(
        target=f.name,
        kind=tab.kind,
        d=d,
        N=N,
        delta=delta,
        samples=S.count,
        seed=S.seed,
        gradient_bound=gradient_bound,
        sup_error=sup,
        argmax_configuration=arg,
        bound=budget,
        invariance_max_residual=invariance,
        cauchy_residual=cauchy,
        checks=tuple(checks),
    )
