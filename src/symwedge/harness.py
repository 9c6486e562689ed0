"""Empirical verification: seeded sampling, measured gradient bounds,
sup-error scans, invariance suites, convergence sweeps.

The harness builds nothing: it measures tabulators a caller builds, taking N,
d and the spacing from them. A non-finite value is a ValueError (``max`` drops
NaN) that names the same sample, slot and value a one-at-a-time scan would.

Samples stay one (count, N, d) array, and the invariance pass's permutation
draws are rows of (rows, N) index arrays, signed all at once by
``core._inversion_signs``. The harness evaluates an evaluator on
arrays of rows: the samples, the gradient stencil's 2*N*d shifted copies of
each sample, and the permuted copies P[rows, images] of the invariance pass
and the Cauchy check. An evaluator with a ``batch`` (every builtin target,
and the indicator tabulators through ``eval_sym_batch`` and
``eval_antisym_batch``) takes each array in one call; any other is called
once per row, on a Configuration built from the row without re-validation
(its coordinates are finite Philox draws, or clipped or permuted copies of
them). Every array holds at most about _BLOCK rows, so memory stays bounded
however many samples there are. One invariance pass checks every evaluator
it is given (``run_verification`` passes the target and the tabulator)
against one set of permuted copies.

Everything here is deterministic given (seed, inputs). Sampling uses a
counter-based bit generator (Philox) keyed directly by the seed, so sample
sets regenerate bit-identically across runs and machines.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from itertools import permutations as _all_permutations
from typing import Callable, Sequence

import numpy as np

from .core import (
    Configuration,
    DomainSpec,
    Symmetry,
    TargetFunction,
    _configuration,
    _inversion_signs,
    _point,
    _vandermonde_products,
)
from .core import permute  # noqa: F401  (benches/tracing.py wraps this binding)
from .approx_sym import SymmetricTabulator, error_budget, eval_sym, eval_sym_batch
from .approx_sym import build_sym  # noqa: F401  (benches/tracing.py wraps this binding)
from .approx_antisym import eval_antisym, eval_antisym_batch
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
    "sweep_csv_text",
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
# Rows per evaluation array: it sizes every block of samples, stencil rows or
# permuted copies the harness makes.
_BLOCK = 4096


def _raise_first_non_finite(values: np.ndarray, what: str, samples: Sequence[int]) -> None:
    """Raise ValueError for the first non-finite element of ``values`` (in C
    order), naming ``what`` and its row's sample: row r (axis 0) holds
    values of sample ``samples[r]``."""
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        value = float(values.reshape(-1)[bad[0]])
        k = samples[int(bad[0]) // (values.size // len(values))]
        raise ValueError(f"non-finite {what} {value} at sample {k}")


def _configurations(rows: np.ndarray) -> tuple[Configuration, ...]:
    """One Configuration per row of a (B, N, d) array of finite coordinates,
    built without the checks."""
    return tuple(
        _configuration(tuple([_point(tuple(point)) for point in points]))
        for points in rows.tolist()
    )


def _evaluate(e: Callable[[Configuration], float], P: np.ndarray) -> np.ndarray:
    """e on each row of P (B, N, d), in order: one call of ``e.batch`` when
    e has one, else one call of e per row."""
    batch = getattr(e, "batch", None)
    if batch is not None:
        return batch(P)
    return np.fromiter(map(e, _configurations(P)), dtype=np.float64, count=len(P))


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Configurations drawn i.i.d. uniformly from the domain box, as the
    read-only (count, N, d) array ``points``."""

    domain: DomainSpec
    seed: int
    points: np.ndarray

    @property
    def count(self) -> int:
        return len(self.points)


def sample_configurations(domain: DomainSpec, count: int, seed: int) -> SampleSet:
    """Draw ``count`` configurations, deterministic in ``seed``."""
    if count < 1:
        raise ValueError(f"need at least one sample, got {count}")
    if not math.isfinite(domain.span):
        raise ValueError(f"domain [{domain.lo}, {domain.hi}] is too wide to sample")
    rng = np.random.Generator(np.random.Philox(key=seed))
    points = domain.lo + domain.span * rng.random((count, domain.N, domain.d))
    points.setflags(write=False)
    return SampleSet(domain=domain, seed=seed, points=points)


def gradient_bound_estimate(f: Callable[[Configuration], float], S: SampleSet) -> float:
    """Max over samples of the Euclidean norm of the central-difference
    gradient (all N*d slots), with step h = DEFAULT_FD_STEP_FRACTION * span
    and samples clipped to the interior so the stencil stays inside the domain.

    Each block of samples is clipped once, and f is evaluated on its stencil:
    per sample and slot (i, a) in order, the clipped sample with coordinate
    (i, a) moved up by h, then down by h. The first non-finite derivative,
    in sample and then slot order, raises ValueError naming its slot.
    """
    domain = S.domain
    N, d = domain.N, domain.d
    h = DEFAULT_FD_STEP_FRACTION * domain.span
    lo, hi = domain.lo + h, domain.hi - h
    two_h = 2.0 * h
    slots = N * d
    per = max(1, _BLOCK // (2 * slots))
    best = 0.0
    for start in range(0, S.count, per):
        X = np.minimum(np.maximum(S.points[start : start + per], lo), hi)
        B = len(X)
        stencil = np.repeat(X[:, None], 2 * slots, axis=1)  # (B, slot and side, N, d)
        for s in range(slots):
            i, a = divmod(s, d)
            stencil[:, 2 * s, i, a] = X[:, i, a] + h
            stencil[:, 2 * s + 1, i, a] = X[:, i, a] - h
        values = _evaluate(f, stencil.reshape(-1, N, d)).reshape(B, slots, 2)
        g = (values[:, :, 0] - values[:, :, 1]) / two_h
        bad = np.flatnonzero(~np.isfinite(g))
        if len(bad):
            i, a = divmod(int(bad[0]) % slots, d)
            raise ValueError(f"non-finite derivative at slot ({i}, {a})")
        norm2 = np.zeros(B)
        for s in range(slots):
            norm2 += g[:, s] * g[:, s]
        best = max(best, float(np.sqrt(norm2).max()))
    return best


def _values(e: Callable[[Configuration], float], S: SampleSet, what: str) -> np.ndarray:
    """e on every sample, in order, as a (count,) array; the first
    non-finite value raises, naming ``what`` and the sample."""
    values = np.concatenate(
        [_evaluate(e, S.points[start : start + _BLOCK]) for start in range(0, S.count, _BLOCK)]
    )
    _raise_first_non_finite(values, what, range(S.count))
    return values


def sup_error(
    target_values: Sequence[float], approx_values: Sequence[float], S: SampleSet
) -> tuple[float, Configuration]:
    """Largest sampled |f - approx| and the configuration attaining it (the
    first, on a tie), from the values of the target and of the approximation
    on each sample of S, in order. The first sample with a non-finite value
    raises, naming the target's value before the approximation's."""
    target = np.asarray(target_values, dtype=np.float64)
    approx = np.asarray(approx_values, dtype=np.float64)
    bad = np.flatnonzero(~(np.isfinite(target) & np.isfinite(approx)))
    if len(bad):
        k = bad[:1]
        _raise_first_non_finite(target[k], "target value", k)
        _raise_first_non_finite(approx[k], "approximation", k)
    err = np.abs(target - approx)
    k = int(np.argmax(err))
    return float(err[k]), _configurations(S.points[k : k + 1])[0]


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


def _random_permutations(rng: np.random.Generator, N: int, count: int, seed: int) -> np.ndarray:
    """The images of ``count`` permutations drawn as from
    ``Generator(Philox(key=seed))``, as the rows of a (count, N) intp array,
    reusing ``rng`` (a Philox generator) instead of building one."""
    reset_philox(rng.bit_generator, seed)
    return np.array([rng.permutation(N) for _ in range(count)], dtype=np.intp).reshape(count, N)


def invariance_suite(
    evaluators: Sequence[Callable[[Configuration], float]],
    S: SampleSet,
    n_perms: int,
    symmetry: Symmetry,
    bases: Sequence[Sequence[float]] | None = None,
) -> list[float]:
    """Max residual of the declared permutation law for each evaluator e, over
    random permutations seeded from ``S.seed``: |e(sigma X) - e(X)| for
    symmetric evaluators, |e(sigma X) - sign(sigma) e(X)| for anti-symmetric
    ones. Returns one residual per evaluator, in order.

    The permutations of a sample are drawn once. A block of samples' draws
    form one (rows, N) index array: it gathers their permuted copies
    P[rows, images] into one array that each evaluator takes in one
    evaluation, and ``_inversion_signs`` of it gives every draw's sign by
    ``parity``'s rule. ``bases``, when given, holds each evaluator's values
    on the samples, already checked finite; they stand in for evaluating e
    on the samples. The first sample with a non-finite value
    raises ValueError: its values, evaluator by evaluator, before its permuted
    values, draw by draw.
    """
    if n_perms < 1:
        raise ValueError("need at least one permutation per sample")
    seed = S.seed ^ _PERM_SEED_SALT
    N = S.domain.N
    rng = np.random.Generator(np.random.Philox(key=0))
    antisymmetric = symmetry is Symmetry.ANTISYMMETRIC
    worst = [0.0] * len(evaluators)
    per = max(1, _BLOCK // n_perms)
    for start in range(0, S.count, per):
        X = S.points[start : start + per]
        B = len(X)
        samples = range(start, start + B)
        # Philox keys lie in [0, 2**128), so the per-sample keys wrap there.
        images = np.concatenate(
            [_random_permutations(rng, N, n_perms, (seed + k) % (1 << 128)) for k in samples]
        )
        Y = X[np.repeat(np.arange(B), n_perms)[:, None], images]
        law = _inversion_signs(images).reshape(B, n_perms) if antisymmetric else 1.0
        if bases is None:
            base = np.stack([_evaluate(e, X) for e in evaluators], axis=1)
        else:
            base = np.stack([np.asarray(v[start : start + B]) for v in bases], axis=1)
        permuted = np.stack([_evaluate(e, Y) for e in evaluators], axis=1)
        permuted = permuted.reshape(B, n_perms, len(evaluators))
        bad = ~(np.isfinite(base).all(axis=1) & np.isfinite(permuted).all(axis=(1, 2)))
        if bad.any():
            k = int(np.argmax(bad))
            _raise_first_non_finite(base[k : k + 1], "value", samples[k:])
            _raise_first_non_finite(permuted[k : k + 1], "permuted value", samples[k:])
        for i in range(len(evaluators)):
            residual = np.abs(permuted[:, :, i] - law * base[:, i : i + 1])
            worst[i] = max(worst[i], float(residual.max()))
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
    of the sampled sup error against the spacing. The target is evaluated on
    the samples once, after the first build.

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
    values = None
    for delta in deltas:
        start = time.perf_counter()
        tab = build(delta)
        if values is None:
            values = _values(f, S, "target value")
        err, _ = sup_error(values, _values(_evaluator(tab)[1], S, "approximation"), S)
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
    xs, ys = np.log(np.reshape(fit, (-1, 2))).T
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(fit) >= 2 else None
    return SweepResult(rows=tuple(rows), slope=slope, gradient_bound=L_hat)


def sweep_csv_text(result: SweepResult, wall_times: bool) -> str:
    """``result`` as plot-ready CSV text: a header, a row per spacing (its
    wall time 0.0 unless ``wall_times``, so reruns are byte-identical) and a
    last ``# slope=`` line, each float as its repr."""
    lines = ["delta,sup_error,bound,wedge_count,M,wall_time_s"]
    for r in result.rows:
        wall = r.wall_time_s if wall_times else 0.0
        lines.append(f"{r.delta!r},{r.sup_error!r},{r.bound!r},{r.wedge_count},{r.M},{wall!r}")
    lines.append(f"# slope={'undefined' if result.slope is None else repr(result.slope)}")
    return "\n".join(lines) + "\n"


def cauchy_factor_check(
    f: Callable[[Configuration], float], S: SampleSet, min_gap: float
) -> float:
    """For d = 1 anti-symmetric targets: divide out the pair-difference
    product and measure how far the quotient is from permutation invariance,
    over samples whose points are pairwise at least min_gap apart.

    Each kept sample's quotient f(X)/V(X) is evaluated once, and then on its
    N! - 1 other permutations, a block of samples stacked at a time. The
    identity's residual |base - base| is formed without evaluating f: it is
    0, or NaN for a non-finite base. The first non-finite residual, in sample
    and then ``itertools.permutations`` order, raises ValueError.
    """
    if S.domain.d != 1:
        raise ValueError("the factor check is defined for d = 1 only")
    if min_gap <= 0.0:
        raise ValueError("min_gap must be positive")
    N = S.domain.N
    xs = S.points[:, :, 0]
    gap = np.full(S.count, math.inf)
    for i in range(N):
        for j in range(i + 1, N):
            gap = np.minimum(gap, np.abs(xs[:, i] - xs[:, j]))
    kept = np.flatnonzero(gap >= min_gap)
    if not len(kept):
        raise ValueError(f"no sample is diagonal-free at min_gap = {min_gap}")
    # itertools.permutations lists the identity first.
    others = np.array(list(_all_permutations(range(N)))[1:], dtype=np.intp).reshape(-1, N)
    per = max(1, _BLOCK // (len(others) + 1))
    worst = 0.0
    for start in range(0, len(kept), per):
        rows = kept[start : start + per]
        X = S.points[rows]
        B = len(X)
        base = _evaluate(f, X) / _vandermonde_products(X[:, :, 0])
        residual = np.empty((B, len(others) + 1))
        residual[:, 0] = np.abs(base - base)
        if len(others):
            Y = X[np.repeat(np.arange(B), len(others))[:, None], np.tile(others, (B, 1))]
            quotient = _evaluate(f, Y) / _vandermonde_products(Y[:, :, 0])
            residual[:, 1:] = np.abs(quotient.reshape(B, len(others)) - base[:, None])
        _raise_first_non_finite(residual, "quotient residual", rows)
        worst = max(worst, float(residual.max()))
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


def _evaluator(tab: Tabulator) -> tuple[Symmetry, TargetFunction]:
    """The law ``tab`` obeys, and its evaluator through this module's
    bindings: an indicator tabulator's batch is ``eval_sym_batch``'s or
    ``eval_antisym_batch``'s, and a smooth one is evaluated once per row."""
    indicator = tab.smooth_width is None
    if isinstance(tab, SymmetricTabulator):
        symmetry, scalar = Symmetry.SYMMETRIC, lambda X: eval_sym(tab, X)
        batch = partial(eval_sym_batch, tab) if indicator else None
    else:
        symmetry, scalar = Symmetry.ANTISYMMETRIC, lambda X: eval_antisym(tab, X)
        batch = partial(eval_antisym_batch, tab) if indicator else None
    return symmetry, TargetFunction(scalar, symmetry, name=tab.kind, batch=batch)


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

    # The target and the approximation are each evaluated once on each sample.
    values = _values(f, S, "target value")
    approx_values = _values(approx, S, "approximation")
    scale = max(1.0, float(np.abs(values).max()))
    sup, arg = sup_error(values, approx_values, S)
    budget = error_budget(delta, N, d, gradient_bound)
    target_residual, invariance = invariance_suite(
        (f, approx), S, n_perms, symmetry, bases=(values, approx_values)
    )
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
