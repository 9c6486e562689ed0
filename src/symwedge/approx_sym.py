"""Tabulated approximation of totally symmetric functions on a lattice wedge.

A tabulator stores f(Z)/C_Z per wedge entry Z, where C_Z is the entry's
repetition constant. Indicator-mode evaluation canonicalizes the input onto
the wedge and returns the stored value times C_Z, which makes permutation
invariance bit-exact. Smooth mode blends corner values with normalized
quintic cutoffs, trading the bit-exact lookup for continuity across cell
faces while keeping constants exact to rounding.

The same table can be evaluated through an explicit feature expansion
(log-sum features over slot subsets, recombined with alternating signs);
that route is the literal sum-of-2^N-features form and is kept as a slow
cross-check of the canonicalized path. Each entry's share of it is a
log-domain Ryser permanent of the cell-indicator matrix A_Z (rows are
points, columns are slots), walked over slot subsets in Gray-code order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import Callable, Iterable, Iterator

from .core import Configuration, Point, Symmetry, TargetFunction, _configuration, _point
from .errors import BuildError, CapacityError
from .lattice import (
    DEFAULT_WEDGE_CAP,
    LatticeIndex,
    LatticeSpec,
    WedgeKey,
    _check_smooth_width,
    cell_of,
    corner_configuration,  # noqa: F401  (unused here; benches/tracing.py wraps this binding)
    enumerate_wedge,
    lattice_sites,
    locate,
    repetition_constant,
    site_weight_support,
    wedge_size,
)
from .permanent import permanent_ryser_logdomain

__all__ = [
    "KIND_SYM",
    "MODE_INDICATOR",
    "MODE_SMOOTH",
    "BuildStats",
    "SymmetricTabulator",
    "FeatureCountReport",
    "build_sym",
    "eval_sym",
    "eval_sym_feature_form",
    "smooth_weights",
    "corner_values",
    "feature_count",
    "feature_budget_bound",
    "epsilon_density_limit",
    "error_budget",
    "delta_for_epsilon",
]

KIND_SYM = "sym"
MODE_INDICATOR = "indicator"
MODE_SMOOTH = "smooth"
DEFAULT_FEATURE_CAP = 10**6


@dataclass(frozen=True)
class BuildStats:
    """The size and regime of a tabulator's lattice wedge.

    ``coarse_lattice`` flags spacings above N^(-1/d), where cells hold more
    than one point on average and the wedge no longer resolves the targets.
    """

    wedge_count: int
    coarse_lattice: bool


def _wedge_stats(spec: LatticeSpec, N: int) -> BuildStats:
    """BuildStats of the N-slot wedge over ``spec``."""
    return BuildStats(wedge_size(spec, N), spec.delta > N ** (-1.0 / spec.d))


@dataclass(frozen=True)
class SymmetricTabulator:
    """A built table for one symmetric target on one lattice.

    ``smooth_width`` None selects indicator evaluation; a width selects the
    smooth blend.
    """

    spec: LatticeSpec
    N: int
    smooth_width: float | None
    table: dict[WedgeKey, float]

    @property
    def kind(self) -> str:
        return KIND_SYM

    @property
    def stats(self) -> BuildStats:
        return _wedge_stats(self.spec, self.N)


def corner_values(
    f: Callable[[Configuration], float], spec: LatticeSpec, entries: Iterable[WedgeKey]
) -> Iterator[tuple[WedgeKey, float]]:
    """Yield (Z, f at Z's cell corners) per entry, in order; a non-finite value raises.

    Each configuration equals ``corner_configuration(spec, zs)``, but its
    Points are built once per lattice site and shared across entries: the
    wedge has C(n^d + N - 1, N) entries over only n^d sites. Corners of a
    valid LatticeSpec are finite, so neither is re-validated. The target is
    still called once per entry.
    """
    corners: dict[LatticeIndex, Point] = {}
    for zs in entries:
        points = []
        for z in zs:
            p = corners.get(z)
            if p is None:
                p = corners[z] = _point(spec.position(z))
            points.append(p)
        value = f(_configuration(tuple(points)))
        if not math.isfinite(value):
            raise BuildError(f"target returned non-finite value {value!r} at Z = {zs}")
        yield zs, value


def build_sym(
    f: TargetFunction,
    spec: LatticeSpec,
    N: int,
    mode: str = MODE_INDICATOR,
    smooth_width: float | None = None,
    cap: int = DEFAULT_WEDGE_CAP,
) -> SymmetricTabulator:
    """Tabulate a symmetric target over the wedge, sampling each entry at its cell corners."""
    if f.declared_symmetry is not Symmetry.SYMMETRIC:
        raise ValueError(
            f"build_sym needs a symmetric target, got {f.declared_symmetry.value!r}"
        )
    if mode == MODE_SMOOTH:
        _check_smooth_width(spec, smooth_width)
    elif mode != MODE_INDICATOR:
        raise ValueError(f"unknown mode {mode!r}")
    elif smooth_width is not None:
        raise ValueError("smooth_width only applies to smooth mode")
    table: dict[WedgeKey, float] = {}
    for zs, value in corner_values(f, spec, enumerate_wedge(spec, N, cap=cap)):
        table[zs] = value / repetition_constant(zs)
    return SymmetricTabulator(spec, N, smooth_width, table)


def _check_eval_input(T, X: Configuration) -> None:
    if X.N != T.N or X.d != T.spec.d:
        raise ValueError(
            f"tabulator expects N = {T.N}, d = {T.spec.d}; got N = {X.N}, d = {X.d}"
        )


def smooth_weights(spec: LatticeSpec, X: Configuration, w: float) -> dict[WedgeKey, float]:
    """Normalized box weights at X: each point spreads unit mass over its
    nearby cells, and products are aggregated per wedge entry. Values sum
    to one, making constants exact under smooth evaluation.

    Points are canonicalized (sorted by coordinates) before aggregation, so
    the result carries no trace of the input ordering.
    """
    pts = sorted(X.points, key=lambda p: p.coords)
    supports = [site_weight_support(spec, p, w) for p in pts]
    weights: dict[WedgeKey, float] = {}
    for combo in product(*supports):
        sites, masses = zip(*combo)
        key = tuple(sorted(sites))
        weights[key] = weights.get(key, 0.0) + math.prod(masses)
    return weights


def eval_sym(T: SymmetricTabulator, X: Configuration) -> float:
    """Evaluate the tabulator.

    Indicator mode locates X and reads only the assignment's ``wedge`` and
    ``repetition`` (its permutation is never built), so the result is a
    function of the wedge entry alone and permutation invariance holds
    bit-for-bit. Smooth mode blends the corner values of nearby entries
    with normalized cutoff weights; the blend is computed on the canonically
    sorted configuration, so it is equally order-blind.
    """
    _check_eval_input(T, X)
    if T.smooth_width is None:
        assignment = locate(T.spec, X)
        return T.table[assignment.wedge] * assignment.repetition
    total = 0.0
    for zs, weight in smooth_weights(T.spec, X, T.smooth_width).items():
        total += weight * (T.table[zs] * repetition_constant(zs))
    return total


def eval_sym_feature_form(T: SymmetricTabulator, X: Configuration) -> float:
    """Evaluate through the explicit feature expansion (indicator mode only).

    This is sum_Z (f(Z)/C_Z) * perm(A_Z), A_Z[i][j] = 1[x_i in cell Z_j] (rows
    are points, columns are slots), by ``permanent_ryser_logdomain``: for each
    slot subset S, in Gray-code order, the feature
    y = sum_i log(#{j in S : x_i lies in cell Z_j}) is pooled over the points,
    and the terms recombine as (-1)^N * sum_S (-1)^|S| exp(y). Only entries
    that hold every point's cell contribute (for the others every subset term
    is an exact zero). They are the points' distinct cells plus any multiset
    of sites in the remaining slots, so they are enumerated directly.
    Adding fixed cells to each filling keeps the fillings' lexicographic
    order, so the sum runs in table order.
    """
    _check_eval_input(T, X)
    if T.smooth_width is not None:
        raise ValueError("feature-form evaluation is defined for indicator mode only")
    m = len(T.table) * (1 << T.N)
    if m > DEFAULT_FEATURE_CAP:
        raise CapacityError(
            f"feature expansion has {m} features, above the cap of {DEFAULT_FEATURE_CAP}"
        )
    cells = [cell_of(T.spec, p) for p in X.points]
    held = sorted(set(cells))
    fills = combinations_with_replacement(lattice_sites(T.spec), T.N - len(held))
    total = 0.0
    for zs in (tuple(sorted(held + list(fill))) for fill in fills):
        A = [[1.0 if c == z else 0.0 for z in zs] for c in cells]
        total += T.table[zs] * permanent_ryser_logdomain(A)
    return total


def epsilon_density_limit(N: int, d: int) -> float:
    """Largest accuracy target the construction supports: above
    sqrt(N*d) * N^(-1/d) the implied spacing would pack more than one point
    per cell on average."""
    return math.sqrt(N * d) * N ** (-1.0 / d)


def feature_budget_bound(N: int, d: int, epsilon: float) -> float:
    """Counting bound 2^N (N*d)^(N*d/2) / (epsilon^(N*d) N!) on the number
    of features needed at accuracy epsilon."""
    nd = N * d
    return 2.0**N * float(nd) ** (nd / 2.0) / (epsilon**nd * math.factorial(N))


@dataclass(frozen=True)
class FeatureCountReport:
    """Actual feature count of a table next to the counting bound.

    The two are reported side by side without reconciling constants; the
    bound ignores domain truncation and the actual count ignores entries
    that could be dropped as negligible.
    """

    wedge_count: int
    per_entry_features: int
    M: int
    epsilon: float
    L: float
    budget_bound: float
    exceeds_budget: bool
    spacing_within_budget: bool


def feature_count(T: SymmetricTabulator, epsilon: float, L: float) -> FeatureCountReport:
    """Feature accounting for a built table at accuracy epsilon and gradient bound L."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if L <= 0.0:
        raise ValueError("gradient bound must be positive")
    N, d = T.N, T.spec.d
    limit = epsilon_density_limit(N, d)
    if epsilon >= limit:
        raise ValueError(
            f"epsilon = {epsilon} is not below the density limit {limit} for N = {N}, d = {d}"
        )
    wedge_count = T.stats.wedge_count
    per_entry = 1 << N
    M = wedge_count * per_entry
    bound = feature_budget_bound(N, d, epsilon)
    return FeatureCountReport(
        wedge_count=wedge_count,
        per_entry_features=per_entry,
        M=M,
        epsilon=epsilon,
        L=L,
        budget_bound=bound,
        exceeds_budget=M > bound,
        spacing_within_budget=T.spec.delta * math.sqrt(N * d) * L <= epsilon,
    )


def error_budget(delta: float, N: int, d: int, L: float) -> float:
    """Worst-case tabulation error delta * sqrt(N*d) * L for spacing delta,
    slot count N, dimension d, and gradient bound L."""
    if delta <= 0.0 or L < 0.0:
        raise ValueError("need delta > 0 and L >= 0")
    if N < 1 or d < 1:
        raise ValueError("N and d must be at least 1")
    return delta * math.sqrt(N * d) * L


def delta_for_epsilon(epsilon: float, N: int, d: int, L: float) -> float:
    """Largest spacing whose error budget meets the accuracy epsilon."""
    if epsilon <= 0.0 or L <= 0.0:
        raise ValueError("epsilon and L must be positive")
    if N < 1 or d < 1:
        raise ValueError("N and d must be at least 1")
    return epsilon / (math.sqrt(N * d) * L)
