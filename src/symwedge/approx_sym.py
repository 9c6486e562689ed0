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
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import combinations_with_replacement
from operator import getitem
from typing import Iterator

import numpy as np

from .core import Configuration, Symmetry, TargetFunction
from .errors import BuildError, CapacityError
from .lattice import (
    DEFAULT_WEDGE_CAP,
    LatticeSpec,
    Wedge,
    _check_smooth_width,
    _check_wedge_cap,
    _located,
    _repetition_constants,
    _site_index,
    _wedge_of,
    corner_configuration,  # noqa: F401  (unused here; benches/tracing.py wraps this binding)
    enumerate_wedge,  # noqa: F401  (unused here; benches/tracing.py wraps this binding)
    locate,
    repetition_constant,
    site_weight_support,
    wedge_size,
)
from .permanent import permanent_ryser_logdomain

KIND_SYM = "sym"
MODE_INDICATOR = "indicator"
MODE_SMOOTH = "smooth"
DEFAULT_FEATURE_CAP = 10**6
# The most points a sym tabulator holds: 171!, the repetition constant of an
# entry with every point in one site, is past the largest float.
_MAX_SYM_N = 170
# Wedge entries per target batch in corner_values; it sizes the (rows, N, d)
# corner array a batch is given.
_CORNER_CHUNK = 4096


@dataclass(frozen=True)
class BuildStats:
    """The size and regime of a tabulator's N-slot lattice wedge.

    ``coarse_lattice`` flags spacings above N^(-1/d), where cells hold more
    than one point on average and the wedge no longer resolves the targets.
    """

    wedge_count: int
    N: int
    coarse_lattice: bool

    @property
    def M(self) -> int:
        """The feature count wedge_count * 2^N (2^N corner features per entry),
        made only when asked for: a one-entry wedge may have any N."""
        return self.wedge_count << self.N


def _wedge_stats(spec: LatticeSpec, N: int) -> BuildStats:
    """BuildStats of the N-slot wedge over ``spec``."""
    return BuildStats(wedge_size(spec, N), N, spec.delta > N ** (-1.0 / spec.d))


def _frozen(name: str, array: np.ndarray, shape: tuple[int, ...]) -> None:
    """Check that a tabulator's ``name`` is a float64 array of ``shape`` with
    finite values, and make it read-only in place (no copy)."""
    is_array = isinstance(array, np.ndarray)
    if not (is_array and array.dtype == np.float64 and array.shape == shape):
        found = f"{array.dtype} array of shape {array.shape}" if is_array else type(array).__name__
        raise ValueError(f"{name} must be a float64 array of shape {shape}, found {found}")
    finite = np.isfinite(array)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"{name} row {k} is not finite: {array[k].tolist()}")
    array.setflags(write=False)


def _tabulator_eq(self, other) -> bool:
    """``==`` of two tabulators of one type, field by field, arrays by their
    shape and bits: -0.0 and 0.0 differ."""
    if type(other) is not type(self):
        return NotImplemented

    def value(tab, name):
        v = getattr(tab, name)
        return (v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v

    return all(value(self, f.name) == value(other, f.name) for f in fields(self))


@dataclass(frozen=True)
class SymmetricTabulator:
    """A built table for one symmetric target on one lattice.

    ``table`` holds f(Z)/C_Z for every wedge entry Z, as a read-only (K,)
    float64 array in the entries' lexicographic order, so an entry's rank is
    its row. ``smooth_width`` None selects indicator evaluation; a width
    (0 < w <= delta/2) selects the smooth blend. N is at most _MAX_SYM_N.
    The constructor makes the array it is given read-only, without copying it.
    """

    spec: LatticeSpec
    N: int
    smooth_width: float | None
    table: np.ndarray

    def __post_init__(self) -> None:
        if self.N > _MAX_SYM_N:
            raise ValueError(f"a sym tabulator holds at most N = {_MAX_SYM_N}, not N = {self.N}")
        if self.smooth_width is not None:
            _check_smooth_width(self.spec, self.smooth_width)
        _frozen("table", self.table, (wedge_size(self.spec, self.N),))

    __eq__ = _tabulator_eq

    @cached_property
    def _wedge(self) -> Wedge:  # whose entries are the table's rows
        return _wedge_of(self.spec, self.N, False)

    @property
    def kind(self) -> str:
        return KIND_SYM

    @property
    def stats(self) -> BuildStats:
        return _wedge_stats(self.spec, self.N)


def _non_finite(value: float, index: np.ndarray, row: np.ndarray) -> BuildError:
    zs = tuple(map(tuple, index[row].tolist()))
    return BuildError(f"target returned non-finite value {float(value)!r} at Z = {zs}")


def _corner_chunks(
    spec: LatticeSpec, index: np.ndarray, num: np.ndarray
) -> Iterator[tuple[slice, np.ndarray]]:
    """The rows of ``num`` (K, N) in chunks of at most _CORNER_CHUNK, each as
    (its slice, the (rows, N, d) lower corners of its sites). Each site's
    corner is one fixed-width item, so a chunk's corners are one gather of
    rows * N items rather than one fancy index per coordinate."""
    positions = spec.origin + index * spec.delta
    items = positions.view(f"V{8 * spec.d}")[:, 0]
    for start in range(0, len(num), _CORNER_CHUNK):
        rows = num[start : start + _CORNER_CHUNK]
        corners = items[rows].view(np.float64).reshape(*rows.shape, spec.d)
        yield slice(start, start + len(rows)), corners


def corner_values(f: TargetFunction, spec: LatticeSpec, num: np.ndarray) -> np.ndarray:
    """f at the cell corners of each wedge entry, as a (K,) array. Row k of
    ``num`` (K, N) holds entry k's site numbers (indices in ``lattice_sites``
    order), and point i of its corner configuration is the lower corner of
    site num[k, i]: ``corner_configuration`` of the entry. The first entry
    with a non-finite value raises BuildError.

    The corners are gathered for at most _CORNER_CHUNK entries at a time, as
    a (rows, N, d) array. A target with a ``batch`` is given that array; any
    other target is called once per entry, in order, on the Configuration of
    the entry's corner rows, and no further after a non-finite value.
    """
    index = _site_index(spec)
    values = np.empty(len(num))
    for part, corners in _corner_chunks(spec, index, num):
        chunk = values[part]
        if f.batch is not None:
            chunk[:] = f.batch(corners)
        else:
            for k, rows in enumerate(corners.tolist()):
                value = chunk[k] = f(Configuration(rows))
                if not math.isfinite(value):
                    break  # the rows after k are unset; the scan below meets k first
        bad = np.flatnonzero(~np.isfinite(chunk))
        if len(bad):
            raise _non_finite(chunk[bad[0]], index, num[part][bad[0]])
    return values


def build_sym(
    f: TargetFunction,
    spec: LatticeSpec,
    N: int,
    mode: str = MODE_INDICATOR,
    smooth_width: float | None = None,
    cap: int = DEFAULT_WEDGE_CAP,
) -> SymmetricTabulator:
    """Tabulate a symmetric target over the wedge, sampling each entry at its
    cell corners through ``corner_values`` and storing f(Z)/C_Z. The entries
    are made as site-number rows in key order, whose runs give each C_Z."""
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
    if N > _MAX_SYM_N:
        raise CapacityError(
            f"a sym tabulator holds at most N = {_MAX_SYM_N} points, not N = {N}: the "
            "repetition constant N! of its entry with every point in one site is not a float"
        )
    _check_wedge_cap(spec, N, cap)
    wedge = _wedge_of(spec, N, False)
    num = wedge.rows(0, wedge.size)
    return SymmetricTabulator(
        spec, N, smooth_width, corner_values(f, spec, num) / _repetition_constants(num)
    )


def _check_eval_input(T, X: Configuration) -> None:
    if X.N != T.N or X.d != T.spec.d:
        raise ValueError(
            f"tabulator expects N = {T.N}, d = {T.spec.d}; got N = {X.N}, d = {X.d}"
        )


def smooth_weights(spec: LatticeSpec, X: Configuration, w: float) -> dict[tuple[int, ...], float]:
    """Normalized box weights at X: each point spreads unit mass over its
    nearby cells (``site_weight_support``), and products are aggregated per
    wedge entry, keyed by the entry's non-decreasing tuple of site numbers
    (positions in ``lattice_sites`` order). Values sum to one to rounding,
    so smooth evaluation reproduces constants to rounding.

    Points are canonicalized (sorted by coordinates) before aggregation, so
    the result carries no trace of the input ordering. Keys are inserted in
    the order ``itertools.product`` makes the sorted points' combinations.
    """
    pts = sorted(X.rows)
    *first, last = [site_weight_support(spec, p, w) for p in pts]
    # Combinations in itertools.product order, each mass a left-to-right product.
    combos = [((), 1.0)]
    for support in first:
        combos = [(sites + (site,), mass * m) for sites, mass in combos for site, m in support]
    weights: dict[tuple[int, ...], float] = {}
    for sites, mass in combos:
        for site, m in last:
            key = tuple(sorted(sites + (site,)))
            weights[key] = weights.get(key, 0.0) + mass * m
    return weights


def eval_sym(T: SymmetricTabulator, X: Configuration) -> float:
    """Evaluate the tabulator.

    Indicator mode locates X and reads only the assignment's ``sites`` and
    ``repetition`` (its permutation is never built), so the result is a
    function of the wedge entry alone and permutation invariance holds
    bit-for-bit. Smooth mode blends the corner values of nearby entries
    with normalized cutoff weights; the blend is computed on the canonically
    sorted configuration, so it is equally order-blind. Both paths key an
    entry by its sorted site numbers, which index the rank lists directly.
    """
    _check_eval_input(T, X)
    if T.smooth_width is None:
        assignment = locate(T.spec, X)
        k = sum(map(getitem, T._wedge.lists, assignment.sites))
        return T.table.item(k) * assignment.repetition
    columns = T._wedge.lists
    stored = T.table.item
    N = T.N
    total = 0.0
    for key, weight in smooth_weights(T.spec, X, T.smooth_width).items():
        value = stored(sum(map(getitem, columns, key)))
        if len(set(key)) < N:  # a key of distinct sites has C_Z = 1
            value *= repetition_constant(key)
        total += weight * value
    return total


def _check_batch_input(T, P: np.ndarray) -> None:
    """The batch evals take an indicator tabulator and a (B, N, d) array."""
    if T.smooth_width is not None:
        raise ValueError("batch evaluation is defined for indicator tabulators only")
    if P.ndim != 3 or P.shape[1:] != (T.N, T.spec.d):
        raise ValueError(
            f"tabulator expects (B, N, d) = (B, {T.N}, {T.spec.d}) arrays; got shape {P.shape}"
        )


def eval_sym_batch(T: SymmetricTabulator, P: np.ndarray) -> np.ndarray:
    """``eval_sym`` of an indicator tabulator on each row of P (B, N, d), as
    a (B,) array equal to it bit for bit: each row's cells are found by the
    same rule, and its entry's stored value is gathered by the entry's
    lexicographic rank and multiplied by the same repetition constant. The
    first row with a coordinate outside the box raises ``locate``'s
    DomainError."""
    _check_batch_input(T, P)
    num, _ = _located(T.spec, P)
    return T.table[T._wedge.rank(num)] * _repetition_constants(num)


def eval_sym_feature_form(T: SymmetricTabulator, X: Configuration) -> float:
    """Evaluate through the explicit feature expansion (indicator mode only).

    This is sum_Z (f(Z)/C_Z) * perm(A_Z), A_Z[i][j] = 1[x_i in cell Z_j] (rows
    are points, columns are slots), by ``permanent_ryser_logdomain``: for each
    slot subset S, in Gray-code order, the feature
    y = sum_i log(#{j in S : x_i lies in cell Z_j}) is pooled over the points,
    and the terms recombine as (-1)^N * sum_S (-1)^|S| exp(y). Only entries
    that hold every point's cell contribute (for the others every subset term
    is an exact zero). They are the points' distinct cells plus any multiset
    of sites in the remaining slots, so they are enumerated directly, as
    sorted site numbers from one ``locate``. Adding fixed cells to each
    filling keeps the fillings' lexicographic order, so the sum runs in
    table order.
    """
    _check_eval_input(T, X)
    if T.smooth_width is not None:
        raise ValueError("feature-form evaluation is defined for indicator mode only")
    m = len(T.table) * (1 << T.N)
    if m > DEFAULT_FEATURE_CAP:
        raise CapacityError(
            f"feature expansion has {m} features, above the cap of {DEFAULT_FEATURE_CAP}"
        )
    assignment = locate(T.spec, X)
    # each point's site number, in input order: A's rows are the points'
    cells = [site for _, site in sorted(zip(assignment.order, assignment.sites))]
    held = sorted(set(cells))
    fills = combinations_with_replacement(range(T.spec.site_count), T.N - len(held))
    columns = T._wedge.lists
    total = 0.0
    for zs in (tuple(sorted(held + list(fill))) for fill in fills):
        A = [[1.0 if c == z else 0.0 for z in zs] for c in cells]
        total += T.table.item(sum(map(getitem, columns, zs))) * permanent_ryser_logdomain(A)
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
    stats = T.stats
    bound = feature_budget_bound(N, d, epsilon)
    return FeatureCountReport(
        wedge_count=stats.wedge_count,
        per_entry_features=stats.M // stats.wedge_count,
        M=stats.M,
        epsilon=epsilon,
        L=L,
        budget_bound=bound,
        exceeds_budget=stats.M > bound,
        spacing_within_budget=error_budget(T.spec.delta, N, d, L) <= epsilon,
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
