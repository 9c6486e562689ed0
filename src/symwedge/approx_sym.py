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
from itertools import combinations_with_replacement, product
from operator import getitem

import numpy as np

from .core import Configuration, Symmetry, TargetFunction, _configuration, _point
from .errors import BuildError, CapacityError, DomainError
from .lattice import (
    DEFAULT_WEDGE_CAP,
    LatticeIndex,
    LatticeSpec,
    WedgeKey,
    _check_smooth_width,
    _check_wedge_cap,
    cell_of,
    corner_configuration,  # noqa: F401  (unused here; benches/tracing.py wraps this binding)
    enumerate_wedge,  # noqa: F401  (unused here; benches/tracing.py wraps this binding)
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
    "eval_sym_batch",
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
# Wedge entries per target batch in corner_values; it sizes the (rows, N, d)
# corner array a batch is given.
_CORNER_CHUNK = 4096


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


def _frozen(name: str, array: np.ndarray, shape: tuple[int, ...]) -> None:
    """Check that a tabulator's ``name`` is a float64 array of ``shape``, and
    make it read-only in place (no copy)."""
    is_array = isinstance(array, np.ndarray)
    if not (is_array and array.dtype == np.float64 and array.shape == shape):
        found = f"{array.dtype} array of shape {array.shape}" if is_array else type(array).__name__
        raise ValueError(f"{name} must be a float64 array of shape {shape}, found {found}")
    array.setflags(write=False)


def _tabulator_eq(self, other) -> bool:
    """``==`` of two tabulators of one type, field by field, arrays by their
    shape and bits: -0.0 and 0.0 differ, and a NaN equals itself."""
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
    (0 < w <= delta/2) selects the smooth blend. The constructor makes the
    array it is given read-only, without copying it.
    """

    spec: LatticeSpec
    N: int
    smooth_width: float | None
    table: np.ndarray

    def __post_init__(self) -> None:
        if self.smooth_width is not None:
            _check_smooth_width(self.spec, self.smooth_width)
        _frozen("table", self.table, (wedge_size(self.spec, self.N),))

    __eq__ = _tabulator_eq

    @cached_property
    def _rank_cols(self) -> list[dict[LatticeIndex, int]]:  # made on the first scalar eval
        return _rank_columns(self.spec, self.N, strict=False)

    @property
    def kind(self) -> str:
        return KIND_SYM

    @property
    def stats(self) -> BuildStats:
        return _wedge_stats(self.spec, self.N)


def _site_index(spec: LatticeSpec) -> np.ndarray:
    """The sites' multi-indices as a (site_count, d) int64 array in
    ``lattice_sites`` order, so row s is site number s."""
    return np.array(list(lattice_sites(spec)), dtype=np.int64).reshape(spec.site_count, spec.d)


def _site_numbers(site_count: int, N: int, strict: bool) -> np.ndarray:
    """The (K, N) site numbers of the wedge's entries, or of the strict
    wedge's (N distinct sites), in lexicographic order. Numbers order as
    their sites do, so row k is the k-th entry ``combinations`` (strict) or
    ``combinations_with_replacement`` makes of the site tuples.

    Made a column at a time: each row of the first j columns is followed, in
    order, by one row per site column j may hold, from the row's last site
    (plus one if strict) up to the last site that leaves room for the
    columns after it. So every partial row completes, and no partial array
    has more rows than the result."""
    step = 1 if strict else 0
    num = np.zeros((1, 0), dtype=np.int64)
    for j in range(N):
        low = num[:, -1] + step if j else np.zeros(1, dtype=np.int64)
        counts = np.maximum(site_count - (N - 1 - j) * step - low, 0)
        starts = np.cumsum(counts) - counts
        column = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(starts - low, counts)
        num = np.column_stack([np.repeat(num, counts, axis=0), column])
    return num


def _rank_terms(spec: LatticeSpec, N: int, strict: bool) -> tuple[int, np.ndarray]:
    """The lexicographic rank of a wedge entry (of the strict wedge if
    strict), which is its row in a tabulator's arrays, as top minus
    sum_i terms[i, s_i] over its sorted site numbers s. That is C(m, N) - 1
    minus the colex rank sum_i C(m - 1 - t_i, N - i) of the reflected row,
    with t_i = s_i (plus i unless strict) among m = site_count (plus N - 1
    unless strict). Returns top and the (N, site_count) int64 terms.
    C(x, j) comes from C(x, j - 1) by a running sum over x; int64 sums wrap
    modulo 2^64, which leaves exact every term read (each is at most top)."""
    shift = 0 if strict else 1
    S = spec.site_count
    m = S + (N - 1) * shift
    binom = np.ones(m, dtype=np.int64)  # C(x, 0)
    terms = np.empty((N, S), dtype=np.int64)
    for i in reversed(range(N)):
        binom[1:] = np.cumsum(binom[:-1])  # C(x, N - i)
        binom[0] = 0
        terms[i] = binom[m - 1 - i * shift - np.arange(S)]
    return math.comb(m, N) - 1, terms


def _rank_columns(spec: LatticeSpec, N: int, strict: bool) -> list[dict[LatticeIndex, int]]:
    """``_rank_terms`` for the scalar evals: a dict per column keyed by site, top
    folded into the first and the rest negated, so a key's rank is their sum."""
    top, terms = _rank_terms(spec, N, strict)
    signed = (-terms).tolist()
    signed[0] = [top + t for t in signed[0]]
    return [dict(zip(lattice_sites(spec), column)) for column in signed]


def _repetition_constants(num: np.ndarray) -> np.ndarray:
    """``repetition_constant`` of each sorted row of site numbers ``num``
    (K, N), from its runs of equal sites, as floats: a float divides by them
    as by the int. Past N = 20 a constant may leave int64, so those are
    Python ints."""
    K, N = num.shape
    if N > 20:
        return np.array([float(repetition_constant(row)) for row in num.tolist()])
    const = np.ones(K, dtype=np.int64)
    run = np.ones(K, dtype=np.int64)
    for j in range(1, N):
        same = num[:, j] == num[:, j - 1]
        run = np.where(same, run + 1, 1)
        const *= np.where(same, run, 1)
    return const.astype(np.float64)


def _non_finite(value: float, index: np.ndarray, row: np.ndarray) -> BuildError:
    zs = tuple(map(tuple, index[row].tolist()))
    return BuildError(f"target returned non-finite value {float(value)!r} at Z = {zs}")


def corner_values(f: TargetFunction, spec: LatticeSpec, num: np.ndarray) -> np.ndarray:
    """f at the cell corners of each wedge entry, as a (K,) array. Row k of
    ``num`` (K, N) holds entry k's site numbers (indices in ``lattice_sites``
    order), and point i of its corner configuration is the lower corner of
    site num[k, i]: ``corner_configuration`` of the entry. The first entry
    with a non-finite value raises BuildError.

    A target with a ``batch`` is given the corners of at most _CORNER_CHUNK
    entries at a time, as a (rows, N, d) array. Any other target is called
    once per entry, in order, on a Configuration whose Points are built once
    per lattice site and shared across entries: the wedge has
    C(n^d + N - 1, N) entries over only n^d sites. Corners of a valid
    LatticeSpec are finite, so neither is re-validated.
    """
    index = _site_index(spec)
    values = np.empty(len(num))
    if f.batch is None:
        points = [_point(spec.position(site)) for site in lattice_sites(spec)]
        for k, row in enumerate(num.tolist()):
            value = values[k] = f(_configuration(tuple(map(points.__getitem__, row))))
            if not math.isfinite(value):
                raise _non_finite(value, index, num[k])
        return values
    positions = spec.origin + index * spec.delta
    for start in range(0, len(num), _CORNER_CHUNK):
        rows = num[start : start + _CORNER_CHUNK]
        chunk = values[start : start + len(rows)]
        chunk[:] = f.batch(positions[rows])
        bad = np.flatnonzero(~np.isfinite(chunk))
        if len(bad):
            raise _non_finite(chunk[bad[0]], index, rows[bad[0]])
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
    _check_wedge_cap(spec, N, cap)
    num = _site_numbers(spec.site_count, N, strict=False)
    return SymmetricTabulator(
        spec, N, smooth_width, corner_values(f, spec, num) / _repetition_constants(num)
    )


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
        k = sum(map(getitem, T._rank_cols, assignment.wedge))
        return T.table.item(k) * assignment.repetition
    columns = T._rank_cols
    total = 0.0
    for zs, weight in smooth_weights(T.spec, X, T.smooth_width).items():
        total += weight * (T.table.item(sum(map(getitem, columns, zs))) * repetition_constant(zs))
    return total


def _check_batch_input(T, P: np.ndarray) -> None:
    """The batch evals take an indicator tabulator and a (B, N, d) array."""
    if T.smooth_width is not None:
        raise ValueError("batch evaluation is defined for indicator tabulators only")
    if P.ndim != 3 or P.shape[1:] != (T.N, T.spec.d):
        raise ValueError(
            f"tabulator expects (B, N, d) = (B, {T.N}, {T.spec.d}) arrays; got shape {P.shape}"
        )


def _located(spec: LatticeSpec, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``locate`` on each row of P (B, N, d), as arrays: the site numbers
    (indices in ``lattice_sites`` order) of the row's cells, sorted stably,
    and the sort order. A cell is ``cell_of``'s: the same floor and top-cell
    clamp, and its DomainError for the first coordinate outside the box, in
    row order."""
    inside = (P >= spec.origin) & (P <= spec.top)
    if not inside.all():
        c = float(P.reshape(-1)[np.argmin(inside.reshape(-1))])
        raise DomainError(f"coordinate {c!r} outside [{spec.origin}, {spec.top}]")
    n = spec.cells_per_dim
    cells = np.minimum(((P - spec.origin) / spec.delta).astype(np.int64), n - 1)
    num = cells[..., 0]
    for a in range(1, spec.d):
        num = num * n + cells[..., a]
    order = np.argsort(num, axis=1, kind="stable")
    return np.take_along_axis(num, order, axis=1), order


def eval_sym_batch(T: SymmetricTabulator, P: np.ndarray) -> np.ndarray:
    """``eval_sym`` of an indicator tabulator on each row of P (B, N, d), as
    a (B,) array equal to it bit for bit: each row's cells are found by the
    same rule, and its entry's stored value is gathered by the entry's
    lexicographic rank and multiplied by the same repetition constant. The
    first row with a coordinate outside the box raises ``locate``'s
    DomainError."""
    _check_batch_input(T, P)
    num, _ = _located(T.spec, P)
    top, terms = _rank_terms(T.spec, T.N, strict=False)
    return T.table[top - terms[np.arange(T.N), num].sum(axis=1)] * _repetition_constants(num)


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
        total += T.table.item(sum(map(getitem, T._rank_cols, zs))) * permanent_ryser_logdomain(A)
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
