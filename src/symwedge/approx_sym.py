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
import operator
from dataclasses import dataclass
from itertools import chain, combinations, combinations_with_replacement, product
from typing import Callable

import numpy as np

from .core import Configuration, Symmetry, TargetFunction, _configuration, _point
from .errors import BuildError, CapacityError, DomainError
from .lattice import (
    DEFAULT_WEDGE_CAP,
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


def _in_key_order(table: dict, spec: LatticeSpec, N: int, strict: bool, d: int = 0) -> np.ndarray:
    """The values of ``table``, a tabulator's table (K,) or, given d, its
    directions (K, d), in the lexicographic order of the wedge's entries (the
    strict wedge's, N distinct sites, if strict), so a key's rank is its
    row. A table in that order, as the builders and ``load_model`` make
    them, is read as it is; one in any other order is read by key. A wedge
    entry the table lacks, or a key that is no entry, raises ValueError
    naming it."""
    choose = combinations if strict else combinations_with_replacement
    K = math.comb(spec.site_count + (0 if strict else N - 1), N)
    if len(table) == K and all(map(operator.eq, table, choose(lattice_sites(spec), N))):
        values = table.values()
    else:
        values = map(table.__getitem__, choose(lattice_sites(spec), N))
    try:
        flat = np.fromiter(chain.from_iterable(values) if d else values, np.float64, K * max(d, 1))
    except KeyError as exc:
        raise ValueError(f"table has no value for wedge entry {exc.args[0]}") from None
    if len(table) != K:  # every entry has its value, so some key is no entry
        entries = set(choose(lattice_sites(spec), N))
        extra = next(key for key in table if key not in entries)
        raise ValueError(f"table key {extra} is not an entry of the wedge")
    return flat.reshape(K, d) if d else flat


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
    are made as site-number rows, whose runs give each C_Z; the table's keys
    are the same entries as site tuples, in the same order."""
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
    entries = enumerate_wedge(spec, N, cap=cap)  # checks the cap before anything is made
    num = _site_numbers(spec.site_count, N, strict=False)
    values = corner_values(f, spec, num) / _repetition_constants(num)
    del num  # freed before the table is built, which lowers the build's peak memory
    return SymmetricTabulator(spec, N, smooth_width, dict(zip(entries, values.tolist())))


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


def _lex_ranks(t: np.ndarray, m: int) -> np.ndarray:
    """The position of each strictly increasing row of t (B, N) among the
    N-subsets of range(m) in lexicographic order: C(m, N) - 1 minus the colex
    rank sum_j C(m - 1 - t[N - j], j) of the reflected rows. A multiset row s
    of n sites maps to the strict row s + (0, 1, ..., N - 1) over
    m = n + N - 1. C(x, j) comes from C(x, j - 1) by a running sum over x;
    int64 sums wrap modulo 2^64, which leaves exact every term the ranks
    read (each is below C(m, N))."""
    N = t.shape[1]
    total = (m - 1) - t[:, N - 1]  # C(x, 1) = x
    if N > 1:
        binom = np.arange(m, dtype=np.int64)
        for j in range(2, N + 1):
            binom[1:] = np.cumsum(binom[:-1])
            binom[0] = 0
            total += binom[(m - 1) - t[:, N - j]]
    return (math.comb(m, N) - 1) - total


def _sym_batch(T: SymmetricTabulator) -> Callable[[np.ndarray], np.ndarray]:
    """``eval_sym_batch`` of T as a function of P, with the table read into
    an array once, in key order, so a key's rank is its position in it."""
    values = _in_key_order(T.table, T.spec, T.N, strict=False)
    m = T.spec.site_count + T.N - 1
    shift = np.arange(T.N)

    def batch(P: np.ndarray) -> np.ndarray:
        _check_batch_input(T, P)
        num, _ = _located(T.spec, P)
        return values[_lex_ranks(num + shift, m)] * _repetition_constants(num)

    return batch


def eval_sym_batch(T: SymmetricTabulator, P: np.ndarray) -> np.ndarray:
    """``eval_sym`` of an indicator tabulator on each row of P (B, N, d), as
    a (B,) array equal to it bit for bit: each row's cells are found by the
    same rule, and its entry's stored value is gathered by the entry's
    lexicographic rank and multiplied by the same repetition constant. The
    first row with a coordinate outside the box raises ``locate``'s
    DomainError."""
    return _sym_batch(T)(P)


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
