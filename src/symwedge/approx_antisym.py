"""Tabulated approximation of totally anti-symmetric functions.

Entries with coincident cells are never tabulated: an anti-symmetric
function vanishes there, and the evaluator returns an exact zero for any
input whose points share a cell. Each entry Z of the strict wedge (N
distinct sites) stores f(Z)/psi_Z(Z) for a reference anti-symmetric factor
psi_Z, and evaluation returns sign(sigma) * stored * psi_Z(X), where sigma
is the permutation that sorts the input onto the wedge.

Two reference factors are implemented:

* rank mode: psi is the pair product of slot ranks, so psi(X)/psi(Z)
  collapses to the sort sign; the table stores f(Z) itself and indicator
  evaluation is sign * f(Z) exactly;
* projected mode: psi_Z(X) = prod_{i<j} a_Z . (x_i - x_j) for a per-entry
  unit direction a_Z. Indicator evaluation is sign * f(Z) up to rounding of
  the stored quotient.

In projected mode an entry's error over its support is carried by the ratio
psi_Z(X)/psi_Z(Z), a product of factors a_Z . (x_i - x_j) / a_Z . (z_i - z_j).
Over the support each difference x_i - x_j moves from z_i - z_j by some e of
a few cell diagonals, which changes its factor by at most
|e| / (s |z_i - z_j|), where s, the entry's score, is its smallest relative
pair projection |a_Z . (z_i - z_j)| / |z_i - z_j|. A direction with a small
score lets the ratio, and with it the error, blow up, so each entry takes
the direction of largest score from one fixed table per d: the
_CANDIDATES rows of Generator(Philox(key=0)).standard_normal((_CANDIDATES, d))
scaled to unit length, the lowest index winning a tie, with scores taken on
the (scale-free) integer index differences. One kernel, ``_projections``,
forms every sum of the search, the validity test and the candidates'
norms one component at a time, and one pair-product kernel,
``_pair_product`` over the pairs' differences, serves the indicator eval,
the smooth blend and, run on columns, the batched corner products, so none
depends on the BLAS build. The search scores each
distinct pair difference of its keys against the candidates once, and a
key's score for a candidate is the minimum over its pairs' scores, so the
scores are the ones a key-by-key search forms. ``tau`` is a
floor: every chosen direction must pass ``directions_valid`` at tau, and an
entry whose best candidate fails raises DirectionSearchError.

The score and the validity test read an entry only through its integer
index differences z_i - z_j, and all of those follow from z_i - z_0. So
entries that are translates of each other get the same direction, bit for
bit, and the search runs once per difference pattern, on the key with
z_0 = 0, and gathers the directions back to the entries; the corner
products and quotients are still formed per entry. A pattern that fails is
reported by its first entry in key order, as an entry-by-entry search
would report it. At d = 1 every
candidate is +1 or -1 and scores exactly 1, and candidate 0 is +1, so every
entry takes (1,).

The directions are therefore not parameters of a model: they follow from
the lattice and N alone, and ``_derived`` makes them once per (lattice, N),
shared by the build, the tabulator's constructor and its evals. A
projected tabulator stores only its table and tau; its constructor checks
the derived directions at tau, once per difference pattern.

Projected mode additionally supports a smooth variant that blends
neighboring distinct entries with ``smooth_weights``, the symmetric
tabulator's blend, times the projected pair product of the actual sorted
coordinates; it is continuous across cell faces and vanishes on the
diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from operator import getitem, sub
from typing import NamedTuple, Sequence

import numpy as np

from .core import Configuration, Symmetry, TargetFunction, _inversion_sign, _inversion_signs
from .errors import DirectionSearchError
from .lattice import (
    DEFAULT_WEDGE_CAP,
    LatticeSpec,
    Wedge,
    WedgeKey,
    _check_smooth_width,
    _check_wedge_cap,
    _located,
    _site_digits,
    _site_index,
    _wedge_of,
    enumerate_wedge,  # noqa: F401  (unused here; benches/tracing.py wraps this binding)
    locate,
    site_weight_support,  # noqa: F401  (unused here; benches/tracing.py wraps this binding)
)
from .approx_sym import (
    BuildStats,
    _check_batch_input,
    _check_eval_input,
    _corner_chunks,
    _frozen,
    _tabulator_eq,
    _wedge_stats,
    corner_values,
)
from . import approx_sym

KIND_RANK = "antisym-c1"
KIND_PROJECTED = "antisym-c2"
MODE_RANK = "rank"
MODE_PROJECTED = "projected"
# The projected construction's floor on every entry's smallest relative pair projection.
DEFAULT_TAU = 1e-3
# Unit candidates per d in the projected direction search.
_CANDIDATES = 64
# Difference patterns whose scores the direction search takes at a time. It
# sizes the (chunk, _CANDIDATES) float array of their scores and the pair
# scores gathered into it, 128 KB each.
_DIRECTION_CHUNK = 256

_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211
_UINT64 = 1 << 64


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) % _UINT64
    return h


# The build does not use it; benches/tracing.py wraps this binding.
def entry_seed(zs: WedgeKey) -> int:
    """Deterministic per-entry seed: FNV-1a over the little-endian index bytes."""
    return fnv1a64(b"".join(i.to_bytes(8, "little") for site in zs for i in site))


def _projections(A: np.ndarray, diff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A . diff and |diff|^2 for directions A (..., d) and differences diff
    (..., d), whose leading shapes broadcast together, each summed from
    0.0 one component at a time so no BLAS reduction decides a bit."""
    dot = np.zeros(np.broadcast_shapes(A.shape[:-1], diff.shape[:-1]))
    norm2 = np.zeros(diff.shape[:-1])
    for c in range(diff.shape[-1]):
        dot += A[..., c] * diff[..., c]
        norm2 += diff[..., c] * diff[..., c]
    return dot, norm2


def directions_valid(A: np.ndarray, idx: np.ndarray, tau: float) -> np.ndarray:
    """Whether each row of directions A (K, d) is valid for its key in idx
    (K, N, d): every pair difference of the key projects onto the direction
    with relative magnitude >= tau.

    The criterion is scale-free, so integer index differences stand in for
    the real corner differences.
    """
    N = idx.shape[1]
    valid = np.ones(len(idx), dtype=bool)
    for i in range(N):
        for j in range(i + 1, N):
            dot, norm2 = _projections(A, idx[:, i] - idx[:, j])
            valid &= ~(np.abs(dot) < tau * np.sqrt(norm2))
    return valid


@cache
def _candidate_table(d: int) -> np.ndarray:
    """The fixed (_CANDIDATES, d) table of unit candidate directions: rows of
    Generator(Philox(key=0)).standard_normal, each divided by its norm, the
    root of its ``_projections`` squared norm. Made once per d and shared,
    so it is read-only."""
    V = np.random.Generator(np.random.Philox(key=0)).standard_normal((_CANDIDATES, d))
    C = V / np.sqrt(_projections(V, V)[1])[:, None]
    C.setflags(write=False)
    return C


def choose_direction(zs: WedgeKey, tau: float) -> tuple[float, ...]:
    """The direction of entry zs: the candidate that maximizes the smallest
    relative pair projection, if it clears tau. The choice depends on zs
    alone; tau only decides whether it passes. (1,) at d = 1."""
    if len(set(zs)) < len(zs):
        raise ValueError("direction choice needs distinct cells")
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    idx = np.array([zs], dtype=np.int64)
    A, score = _search_directions(idx)
    if not directions_valid(A, idx, tau)[0]:
        raise _rejection(idx[0], tau, score[0])
    return tuple(A[0].tolist())


def _pair_differences(rows: Sequence[Sequence[float]]) -> list[tuple[float, ...]]:
    """rows[i] - rows[j], component by component, for each pair i < j in order.
    The components rows[i][c] may also be (K,) float64 columns."""
    return [tuple(map(sub, ri, rj)) for i, ri in enumerate(rows) for rj in rows[i + 1 :]]


def _pair_product(a: Sequence[float], diffs: Sequence[Sequence[float]]) -> float:
    """prod over diffs of a . diff, in order, each dot summed from 0.0 one
    component at a time: psi_Z of the points whose ``_pair_differences`` are
    diffs. The components a[c] and diff[c] may also be (K,) float64 columns,
    which gives K products as a (K,) array (1.0 when there is no pair)."""
    prod = 1.0
    for diff in diffs:
        dot = 0.0
        for ac, dc in zip(a, diff):
            dot += ac * dc
        prod *= dot
    return prod


def _search_directions(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The direction of every key of a (K, N, d) index array, as a (K, d)
    array, and its score, as a (K,) array. Each key takes the candidate of
    ``_candidate_table(d)`` that maximizes min over pairs of
    |a . (z_i - z_j)| / |z_i - z_j|, the lowest index on a tie.

    The keys' pair differences repeat, so each distinct one is scored
    against every candidate once, and a key's scores are the minimum of its
    pairs' rows, taken _DIRECTION_CHUNK keys at a time."""
    K, N, d = idx.shape
    C = _candidate_table(d)
    first, second = np.triu_indices(N, 1)  # the pairs i < j in order
    diffs = (idx[:, first] - idx[:, second]).reshape(-1, d)
    # The distinct rows of diffs, and each row's place among them.
    order = np.lexsort(diffs.T)
    ordered = diffs[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    of_pair = np.empty(len(order), dtype=np.intp)
    of_pair[order] = np.cumsum(new) - 1
    dot, norm2 = _projections(C, ordered[new][:, None, :])
    pair_scores = np.abs(dot) / np.sqrt(norm2)  # (distinct difference, candidate)
    of_pair = of_pair.reshape(K, len(first))
    A = np.empty((K, d))
    score = np.empty(K)
    for start in range(0, K, _DIRECTION_CHUNK):
        pairs = of_pair[start : start + _DIRECTION_CHUNK]
        scores = np.full((len(pairs), _CANDIDATES), np.inf)  # (key, candidate)
        for column in pairs.T:
            np.minimum(scores, pair_scores[column], out=scores)
        best = np.argmax(scores, axis=1)
        A[start : start + len(pairs)] = C[best]
        score[start : start + len(pairs)] = scores[np.arange(len(pairs)), best]
    return A, score


def _rejection(key: np.ndarray, tau: float, score: float) -> DirectionSearchError:
    """The error for key (N, d), whose best candidate has ``score`` and fails tau."""
    zs = tuple(map(tuple, key.tolist()))
    return DirectionSearchError(
        f"no candidate direction clears tau = {tau} for Z = {zs}: its best smallest "
        f"relative pair projection is {float(score)!r}; lower tau"
    )


def _difference_patterns(
    index: np.ndarray, num: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct difference patterns of the keys num (K, N), whose sites
    have the multi-indices ``index`` on a lattice of n cells per axis, the
    first key of each, and the pattern of each key.

    A key's pattern is z_i - z_0 for i >= 1, coded as one int64 whose digits,
    in radix 2n - 1, are the components offset by n - 1; a stable argsort
    sorts the codes, and each run of equal codes is one pattern, first met
    at its run's first key. A key's code is formed from its sites' place
    values sum_c index_c (2n - 1)^(d - 1 - c), made once per site, so it
    costs one gather per slot. Returns the patterns in code order as a
    (P, N, d) index array, each its code's first key less that key's first
    site (so the first site is 0 and some indices are negative), that key's
    row in num, (P,), and each key's pattern, (K,).
    Where the codes would not fit an int64, every key is its own pattern.
    """
    K, N = num.shape
    d = index.shape[1]
    radix = 2 * n - 1
    size = radix ** ((N - 1) * d)
    if size > np.iinfo(np.int64).max:
        return index[num], np.arange(K), np.arange(K)
    place = np.zeros(len(index), dtype=np.int64)
    for c in range(d):
        place *= radix
        place += index[:, c]
    # Slot i's d digits, each offset by n - 1, are worth
    # place_i - place_0 + (radix**d - 1) // 2.
    first = place[num[:, 0]] - (radix**d - 1) // 2
    code = np.zeros(K, dtype=np.int64)
    for i in range(1, N):
        code *= radix**d
        code += place[num[:, i]]
        code -= first
    order = np.argsort(code, kind="stable")
    code = code[order]
    starts = np.ones(K, dtype=bool)  # where a run of equal codes starts
    starts[1:] = code[1:] != code[:-1]
    first_key = order[starts]
    of_key = np.empty(K, dtype=np.intp)
    of_key[order] = np.cumsum(starts) - 1
    keys = index[num[first_key]]
    return keys - keys[:, :1], first_key, of_key


def _projected_pair_products(A: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The pair product of each row of directions A (K, d) and corners P
    (K, N, d), as a (K,) array: ``_pair_product`` run on their columns."""
    products = _pair_product(A.T, _pair_differences(P.transpose(1, 2, 0)))
    return np.full(len(P), products, dtype=np.float64)


class _Derived(NamedTuple):
    """The projected directions of the strict wedge of N points on a lattice,
    as read-only arrays: its difference patterns (P, N, d), each pattern's
    first entry in key order (P,), its direction (P, d) and score (P,), and
    each entry's direction, its pattern's, (K, d)."""

    patterns: np.ndarray
    first: np.ndarray
    best: np.ndarray
    score: np.ndarray
    directions: np.ndarray


@lru_cache(maxsize=8)
def _derived(spec: LatticeSpec, N: int) -> _Derived:
    """The projected directions of (spec, N), made once: the strict wedge's
    rows, their difference patterns, one search per pattern, and a gather
    back to the entries."""
    wedge = _wedge_of(spec, N, True)
    patterns, first, of_key = _difference_patterns(  # the (K, N) rows are freed on return
        _site_index(spec), wedge.rows(0, wedge.size), spec.cells_per_dim
    )
    best, score = _search_directions(patterns)
    derived = _Derived(patterns, first, best, score, best[of_key])
    for array in derived:  # one cached value serves every caller
        array.setflags(write=False)
    return derived


def _check_directions(spec: LatticeSpec, N: int, tau: float) -> None:
    """Raise DirectionSearchError unless every derived direction of (spec, N)
    passes ``directions_valid`` at tau, naming the first failing entry in key
    order. The test runs once per difference pattern."""
    derived = _derived(spec, N)
    failing = np.flatnonzero(~directions_valid(derived.best, derived.patterns, tau))
    if len(failing):
        p = failing[np.argmin(derived.first[failing])]
        k = int(derived.first[p])
        row = _wedge_of(spec, N, True).rows(k, k + 1)[0]
        raise _rejection(_site_digits(spec, row), tau, derived.score[p])


@dataclass(frozen=True)
class AntisymTabulator:
    """A built table for one anti-symmetric target on one lattice.

    ``table`` holds each stored value of the strict wedge's entries as a
    read-only (K,) float64 array in the entries' lexicographic order, so an
    entry's rank is its row. ``tau`` None is the rank construction; a finite
    ``tau`` > 0 is the projected one, whose entries' directions are derived
    from the lattice and N (``directions``), and the constructor checks that
    each passes ``directions_valid`` at ``tau``. ``smooth_width`` None
    selects indicator evaluation; a width (projected construction only,
    0 < w <= delta/2) selects the smooth blend. The constructor makes the
    table it is given read-only, without copying it.
    """

    spec: LatticeSpec
    N: int
    tau: float | None
    smooth_width: float | None
    table: np.ndarray

    def __post_init__(self) -> None:
        if self.tau is not None and not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be finite and positive, got {self.tau}")
        if self.smooth_width is not None:
            if self.tau is None:
                raise ValueError("smoothing is only available in projected mode")
            _check_smooth_width(self.spec, self.smooth_width)
        _frozen("table", self.table, (self._wedge.size,))
        if self.tau is not None and len(self.table):  # an empty wedge's N may fit no array
            _check_directions(self.spec, self.N, self.tau)

    __eq__ = _tabulator_eq

    @cached_property
    def _wedge(self) -> Wedge:  # the strict wedge, whose entries are the table's rows
        return _wedge_of(self.spec, self.N, True)

    @property
    def directions(self) -> np.ndarray | None:
        """Each entry's projected direction, derived from the lattice and N,
        as the read-only rows of a (K, d) float64 array; None in rank mode."""
        return None if self.tau is None else _derived(self.spec, self.N).directions

    @property
    def kind(self) -> str:
        return KIND_RANK if self.tau is None else KIND_PROJECTED

    @property
    def stats(self) -> BuildStats:
        return _wedge_stats(self.spec, self.N)


def build_antisym(
    f: TargetFunction,
    spec: LatticeSpec,
    N: int,
    mode: str = MODE_RANK,
    tau: float = DEFAULT_TAU,
    smooth_width: float | None = None,
    cap: int = DEFAULT_WEDGE_CAP,
) -> AntisymTabulator:
    """Tabulate an anti-symmetric target over the distinct-cell wedge entries.

    Every corner value comes from one ``corner_values`` pass over the strict
    wedge's site-number rows, so a non-finite target value is reported before
    any direction failure. Projected mode takes the directions ``_derived``
    makes, searched once per difference pattern before the build's own rows
    are made, and forms the quotients f(Z)/psi_Z(Z) per entry,
    _CORNER_CHUNK entries at a time.
    """
    if f.declared_symmetry is not Symmetry.ANTISYMMETRIC:
        raise ValueError(
            f"build_antisym needs an anti-symmetric target, got {f.declared_symmetry.value!r}"
        )
    if mode not in (MODE_RANK, MODE_PROJECTED):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == MODE_PROJECTED and not tau > 0.0:
        raise ValueError("tau must be positive")
    if smooth_width is not None:
        if mode != MODE_PROJECTED:
            raise ValueError("smoothing is only available in projected mode")
        _check_smooth_width(spec, smooth_width)
    _check_wedge_cap(spec, N, cap)  # the cap bounds the full wedge
    wedge = _wedge_of(spec, N, True)
    # made first, so its rows and the build's are never held together
    directions = _derived(spec, N).directions if mode == MODE_PROJECTED else None
    num = wedge.rows(0, wedge.size)
    values = corner_values(f, spec, num)
    if directions is None:
        # psi(X)/psi(Z) is the sort sign, so f(Z) itself is stored.
        return AntisymTabulator(spec, N, None, None, values)
    _check_directions(spec, N, tau)  # before any quotient: a failing corner product may be 0
    for part, corners in _corner_chunks(spec, _site_index(spec), num):
        values[part] /= _projected_pair_products(directions[part], corners)
    return AntisymTabulator(spec, N, tau, smooth_width, values)


def eval_antisym(T: AntisymTabulator, X: Configuration) -> float:
    """Evaluate the tabulator.

    Indicator path: locate X; configurations with a shared cell give an
    exact 0; otherwise the stored value is multiplied by the sort sign (rank
    mode) or by the sort sign and the reference factor recomputed at the
    entry's corners (projected mode), which makes sign equivariance
    bit-exact. The sort sign is the assignment's ``sign``, the inversion
    parity of its sort order, so no permutation is built.

    Smooth path (projected mode): blend stored quotients over neighboring
    distinct entries with ``approx_sym.smooth_weights`` times the projected
    pair product of the actual (canonically sorted) coordinates, whose pair
    differences are formed once per call. Both paths key an entry by its
    sorted site numbers, which index the rank lists directly.
    """
    _check_eval_input(T, X)
    if T.smooth_width is None:
        assignment = locate(T.spec, X)
        if assignment.repetition > 1:
            return 0.0
        sign = assignment.sign
        k = sum(map(getitem, T._wedge.lists, assignment.sites))
        if T.tau is None:
            return sign * T.table.item(k)
        a = T.directions[k].tolist()
        diffs = _pair_differences([T.spec.position(site) for site in assignment.wedge])
        return sign * T.table.item(k) * _pair_product(a, diffs)

    # Smooth blend: weights are order-blind, the pair product is evaluated on
    # the sorted rows, and the sort sign restores equivariance.
    rows = X.rows
    order = sorted(range(len(rows)), key=rows.__getitem__)
    rows = [rows[i] for i in order]
    diffs = _pair_differences(rows)
    columns = T._wedge.lists
    stored = T.table.item
    directions = T.directions
    total = 0.0
    # Through the module, so a wrapper bound there sees this blend too.
    for key, weight in approx_sym.smooth_weights(T.spec, X, T.smooth_width).items():
        if len(set(key)) < T.N:
            continue  # dropped entries carry no value
        k = sum(map(getitem, columns, key))
        total += weight * stored(k) * _pair_product(directions[k].tolist(), diffs)
    return _inversion_sign(order) * total


def eval_antisym_batch(T: AntisymTabulator, P: np.ndarray) -> np.ndarray:
    """``eval_antisym`` of an indicator tabulator on each row of P (B, N, d),
    as a (B,) array equal to it bit for bit: rows whose points share a cell
    give an exact 0; each other row's stored value is gathered by its entry's
    lexicographic rank in the strict wedge and multiplied by the inversion
    parity of the row's stable sort, and in projected mode by the entry's
    pair product at its corners. The first row with a coordinate outside the
    box raises ``locate``'s DomainError."""
    spec = T.spec
    _check_batch_input(T, P)
    num, order = _located(spec, P)
    out = np.zeros(len(P))
    distinct = np.flatnonzero((num[:, 1:] != num[:, :-1]).all(axis=1))
    num = num[distinct]
    rank = T._wedge.rank(num)
    value = _inversion_signs(order[distinct]) * T.table[rank]
    if T.tau is not None:
        corners = spec.origin + _site_digits(spec, num) * spec.delta
        value *= _projected_pair_products(T.directions[rank], corners)
    out[distinct] = value
    return out
