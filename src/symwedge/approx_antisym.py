"""Tabulated approximation of totally anti-symmetric functions.

Entries with coincident cells are dropped outright: an anti-symmetric
function vanishes there, and the evaluator returns an exact zero for any
input whose points share a cell. Each surviving wedge entry Z stores
f(Z)/psi(Z) for a reference anti-symmetric factor psi, and evaluation
returns sign(sigma) * stored * psi(Z), where sigma is the permutation that
sorts the input onto the wedge.

Two reference factors are implemented:

* rank mode: psi is the pair product of slot ranks, so psi(X)/psi(Z)
  collapses to the sort sign; the table stores f(Z) itself and indicator
  evaluation is sign * f(Z) exactly;
* projected mode: psi is the pair product of projections onto a per-entry
  unit direction chosen (deterministically, by rejection sampling seeded
  from the entry's index hash) to keep all pair projections away from zero.
  Indicator evaluation is sign * f(Z) up to rounding of the stored quotient.

The projected build searches directions in batches of distinct-cell
entries: FNV-1a seeds over a uint64 index array, each entry's first draw
from one Philox generator reset to the entry's key, and normalization, the
validity test and the corner pair product as array operations that keep the
order of operations of ``np.sum`` and of the evaluator's scalar pair
product. An entry whose first draw is degenerate or rejected redraws its
stream from the start, MAX_DIRECTION_DRAWS draws in two blocks, and keeps
the first usable row. Directions and stored quotients are bit for bit those
of a draw-by-draw search with a fresh generator per entry;
``choose_direction`` is the same search on one key.

Projected mode additionally supports a smooth variant that blends
neighboring entries with the same normalized cutoff weights as the
symmetric tabulator, times the projected pair product of the actual
coordinates; it is continuous across cell faces and vanishes on the
diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .core import Configuration, Symmetry, TargetFunction, _inversion_sign
from .errors import DirectionSearchError
from .lattice import (
    DEFAULT_WEDGE_CAP,
    LatticeSpec,
    WedgeKey,
    _check_smooth_width,
    enumerate_wedge,
    locate,
    repetition_constant,
    site_weight_support,  # noqa: F401  (unused here; benches/tracing.py wraps this binding)
)
from .approx_sym import BuildStats, _check_eval_input, _wedge_stats, corner_values, smooth_weights

__all__ = [
    "KIND_RANK",
    "KIND_PROJECTED",
    "MODE_RANK",
    "MODE_PROJECTED",
    "AntisymTabulator",
    "vandermonde_product",
    "build_antisym",
    "eval_antisym",
    "choose_direction",
    "fnv1a64",
    "entry_seed",
]

KIND_RANK = "antisym-c1"
KIND_PROJECTED = "antisym-c2"
MODE_RANK = "rank"
MODE_PROJECTED = "projected"
MAX_DIRECTION_DRAWS = 1000
# Entries per batched direction search; bounds the search's scratch arrays.
_DIRECTION_CHUNK = 4096
# An entry whose first draw fails draws its budget in these consecutive
# blocks. The first is short: most such entries are served within a few
# draws, and rows of 8 or more components have their norms summed one row
# at a time.
_FALLBACK_BLOCKS = (16, MAX_DIRECTION_DRAWS - 16)

_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211
_UINT64 = 1 << 64


def vandermonde_product(ys: Sequence[float]) -> float:
    """prod_{i<j} (ys[i] - ys[j]) in fixed (i, j) order; 0 on any repeat."""
    vals = tuple(float(v) for v in ys)
    n = len(vals)
    prod = 1.0
    for i in range(n):
        vi = vals[i]
        for j in range(i + 1, n):
            prod *= vi - vals[j]
    return prod


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) % _UINT64
    return h


def entry_seed(zs: WedgeKey) -> int:
    """Deterministic per-entry seed: FNV-1a over the little-endian index bytes."""
    return fnv1a64(b"".join(i.to_bytes(8, "little") for site in zs for i in site))


def _key_array(keys: Sequence[WedgeKey], N: int, d: int) -> np.ndarray:
    """The site indices of each key as a (K, N, d) int64 array."""
    flat = chain.from_iterable(chain.from_iterable(keys))
    return np.fromiter(flat, dtype=np.int64, count=len(keys) * N * d).reshape(len(keys), N, d)


def _entry_seeds(idx: np.ndarray) -> np.ndarray:
    """entry_seed of every key of a (K, N, d) index array, as uint64.

    FNV-1a runs over each index's 8 little-endian bytes; uint64 arithmetic
    wraps modulo 2^64 like the scalar hash's reduction.
    """
    h = np.full(len(idx), _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    low_byte = np.uint64(0xFF)
    for column in idx.reshape(len(idx), -1).astype(np.uint64).T:
        for shift in range(0, 64, 8):
            h ^= (column >> np.uint64(shift)) & low_byte
            h *= prime
    return h


def reset_philox(bit_generator: np.random.Philox, key: int) -> None:
    """Put a Philox bit generator in the state ``Philox(key=key)`` starts in.

    Philox is counter based: its stream is a pure function of (key, counter),
    so the draws that follow equal a freshly built generator's, without the
    OS-entropy seeding that every construction pays for.
    """
    if not 0 <= key < _UINT64 * _UINT64:
        raise ValueError("key must be positive and less than 2**128.")
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (key % _UINT64, key // _UINT64)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _row_sums(x: np.ndarray) -> np.ndarray:
    """np.sum of each row of a (K, d) array, bit for bit.

    numpy adds fewer than eight terms left to right, which a column loop
    replays; longer rows are summed in pairwise blocks, so they go one by one.
    """
    if x.shape[1] >= 8:
        return np.array([np.sum(row) for row in x])
    total = np.zeros(len(x))
    for column in x.T:
        total += column
    return total


def directions_valid(A: np.ndarray, idx: np.ndarray, tau: float) -> np.ndarray:
    """Whether each row of directions A (K, d) is valid for its key in idx
    (K, N, d): every pair difference of the key projects onto the direction
    with relative magnitude >= tau.

    The criterion is scale-free, so integer index differences stand in for
    the real corner differences. Each pair's dot product and squared length
    accumulate component by component, as the scalar rule always has.
    """
    K, N, d = idx.shape
    valid = np.ones(K, dtype=bool)
    for i in range(N):
        for j in range(i + 1, N):
            diff = idx[:, i] - idx[:, j]
            dot = np.zeros(K)
            norm2 = np.zeros(K)
            for c in range(d):
                dot += A[:, c] * diff[:, c]
                norm2 += diff[:, c] * diff[:, c]
            valid &= ~(np.abs(dot) < tau * np.sqrt(norm2))
    return valid


def choose_direction(zs: WedgeKey, tau: float, seed: int) -> tuple[float, ...]:
    """Unit direction separating all pair differences of zs by at least tau
    (relative), drawn from the Philox stream keyed by seed in [0, 2**128).
    Deterministic in (zs, tau, seed); d = 1 short-circuits to (1,) and reads
    no seed."""
    if len(set(zs)) < len(zs):
        raise ValueError("direction choice needs distinct cells")
    return tuple(_choose_directions(np.array([zs], dtype=np.int64), tau, [seed])[0].tolist())


def _projected_pair_product(a: tuple[float, ...], rows: Sequence[tuple[float, ...]]) -> float:
    """prod_{i<j} a . (rows[i] - rows[j]) in fixed (i, j) order."""
    n = len(rows)
    prod = 1.0
    for i in range(n):
        ri = rows[i]
        for j in range(i + 1, n):
            rj = rows[j]
            dot = 0.0
            for av, ci, cj in zip(a, ri, rj):
                dot += av * (ci - cj)
            prod *= dot
    return prod


def _normalized_and_accepted(
    V: np.ndarray, idx: np.ndarray, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """Draws V (K, d) scaled to unit length, and whether each is usable for its
    key in idx (K, N, d): not degenerate and passing ``directions_valid``."""
    norm = np.sqrt(_row_sums(V * V))
    A = V / norm[:, None]
    return A, ~(norm < 1e-12) & directions_valid(A, idx, tau)


def _choose_directions(idx: np.ndarray, tau: float, seeds: Sequence[int]) -> np.ndarray:
    """The direction of every key of a (K, N, d) index array, as a (K, d) array:
    the first draw from the Philox stream keyed by seeds[k] that is not
    degenerate and passes the validity test at tau. First draws are taken in
    bulk; an entry whose first draw fails redraws its stream in the blocks of
    ``_FALLBACK_BLOCKS``, which hold the same numbers as single draws."""
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    K, N, d = idx.shape
    if d == 1:
        A = np.ones((K, 1))
        rejected = np.flatnonzero(~directions_valid(A, idx, tau))
        if len(rejected):
            zs = tuple(map(tuple, idx[rejected[0]].tolist()))
            raise DirectionSearchError(
                f"no unit direction satisfies tau = {tau} for Z = {zs} (tau > 1 is unsatisfiable)"
            )
        return A
    rng = np.random.Generator(np.random.Philox(key=0))
    V = np.empty((K, d))
    for row, seed in zip(V, seeds):
        reset_philox(rng.bit_generator, seed)
        rng.standard_normal(out=row)
    A, accepted = _normalized_and_accepted(V, idx, tau)
    for k in np.flatnonzero(~accepted).tolist():
        reset_philox(rng.bit_generator, seeds[k])
        for size in _FALLBACK_BLOCKS:
            B, ok = _normalized_and_accepted(
                rng.standard_normal((size, d)), np.broadcast_to(idx[k], (size, N, d)), tau
            )
            hits = np.flatnonzero(ok)
            if len(hits):
                A[k] = B[hits[0]]
                break
        else:
            zs = tuple(map(tuple, idx[k].tolist()))
            raise DirectionSearchError(
                f"no direction found for Z = {zs} within {MAX_DIRECTION_DRAWS} draws at "
                f"tau = {tau}; lower tau"
            )
    return A


def _projected_pair_products(A: np.ndarray, P: np.ndarray) -> np.ndarray:
    """_projected_pair_product of each row of directions A (K, d) and corners P (K, N, d)."""
    K, N, d = P.shape
    prod = np.ones(K)
    for i in range(N):
        for j in range(i + 1, N):
            dot = np.zeros(K)
            for c in range(d):
                dot += A[:, c] * (P[:, i, c] - P[:, j, c])
            prod *= dot
    return prod


@dataclass(frozen=True)
class AntisymTabulator:
    """A built table for one anti-symmetric target on one lattice.

    ``directions`` None is the rank construction (``tau`` None too);
    otherwise it holds each entry's projected direction, chosen at ``tau``.
    ``smooth_width`` None selects indicator evaluation; a width (projected
    construction only) selects the smooth blend.
    """

    spec: LatticeSpec
    N: int
    tau: float | None
    smooth_width: float | None
    table: dict[WedgeKey, float]
    directions: dict[WedgeKey, tuple[float, ...]] | None

    @property
    def kind(self) -> str:
        return KIND_RANK if self.directions is None else KIND_PROJECTED

    @property
    def stats(self) -> BuildStats:
        return _wedge_stats(self.spec, self.N)


def build_antisym(
    f: TargetFunction,
    spec: LatticeSpec,
    N: int,
    mode: str = MODE_RANK,
    tau: float = 1e-3,
    smooth_width: float | None = None,
    cap: int = DEFAULT_WEDGE_CAP,
) -> AntisymTabulator:
    """Tabulate an anti-symmetric target over the distinct-cell wedge entries."""
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
    distinct = [zs for zs in enumerate_wedge(spec, N, cap=cap) if repetition_constant(zs) == 1]
    if mode == MODE_RANK:
        # psi(X)/psi(Z) is the sort sign, so f(Z) itself is stored.
        return AntisymTabulator(spec, N, None, None, dict(corner_values(f, spec, distinct)), None)
    table: dict[WedgeKey, float] = {}
    directions: dict[WedgeKey, tuple[float, ...]] = {}
    # All target calls run before the direction search, so a non-finite
    # target value is reported before any direction failure.
    entries = list(corner_values(f, spec, distinct))
    for start in range(0, len(entries), _DIRECTION_CHUNK):
        chunk = entries[start : start + _DIRECTION_CHUNK]
        idx = _key_array([zs for zs, _ in chunk], N, spec.d)
        A = _choose_directions(idx, tau, _entry_seeds(idx).tolist())
        psi = _projected_pair_products(A, spec.origin + idx * spec.delta)
        for (zs, value), a, p in zip(chunk, A.tolist(), psi.tolist()):
            directions[zs] = tuple(a)
            table[zs] = value / p
    return AntisymTabulator(spec, N, tau, smooth_width, table, directions)


def _sorted_with_sign(X: Configuration) -> tuple[list[tuple[float, ...]], int]:
    rows = [p.coords for p in X.points]
    order = sorted(range(len(rows)), key=rows.__getitem__)
    return [rows[i] for i in order], _inversion_sign(order)


def eval_antisym(T: AntisymTabulator, X: Configuration) -> float:
    """Evaluate the tabulator.

    Indicator path: locate X; configurations with a shared cell give an
    exact 0; otherwise the stored value is multiplied by the sort sign (rank
    mode) or by the sort sign and the reference factor recomputed at the
    entry's corners (projected mode), which makes sign equivariance
    bit-exact. The sort sign is the assignment's ``sign``, the inversion
    parity of its sort order, so no permutation is built.

    Smooth path (projected mode): blend stored quotients over neighboring
    distinct entries with the symmetric tabulator's normalized weights
    times the projected pair product of the actual (canonically sorted)
    coordinates.
    """
    _check_eval_input(T, X)
    if T.smooth_width is None:
        assignment = locate(T.spec, X)
        if assignment.repetition > 1:
            return 0.0
        sign = assignment.sign
        zs = assignment.wedge
        if T.directions is None:
            return sign * T.table[zs]
        psi = _projected_pair_product(T.directions[zs], [T.spec.position(z) for z in zs])
        return sign * T.table[zs] * psi

    # Smooth blend: weights are order-blind, the pair product is evaluated on
    # the sorted rows, and the sort sign restores equivariance.
    rows, sign = _sorted_with_sign(X)
    total = 0.0
    for key, weight in smooth_weights(T.spec, X, T.smooth_width).items():
        if repetition_constant(key) > 1:
            continue  # dropped entries carry no value
        total += weight * T.table[key] * _projected_pair_product(T.directions[key], rows)
    return sign * total
