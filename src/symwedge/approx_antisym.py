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
the (scale-free) integer index differences. One kernel, ``_pair_terms``,
forms every pair sum of the search, the validity test and the batched
corner products one component at a time, so none depends on the BLAS
build. ``tau`` is a floor: every chosen direction must pass
``directions_valid`` at tau, the rule the loader applies, and an entry
whose best candidate fails raises DirectionSearchError. At d = 1 every
candidate is +1 or -1 and scores exactly 1, and candidate 0 is +1, so every
entry takes (1,).

Projected mode additionally supports a smooth variant that blends
neighboring entries with the same normalized cutoff weights as the
symmetric tabulator, times the projected pair product of the actual
coordinates; it is continuous across cell faces and vanishes on the
diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations
from typing import Iterator, Sequence

import numpy as np

from .core import Configuration, Symmetry, TargetFunction, _inversion_sign
from .errors import DirectionSearchError
from .lattice import (
    DEFAULT_WEDGE_CAP,
    LatticeSpec,
    WedgeKey,
    _check_smooth_width,
    _check_wedge_cap,
    enumerate_wedge,  # noqa: F401  (unused here; benches/tracing.py wraps this binding)
    lattice_sites,
    locate,
    repetition_constant,
    site_weight_support,  # noqa: F401  (unused here; benches/tracing.py wraps this binding)
)
from .approx_sym import BuildStats, _check_eval_input, _wedge_stats, corner_values, smooth_weights

__all__ = [
    "DEFAULT_TAU",
    "KIND_RANK",
    "KIND_PROJECTED",
    "MODE_RANK",
    "MODE_PROJECTED",
    "AntisymTabulator",
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
# The projected construction's floor on every entry's smallest relative pair projection.
DEFAULT_TAU = 1e-3
# Unit candidates per d in the projected direction search.
_CANDIDATES = 64
# Entries per batched direction search. It sizes the search's three
# (_CANDIDATES, chunk) float arrays, 128 KB each; larger chunks raised the
# build's peak RSS and saved little time.
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


def _key_array(keys: Sequence[WedgeKey], N: int, d: int) -> np.ndarray:
    """The site indices of each key as a (K, N, d) int64 array."""
    flat = chain.from_iterable(chain.from_iterable(keys))
    return np.fromiter(flat, dtype=np.int64, count=len(keys) * N * d).reshape(len(keys), N, d)


def _pair_terms(A: np.ndarray, P: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For each pair i < j of the rows of P (K, N, d), in order, yield
    A . (P_i - P_j) and |P_i - P_j|^2, each summed one component at a time so
    no BLAS reduction decides a bit. Directions A (K, d) give (K,) dots,
    candidates (C, 1, d) give (C, K). Both arrays are reused for the next pair.
    """
    K, N, d = P.shape
    dot = np.empty(np.broadcast_shapes(A.shape[:-1], (K,)))
    term = np.empty_like(dot)
    norm2 = np.empty(K)
    for i in range(N):
        for j in range(i + 1, N):
            diff = P[:, i] - P[:, j]
            dot.fill(0.0)
            norm2.fill(0.0)
            for c in range(d):
                np.multiply(A[..., c], diff[:, c], out=term)
                dot += term
                norm2 += diff[:, c] * diff[:, c]
            yield dot, norm2


def directions_valid(A: np.ndarray, idx: np.ndarray, tau: float) -> np.ndarray:
    """Whether each row of directions A (K, d) is valid for its key in idx
    (K, N, d): every pair difference of the key projects onto the direction
    with relative magnitude >= tau.

    The criterion is scale-free, so integer index differences stand in for
    the real corner differences.
    """
    valid = np.ones(len(idx), dtype=bool)
    for dot, norm2 in _pair_terms(A, idx):
        valid &= ~(np.abs(dot) < tau * np.sqrt(norm2))
    return valid


@cache
def _candidate_table(d: int) -> np.ndarray:
    """The fixed (_CANDIDATES, d) table of unit candidate directions: rows of
    Generator(Philox(key=0)).standard_normal, each divided by its norm, whose
    squares are summed one component at a time. Made once per d and shared,
    so it is read-only."""
    V = np.random.Generator(np.random.Philox(key=0)).standard_normal((_CANDIDATES, d))
    norm2 = np.zeros(_CANDIDATES)
    for c in range(d):
        norm2 += V[:, c] * V[:, c]
    C = V / np.sqrt(norm2)[:, None]
    C.setflags(write=False)
    return C


def choose_direction(zs: WedgeKey, tau: float) -> tuple[float, ...]:
    """The direction of entry zs: the candidate that maximizes the smallest
    relative pair projection, if it clears tau. The choice depends on zs
    alone; tau only decides whether it passes. (1,) at d = 1."""
    if len(set(zs)) < len(zs):
        raise ValueError("direction choice needs distinct cells")
    return tuple(_choose_directions(np.array([zs], dtype=np.int64), tau)[0].tolist())


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


def _choose_directions(idx: np.ndarray, tau: float) -> np.ndarray:
    """The direction of every key of a (K, N, d) index array, as a (K, d) array.

    Each key takes the candidate of ``_candidate_table(d)`` that maximizes
    min over pairs of |a . (z_i - z_j)| / |z_i - z_j|, the lowest index on a
    tie. The first key whose choice fails ``directions_valid`` at tau raises
    DirectionSearchError.
    """
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    C = _candidate_table(idx.shape[2])
    score = np.full((_CANDIDATES, len(idx)), np.inf)  # (candidate, key)
    for dot, norm2 in _pair_terms(C[:, None, :], idx):
        np.minimum(score, np.abs(dot, out=dot) / np.sqrt(norm2), out=score)
    best = np.argmax(score, axis=0)
    A = C[best]
    rejected = np.flatnonzero(~directions_valid(A, idx, tau))
    if len(rejected):
        k = rejected[0]
        zs = tuple(map(tuple, idx[k].tolist()))
        raise DirectionSearchError(
            f"no candidate direction clears tau = {tau} for Z = {zs}: its best smallest "
            f"relative pair projection is {float(score[best[k], k])!r}; lower tau"
        )
    return A


def _projected_pair_products(A: np.ndarray, P: np.ndarray) -> np.ndarray:
    """_projected_pair_product of each row of directions A (K, d) and corners P (K, N, d)."""
    prod = np.ones(len(P))
    for dot, _ in _pair_terms(A, P):
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
    tau: float = DEFAULT_TAU,
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
    # The cap bounds the full wedge. Keys are listed up front: made between
    # target calls, they raised the build's peak RSS by 2 MB.
    _check_wedge_cap(spec, N, cap)
    distinct = list(combinations(lattice_sites(spec), N))
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
        A = _choose_directions(idx, tau)
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
