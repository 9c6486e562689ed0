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

Projected mode additionally supports a smooth variant that blends
neighboring entries with the same normalized cutoff weights as the
symmetric tabulator, times the projected pair product of the actual
coordinates; it is continuous across cell faces and vanishes on the
diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Configuration, Symmetry, TargetFunction, parity
from .errors import DirectionSearchError, DomainError
from .lattice import (
    DEFAULT_WEDGE_CAP,
    LatticeSpec,
    WedgeKey,
    enumerate_wedge,
    locate,
    repetition_constant,
    site_weight_support,  # noqa: F401  (unused here; benches/tracing.py wraps this binding)
    wedge_size,
)
from .approx_sym import BuildStats, corner_values, smooth_weights

__all__ = [
    "MODE_RANK",
    "MODE_PROJECTED",
    "AntisymTabulator",
    "vandermonde_product",
    "slot_rank_product",
    "equivariant_sort_map",
    "build_antisym",
    "eval_antisym",
    "choose_direction",
    "direction_is_valid",
    "fnv1a64",
    "entry_seed",
]

MODE_RANK = "rank"
MODE_PROJECTED = "projected"
MAX_DIRECTION_DRAWS = 1000

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


def slot_rank_product(N: int) -> float:
    """vandermonde_product of the slot ranks (1, ..., N), computed exactly."""
    prod = 1
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            prod *= i - j
    return float(prod)


def equivariant_sort_map(spec: LatticeSpec, zs: WedgeKey, X: Configuration) -> tuple[float, ...]:
    """1-based rank of each input slot within the wedge entry zs containing X.

    A configuration already sorted to match zs gets (1, ..., N); a swap of
    two slots swaps the corresponding ranks. The input must lie inside the
    box of zs and zs must have distinct cells.
    """
    assignment = locate(spec, X)
    if assignment.repetition > 1:
        raise ValueError("rank map needs a wedge entry with distinct cells")
    if assignment.wedge != zs:
        raise DomainError(f"configuration lies in {assignment.wedge}, not in {zs}")
    return tuple(float(i + 1) for i in assignment.sigma.images)


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


def direction_is_valid(a: Sequence[float], zs: WedgeKey, tau: float) -> bool:
    """All pair differences of zs project onto a with relative magnitude >= tau.

    The criterion is scale-free, so integer index differences stand in for
    the real corner differences.
    """
    avec = tuple(float(v) for v in a)
    n = len(zs)
    for i in range(n):
        zi = zs[i]
        for j in range(i + 1, n):
            zj = zs[j]
            dot = 0.0
            norm2 = 0.0
            for c_i, c_j, av in zip(zi, zj, avec):
                diff = c_i - c_j
                dot += av * diff
                norm2 += diff * diff
            if abs(dot) < tau * math.sqrt(norm2):
                return False
    return True


def _choose_direction_with_attempts(
    zs: WedgeKey, tau: float, seed: int
) -> tuple[tuple[float, ...], int]:
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    n = len(zs)
    for i in range(n):
        for j in range(i + 1, n):
            if zs[i] == zs[j]:
                raise ValueError("direction choice needs distinct cells")
    d = len(zs[0])
    if d == 1:
        a = (1.0,)
        if direction_is_valid(a, zs, tau):
            return a, 0
        raise DirectionSearchError(
            f"no unit direction satisfies tau = {tau} for Z = {zs} (tau > 1 is unsatisfiable)"
        )
    rng = np.random.Generator(np.random.Philox(key=seed))
    for attempt in range(1, MAX_DIRECTION_DRAWS + 1):
        v = rng.standard_normal(d)
        norm = float(np.sqrt(np.sum(v * v)))
        if norm < 1e-12:
            continue
        a = tuple(float(c) / norm for c in v)
        if direction_is_valid(a, zs, tau):
            return a, attempt
    raise DirectionSearchError(
        f"no direction found for Z = {zs} within {MAX_DIRECTION_DRAWS} draws at tau = {tau}; "
        "lower tau"
    )


def choose_direction(zs: WedgeKey, tau: float, seed: int) -> tuple[float, ...]:
    """Unit direction separating all pair differences of zs by at least tau
    (relative). Deterministic in (zs, tau, seed); d = 1 short-circuits to (1,)."""
    return _choose_direction_with_attempts(zs, tau, seed)[0]


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


@dataclass(frozen=True)
class AntisymTabulator:
    """A built table for one anti-symmetric target on one lattice."""

    spec: LatticeSpec
    N: int
    mode: str
    tau: float | None
    smooth_width: float | None
    table: dict[WedgeKey, float]
    directions: dict[WedgeKey, tuple[float, ...]] | None
    stats: BuildStats


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
    if smooth_width is not None:
        if mode != MODE_PROJECTED:
            raise ValueError("smoothing is only available in projected mode")
        if not 0.0 < smooth_width <= spec.delta / 2.0:
            raise ValueError(
                f"need 0 < smooth_width <= delta/2 = {spec.delta / 2.0}, got {smooth_width}"
            )
    distinct = [zs for zs in enumerate_wedge(spec, N, cap=cap) if repetition_constant(zs) == 1]
    table: dict[WedgeKey, float] = {}
    directions: dict[WedgeKey, tuple[float, ...]] | None = None
    if mode == MODE_RANK:
        # psi(X)/psi(Z) is the sort sign, so f(Z) itself is stored.
        table = dict(corner_values(f, spec, distinct))
    else:
        directions = {}
        # All target calls run before the direction search: interleaving the
        # two measured about 5% slower.
        for zs, value in list(corner_values(f, spec, distinct)):
            a = choose_direction(zs, tau, entry_seed(zs))
            directions[zs] = a
            table[zs] = value / _projected_pair_product(a, [spec.position(z) for z in zs])
    stats = BuildStats(
        evaluations=len(distinct),
        wedge_count=wedge_size(spec, N),
        coarse_lattice=spec.delta > N ** (-1.0 / spec.d),
    )
    return AntisymTabulator(
        spec, N, mode, tau if mode == MODE_PROJECTED else None, smooth_width, table, directions, stats
    )


def _sorted_with_sign(X: Configuration) -> tuple[list[tuple[float, ...]], int]:
    rows = [p.coords for p in X.points]
    order = sorted(range(len(rows)), key=rows.__getitem__)
    inv = 0
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if order[i] > order[j]:
                inv += 1
    return [rows[i] for i in order], (-1 if inv & 1 else 1)


def eval_antisym(T: AntisymTabulator, X: Configuration) -> float:
    """Evaluate the tabulator.

    Indicator path: locate X; configurations with a shared cell give an
    exact 0; otherwise the stored value is multiplied by the sort sign (rank
    mode) or by the sort sign and the reference factor recomputed at the
    entry's corners (projected mode), which makes sign equivariance
    bit-exact.

    Smooth path (projected mode): blend stored quotients over neighboring
    distinct entries with the symmetric tabulator's normalized weights
    times the projected pair product of the actual (canonically sorted)
    coordinates.
    """
    if X.N != T.N or X.d != T.spec.d:
        raise ValueError(
            f"tabulator is for N = {T.N}, d = {T.spec.d}; got N = {X.N}, d = {X.d}"
        )
    if T.smooth_width is None:
        assignment = locate(T.spec, X)
        if assignment.repetition > 1:
            return 0.0
        sign = parity(assignment.sigma)
        zs = assignment.wedge
        if T.mode == MODE_RANK:
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
