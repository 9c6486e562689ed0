"""Regular box lattices over [lo, hi]^d and their symmetrized (wedge) index sets.

Cells are half-open boxes [corner, corner + delta) per coordinate, with the
top cell closed so the domain boundary hi stays covered; operationally a
coordinate maps to min(floor((x - lo)/delta), n - 1). The wedge is the set
of lexicographically non-decreasing N-tuples of lattice sites; it is in
bijection with multisets of N sites and has C(n^d + N - 1, N) elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import Iterator, Sequence

from .core import Configuration, DomainSpec, Point, _inversion_sign
from .errors import CapacityError, DomainError

__all__ = [
    "LatticeSpec",
    "LatticeIndex",
    "WedgeKey",
    "CellAssignment",
    "DEFAULT_WEDGE_CAP",
    "lattice_sites",
    "cell_of",
    "wedge_size",
    "enumerate_wedge",
    "repetition_constant",
    "locate",
    "corner_configuration",
    "axis_weight_support",
    "site_weight_support",
]

# A lattice site is its integer multi-index; a wedge key is a non-decreasing
# tuple of sites. Plain tuples compare lexicographically and hash cheaply.
LatticeIndex = tuple[int, ...]
WedgeKey = tuple[LatticeIndex, ...]

DEFAULT_WEDGE_CAP = 10**7
_INT64_MAX = 2**63 - 1
# Relative slack when (hi - lo)/delta lands a hair away from an integer.
_CELL_COUNT_SNAP = 1e-9


def _cells_to_cover(span: float, delta: float) -> int:
    """ceil(span/delta), the cells per axis that cover a span.

    Quotients within 1e-9 (relative) of an integer snap to it, so a spacing
    written as span/n yields exactly n cells despite float dust.
    """
    q = span / delta
    if not math.isfinite(q):
        raise ValueError(f"span {span} at spacing {delta} needs no finite cell count")
    nearest = round(q)
    if nearest >= 1 and abs(q - nearest) <= _CELL_COUNT_SNAP * max(1.0, abs(q)):
        return int(nearest)
    return int(math.ceil(q))


def _sites_fit_int64(n: int, d: int) -> bool:
    """n^d <= 2^63 - 1, decided without computing a large power.

    n >= 2^b with b = bit_length - 1, so b*d >= 63 already overflows; below
    that n^d < 2^(63 + d) and the exact power is cheap.
    """
    if n == 1:
        return True
    if (n.bit_length() - 1) * d >= 63:
        return False
    return n**d <= _INT64_MAX


def _compact(n: int) -> str:
    """An integer as written, or in scientific notation past six digits.

    Decimal formats integers of any size; it is imported here because only
    error messages need it.
    """
    from decimal import Decimal

    return str(n) if n < 10**6 else f"{Decimal(n):.3e}"


@dataclass(frozen=True)
class LatticeSpec:
    """Geometry of one lattice: spacing, dimension, cells per axis, box bounds.

    ``cells_per_dim`` must be the count that covers [origin, top] at
    ``delta`` (see ``_cells_to_cover``); ``from_domain`` and ``from_counts``
    meet this by construction.
    """

    delta: float
    d: int
    cells_per_dim: int
    origin: float
    top: float

    def __post_init__(self) -> None:
        if self.delta <= 0.0 or not math.isfinite(self.delta):
            raise ValueError(f"spacing must be positive and finite, got {self.delta}")
        if self.d < 1:
            raise ValueError("dimension must be at least 1")
        if self.cells_per_dim < 1:
            raise ValueError("need at least one cell per axis")
        if not (math.isfinite(self.origin) and math.isfinite(self.top)):
            raise ValueError(f"box bounds must be finite, got [{self.origin}, {self.top}]")
        if not self.origin < self.top:
            raise ValueError(f"need origin < top, got [{self.origin}, {self.top}]")
        if not _sites_fit_int64(self.cells_per_dim, self.d):
            raise CapacityError(
                f"{_compact(self.cells_per_dim)} cells per axis in d = {self.d} "
                "exceed the 64-bit site range"
            )
        cover = _cells_to_cover(self.top - self.origin, self.delta)
        if self.cells_per_dim != cover:
            raise ValueError(
                f"{self.cells_per_dim} cells per axis do not match [{self.origin}, {self.top}] "
                f"at spacing {self.delta}, which takes {cover}"
            )

    @classmethod
    def from_domain(cls, domain: DomainSpec, delta: float) -> "LatticeSpec":
        """Cover a domain with ceil(span/delta) cells per axis (snapped as in
        ``_cells_to_cover``)."""
        if delta <= 0.0 or not math.isfinite(delta):
            raise ValueError(f"spacing must be positive and finite, got {delta}")
        n = _cells_to_cover(domain.span, delta)
        try:
            return cls(delta=delta, d=domain.d, cells_per_dim=n, origin=domain.lo, top=domain.hi)
        except CapacityError as exc:
            raise CapacityError(f"{exc}; use a larger delta or a smaller d") from None

    @classmethod
    def from_counts(cls, n: int, d: int, lo: float, hi: float) -> "LatticeSpec":
        """Exactly n cells per axis with delta = (hi - lo)/n."""
        if n < 1:
            raise ValueError("need at least one cell per axis")
        return cls(delta=(hi - lo) / n, d=d, cells_per_dim=n, origin=lo, top=hi)

    @property
    def site_count(self) -> int:
        return self.cells_per_dim ** self.d

    def axis_position(self, index: int) -> float:
        return self.origin + index * self.delta

    def position(self, site: LatticeIndex) -> tuple[float, ...]:
        """Real coordinates of a site's cell corner (the lower corner)."""
        return tuple(self.origin + i * self.delta for i in site)


def lattice_sites(spec: LatticeSpec) -> Iterator[LatticeIndex]:
    """All sites in lexicographic order."""
    return product(range(spec.cells_per_dim), repeat=spec.d)


def cell_of(spec: LatticeSpec, x: Point | Sequence[float]) -> LatticeIndex:
    """Multi-index of x's cell; the top cell is closed at hi. The quotient
    (c - lo)/delta is rounded twice, to within 2^-51 of itself, so near a
    face c may land one cell off the exact floor, either way, lying at most
    2^-51 (c - lo)/delta cells outside it (< 1e-12 * delta to 2,000 cells)."""
    coords = x.coords if isinstance(x, Point) else tuple(x)
    if len(coords) != spec.d:
        raise DomainError(f"point has dimension {len(coords)}, lattice is {spec.d}-dimensional")
    n = spec.cells_per_dim
    out = []
    for c in coords:
        if not spec.origin <= c <= spec.top:
            raise DomainError(
                f"coordinate {c!r} outside [{spec.origin}, {spec.top}]"
            )
        i = int((c - spec.origin) / spec.delta)
        if i >= n:
            i = n - 1
        out.append(i)
    return tuple(out)


def wedge_size(spec: LatticeSpec, N: int) -> int:
    """C(n^d + N - 1, N); raises CapacityError past the 64-bit range."""
    if N < 1:
        raise ValueError("need at least one slot")
    sites = spec.site_count
    # C(sites - 1 + N, N) == C(sites - 1 + N, sites - 1), built up over the
    # shorter side. Each factor (longer + k)/k is at least 2, so an overflow
    # shows within 63 steps and the exact (possibly huge) binomial is never formed.
    shorter, longer = sorted((N, sites - 1))
    size = 1
    for k in range(1, shorter + 1):
        size = size * (longer + k) // k
        if size > _INT64_MAX:
            raise CapacityError(
                f"wedge of {N} slots over {sites} lattice sites exceeds 64-bit range"
            )
    return size


def _check_wedge_cap(spec: LatticeSpec, N: int, cap: int) -> None:
    """Raise CapacityError, naming the cap it would need, for a wedge above ``cap``."""
    size = wedge_size(spec, N)
    if size > cap:
        raise CapacityError(
            f"wedge has {size} entries, above the cap of {cap}; rerun with cap >= {size}"
        )


def enumerate_wedge(spec: LatticeSpec, N: int, cap: int = DEFAULT_WEDGE_CAP) -> Iterator[WedgeKey]:
    """Non-decreasing N-tuples of sites in lexicographic order.

    Checks the total count against ``cap`` before yielding anything so a
    too-fine lattice fails fast with the cap it would need.
    """
    _check_wedge_cap(spec, N, cap)
    return combinations_with_replacement(lattice_sites(spec), N)


def repetition_constant(zs: WedgeKey) -> int:
    """Product of factorials of site multiplicities within one wedge entry."""
    const = 1
    run = 1
    for prev, cur in zip(zs, zs[1:]):
        if cur == prev:
            run += 1
            const *= run
        else:
            run = 1
    return const


@dataclass(frozen=True, slots=True)
class CellAssignment:
    """Result of locating a configuration: its wedge entry, the sort order
    of the input slots, and the entry's repetition constant.

    ``order`` lists the input slots in wedge order:
    wedge[k] == cell_of(X.points[order[k]]). Its sign is derived from it
    when read.
    """

    wedge: WedgeKey
    order: tuple[int, ...]
    repetition: int

    @property
    def sign(self) -> int:
        """The parity of the sort order, which is the parity of the
        permutation taking input slots to wedge slots: a permutation and its
        inverse have the same parity."""
        return _inversion_sign(self.order)


def locate(spec: LatticeSpec, X: Configuration) -> CellAssignment:
    """Canonicalize a configuration onto the wedge.

    Each point's cell is ``cell_of``'s, face rule included, computed inline
    with the same floor, clamp and DomainError messages. Ties (repeated
    cells) are broken stably by input slot, so ``order`` is deterministic.
    """
    origin = spec.origin
    top = spec.top
    delta = spec.delta
    d = spec.d
    last = spec.cells_per_dim - 1
    cells = []
    for p in X.points:
        coords = p.coords
        if len(coords) != d:
            cell_of(spec, p)  # raises the dimension error
        cell = []
        for c in coords:
            if not origin <= c <= top:
                cell_of(spec, p)  # raises the coordinate error
            i = int((c - origin) / delta)
            cell.append(i if i <= last else last)
        cells.append(tuple(cell))
    order = sorted(range(len(cells)), key=cells.__getitem__)
    wedge = tuple([cells[i] for i in order])
    return CellAssignment(wedge, tuple(order), repetition_constant(wedge))


def corner_configuration(spec: LatticeSpec, zs: WedgeKey) -> Configuration:
    """The configuration sitting at the cell corners of a wedge entry."""
    return Configuration(tuple(Point(spec.position(z)) for z in zs))


def _smoothstep(t: float) -> float:
    # Quintic 6t^5 - 15t^4 + 10t^3: C^2, with s(t) + s(1-t) = 1.
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    return t * t * t * (10.0 + t * (6.0 * t - 15.0))


def _axis_profile(spec: LatticeSpec, index: int, c: float, w: float) -> float:
    """Raw quintic cutoff of cell ``index`` at coordinate c: 1 on the plateau
    [corner + w, corner + delta - w], 0 outside [corner - w, corner + delta + w],
    and exactly 1/2 on a cell face."""
    a = spec.axis_position(index)
    rise_from = a - w
    rise_to = a + w
    fall_from = a + spec.delta - w
    fall_to = a + spec.delta + w
    if c <= rise_from or c >= fall_to:
        return 0.0
    if c < rise_to:
        return _smoothstep((c - rise_from) / (2.0 * w))
    if c <= fall_from:
        return 1.0
    return _smoothstep((fall_to - c) / (2.0 * w))


def _check_smooth_width(spec: LatticeSpec, w: float | None) -> None:
    """Smoothing needs a width 0 < w <= delta/2, so only adjacent cells overlap."""
    if w is None or not 0.0 < w <= spec.delta / 2.0:
        raise ValueError(f"need 0 < smooth width w <= delta/2 = {spec.delta / 2.0}, got w = {w}")


def axis_weight_support(spec: LatticeSpec, c: float, w: float) -> tuple[tuple[int, float], ...]:
    """Cells with a nonzero cutoff at coordinate c along one axis, with the
    profiles normalized to sum to one.

    Away from the domain boundary the raw profiles of adjacent cells already
    sum to one (the quintic satisfies s(t) + s(1-t) = 1); normalizing also
    repairs the deficit of the half-bands at lo and hi. With w <= delta/2 at
    most two cells are active, and the containing cell's profile is >= 1/2,
    so the divisor never degenerates.
    """
    if not spec.origin <= c <= spec.top:
        raise DomainError(f"coordinate {c!r} outside [{spec.origin}, {spec.top}]")
    n = spec.cells_per_dim
    k = int((c - spec.origin) / spec.delta)
    if k >= n:
        k = n - 1
    entries = []
    for index in (k - 1, k, k + 1):
        if 0 <= index < n:
            p = _axis_profile(spec, index, c, w)
            if p > 0.0:
                entries.append((index, p))
    total = 0.0
    for _, p in entries:
        total += p
    return tuple((index, p / total) for index, p in entries)


def site_weight_support(
    spec: LatticeSpec, x: Point | Sequence[float], w: float
) -> tuple[tuple[LatticeIndex, float], ...]:
    """Tensor product of the per-axis supports: the sites a single point
    spreads its unit mass over. Weights sum to one."""
    _check_smooth_width(spec, w)
    coords = x.coords if isinstance(x, Point) else tuple(x)
    if len(coords) != spec.d:
        raise DomainError(f"point has dimension {len(coords)}, lattice is {spec.d}-dimensional")
    axis_supports = [axis_weight_support(spec, c, w) for c in coords]
    out = []
    for combo in product(*axis_supports):
        weight = 1.0
        for _, p in combo:
            weight *= p
        out.append((tuple(index for index, _ in combo), weight))
    return tuple(out)
