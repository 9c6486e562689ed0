"""Regular box lattices over [lo, hi]^d and their symmetrized (wedge) index sets.

Cells are half-open boxes [corner, corner + delta) per coordinate, with the
top cell closed so the domain boundary hi stays covered; operationally a
coordinate maps to min(floor((x - lo)/delta), n - 1). The wedge is the set
of lexicographically non-decreasing N-tuples of lattice sites; it is in
bijection with multisets of N sites and has C(n^d + N - 1, N) elements.

Below the public API a site is its number, its position in ``lattice_sites``
(row-major) order, and a ``Wedge`` counts, ranks and unranks sorted rows of them.
Only this module turns a number back into its multi-index, and only
``_site_digits`` does it, for one number or an array of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, product
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .core import Configuration, DomainSpec, _inversion_sign
from .errors import CapacityError, DomainError

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

    def __hash__(self) -> int:
        return self._hash

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
        # the hash of the fields, made once: specs key every lru_cache here,
        # and ``_axis_bands`` is looked up once per point of a smooth eval
        fields = (self.delta, self.d, self.cells_per_dim, self.origin, self.top)
        object.__setattr__(self, "_hash", hash(fields))

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

    def position(self, site: LatticeIndex) -> tuple[float, ...]:
        """Real coordinates of a site's cell corner (the lower corner)."""
        return tuple([self.origin + i * self.delta for i in site])


def lattice_sites(spec: LatticeSpec) -> Iterator[LatticeIndex]:
    """All sites in lexicographic order."""
    return product(range(spec.cells_per_dim), repeat=spec.d)


def cell_of(spec: LatticeSpec, x: Sequence[float]) -> LatticeIndex:
    """Multi-index of x's cell; the top cell is closed at hi. The quotient
    (c - lo)/delta is rounded twice, to within 2^-51 of itself, so near a
    face c may land one cell off the exact floor, either way, lying at most
    2^-51 (c - lo)/delta cells outside it (< 1e-12 * delta to 2,000 cells)."""
    if len(x) != spec.d:
        raise DomainError(f"point has dimension {len(x)}, lattice is {spec.d}-dimensional")
    n = spec.cells_per_dim
    out = []
    for c in x:
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
    return _wedge_of(spec, N, False).size


def _check_wedge_cap(spec: LatticeSpec, N: int, cap: int) -> None:
    """Raise CapacityError, naming the cap it would need, for a wedge above ``cap``."""
    size = wedge_size(spec, N)
    if size > cap:
        raise CapacityError(
            f"wedge has {size} entries, above the cap of {cap}; rerun with cap >= {size}"
        )


def enumerate_wedge(spec: LatticeSpec, N: int) -> Iterator[WedgeKey]:
    """Non-decreasing N-tuples of sites in lexicographic order.

    Checks the total count against ``DEFAULT_WEDGE_CAP`` before yielding
    anything so a too-fine lattice fails fast with the cap it would need.
    """
    _check_wedge_cap(spec, N, DEFAULT_WEDGE_CAP)
    return combinations_with_replacement(lattice_sites(spec), N)


def repetition_constant(zs: WedgeKey) -> int:
    """Product of factorials of site multiplicities within one wedge entry.
    The sites may also be (K,) int columns of sorted rows, which gives the K
    constants as a (K,) int64 array (1 when there is no pair), exact up to
    N = 20."""
    const = 1
    run = 1
    for prev, cur in zip(zs, zs[1:]):
        run = run * (cur == prev) + 1  # 1 where a new run starts
        const *= run
    return const


def _site_digits(spec: LatticeSpec, num: int | np.ndarray) -> np.ndarray:
    """The multi-index of each site number in ``num`` (an int or an int64
    array), as an int64 array of shape np.shape(num) + (d,): its row-major
    digits, read off the last axis first by integer division, at any d."""
    out = np.empty((*np.shape(num), spec.d), dtype=np.int64)
    for a in reversed(range(spec.d)):
        num, out[..., a] = divmod(num, spec.cells_per_dim)
    return out


def _site_index(spec: LatticeSpec) -> np.ndarray:
    """The sites' multi-indices as a (site_count, d) int64 array in
    ``lattice_sites`` order, so row s is site number s."""
    return _site_digits(spec, np.arange(spec.site_count, dtype=np.int64))


class Wedge:
    """The wedge of N slots over ``sites`` sites: its entries' sorted rows of
    site numbers (of N distinct sites if ``strict``), ranked in lexicographic
    order, as ``combinations_with_replacement`` (``combinations``) makes the
    site tuples. ``_wedge_of`` makes one per (spec, N, strict)."""

    def __init__(self, sites: int, N: int, strict: bool) -> None:
        self.sites, self.N, self.strict = sites, N, strict
        # C(m, N) >= 2^k, k the shorter of N and m - N: past k = 63 it is not formed
        m = sites + (0 if strict else N - 1)
        self.size = math.comb(m, N) if min(N, m - N) < 64 else _INT64_MAX + 1
        if self.size > _INT64_MAX:
            raise CapacityError(f"{'strict ' if strict else ''}wedge of {N} slots over {sites} "
                                "lattice sites exceeds 64-bit range")

    @cached_property
    def terms(self) -> np.ndarray:
        """The read-only (N, sites) int64 rank terms, rows non-decreasing: sorted
        site numbers s rank as sum_i terms[i, s_i] = C(m, N) - 1 - sum_i
        C(m - 1 - t_i, N - i), t_i = s_i (plus i unless strict). As C(x, k) sums
        C(y, k - 1) over y < x, row i sums row i + 1 from the last site back (from
        the next on if strict); int64 sums wrap, leaving each C <= C(m, N) - 1 exact."""
        S, N, step = self.sites, self.N, int(self.strict)
        terms = np.zeros((N, S), dtype=np.int64)
        row = np.ones(S, dtype=np.int64)  # C(x, 0); x = -1 at the last site unless strict
        row[S - 1] = step
        for i in reversed(range(N)):
            terms[i, : S - step] = row[::-1].cumsum()[::-1][step:]
            row = terms[i]
        np.negative(terms, out=terms)
        terms[:1] += self.size - 1  # no row at N = 0
        terms.setflags(write=False)
        return terms

    @cached_property
    def lists(self) -> list[list[int]]:
        """``terms`` as lists, which the scalar evals index by site number."""
        return self.terms.tolist()

    def rank(self, num: np.ndarray) -> np.ndarray:
        """The ranks of the sorted rows of site numbers num (B, N), as (B,)."""
        return self.terms[np.arange(self.N), num].sum(axis=1)

    def rows(self, start: int, stop: int) -> np.ndarray:
        """The (stop - start, N) int64 rows of the entries ranked start to stop - 1:
        column j's site is the first whose term reaches the rank left (later terms are <= 0)."""
        out = np.empty((stop - start, self.N), dtype=np.int64)
        if start == stop:
            return out
        left = np.arange(start, stop, dtype=np.int64)
        for j, terms in enumerate(self.terms):
            out[:, j] = site = terms.searchsorted(left)
            left -= terms[site]
        return out


@lru_cache(maxsize=8)
def _wedge_of(spec: LatticeSpec, N: int, strict: bool) -> Wedge:
    """The Wedge of N slots over ``spec``'s sites, made once per (spec, N, strict)."""
    return Wedge(spec.site_count, N, strict)


def _repetition_constants(num: np.ndarray) -> np.ndarray:
    """``repetition_constant`` of each sorted row of site numbers ``num``
    (K, N), as floats: a float divides by them as by the int. Up to N = 20
    it is the one text run on num's columns; past that a constant may leave
    int64, so those are Python ints."""
    K, N = num.shape
    if N > 20:
        return np.array([float(repetition_constant(row)) for row in num.tolist()])
    return np.full(K, repetition_constant(num.T), dtype=np.float64)


class CellAssignment(NamedTuple):
    """Result of locating a configuration on a lattice: its wedge entry as
    sorted site numbers, the sort order of the input slots, and the entry's
    repetition constant.

    ``order`` lists the input slots in wedge order: sites[k] is the number
    of X.rows[order[k]]'s cell. The entry's site tuples (``wedge``) and
    the order's sign are derived when read. A named tuple, so its fields are
    read-only and ``locate`` builds one at tuple cost (every scalar
    indicator eval makes one).
    """

    sites: tuple[int, ...]
    order: tuple[int, ...]
    repetition: int
    spec: LatticeSpec

    @property
    def wedge(self) -> WedgeKey:
        """The entry as sites: wedge[k] == cell_of(spec, X.rows[order[k]]),
        the sites' numbers decoded by ``_site_digits``."""
        return tuple(map(tuple, _site_digits(self.spec, np.array(self.sites)).tolist()))

    @property
    def sign(self) -> int:
        """The parity of the sort order, which is the parity of the
        permutation taking input slots to wedge slots: a permutation and its
        inverse have the same parity."""
        return _inversion_sign(self.order)


def locate(spec: LatticeSpec, X: Configuration) -> CellAssignment:
    """Canonicalize a configuration onto the wedge.

    Each point's cell is ``cell_of``'s, face rule included, computed inline
    with the same floor, clamp and DomainError messages, and folded into its
    site number an axis at a time. Ties (repeated cells) are broken stably
    by input slot, so ``order`` is deterministic.
    """
    origin = spec.origin
    top = spec.top
    delta = spec.delta
    d = spec.d
    n = spec.cells_per_dim
    last = n - 1
    numbers = []
    for coords in X.rows:
        if len(coords) != d:
            cell_of(spec, coords)  # raises the dimension error
        site = 0
        for c in coords:
            if not origin <= c <= top:
                cell_of(spec, coords)  # raises the coordinate error
            i = int((c - origin) / delta)
            site = site * n + (i if i <= last else last)
        numbers.append(site)
    order = sorted(range(len(numbers)), key=numbers.__getitem__)
    sites = tuple([numbers[i] for i in order])
    return CellAssignment(sites, tuple(order), repetition_constant(sites), spec)


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


def corner_configuration(spec: LatticeSpec, zs: WedgeKey) -> Configuration:
    """The configuration sitting at the cell corners of a wedge entry."""
    return Configuration(tuple(map(spec.position, zs)))


def _smoothstep(t: float) -> float:
    # Quintic 6t^5 - 15t^4 + 10t^3: C^2, with s(t) + s(1-t) = 1.
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    return t * t * t * (10.0 + t * (6.0 * t - 15.0))


def _check_smooth_width(spec: LatticeSpec, w: float | None) -> None:
    """Smoothing needs a width 0 < w <= delta/2, so only adjacent cells overlap."""
    if w is None or not 0.0 < w <= spec.delta / 2.0:
        raise ValueError(f"need 0 < smooth width w <= delta/2 = {spec.delta / 2.0}, got w = {w}")


@lru_cache(maxsize=8)
def _axis_bands(spec: LatticeSpec, w: float) -> tuple[tuple[float, float, float, float], ...]:
    """The cutoff band ends of each cell index along an axis at width w, as
    (a - w, a + delta + w, a + w, a + delta - w) with a = origin + index*delta:
    where the cell's cutoff leaves 0, returns to 0, reaches 1 and leaves 1.
    Made, and w checked, once per (spec, w); the tuples are shared."""
    _check_smooth_width(spec, w)
    origin = spec.origin
    delta = spec.delta
    bands = []
    for index in range(spec.cells_per_dim):
        a = origin + index * delta
        bands.append((a - w, a + delta + w, a + w, a + delta - w))
    return tuple(bands)


def site_weight_support(
    spec: LatticeSpec, x: Sequence[float], w: float
) -> tuple[tuple[int, float], ...]:
    """The sites a single point spreads its unit mass over and their
    weights, as (site number, weight) pairs in increasing number order; the
    weights sum to one. A site's number is its position in ``lattice_sites``
    order (row-major), so number order is the sites' lexicographic order.

    Along an axis the cell with corner a has the quintic cutoff rising over
    [a - w, a + w] as s((c - (a - w)) / (2w)), 1 up to a + delta - w and
    falling to 0 at a + delta + w; with w <= delta/2 only the containing
    cell and its neighbours can be nonzero; their band ends are read from
    ``_axis_bands``, made once per (spec, w). Dividing by their sum repairs
    the half-bands at lo and hi (elsewhere s(t) + s(1-t) = 1 already), and
    the containing cell's profile is >= 1/2. A site's weight is the product
    of its axes' weights, in axis order. On an interior face the two cells
    meeting there weigh exactly 1/2 when the band ends and quotients are
    exact (a dyadic delta and w on a box with dyadic ends), and otherwise
    within 2^-51 * max(|lo|, |hi|) / w of 1/2.
    """
    bands = _axis_bands(spec, w)
    if len(x) != spec.d:
        raise DomainError(f"point has dimension {len(x)}, lattice is {spec.d}-dimensional")
    origin = spec.origin
    top = spec.top
    delta = spec.delta
    n = spec.cells_per_dim
    width = 2.0 * w
    out: list[tuple[int, float]] | None = None
    for c in x:
        if not origin <= c <= top:
            raise DomainError(f"coordinate {c!r} outside [{origin}, {top}]")
        k = int((c - origin) / delta)
        if k >= n:
            k = n - 1
        axis = []
        total = 0.0
        for index in range(k - 1 if k else 0, k + 2 if k + 2 < n else n):
            rise_from, fall_to, rise_to, fall_from = bands[index]
            if c <= rise_from or c >= fall_to:
                continue
            if c < rise_to:
                p = _smoothstep((c - rise_from) / width)
            elif c <= fall_from:
                p = 1.0
            else:
                p = _smoothstep((fall_to - c) / width)
            if p > 0.0:
                axis.append((index, p))
                total += p
        if total != 1.0:  # p / 1.0 is p
            axis = [(index, p / total) for index, p in axis]
        # The first axis' weights are its sites' (1.0 * p is p); each further
        # axis multiplies them in, one site number digit at a time.
        if out is None:
            out = axis
        else:
            out = [(site * n + index, weight * p) for site, weight in out for index, p in axis]
    return tuple(out)
