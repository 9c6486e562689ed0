import math
import time
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symwedge import (
    CapacityError,
    Configuration,
    DomainError,
    DomainSpec,
    LatticeSpec,
    Permutation,
    cell_of,
    corner_configuration,
    enumerate_wedge,
    lattice_sites,
    locate,
    parity,
    permute,
    repetition_constant,
    wedge_size,
)
from symwedge.lattice import (
    _axis_profile,
    axis_weight_support,
    site_weight_support,
)

UNIT_1D = DomainSpec(d=1, N=2, lo=0.0, hi=1.0)


def spec_1d(delta):
    return LatticeSpec.from_domain(UNIT_1D, delta)


def cfg(*rows):
    return Configuration.from_rows(rows)


# ---------------------------------------------------------------- LatticeSpec


def test_from_domain_cell_counts():
    assert spec_1d(0.5).cells_per_dim == 2
    assert spec_1d(0.3).cells_per_dim == 4  # ceil(10/3)
    assert spec_1d(1.0).cells_per_dim == 1


def test_from_domain_snaps_float_dust():
    # 1.0 / 0.2499999999998887 = 4.0000000000018, must not become 5 cells
    assert spec_1d(0.2499999999998887).cells_per_dim == 4
    # a genuinely non-integer quotient still rounds up
    assert spec_1d(0.4).cells_per_dim == 3


def test_lattice_spec_validation():
    with pytest.raises(ValueError):
        spec_1d(0.0)
    with pytest.raises(ValueError):
        spec_1d(-0.25)
    with pytest.raises(ValueError):
        LatticeSpec(delta=0.5, d=1, cells_per_dim=2, origin=1.0, top=0.0)


@pytest.mark.parametrize("origin, top", [(-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0)])
def test_lattice_spec_rejects_non_finite_bounds(origin, top):
    with pytest.raises(ValueError):
        LatticeSpec(delta=0.5, d=1, cells_per_dim=2, origin=origin, top=top)


def test_lattice_spec_64bit_guard():
    with pytest.raises(CapacityError):
        LatticeSpec(delta=0.1, d=20, cells_per_dim=10, origin=0.0, top=1.0)


@pytest.mark.parametrize(
    "n, d, fits", [(2, 62, True), (2, 63, False), (3037000499, 2, True), (3037000500, 2, False)]
)
def test_lattice_spec_64bit_boundary(n, d, fits):
    # 2^62 and 3037000499^2 sites fit in a signed 64-bit integer, 2^63 and 3037000500^2 do not
    def make():
        return LatticeSpec(delta=1.0, d=d, cells_per_dim=n, origin=0.0, top=float(n))

    if fits:
        assert make().site_count == n**d <= 2**63 - 1
    else:
        with pytest.raises(CapacityError, match=f"cells per axis in d = {d} exceed"):
            make()


def test_lattice_spec_64bit_guard_skips_the_large_power():
    # computing 3^(10^7) exactly takes seconds; the check must not need it
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="3 cells per axis in d = 10000000 exceed"):
        LatticeSpec(delta=0.5, d=10**7, cells_per_dim=3, origin=0.0, top=1.5)
    assert time.perf_counter() - start < 0.5


def test_capacity_message_prints_large_counts_compactly():
    with pytest.raises(CapacityError, match=r"^3\.037e\+9 cells per axis in d = 2 exceed"):
        LatticeSpec(delta=1.0, d=2, cells_per_dim=3037000500, origin=0.0, top=3037000500.0)
    with pytest.raises(CapacityError, match="^1000 cells per axis in d = 7 exceed"):
        LatticeSpec(delta=1.0, d=7, cells_per_dim=1000, origin=0.0, top=1000.0)


@pytest.mark.parametrize(
    "delta, cells, origin, top",
    [(0.25, 2, 0.0, 1.0), (0.5, 1, 0.0, 1.0), (0.5, 3, 0.0, 1.0), (0.3, 3, 0.0, 1.0)],
)
def test_lattice_spec_requires_the_covering_cell_count(delta, cells, origin, top):
    with pytest.raises(ValueError, match="cells per axis do not match"):
        LatticeSpec(delta=delta, d=2, cells_per_dim=cells, origin=origin, top=top)


def test_lattice_spec_accepts_a_partial_top_cell():
    # ceil(1/0.3) = 4 cells; the last one reaches past top
    assert LatticeSpec(delta=0.3, d=1, cells_per_dim=4, origin=0.0, top=1.0).site_count == 4


def test_lattice_spec_span_without_a_finite_cell_count():
    with pytest.raises(ValueError, match="no finite cell count"):
        LatticeSpec(delta=1.0, d=1, cells_per_dim=2, origin=-1e308, top=1e308)
    with pytest.raises(ValueError, match="no finite cell count"):
        LatticeSpec.from_domain(DomainSpec(d=1, N=2, lo=-1e308, hi=1e308), 1.0)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-0.3, 1.1), (-7.0, -2.5), (1e-3, 1e3)])
def test_constructors_meet_the_cell_count_rule(lo, hi):
    for n in range(1, 200):
        assert LatticeSpec.from_counts(n, 2, lo, hi).cells_per_dim == n
        delta = (hi - lo) / n
        assert LatticeSpec.from_domain(DomainSpec(d=1, N=1, lo=lo, hi=hi), delta).cells_per_dim == n
        LatticeSpec.from_domain(DomainSpec(d=1, N=1, lo=lo, hi=hi), delta * 1.37)


def test_from_counts():
    spec = LatticeSpec.from_counts(4, 2, 0.0, 1.0)
    assert spec.delta == 0.25
    assert spec.site_count == 16
    assert spec.position((1, 3)) == (0.25, 0.75)


# ---------------------------------------------------------------- ordering


def test_lattice_sites_order():
    spec = LatticeSpec.from_counts(2, 2, 0.0, 1.0)
    assert list(lattice_sites(spec)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


# ---------------------------------------------------------------- cell_of


def test_cell_of_half_open_convention():
    spec = spec_1d(0.5)
    from symwedge import Point

    assert cell_of(spec, Point((0.49,))) == (0,)
    assert cell_of(spec, Point((0.5,))) == (1,)
    assert cell_of(spec, Point((1.0,))) == (1,)  # top face belongs to the last cell
    assert cell_of(spec, Point((0.0,))) == (0,)


def test_cell_of_rejects_out_of_domain():
    spec = spec_1d(0.5)
    from symwedge import Point

    with pytest.raises(DomainError):
        cell_of(spec, Point((1.0000001,)))
    with pytest.raises(DomainError):
        cell_of(spec, Point((-0.1,)))


FACE_BOXES = [(0.0, 1.0), (-1.0, 1.0), (0.1, 0.7), (-2.5, 3.75), (1 / 3, 2 / 3)]
FACE_COUNTS = [1, 2, 3, 5, 7, 8, 10, 13, 31, 100]


def near_faces(spec):
    """Each cell face of one axis and the three floats to either side of it,
    where they lie in [lo, hi]."""
    coords = []
    for k in range(spec.cells_per_dim + 1):
        below = above = spec.axis_position(k)
        coords.append(below)
        for _ in range(3):
            below = math.nextafter(below, -math.inf)
            above = math.nextafter(above, math.inf)
            coords += [below, above]
    return [c for c in coords if spec.origin <= c <= spec.top]


def face_rule_miss(spec, c, i):
    """In exact rational arithmetic: how many cells index i lies from
    min(floor(q), n - 1) for q = (c - lo)/delta, how far c lies outside cell
    i in units of delta, and q."""
    lo, delta, x = Fraction(spec.origin), Fraction(spec.delta), Fraction(c)
    last = spec.cells_per_dim - 1
    q = (x - lo) / delta
    left = lo + i * delta
    right = Fraction(spec.top) if i == last else left + delta
    return abs(i - min(math.floor(q), last)), max(left - x, x - right, 0) / delta, q


@pytest.mark.parametrize("lo, hi", FACE_BOXES)
def test_cell_of_and_locate_keep_the_face_rule(lo, hi):
    # the float quotient may put a coordinate next to a face one cell off,
    # but never further, and never more than 2^-51 q cells (here below
    # 1e-12 * delta) outside its cell
    off_by_one = 0
    for n in FACE_COUNTS:
        spec = LatticeSpec.from_counts(n, 2, lo, hi)
        coords = near_faces(spec)
        points = list(zip(coords, reversed(coords)))
        asg = locate(spec, cfg(*points))
        located = [None] * len(points)
        for slot, cell in zip(asg.order, asg.wedge):
            located[slot] = cell
        for point, cell in zip(points, located):
            assert cell_of(spec, point) == cell
            for c, i in zip(point, cell):
                shift, outside, q = face_rule_miss(spec, c, i)
                assert shift <= 1
                assert outside <= Fraction(2**-51) * q
                assert outside <= Fraction(1, 10**12)
                off_by_one += shift
    assert off_by_one > 0  # the rule is met, not vacuous


# ---------------------------------------------------------------- wedge


def test_enumerate_wedge_d1_example():
    spec = spec_1d(0.5)
    assert list(enumerate_wedge(spec, 2)) == [
        ((0,), (0,)),
        ((0,), (1,)),
        ((1,), (1,)),
    ]


def test_enumerate_wedge_d2_count():
    spec = LatticeSpec.from_counts(2, 2, 0.0, 1.0)
    entries = list(enumerate_wedge(spec, 2))
    assert len(entries) == 10  # C(4 + 1, 2)


def test_wedge_of_single_point_is_the_lattice():
    spec = LatticeSpec.from_counts(3, 2, 0.0, 1.0)
    assert list(enumerate_wedge(spec, 1)) == [(s,) for s in lattice_sites(spec)]
    assert wedge_size(spec, 1) == 9


def test_wedge_size_matches_enumeration_small_grid():
    for n, d, N in product(range(1, 5), range(1, 3), range(1, 5)):
        spec = LatticeSpec.from_counts(n, d, 0.0, 1.0)
        entries = list(enumerate_wedge(spec, N))
        assert len(entries) == wedge_size(spec, N) == math.comb(n**d + N - 1, N)
        # strictly increasing in tuple-lexicographic order, hence no duplicates
        assert all(a < b for a, b in zip(entries, entries[1:]))
        assert all(all(z1 <= z2 for z1, z2 in zip(e, e[1:])) for e in entries)


def test_enumerate_wedge_cap_names_required_size():
    spec = spec_1d(0.5)
    with pytest.raises(CapacityError, match="cap >= 3"):
        list(enumerate_wedge(spec, 2, cap=2))


def test_wedge_size_overflow_guard():
    spec = LatticeSpec.from_counts(100, 2, 0.0, 1.0)
    with pytest.raises(CapacityError):
        wedge_size(spec, 10)


@pytest.mark.parametrize("n, d, N", [(10**6, 1, 50), (64, 3, 10**6), (2, 1, 2**63 - 1)])
def test_wedge_size_overflow_is_decided_without_the_binomial(n, d, N):
    # C(64^3 + 10^6 - 1, 10^6) has 280,037 digits and took seconds to form
    spec = LatticeSpec.from_counts(n, d, 0.0, 1.0)
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=f"^wedge of {N} slots over {n**d} lattice sites exceeds"):
        wedge_size(spec, N)
    assert time.perf_counter() - start < 0.5


def test_wedge_size_equals_the_binomial_up_to_the_64bit_limit():
    for n, d in [(1, 1), (2, 1), (3, 2), (5, 3), (2, 20), (1000, 2)]:
        spec = LatticeSpec.from_counts(n, d, 0.0, 1.0)
        for N in [1, 2, 3, 7, 20, 63, 64, 100, 10**4]:
            size = math.comb(n**d + N - 1, N)
            if size <= 2**63 - 1:
                assert wedge_size(spec, N) == size
            else:
                with pytest.raises(CapacityError):
                    wedge_size(spec, N)
    # two sites: C(N + 1, N) = N + 1 reaches 2^63 - 1 at N = 2^63 - 2
    assert wedge_size(LatticeSpec.from_counts(2, 1, 0.0, 1.0), 2**63 - 2) == 2**63 - 1
    assert wedge_size(LatticeSpec.from_counts(2, 62, 0.0, 1.0), 1) == 2**62


# ---------------------------------------------------------------- repetition


def test_repetition_constant_examples():
    assert repetition_constant(((0,), (1,))) == 1
    assert repetition_constant(((0,), (0,), (1,))) == 2
    assert repetition_constant(((1,), (1,), (1,))) == 6


# ---------------------------------------------------------------- locate


def test_locate_swapped_points():
    spec = spec_1d(0.5)
    asg = locate(spec, cfg([0.7], [0.2]))
    assert asg.wedge == ((0,), (1,))
    assert asg.order == (1, 0)
    assert asg.sign == -1
    assert asg.repetition == 1


def test_locate_sorted_points_is_identity():
    spec = spec_1d(0.5)
    asg = locate(spec, cfg([0.2], [0.7]))
    assert asg.order == (0, 1)
    assert asg.sign == 1


def test_locate_repeated_cell():
    spec = spec_1d(0.5)
    asg = locate(spec, cfg([0.1], [0.3]))
    assert asg.wedge == ((0,), (0,))
    assert asg.repetition == 2


def test_locate_out_of_domain():
    spec = spec_1d(0.5)
    with pytest.raises(DomainError):
        locate(spec, cfg([0.2], [1.2]))


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[0.2, 0.3], [1.2, 0.3]], "coordinate 1.2 outside [0.0, 1.0]"),
        ([[0.2, 0.3], [0.4, -0.25]], "coordinate -0.25 outside [0.0, 1.0]"),
        ([[1.5, 0.3], [0.4, -0.25]], "coordinate 1.5 outside [0.0, 1.0]"),  # first in slot order
        ([[0.2, 1.0000000000000002], [0.4, 0.3]], "coordinate 1.0000000000000002 outside [0.0, 1.0]"),
        ([[0.2], [0.4]], "point has dimension 1, lattice is 2-dimensional"),
        ([[0.2, 0.3, 0.1], [9.0, 0.3, 0.1]], "point has dimension 3, lattice is 2-dimensional"),
    ],
)
def test_locate_domain_error_messages(rows, message):
    spec = LatticeSpec.from_counts(4, 2, 0.0, 1.0)
    X = cfg(*rows)
    with pytest.raises(DomainError) as info:
        locate(spec, X)
    assert str(info.value) == message


def test_locate_slot_consistency():
    # cell_of(points[order[k]]) must equal wedge[k]
    spec = LatticeSpec.from_counts(3, 2, 0.0, 1.0)
    rng = np.random.Generator(np.random.Philox(31))
    from symwedge import Point

    for _ in range(200):
        X = cfg(*rng.random((3, 2)).tolist())
        asg = locate(spec, X)
        for k, i in enumerate(asg.order):
            assert cell_of(spec, X.points[i]) == asg.wedge[k]


def test_locate_wedge_is_permutation_invariant():
    spec = LatticeSpec.from_counts(4, 1, 0.0, 1.0)
    rng = np.random.Generator(np.random.Philox(32))
    for _ in range(200):
        X = cfg(*rng.random((3, 1)).tolist())
        sigma = Permutation(tuple(int(i) for i in rng.permutation(3)))
        a, b = locate(spec, X), locate(spec, permute(X, sigma))
        assert a.wedge == b.wedge
        if a.repetition == 1:
            assert b.sign * parity(sigma) == a.sign


def _old_locate(spec, X):
    # reference: cell_of per point, a stable sort, images built from the order
    cells = [cell_of(spec, p) for p in X.points]
    order = sorted(range(len(cells)), key=cells.__getitem__)
    images = [0] * len(cells)
    for slot, i in enumerate(order):
        images[i] = slot
    wedge = tuple(cells[i] for i in order)
    return wedge, tuple(order), tuple(images), repetition_constant(wedge)


@pytest.mark.parametrize(
    "N, repeated", [(N, False) for N in range(1, 6)] + [(N, True) for N in range(2, 6)]
)
def test_locate_matches_the_old_construction_under_every_permutation(N, repeated):
    spec = LatticeSpec.from_counts(6, 2, 0.0, 1.0)
    # distinct cells, one on a cell face and one at hi; or the last slot
    # sharing slot 0's cell
    rows = [[0.05, 0.9], [0.5, 0.5], [1.0, 1.0], [0.7, 0.05], [0.3, 0.95]][:N]
    if repeated:
        rows[-1] = [0.06, 0.91]
    X = cfg(*rows)
    for images in permutations(range(N)):
        Y = permute(X, Permutation(images))
        asg = locate(spec, Y)
        wedge, order, old_images, repetition = _old_locate(spec, Y)
        assert (asg.wedge, asg.order, asg.repetition) == (wedge, order, repetition)
        assert asg.sign == parity(Permutation(old_images))


def test_partition_exactly_one_wedge_entry_covers():
    # the sorted cell multiset is the unique covering entry by construction
    spec = LatticeSpec.from_counts(3, 1, 0.0, 1.0)
    rng = np.random.Generator(np.random.Philox(33))
    from symwedge import Point

    for _ in range(2000):
        X = cfg(*rng.random((2, 1)).tolist())
        cells = tuple(sorted(cell_of(spec, p) for p in X.points))
        assert locate(spec, X).wedge == cells


@given(
    st.lists(st.floats(0.0, 1.0, allow_nan=False, width=32), min_size=2, max_size=5),
    st.integers(1, 4),
)
def test_locate_round_trips_corner(coords, n):
    spec = LatticeSpec.from_counts(n, 1, 0.0, 1.0)
    X = cfg(*[[c] for c in coords])
    asg = locate(spec, X)
    assert asg.wedge == tuple(sorted(asg.wedge))
    assert repetition_constant(asg.wedge) == asg.repetition


# ---------------------------------------------------------------- corners


def test_corner_configuration_positions():
    spec = spec_1d(0.5)
    assert corner_configuration(spec, ((0,), (1,))).rows() == ((0.0,), (0.5,))


# ---------------------------------------------------------------- cutoffs


def test_smooth_cutoff_plateau_face_outside():
    spec = spec_1d(0.5)
    w = 0.125
    assert site_weight_support(spec, (0.25,), w) == (((0,), 1.0),)
    assert site_weight_support(spec, (0.5,), w) == (((0,), 0.5), ((1,), 0.5))
    assert site_weight_support(spec, (0.7,), w) == (((1,), 1.0),)


def test_smooth_cutoff_2d_is_a_product():
    spec = LatticeSpec.from_counts(2, 2, 0.0, 1.0)
    w = 0.1
    support = dict(site_weight_support(spec, (0.5, 0.25), w))
    assert support == {(0, 0): 0.5 * 1.0, (1, 0): 0.5 * 1.0}


def test_smooth_cutoff_width_range():
    spec = spec_1d(0.5)
    with pytest.raises(ValueError):
        site_weight_support(spec, (0.25,), 0.0)
    with pytest.raises(ValueError):
        site_weight_support(spec, (0.25,), 0.26)  # above delta/2


def test_adjacent_cutoffs_sum_to_one_on_transition_band():
    # the raw profiles, before axis_weight_support normalizes them
    spec = spec_1d(0.5)
    w = 0.125
    for x in np.linspace(0.5 - w, 0.5 + w, 33):
        total = _axis_profile(spec, 0, float(x), w) + _axis_profile(spec, 1, float(x), w)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_axis_weight_support_normalized():
    spec = spec_1d(0.25)
    for x in (0.0, 0.13, 0.25, 0.26, 0.5, 0.999, 1.0):
        support = axis_weight_support(spec, x, 0.06)
        assert sum(p for _, p in support) == pytest.approx(1.0, abs=1e-15)
        assert all(p > 0.0 for _, p in support)


def test_site_weight_support_normalized_2d():
    spec = LatticeSpec.from_counts(4, 2, 0.0, 1.0)
    from symwedge import Point

    support = site_weight_support(spec, Point((0.26, 0.74)), 0.06)
    assert sum(p for _, p in support) == pytest.approx(1.0, abs=1e-14)
    assert len({site for site, _ in support}) == len(support)
