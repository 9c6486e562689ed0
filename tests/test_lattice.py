import math
from itertools import combinations_with_replacement, product

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
    smooth_cutoff,
    wedge_size,
)
from symwedge.lattice import (
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
    assert asg.sigma.images == (1, 0)
    assert asg.sign == -1
    assert asg.repetition == 1


def test_locate_sorted_points_is_identity():
    spec = spec_1d(0.5)
    asg = locate(spec, cfg([0.2], [0.7]))
    assert asg.sigma.images == (0, 1)
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


def test_locate_slot_consistency():
    # cell_of(points[i]) must equal wedge[sigma.images[i]]
    spec = LatticeSpec.from_counts(3, 2, 0.0, 1.0)
    rng = np.random.Generator(np.random.Philox(31))
    from symwedge import Point

    for _ in range(200):
        X = cfg(*rng.random((3, 2)).tolist())
        asg = locate(spec, X)
        for i, p in enumerate(X.points):
            assert cell_of(spec, p) == asg.wedge[asg.sigma.images[i]]


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
    assert smooth_cutoff(spec, (0,), (0.25,), w) == 1.0
    assert smooth_cutoff(spec, (0,), (0.5,), w) == 0.5
    assert smooth_cutoff(spec, (1,), (0.5,), w) == 0.5
    assert smooth_cutoff(spec, (0,), (0.7,), w) == 0.0


def test_smooth_cutoff_2d_is_a_product():
    spec = LatticeSpec.from_counts(2, 2, 0.0, 1.0)
    w = 0.1
    v = smooth_cutoff(spec, (0, 0), (0.5, 0.25), w)
    assert v == pytest.approx(0.5 * 1.0, abs=1e-15)


def test_smooth_cutoff_width_range():
    spec = spec_1d(0.5)
    with pytest.raises(ValueError):
        smooth_cutoff(spec, (0,), (0.25,), 0.0)
    with pytest.raises(ValueError):
        smooth_cutoff(spec, (0,), (0.25,), 0.26)  # above delta/2


def test_adjacent_cutoffs_sum_to_one_on_transition_band():
    spec = spec_1d(0.5)
    w = 0.125
    for x in np.linspace(0.5 - w, 0.5 + w, 33):
        total = smooth_cutoff(spec, (0,), (float(x),), w) + smooth_cutoff(
            spec, (1,), (float(x),), w
        )
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
