import math
import re

import numpy as np
import pytest

from symwedge import (
    MODE_INDICATOR,
    MODE_PROJECTED,
    MODE_RANK,
    MODE_SMOOTH,
    BuildError,
    CapacityError,
    Configuration,
    DomainError,
    DomainSpec,
    LatticeSpec,
    Permutation,
    Symmetry,
    TargetFunction,
    build_antisym,
    build_sym,
    builtin_target,
    cell_of,
    corner_configuration,
    delta_for_epsilon,
    enumerate_wedge,
    epsilon_density_limit,
    error_budget,
    eval_sym,
    eval_sym_feature_form,
    feature_budget_bound,
    feature_count,
    permanent_ryser_logdomain,
    permute,
    sample_configurations,
)
from symwedge.approx_sym import corner_values, smooth_weights

FEATURE_TOL = 1e-9
PARTITION_TOL = 1e-12


def cfg(*rows):
    return Configuration.from_rows(rows)


def unit_domain(d, N):
    return DomainSpec(d=d, N=N, lo=0.0, hi=1.0)


def constant_target(value):
    return TargetFunction(
        evaluator=lambda X: value,
        declared_symmetry=Symmetry.SYMMETRIC,
        name="constant",
    )


SUM_12 = builtin_target("sum-coords")
SPEC_HALF = LatticeSpec.from_domain(unit_domain(1, 2), 0.5)


# ---------------------------------------------------------------- build


def test_build_sym_table_example():
    tab = build_sym(SUM_12, SPEC_HALF, 2)
    assert tab.table == {
        ((0,), (0,)): 0.0,  # f = 0.0 at the doubled corner, over C_Z = 2
        ((0,), (1,)): 0.5,
        ((1,), (1,)): 0.5,  # f = 1.0 over C_Z = 2
    }
    assert tab.stats.wedge_count == 3
    assert tab.stats.coarse_lattice is False  # delta = N^(-1/d) exactly
    assert tab.kind == "sym"


def test_build_sym_constant_entries():
    tab = build_sym(constant_target(2.5), SPEC_HALF, 3)
    for zs, stored in tab.table.items():
        from symwedge import repetition_constant

        assert stored == 2.5 / repetition_constant(zs)


def test_build_sym_rejects_antisymmetric_target():
    f = builtin_target("vandermonde-gauss-antisym")
    with pytest.raises(ValueError):
        build_sym(f, SPEC_HALF, 2)


def test_build_sym_non_finite_value_names_entry():
    bad = TargetFunction(
        evaluator=lambda X: float("nan"),
        declared_symmetry=Symmetry.SYMMETRIC,
        name="bad",
    )
    with pytest.raises(BuildError, match=r"\(\(0,\), \(0,\)\)"):
        build_sym(bad, SPEC_HALF, 2)


# Shapes where the wedge is much larger than the site set (and N = 1, where
# they coincide); the lattice does not start at 0, so positions are not
# plain multiples of delta.
CORNER_SHAPES = [(1, 2, 4), (2, 3, 2), (4, 2, 4), (5, 1, 8)]


def ordered_probe(X):
    # Depends on every coordinate and on the slot order, so a wrong or
    # misplaced corner point changes the value.
    total = 0.0
    for i, p in enumerate(X.points):
        for a, c in enumerate(p.coords):
            total += math.sin((i + 1.5) * c + 0.25 * a)
    return total


@pytest.mark.parametrize("N, d, n", CORNER_SHAPES)
def test_corner_values_match_one_off_corner_configurations(N, d, n):
    spec = LatticeSpec.from_counts(n, d, -0.3, 1.1)
    seen = []

    def f(X):
        seen.append(X)
        return ordered_probe(X)

    entries = list(enumerate_wedge(spec, N))
    got = list(corner_values(f, spec, entries))
    assert len(seen) == len(entries)  # one target call per entry
    want = [(zs, ordered_probe(corner_configuration(spec, zs))) for zs in entries]
    assert got == want
    assert seen == [corner_configuration(spec, zs) for zs in entries]
    # every corner Point is built once per lattice site and then shared
    assert len({id(p) for X in seen for p in X.points}) == spec.site_count


@pytest.mark.parametrize("N, d, n", CORNER_SHAPES)
def test_builders_call_the_target_once_per_entry(N, d, n):
    spec = LatticeSpec.from_counts(n, d, -0.3, 1.1)
    calls = []

    def counted(value):
        def ev(X):
            calls.append(X)
            return value(X)

        return ev

    sym = TargetFunction(counted(ordered_probe), Symmetry.SYMMETRIC, name="probe")
    tab = build_sym(sym, spec, N)
    assert len(calls) == len(tab.table) == math.comb(spec.site_count + N - 1, N)
    anti = TargetFunction(
        counted(builtin_target("vandermonde-gauss-antisym", {})), Symmetry.ANTISYMMETRIC
    )
    for mode in (MODE_RANK, MODE_PROJECTED):
        calls.clear()
        tab = build_antisym(anti, spec, N, mode=mode)
        assert len(calls) == len(tab.table) == math.comb(spec.site_count, N)


@pytest.mark.parametrize("bad_value", [math.nan, math.inf, -math.inf])
def test_corner_values_non_finite_message_is_unchanged(bad_value):
    spec = LatticeSpec.from_counts(4, 2, -0.3, 1.1)
    entries = list(enumerate_wedge(spec, 2))
    bad_entry = entries[37]
    bad_point = corner_configuration(spec, bad_entry)

    def f(X):
        return bad_value if X == bad_point else ordered_probe(X)

    message = f"target returned non-finite value {bad_value!r} at Z = {bad_entry}"
    values = corner_values(f, spec, entries)
    assert [zs for zs, _ in zip(entries[:37], values)] == entries[:37]
    with pytest.raises(BuildError, match=re.escape(message)):
        next(values)


def test_build_sym_cap():
    with pytest.raises(CapacityError):
        build_sym(SUM_12, SPEC_HALF, 2, cap=2)


def test_build_sym_coarse_flag():
    # N = 2, d = 1: guidance spacing is N^(-1/d) = 0.5
    assert not build_sym(SUM_12, SPEC_HALF, 2).stats.coarse_lattice
    coarse = LatticeSpec.from_domain(unit_domain(1, 2), 0.6)
    assert build_sym(SUM_12, coarse, 2).stats.coarse_lattice


# ---------------------------------------------------------------- indicator eval


def test_eval_sym_constant_everywhere():
    tab = build_sym(constant_target(2.5), SPEC_HALF, 3)
    rng = np.random.Generator(np.random.Philox(51))
    for _ in range(100):
        assert eval_sym(tab, cfg(*rng.random((3, 1)).tolist())) == 2.5


def test_eval_sym_exact_at_distinct_corner():
    f = builtin_target("gaussian-pair-sym")
    spec = LatticeSpec.from_domain(unit_domain(1, 2), 0.25)
    tab = build_sym(f, spec, 2)
    Z = ((0,), (2,))
    X = corner_configuration(spec, Z)
    assert eval_sym(tab, X) == f(X)


def test_eval_sym_bit_exact_invariance():
    f = builtin_target("gaussian-pair-sym")
    spec = LatticeSpec.from_domain(unit_domain(2, 3), 0.5)
    tab = build_sym(f, spec, 3)
    rng = np.random.Generator(np.random.Philox(52))
    for _ in range(300):
        X = cfg(*rng.random((3, 2)).tolist())
        sigma = Permutation(tuple(int(i) for i in rng.permutation(3)))
        assert eval_sym(tab, permute(X, sigma)) == eval_sym(tab, X)


def test_eval_sym_error_band_spot_check():
    spec = LatticeSpec.from_domain(unit_domain(1, 2), 0.25)
    tab = build_sym(SUM_12, spec, 2)
    S = sample_configurations(unit_domain(1, 2), 10_000, 4242)
    worst = max(abs(SUM_12(X) - eval_sym(tab, X)) for X in S.configurations)
    assert 0.2 <= worst <= 0.5  # analytic bound N*delta, nondegenerate floor


def test_eval_sym_domain_and_shape_errors():
    tab = build_sym(SUM_12, SPEC_HALF, 2)
    with pytest.raises(DomainError):
        eval_sym(tab, cfg([0.2], [1.4]))
    with pytest.raises(ValueError):
        eval_sym(tab, cfg([0.2], [0.4], [0.6]))


# ---------------------------------------------------------------- feature form


# (N, d, delta, cell patterns) at N >= 4: one site per slot, in lattice-index units
DISTINCT_CELLS = {
    (4, 1, 0.125): [(0,), (3,), (5,), (7,)],
    (5, 1, 0.125): [(0,), (2,), (3,), (5,), (7,)],
    (4, 2, 0.25): [(0, 0), (1, 3), (2, 1), (3, 3)],
    (5, 2, 0.25): [(0, 0), (0, 1), (1, 3), (2, 1), (3, 3)],
}
SHARED_CELLS = {
    (4, 1, 0.125): [[(2,)] * 4, [(1,), (1,), (6,), (6,)], [(0,), (4,), (4,), (4,)]],
    (5, 1, 0.125): [[(6,)] * 5, [(1,), (1,), (1,), (4,), (4,)], [(0,), (2,), (2,), (5,), (7,)]],
    (4, 2, 0.25): [[(1, 2)] * 4, [(0, 3), (0, 3), (3, 0), (3, 0)],
                   [(0, 0), (2, 2), (2, 2), (3, 1)]],
    (5, 2, 0.25): [[(3, 3)] * 5, [(1, 1), (1, 1), (1, 1), (2, 0), (2, 0)],
                   [(0, 2), (1, 1), (1, 1), (3, 0), (3, 3)]],
}


def gaussian_table(N, d, delta):
    return build_sym(
        builtin_target("gaussian-pair-sym"), LatticeSpec.from_domain(unit_domain(d, N), delta), N
    )


def in_cells(sites, delta, rng):
    """A configuration whose point i lies strictly inside the cell at sites[i]."""
    return cfg(*[((np.array(z) + rng.uniform(0.05, 0.95, len(z))) * delta).tolist() for z in sites])


def test_feature_form_matches_eval_sym():
    tab = build_sym(SUM_12, SPEC_HALF, 2)
    rng = np.random.Generator(np.random.Philox(53))
    for _ in range(200):
        X = cfg(*rng.random((2, 1)).tolist())
        direct = eval_sym(tab, X)
        assert abs(eval_sym_feature_form(tab, X) - direct) <= FEATURE_TOL
    # N >= 4: points in distinct cells, then uniform draws (distinct and shared cells)
    for (N, d, delta), sites in DISTINCT_CELLS.items():
        assert len(set(sites)) == N
        tab = gaussian_table(N, d, delta)
        draws = [in_cells(sites, delta, rng) for _ in range(5)]
        draws += [cfg(*rng.random((N, d)).tolist()) for _ in range(10)]
        for X in draws:
            assert abs(eval_sym_feature_form(tab, X) - eval_sym(tab, X)) <= FEATURE_TOL


def test_feature_form_constant():
    tab = build_sym(constant_target(1.75), SPEC_HALF, 2)
    rng = np.random.Generator(np.random.Philox(54))
    for _ in range(50):
        X = cfg(*rng.random((2, 1)).tolist())
        assert abs(eval_sym_feature_form(tab, X) - 1.75) <= FEATURE_TOL


def test_feature_form_repeated_cell_entry():
    # both points in one cell: a row of A_Z with two ones
    tab = build_sym(SUM_12, SPEC_HALF, 2)
    X = cfg([0.1], [0.2])
    assert abs(eval_sym_feature_form(tab, X) - eval_sym(tab, X)) <= FEATURE_TOL
    # N >= 4: all points in one cell, and cells shared by two or three points
    rng = np.random.Generator(np.random.Philox(55))
    for (N, d, delta), patterns in SHARED_CELLS.items():
        tab = gaussian_table(N, d, delta)
        for sites in patterns:
            assert len(set(sites)) < N
            X = in_cells(sites, delta, rng)
            assert abs(eval_sym_feature_form(tab, X) - eval_sym(tab, X)) <= FEATURE_TOL


def feature_form_by_table_scan(tab, X):
    """The feature form summed over the whole table, skipping entries that do
    not hold every point's cell."""
    cells = [cell_of(tab.spec, p) for p in X.points]
    total = 0.0
    for zs, coeff in tab.table.items():
        if all(c in zs for c in cells):
            A = [[1.0 if c == z else 0.0 for z in zs] for c in cells]
            total += coeff * permanent_ryser_logdomain(A)
    return total


def test_feature_form_sums_the_contributing_entries_in_table_order():
    rng = np.random.Generator(np.random.Philox(56))
    for (N, d, delta), sites in DISTINCT_CELLS.items():
        tab = gaussian_table(N, d, delta)
        draws = [in_cells(sites, delta, rng)]
        draws += [in_cells(pattern, delta, rng) for pattern in SHARED_CELLS[(N, d, delta)]]
        draws += [cfg(*rng.random((N, d)).tolist()) for _ in range(5)]
        for X in draws:
            assert eval_sym_feature_form(tab, X).hex() == feature_form_by_table_scan(tab, X).hex()


def test_feature_form_guard_and_mode():
    # C(24, 5) = 42,504 entries at N = 5, d = 1, delta = 1/20: 1,360,128 features
    spec = LatticeSpec.from_domain(unit_domain(1, 5), 0.05)
    tab = build_sym(SUM_12, spec, 5)
    message = "feature expansion has 1360128 features, above the cap of 1000000"
    with pytest.raises(CapacityError, match=f"^{message}$"):
        eval_sym_feature_form(tab, cfg([0.1], [0.7], [0.3], [0.3], [0.9]))
    smooth = build_sym(SUM_12, SPEC_HALF, 2, mode=MODE_SMOOTH, smooth_width=0.1)
    with pytest.raises(ValueError):
        eval_sym_feature_form(smooth, cfg([0.1], [0.7]))


# ---------------------------------------------------------------- accounting


def test_feature_count_example():
    tab = build_sym(SUM_12, SPEC_HALF, 2)
    report = feature_count(tab, epsilon=0.5, L=math.sqrt(2.0))
    assert report.wedge_count == 3
    assert report.per_entry_features == 4
    assert report.M == 12
    assert not report.spacing_within_budget  # 0.5 * sqrt(2) * sqrt(2) = 1.0 > 0.5
    # budget bound at N=2, d=1, eps=0.5: 4 * 2 / (0.25 * 2) = 16
    assert report.budget_bound == pytest.approx(16.0, rel=1e-15)
    assert not report.exceeds_budget


def test_feature_count_single_point():
    dom = unit_domain(2, 1)
    spec = LatticeSpec.from_domain(dom, 0.5)
    f = builtin_target("sum-coords")
    report = feature_count(build_sym(f, spec, 1), epsilon=0.2, L=1.0)
    assert report.M == spec.site_count * 2


def test_feature_count_epsilon_hypothesis():
    tab = build_sym(SUM_12, SPEC_HALF, 2)
    limit = epsilon_density_limit(2, 1)
    with pytest.raises(ValueError):
        feature_count(tab, epsilon=limit, L=1.0)
    with pytest.raises(ValueError):
        feature_count(tab, epsilon=-0.1, L=1.0)


def test_epsilon_density_limit_value():
    assert epsilon_density_limit(2, 1) == pytest.approx(math.sqrt(2) / 2, rel=1e-15)
    assert epsilon_density_limit(3, 2) == pytest.approx(
        math.sqrt(6) * 3 ** (-0.5), rel=1e-15
    )


def test_feature_budget_bound_value():
    # 2^2 * 2^1 / (0.5^2 * 2!)
    assert feature_budget_bound(2, 1, 0.5) == pytest.approx(16.0, rel=1e-15)


def test_error_budget_values():
    assert error_budget(0.1, 3, 2, 1.0) == pytest.approx(0.2449489742783178, rel=1e-15)
    assert error_budget(0.1, 3, 2, 0.0) == 0.0


def test_delta_for_epsilon_round_trip():
    eps, N, d, L = 0.37, 3, 2, 1.7
    delta = delta_for_epsilon(eps, N, d, L)
    assert error_budget(delta, N, d, L) == pytest.approx(eps, rel=1e-12)


def test_delta_for_epsilon_validation():
    with pytest.raises(ValueError):
        delta_for_epsilon(0.0, 2, 1, 1.0)
    with pytest.raises(ValueError):
        delta_for_epsilon(0.1, 2, 1, 0.0)


# ---------------------------------------------------------------- smooth mode


def test_smooth_weights_partition_of_unity():
    spec = LatticeSpec.from_domain(unit_domain(1, 2), 0.25)
    rng = np.random.Generator(np.random.Philox(55))
    for _ in range(200):
        X = cfg(*rng.random((2, 1)).tolist())
        weights = smooth_weights(spec, X, 0.06)
        assert sum(weights.values()) == pytest.approx(1.0, abs=PARTITION_TOL)


def test_smooth_mode_reproduces_constants():
    spec = LatticeSpec.from_domain(unit_domain(2, 2), 0.25)
    tab = build_sym(constant_target(3.25), spec, 2, mode=MODE_SMOOTH, smooth_width=0.06)
    rng = np.random.Generator(np.random.Philox(56))
    for _ in range(100):
        X = cfg(*rng.random((2, 2)).tolist())
        assert eval_sym(tab, X) == pytest.approx(3.25, abs=3.25 * PARTITION_TOL)


def test_smooth_mode_bit_exact_invariance():
    f = builtin_target("gaussian-pair-sym")
    spec = LatticeSpec.from_domain(unit_domain(1, 3), 0.25)
    tab = build_sym(f, spec, 3, mode=MODE_SMOOTH, smooth_width=0.06)
    rng = np.random.Generator(np.random.Philox(57))
    for _ in range(200):
        X = cfg(*rng.random((3, 1)).tolist())
        sigma = Permutation(tuple(int(i) for i in rng.permutation(3)))
        assert eval_sym(tab, permute(X, sigma)) == eval_sym(tab, X)


def test_smooth_mode_no_jump_across_face():
    spec = LatticeSpec.from_domain(unit_domain(1, 2), 0.25)
    tab = build_sym(SUM_12, spec, 2, mode=MODE_SMOOTH, smooth_width=0.0625)
    h = 1e-4
    xs = np.arange(0.45, 0.55, h)  # crosses the face at 0.5
    vals = [eval_sym(tab, cfg([float(x)], [0.8])) for x in xs]
    jumps = np.abs(np.diff(vals))
    assert jumps.max() <= 1e-2 * 2.0  # value range of sum-coords is [0, 2]


def test_smooth_width_guards():
    with pytest.raises(ValueError):
        build_sym(SUM_12, SPEC_HALF, 2, mode=MODE_SMOOTH, smooth_width=0.3)
    with pytest.raises(ValueError):
        build_sym(SUM_12, SPEC_HALF, 2, mode=MODE_SMOOTH)  # width required
    with pytest.raises(ValueError):
        build_sym(SUM_12, SPEC_HALF, 2, mode=MODE_INDICATOR, smooth_width=0.1)
    with pytest.raises(ValueError):
        build_sym(SUM_12, SPEC_HALF, 2, mode="nearest")
