import itertools
import math
import operator
import os
import re
import tempfile
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symwedge import (
    MODE_INDICATOR,
    MODE_PROJECTED,
    MODE_RANK,
    MODE_SMOOTH,
    BuildError,
    CapacityError,
    ConfigError,
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
    eval_sym_batch,
    eval_sym_feature_form,
    feature_budget_bound,
    feature_count,
    lattice_sites,
    load_model,
    permanent_ryser_logdomain,
    permute,
    repetition_constant,
    sample_configurations,
    save_model,
)
import symwedge.approx_antisym as approx_antisym
import symwedge.approx_sym as approx_sym
import symwedge.lattice as lattice
from symwedge.approx_sym import corner_values, smooth_weights
import helpers
from helpers import BOXES, configurations, draw_rows, face_rows

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
    assert dict(zip(enumerate_wedge(SPEC_HALF, 2), tab.table.tolist())) == {
        ((0,), (0,)): 0.0,  # f = 0.0 at the doubled corner, over C_Z = 2
        ((0,), (1,)): 0.5,
        ((1,), (1,)): 0.5,  # f = 1.0 over C_Z = 2
    }
    assert tab.stats.wedge_count == 3
    assert tab.stats.coarse_lattice is False  # delta = N^(-1/d) exactly
    assert tab.kind == "sym"


def test_build_sym_constant_entries():
    tab = build_sym(constant_target(2.5), SPEC_HALF, 3)
    for zs, stored in zip(enumerate_wedge(SPEC_HALF, 3), tab.table.tolist()):
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
    for i, row in enumerate(X.rows):
        for a, c in enumerate(row):
            total += math.sin((i + 1.5) * c + 0.25 * a)
    return total


def site_numbers(spec, entries, N):
    """The (K, N) site numbers of wedge entries: each site's position in
    ``lattice_sites`` order."""
    number = {site: i for i, site in enumerate(lattice_sites(spec))}
    return np.array([[number[z] for z in zs] for zs in entries], dtype=np.int64).reshape(-1, N)


@pytest.mark.parametrize("N, d, n", CORNER_SHAPES)
def test_corner_values_match_one_off_corner_configurations(N, d, n):
    spec = LatticeSpec.from_counts(n, d, -0.3, 1.1)
    seen = []

    def f(X):
        seen.append(X)
        return ordered_probe(X)

    entries = list(enumerate_wedge(spec, N))
    got = corner_values(TargetFunction(f, Symmetry.SYMMETRIC), spec, site_numbers(spec, entries, N))
    assert len(seen) == len(entries)  # one target call per entry
    want = [ordered_probe(corner_configuration(spec, zs)) for zs in entries]
    assert got.tolist() == want
    assert seen == [corner_configuration(spec, zs) for zs in entries]


@pytest.mark.parametrize(
    "n, N", [(4, 1), (4, 2), (3, 3), (3, 4), (4, 5), (3, 6), (2, 20), (2, 21), (1, 25)]
)
def test_repetition_constants_of_site_numbers_are_the_entries(n, N):
    # past N = 20 a constant leaves int64 (21! > 2^63)
    spec = LatticeSpec.from_counts(n, 1, 0.0, 1.0)
    entries = list(enumerate_wedge(spec, N))
    got = approx_sym._repetition_constants(site_numbers(spec, entries, N))
    assert got.tolist() == [float(repetition_constant(zs)) for zs in entries]


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
def test_corner_values_non_finite_message_is_unchanged(monkeypatch, bad_value):
    spec = LatticeSpec.from_counts(4, 2, -0.3, 1.1)
    entries = list(enumerate_wedge(spec, 2))
    num = site_numbers(spec, entries, 2)
    bad_entry = entries[37]
    bad_point = corner_configuration(spec, bad_entry)
    calls = []

    def f(X):
        calls.append(X)
        return bad_value if X == bad_point else ordered_probe(X)

    message = f"target returned non-finite value {bad_value!r} at Z = {bad_entry}"
    with pytest.raises(BuildError, match=re.escape(message)):
        corner_values(TargetFunction(f, Symmetry.SYMMETRIC), spec, num)
    assert calls == [corner_configuration(spec, zs) for zs in entries[:38]]  # none after it

    # a batch that returns the bad value mid-chunk, and another later in the
    # same chunk: the first names the entry
    def batch(P):
        values = np.array([f(Configuration.from_rows(rows)) for rows in P.tolist()])
        at = np.flatnonzero((P == bad_point.rows).all(axis=(1, 2)))
        if len(at):
            values[at[0] + 3 :] = -bad_value
        return values

    monkeypatch.setattr(approx_sym, "_CORNER_CHUNK", 16)
    batched = TargetFunction(f, Symmetry.SYMMETRIC, batch=batch)
    with pytest.raises(BuildError, match=re.escape(message)):
        corner_values(batched, spec, num)


# Every kind and mode: (builder, builtin target, build options).
BUILD_KINDS = {
    "sym": (build_sym, "gaussian-pair-sym", {}),
    "sym-smooth": (build_sym, "product-smooth-sym", {"mode": MODE_SMOOTH}),
    "antisym-c1": (build_antisym, "vandermonde-sum-antisym", {"mode": MODE_RANK}),
    "antisym-c2": (build_antisym, "vandermonde-gauss-antisym", {"mode": MODE_PROJECTED}),
    "antisym-c2-smooth": (build_antisym, "vandermonde-gauss-antisym", {"mode": MODE_PROJECTED}),
}


def table_bits(tab):
    """A tabulator's stored values and directions in key order, floats as hex."""
    directions = getattr(tab, "directions", None)
    return (
        [v.hex() for v in tab.table.tolist()],
        None if directions is None else [[c.hex() for c in a] for a in directions.tolist()],
    )


def build_with_and_without_batch(kind, spec, N):
    build, name, options = BUILD_KINDS[kind]
    if kind.endswith("smooth"):
        options = dict(options, smooth_width=spec.delta / 4)
    f = builtin_target(name)
    batched = build(f, spec, N, **options)
    scalar = build(replace(f, batch=None), spec, N, **options)
    return batched, scalar


@pytest.mark.parametrize("kind", sorted(BUILD_KINDS))
@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_builds_through_the_batch_equal_builds_entry_by_entry(monkeypatch, kind, N, d):
    # 7-entry chunks leave a short last chunk; at d = 1 the strict wedge of
    # N = 4 over 3 sites is empty
    monkeypatch.setattr(approx_sym, "_CORNER_CHUNK", 7)
    spec = LatticeSpec.from_counts(3 if d < 3 else 2, d, -0.3, 1.1)
    batched, scalar = build_with_and_without_batch(kind, spec, N)
    assert table_bits(batched) == table_bits(scalar)
    assert batched == scalar
    if kind.startswith("antisym") and N > spec.site_count:
        assert len(batched.table) == 0


@pytest.mark.parametrize("kind", ["sym", "antisym-c2"])
def test_builds_through_the_batch_equal_builds_entry_by_entry_at_the_tabulate_shape(kind):
    # 45,760 wedge entries: eleven full chunks of 4,096 and one of 640
    spec = LatticeSpec.from_counts(8, 2, 0.0, 1.0)
    batched, scalar = build_with_and_without_batch(kind, spec, 3)
    assert table_bits(batched) == table_bits(scalar)


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
    worst = max(abs(SUM_12(X) - eval_sym(tab, X)) for X in configurations(S))
    assert 0.2 <= worst <= 0.5  # analytic bound N*delta, nondegenerate floor


def test_eval_sym_domain_and_shape_errors():
    tab = build_sym(SUM_12, SPEC_HALF, 2)
    with pytest.raises(DomainError):
        eval_sym(tab, cfg([0.2], [1.4]))
    with pytest.raises(ValueError):
        eval_sym(tab, cfg([0.2], [0.4], [0.6]))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_eval_sym_batch_equals_eval_sym_bit_for_bit(data):
    N, d = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
    lo, hi = data.draw(st.sampled_from(BOXES))
    # at most 1,500 wedge entries
    cells = max(n for n in range(1, 9) if math.comb(n**d + N - 1, N) <= 1500)
    spec = LatticeSpec.from_counts(data.draw(st.integers(1, cells)), d, lo, hi)
    T = build_sym(builtin_target("gaussian-pair-sym"), spec, N)
    if data.draw(st.booleans()):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.swm")
            save_model(path, T)
            T = load_model(path)
    P = draw_rows(data, spec, N, data.draw(st.integers(0, 6)))
    scalar = [eval_sym(T, Configuration.from_rows(rows)) for rows in P.tolist()]
    bits = lambda values: np.asarray(values, dtype=np.float64).view(np.uint64).tolist()
    assert bits(eval_sym_batch(T, P)) == bits(scalar)
    if len(P):
        # one or two rows with a coordinate just or well outside the box
        bad = P.copy()
        for _ in range(data.draw(st.integers(1, 2))):
            k, i, a = (data.draw(st.integers(0, n - 1)) for n in P.shape)
            bad[k, i, a] = data.draw(st.sampled_from([
                math.nextafter(spec.top, math.inf), math.nextafter(spec.origin, -math.inf),
                spec.top + 1.0, spec.origin - 1.0,
            ]))
        with pytest.raises(DomainError) as err:
            eval_sym_batch(T, bad)
        for rows in bad.tolist():  # the scalar eval's error on the first bad row
            try:
                eval_sym(T, Configuration.from_rows(rows))
            except DomainError as exc:
                assert str(err.value) == str(exc)
                break
        else:
            raise AssertionError("no row is outside the box")


def test_eval_sym_batch_takes_indicator_tables_and_their_shape():
    with pytest.raises(ValueError, match="indicator tabulators only"):
        eval_sym_batch(build_sym(SUM_12, SPEC_HALF, 2, mode=MODE_SMOOTH, smooth_width=0.1),
                       np.zeros((1, 2, 1)))
    with pytest.raises(ValueError, match=r"\(B, N, d\) = \(B, 2, 1\)"):
        eval_sym_batch(build_sym(SUM_12, SPEC_HALF, 2), np.zeros((1, 3, 1)))


SITE_NUMBER_SHAPES = [(0, 2), (1, 1), (5, 0), (5, 1), (5, 3), (4, 4), (3, 5), (64, 3)]


@pytest.mark.parametrize(
    "S, N, strict",
    [(S, N, strict) for S, N in SITE_NUMBER_SHAPES for strict in (True, False)]
    + [(32, 30, True)],  # 496 entries, though most shorter prefixes have no completion
)
def test_site_numbers_are_the_entries_in_lexicographic_order(S, N, strict):
    choose = itertools.combinations if strict else itertools.combinations_with_replacement
    want = list(choose(range(S), N))
    wedge = lattice.Wedge(S, N, strict)
    got = wedge.rows(0, wedge.size)
    assert wedge.size == len(want)
    assert got.shape == (len(want), N) and got.dtype == np.int64
    assert list(map(tuple, got.tolist())) == want


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_scalar_rank_is_the_row_in_site_number_order(N, strict):
    spec = LatticeSpec.from_counts(3, 2, 0.0, 1.0)
    choose = itertools.combinations if strict else itertools.combinations_with_replacement
    num = np.array(list(choose(range(spec.site_count), N)), dtype=np.int64)
    rows = list(range(len(num)))
    assert len(rows) == math.comb(spec.site_count + (0 if strict else N - 1), N)
    wedge = lattice._wedge_of(spec, N, strict)
    assert wedge.size == len(rows)
    # the scalar evals' ranks, then the batch evals'
    assert [sum(map(operator.getitem, wedge.lists, row)) for row in num.tolist()] == rows
    assert wedge.rank(num).tolist() == rows


@pytest.mark.parametrize("kind", sorted(BUILD_KINDS))
def test_scalar_evals_return_python_floats(kind):
    spec = LatticeSpec.from_counts(4, 2, 0.0, 1.0)
    tab, _ = build_with_and_without_batch(kind, spec, 3)
    evaluate = eval_sym if kind.startswith("sym") else approx_antisym.eval_antisym
    shared = cfg([0.1, 0.1], [0.15, 0.12], [0.6, 0.9])  # two points in one cell
    for X in (cfg([0.1, 0.1], [0.35, 0.6], [0.6, 0.9]), shared):
        assert type(evaluate(tab, X)) is float
    if kind.startswith("antisym") and tab.smooth_width is None:
        assert evaluate(tab, shared) == 0.0


def test_tabulator_arrays_are_checked_once_and_made_read_only():
    spec = LatticeSpec.from_counts(3, 1, 0.0, 1.0)
    sym = build_sym(SUM_12, spec, 2)
    anti = build_antisym(builtin_target("vandermonde-gauss-antisym"), spec, 2, mode=MODE_PROJECTED)
    assert not sym.table.flags.writeable
    assert not anti.table.flags.writeable and not anti.directions.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        sym.table[0] = 1.0
    for tab, field, bad, message in (
        # a wedge of 3 sites and 2 slots has 6 entries, its strict wedge 3
        (sym, "table", np.zeros(5), "table must be a float64 array of shape (6,), "
         "found float64 array of shape (5,)"),
        (sym, "table", np.zeros(6, dtype=np.float32), "table must be a float64 array of "
         "shape (6,), found float32 array of shape (6,)"),
        (sym, "table", [0.0] * 6, "table must be a float64 array of shape (6,), found list"),
        (anti, "table", np.zeros(6), "table must be a float64 array of shape (3,), "
         "found float64 array of shape (6,)"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(tab, **{field: bad})


WIDTH = "need 0 < smooth width w <= delta/2 = 0.125, got w = "


def with_row(shape, k, value, fill=1.0):
    """An array of ``shape`` full of ``fill`` but for ``value`` in row k."""
    array = np.full(shape, fill)
    array[k] = value
    return array


# Tabulator states no model file holds: (tabulator, changed fields, the
# constructor's message). A direction that fails tau raises the build's
# DirectionSearchError, a BuildError; every other state a ValueError.
REJECTED_STATES = {
    "zero tau": ("antisym-c2", {"tau": 0.0}, "tau must be finite and positive, got 0.0"),
    "negative tau": ("antisym-c2", {"tau": -0.5}, "tau must be finite and positive, got -0.5"),
    "infinite tau": ("antisym-c2", {"tau": math.inf}, "tau must be finite and positive, got inf"),
    "NaN tau": ("antisym-c2", {"tau": math.nan}, "tau must be finite and positive, got nan"),
    "smooth rank": ("antisym-c1", {"smooth_width": 0.1},
                    "smoothing is only available in projected mode"),
    "projected width above delta/2": ("antisym-c2", {"smooth_width": 0.2}, WIDTH + "0.2"),
    "projected zero width": ("antisym-c2", {"smooth_width": 0.0}, WIDTH + "0.0"),
    "sym width above delta/2": ("sym", {"smooth_width": 0.2}, WIDTH + "0.2"),
    "sym negative width": ("sym", {"smooth_width": -0.1}, WIDTH + "-0.1"),
    "sym NaN width": ("sym", {"smooth_width": math.nan}, WIDTH + "nan"),
    # the wedge of 4 sites and 2 slots has 10 entries, the strict one 6
    "NaN table": ("sym", {"table": with_row(10, 3, math.nan, 0.0)},
                  "table row 3 is not finite: nan"),
    # at d = 1 every direction is (1,) and scores exactly 1
    "projected with a tau its directions fail": (
        "antisym-c2", {"tau": 1.5}, "no candidate direction clears tau = 1.5 for "
        "Z = ((0,), (1,)): its best smallest relative pair projection is 1.0; lower tau"),
}


@pytest.mark.parametrize("state", sorted(REJECTED_STATES))
def test_tabulators_reject_states_their_model_file_cannot_hold(tmp_path, state):
    kind, changes, message = REJECTED_STATES[state]
    spec = LatticeSpec.from_counts(4, 1, 0.0, 1.0)  # delta = 1/4; 6 strict entries at N = 2
    f = builtin_target("vandermonde-gauss-antisym")
    tab = {
        "sym": build_sym(SUM_12, spec, 2),
        "antisym-c1": build_antisym(f, spec, 2),
        "antisym-c2": build_antisym(f, spec, 2, mode=MODE_PROJECTED),
    }[kind]
    with pytest.raises((ValueError, BuildError), match=f"^{re.escape(message)}$"):
        replace(tab, **changes)
    # the state, made without the checks, saves a file the loader refuses
    unchecked = object.__new__(type(tab))
    for field in fields(tab):
        object.__setattr__(unchecked, field.name, changes.get(field.name, getattr(tab, field.name)))
    save_model(str(tmp_path / "m.swm"), unchecked)
    with pytest.raises(ConfigError):
        load_model(str(tmp_path / "m.swm"))


def test_sym_tabulator_holds_at_most_170_points(tmp_path):
    # 171!, the repetition constant of the one entry on one site, is past the largest float
    spec = LatticeSpec.from_counts(1, 1, 0.0, 1.0)
    assert approx_sym.SymmetricTabulator(spec, 170, None, np.ones(1)).N == 170
    message = "a sym tabulator holds at most N = 170, not N = 171"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        approx_sym.SymmetricTabulator(spec, 171, None, np.ones(1))
    # made without the check, it saves a file the loader refuses
    unchecked = object.__new__(approx_sym.SymmetricTabulator)
    for field, value in zip(fields(unchecked), (spec, 171, None, np.ones(1))):
        object.__setattr__(unchecked, field.name, value)
    save_model(str(tmp_path / "m.swm"), unchecked)
    with pytest.raises(ConfigError, match="is at most 170, not 171"):
        load_model(str(tmp_path / "m.swm"))


def test_tabulators_compare_by_the_bits_of_their_arrays():
    spec = LatticeSpec.from_counts(2, 1, 0.0, 1.0)
    tab = build_sym(SUM_12, spec, 2)  # stores 0.0 at ((0,), (0,))
    assert tab.table[0] == 0.0 and not math.copysign(1.0, tab.table[0]) < 0
    assert replace(tab, table=tab.table.copy()) == tab
    negative_zero = tab.table.copy()
    negative_zero[0] = -0.0
    assert replace(tab, table=negative_zero) != tab  # though -0.0 == 0.0
    assert replace(tab, smooth_width=0.25) != tab
    anti = build_antisym(builtin_target("vandermonde-gauss-antisym"), spec, 2, mode=MODE_PROJECTED)
    assert replace(anti, tau=0.5) != anti
    assert replace(anti, tau=None) != anti  # the rank construction
    assert tab != anti


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
    cells = [cell_of(tab.spec, p) for p in X.rows]
    total = 0.0
    for zs, coeff in zip(enumerate_wedge(tab.spec, tab.N), tab.table.tolist()):
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


# (N, d, delta) for the exactness claims: the first two shapes are the
# original cases, the rest reach N = 4 and 5 at d <= 3 on lattices whose
# wedge stays below 30,000 entries. Every width is 0.24 delta.
SMOOTH_EXACTNESS_SHAPES = [
    (2, 1, 0.25), (2, 2, 0.25),
    (4, 1, 0.25), (4, 2, 0.25), (4, 3, 1 / 3),
    (5, 1, 0.25), (5, 2, 0.25), (5, 3, 0.5),
]


def smooth_exactness_rows(rng, spec, N, count):
    """``count`` rows of N points: uniform ones, then a quarter with face coordinates."""
    uniform = count - count // 4
    return [
        rng.random((N, spec.d)).tolist() if k < uniform else face_rows(rng, spec, N)
        for k in range(count)
    ]


def test_smooth_weights_partition_of_unity():
    for N, d, delta in SMOOTH_EXACTNESS_SHAPES:
        spec = LatticeSpec.from_domain(unit_domain(d, N), delta)
        rng = np.random.Generator(np.random.Philox(55))
        for rows in smooth_exactness_rows(rng, spec, N, 200):
            weights = smooth_weights(spec, cfg(*rows), 0.24 * delta)
            assert sum(weights.values()) == pytest.approx(1.0, abs=PARTITION_TOL)


def test_smooth_mode_reproduces_constants():
    for N, d, delta in SMOOTH_EXACTNESS_SHAPES:
        spec = LatticeSpec.from_domain(unit_domain(d, N), delta)
        tab = build_sym(constant_target(3.25), spec, N, mode=MODE_SMOOTH,
                        smooth_width=0.24 * delta)
        rng = np.random.Generator(np.random.Philox(56))
        for rows in smooth_exactness_rows(rng, spec, N, 100):
            assert eval_sym(tab, cfg(*rows)) == pytest.approx(3.25, abs=3.25 * PARTITION_TOL)


def test_smooth_mode_bit_exact_invariance():
    f = builtin_target("gaussian-pair-sym")
    for N, d, uniform in [(3, 1, 200), (4, 2, 100), (5, 1, 100)]:
        spec = LatticeSpec.from_domain(unit_domain(d, N), 0.25)
        tab = build_sym(f, spec, N, mode=MODE_SMOOTH, smooth_width=0.06)
        rng = np.random.Generator(np.random.Philox(57))
        for k in range(uniform + 100):
            X = cfg(*(rng.random((N, d)).tolist() if k < uniform else face_rows(rng, spec, N)))
            sigma = Permutation(tuple(int(i) for i in rng.permutation(N)))
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


def bits(value):
    return float(value).hex()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_smooth_evals_equal_the_reference_bit_for_bit(data):
    N, d = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    lo, hi = data.draw(st.sampled_from(BOXES))
    # dyadic and non-dyadic cell counts, at most 2,000 wedge entries
    counts = [n for n in (1, 2, 3, 4, 7, 8, 13) if math.comb(n**d + N - 1, N) <= 2000]
    spec = LatticeSpec.from_counts(data.draw(st.sampled_from(counts)), d, lo, hi)
    half = spec.delta / 2
    w = data.draw(st.one_of(
        st.sampled_from([half, half / 2, half / 3, half / 7]),
        st.floats(0.0, half, exclude_min=True),
    ))
    S = build_sym(builtin_target("gaussian-pair-sym"), spec, N, mode=MODE_SMOOTH, smooth_width=w)
    A = build_antisym(
        builtin_target("vandermonde-gauss-antisym"), spec, N, mode=MODE_PROJECTED, smooth_width=w
    )
    # faces, lo, hi and coincident points, and two rows of generic coordinates
    P = draw_rows(data, spec, N, data.draw(st.integers(1, 4)))
    rng = np.random.Generator(np.random.Philox(data.draw(st.integers(0, 2**32 - 1))))
    generic = np.clip(lo + (hi - lo) * rng.random((2, N, d)), lo, hi)
    sites = list(lattice_sites(spec))  # site number -> multi-index
    for rows in np.concatenate([P, generic]).tolist():
        X = cfg(*rows)
        for p in X.rows:
            got = approx_sym.site_weight_support(spec, p, w)
            want = helpers.site_weight_support(spec, p, w)
            assert [(sites[s], bits(m)) for s, m in got] == [(site, bits(m)) for site, m in want]
        got = smooth_weights(spec, X, w)
        want = helpers.smooth_weights(spec, X, w)
        assert [(tuple(map(sites.__getitem__, key)), bits(m)) for key, m in got.items()] == [
            (key, bits(m)) for key, m in want.items()
        ]
        assert bits(eval_sym(S, X)) == bits(helpers.eval_sym_smooth(S, X))
        assert bits(approx_antisym.eval_antisym(A, X)) == bits(helpers.eval_antisym_smooth(A, X))


@pytest.mark.parametrize("N", [3, 4])
def test_smooth_evals_raise_the_first_bad_coordinate_in_sorted_order(N):
    # the smooth evals check coordinates point by point in sorted order, axis
    # by axis, and name the first coordinate outside the box
    d = 2
    rng = np.random.Generator(np.random.Philox(59 + N))
    for lo, hi in BOXES:
        spec = LatticeSpec.from_counts(4, d, lo, hi)
        w = spec.delta / 4
        sym = build_sym(builtin_target("gaussian-pair-sym"), spec, N, mode=MODE_SMOOTH,
                        smooth_width=w)
        antisym = build_antisym(builtin_target("vandermonde-gauss-antisym"), spec, N,
                                mode=MODE_PROJECTED, smooth_width=w)
        outside = [math.nextafter(hi, math.inf), math.nextafter(lo, -math.inf), hi + 1.0, lo - 1.0]
        for _ in range(30):
            rows = (lo + (hi - lo) * rng.random((N, d))).tolist()
            for _ in range(int(rng.integers(1, 3))):
                rows[rng.integers(N)][rng.integers(d)] = outside[rng.integers(len(outside))]
            first = next(c for row in sorted(rows) for c in row if not lo <= c <= hi)
            message = f"coordinate {first!r} outside [{lo}, {hi}]"
            for T, evaluate in [(sym, eval_sym), (antisym, approx_antisym.eval_antisym)]:
                with pytest.raises(DomainError) as err:
                    evaluate(T, cfg(*rows))
                assert str(err.value) == message


def test_smooth_evals_call_site_weight_support_once_per_point(monkeypatch):
    # benches/tracing.py times lattice.site_weight_support through this binding
    calls = []
    original = approx_sym.site_weight_support

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(approx_sym, "site_weight_support", counting)
    rng = np.random.Generator(np.random.Philox(58))
    for N, d in [(1, 1), (2, 2), (3, 2), (4, 1)]:
        spec = LatticeSpec.from_domain(unit_domain(d, N), 0.25)
        sym = build_sym(builtin_target("gaussian-pair-sym"), spec, N,
                        mode=MODE_SMOOTH, smooth_width=0.0625)
        antisym = build_antisym(builtin_target("vandermonde-gauss-antisym"), spec, N,
                                mode=MODE_PROJECTED, smooth_width=0.0625)
        for T, evaluate in [(sym, eval_sym), (antisym, approx_antisym.eval_antisym)]:
            for rows in rng.random((20, N, d)).tolist():
                calls.clear()
                evaluate(T, cfg(*rows))
                assert len(calls) == N


def test_smooth_evals_call_smooth_weights_once_through_approx_sym(monkeypatch):
    # benches/tracing.py times both symmetries' blends through this binding
    calls = []
    original = approx_sym.smooth_weights

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(approx_sym, "smooth_weights", counting)
    rng = np.random.Generator(np.random.Philox(60))
    for N, d in [(1, 1), (2, 2), (3, 2), (4, 1)]:
        spec = LatticeSpec.from_domain(unit_domain(d, N), 0.25)
        sym = build_sym(builtin_target("gaussian-pair-sym"), spec, N,
                        mode=MODE_SMOOTH, smooth_width=0.0625)
        antisym = build_antisym(builtin_target("vandermonde-gauss-antisym"), spec, N,
                                mode=MODE_PROJECTED, smooth_width=0.0625)
        for T, evaluate in [(sym, eval_sym), (antisym, approx_antisym.eval_antisym)]:
            for rows in rng.random((10, N, d)).tolist():
                calls.clear()
                evaluate(T, cfg(*rows))
                assert len(calls) == 1


def test_scalar_indicator_evals_call_locate_once_through_their_module(monkeypatch):
    # benches/tracing.py times lattice.locate through these two bindings
    calls = []
    for module in (approx_sym, approx_antisym):
        original = module.locate

        def counting(*args, module=module, original=original):
            calls.append(module)
            return original(*args)

        monkeypatch.setattr(module, "locate", counting)
    rng = np.random.Generator(np.random.Philox(61))
    for N, d in [(1, 1), (2, 2), (3, 2), (4, 1)]:
        spec = LatticeSpec.from_domain(unit_domain(d, N), 0.25)
        sym = build_sym(builtin_target("gaussian-pair-sym"), spec, N)
        cases = [(sym, eval_sym, approx_sym), (sym, eval_sym_feature_form, approx_sym)] + [
            (build_antisym(builtin_target("vandermonde-gauss-antisym"), spec, N, mode=mode),
             approx_antisym.eval_antisym, approx_antisym)
            for mode in (MODE_RANK, MODE_PROJECTED)
        ]
        for T, evaluate, module in cases:
            for rows in rng.random((10, N, d)).tolist():
                calls.clear()
                evaluate(T, cfg(*rows))
                assert calls == [module]
