import glob
import itertools
import math
import os
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ReferenceConfiguration

from symwedge import (
    BUILTIN_TARGET_NAMES,
    Configuration,
    ConfigError,
    DomainSpec,
    LatticeSpec,
    Permutation,
    Symmetry,
    build_sym,
    builtin_target,
    enumerate_wedge,
    parity,
    permute,
)
from symwedge import core

REL_TOL = 1e-12


def cfg(*rows):
    return Configuration.from_rows(rows)


def perm_strategy(n):
    return st.permutations(range(n)).map(lambda imgs: Permutation(tuple(imgs)))


# ---------------------------------------------------------------- types


NAN, INF = float("nan"), float("inf")

# Rows the constructors must accept or reject as the one-Point-per-row checks
# did (helpers.ReferenceConfiguration), except that a string row is rejected:
# each row converted with float, then checked for an empty row and a
# non-finite coordinate before the next row is read; after the last row, an
# empty configuration, then mixed widths.
REFERENCE_ROWS = [
    [],
    [[]],
    [[], []],
    [[0.1, NAN]],
    [[INF]],
    [[0.1], [NAN]],
    [[0.1, 0.2], [0.3, -INF]],
    [[-INF], [0.2]],
    [[0.1], [0.1, 0.2]],
    [[0.1, 0.2], [0.3]],
    [[NAN], [0.1, 0.2]],
    [[], [NAN]],
    [[0.1], [0.2, 0.3], [NAN]],
    [[0.1], [], [0.2, 0.3]],
    [["0.5"], [0.25]],
    [["nan"]],
    [["abc"]],
    [[NAN], ["abc"]],
    [["abc"], [NAN]],
    [[10**400]],
    [[True], [0.5]],
    [[None]],
    [0.5, 0.25],
    ["ab"],
    [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]],
    np.array([[0.25, 0.5], [0.75, 1.0]]),
]

COORDINATES = st.one_of(
    st.floats(),
    st.integers(-(10**400), 10**400),
    st.sampled_from(["0.5", "-1e3", "nan", "-inf", "abc", "", True, False, None]),
)


def rows_id(rows):
    return " ".join(repr(rows).split())[:40]


def assert_checks_as_reference(construct, rows):
    try:
        want = ReferenceConfiguration.from_rows(rows).rows()
    except Exception as exc:
        with pytest.raises(type(exc)) as info:
            construct(rows)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
    else:
        got = construct(rows).rows
        assert got == want
        assert all(type(c) is float for row in got for c in row)


@pytest.mark.parametrize("construct", [Configuration, Configuration.from_rows])
@pytest.mark.parametrize("rows", REFERENCE_ROWS, ids=rows_id)
def test_configuration_checks_match_the_point_reference(construct, rows):
    assert_checks_as_reference(construct, rows)


@pytest.mark.parametrize(
    "rows, row", [(["12", "34"], "12"), ([b"12"], b"12"), ([[0.5], "1", [NAN]], "1")]
)
def test_configuration_rejects_a_string_row(rows, row):
    # a string is a sequence of characters, which float would read one by one
    with pytest.raises(ValueError) as info:
        Configuration(rows)
    assert str(info.value) == f"a point is a row of numbers, not the string {row!r}"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(COORDINATES, max_size=3), max_size=4))
def test_configuration_checks_match_the_point_reference_on_drawn_rows(rows):
    assert_checks_as_reference(Configuration, rows)
    assert_checks_as_reference(Configuration.from_rows, rows)


def test_configuration_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        Configuration(((0.1,), (0.1, 0.2)))
    with pytest.raises(ValueError, match="share one dimension"):
        Configuration.from_rows([[0.1], [0.1, 0.2]])


def test_configuration_shape_accessors():
    X = cfg([0.1, 0.2], [0.3, 0.4], [0.5, 0.6])
    assert X.N == 3
    assert X.d == 2
    assert X.rows == ((0.1, 0.2), (0.3, 0.4), (0.5, 0.6))


def test_package_builds_no_instance_past_its_constructor():
    # object.__new__ makes an instance without running its __init__, so a
    # validated type such as Configuration could be built unchecked
    package = os.path.join(os.path.dirname(__file__), os.pardir, "src", "symwedge")
    for path in glob.glob(os.path.join(package, "*.py")):
        with open(path, encoding="utf-8") as fh:
            assert "object.__new__" not in fh.read(), path


def test_domain_spec_validation():
    with pytest.raises(ValueError):
        DomainSpec(d=1, N=2, lo=1.0, hi=1.0)
    with pytest.raises(ValueError):
        DomainSpec(d=0, N=2, lo=0.0, hi=1.0)
    dom = DomainSpec(d=2, N=2, lo=0.0, hi=1.0)
    assert dom.span == 1.0


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0))
    with pytest.raises(ValueError):
        Permutation((1, 2))


# ---------------------------------------------------------------- permute


def test_permute_identity():
    X = cfg([0.1], [0.2])
    assert permute(X, Permutation((0, 1))) == X


def test_permute_swap():
    X = cfg([0.1], [0.2])
    assert permute(X, Permutation((1, 0))) == cfg([0.2], [0.1])


def test_permute_three_cycle():
    # images (2, 0, 1) pulls point 2 into slot 0: ((1),(2),(3)) -> ((3),(1),(2))
    X = cfg([1.0], [2.0], [3.0])
    assert permute(X, Permutation((2, 0, 1))) == cfg([3.0], [1.0], [2.0])


def test_permute_size_mismatch():
    with pytest.raises(ValueError):
        permute(cfg([0.1], [0.2]), Permutation((0, 1, 2)))


def test_permute_then_inverse_restores():
    X = cfg([0.3, 0.7], [0.1, 0.9], [0.5, 0.5])
    sigma = Permutation((2, 0, 1))
    assert permute(permute(X, sigma), Permutation((1, 2, 0))) == X


@given(st.integers(2, 8).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(0, 1, width=32), min_size=n, max_size=n),
        perm_strategy(n),
        perm_strategy(n),
    )
))
def test_permute_is_group_action(data):
    coords, sigma, tau = data
    X = cfg(*[[c] for c in coords])
    sigma_then_tau = Permutation(tuple(sigma.images[t] for t in tau.images))
    assert permute(permute(X, sigma), tau) == permute(X, sigma_then_tau)


# ---------------------------------------------------------------- parity


def test_parity_examples():
    assert parity(Permutation((0, 1, 2))) == 1
    assert parity(Permutation((1, 0))) == -1
    assert parity(Permutation((1, 2, 0))) == 1


def test_parity_is_homomorphism():
    rng = np.random.Generator(np.random.Philox(41))
    for _ in range(200):
        n = int(rng.integers(2, 7))
        sigma = Permutation(tuple(int(i) for i in rng.permutation(n)))
        tau = Permutation(tuple(int(i) for i in rng.permutation(n)))
        tau_then_sigma = Permutation(tuple(tau.images[s] for s in sigma.images))
        assert parity(tau_then_sigma) == parity(sigma) * parity(tau)


def test_parity_of_inverse():
    sigma = Permutation((3, 0, 2, 1))
    assert parity(Permutation((1, 3, 2, 0))) == parity(sigma)


@pytest.mark.parametrize("N", range(1, 7))
def test_inversion_signs_are_rows_of_the_scalar_sign(N):
    # every order of N slots, and no order at all (K = 0)
    orders = np.array(list(itertools.permutations(range(N))), dtype=np.int64)
    for rows in (orders, orders[:0]):
        signs = core._inversion_signs(rows)
        assert signs.dtype == np.int64 and signs.shape == (len(rows),)
        assert signs.tolist() == [core._inversion_sign(row) for row in rows.tolist()]
    assert {core._inversion_sign(row) for row in orders.tolist()} == ({1, -1} if N > 1 else {1})


# ---------------------------------------------------------------- builtins


def test_builtin_names_listed():
    assert "sum-coords" in BUILTIN_TARGET_NAMES
    assert "vandermonde-gauss-antisym" in BUILTIN_TARGET_NAMES
    assert len(BUILTIN_TARGET_NAMES) == 5


def test_sum_coords_value():
    f = builtin_target("sum-coords")
    assert f(cfg([0.25], [0.5])) == 0.75
    assert f.declared_symmetry is Symmetry.SYMMETRIC


def test_vandermonde_gauss_zero_on_diagonal():
    f = builtin_target("vandermonde-gauss-antisym")
    assert f(cfg([0.3], [0.3])) == 0.0
    assert f.declared_symmetry is Symmetry.ANTISYMMETRIC


def test_vandermonde_sum_value():
    f = builtin_target("vandermonde-sum-antisym")
    # (0.2 - 0.6) * (0.2 + 0.6)
    assert f(cfg([0.2], [0.6])) == pytest.approx(-0.32, rel=1e-15)


def test_gaussian_pair_swap_invariance():
    f = builtin_target("gaussian-pair-sym", {"width": 0.7})
    X = cfg([0.1, 0.9], [0.6, 0.3])
    assert f(permute(X, Permutation((1, 0)))) == f(X)


def test_builtin_unknown_name():
    with pytest.raises(ConfigError):
        builtin_target("does-not-exist", {})


def test_builtin_unknown_param():
    with pytest.raises(ConfigError):
        builtin_target("gaussian-pair-sym", {"widht": 0.5})
    # a target takes only its own parameters, not the domain's shape
    for name, params in [("sum-coords", {"d": 2}), ("gaussian-pair-sym", {"N": 3, "width": 0.5})]:
        with pytest.raises(ConfigError, match=r"unknown parameter\(s\) for target"):
            builtin_target(name, params)


def test_builtin_param_validation():
    with pytest.raises(ConfigError):
        builtin_target("gaussian-pair-sym", {"width": 0.0})
    with pytest.raises(ConfigError):
        builtin_target("product-smooth-sym", {"amplitude": 1.0})
    # numbers must be finite, and a width's 1/width^2 a positive finite float
    for name, params in [
        ("gaussian-pair-sym", {"width": math.inf}),  # a constant target
        ("gaussian-pair-sym", {"width": math.nan}),
        ("gaussian-pair-sym", {"width": 1e-200}),  # width^2 underflows to 0
        ("gaussian-pair-sym", {"width": 1e-160}),  # 1/width^2 overflows to inf
        ("gaussian-pair-sym", {"width": 1e200}),  # 1/width^2 is 0: a constant target
        ("gaussian-pair-sym", {"width": 10**400}),  # beyond the float range
    ]:
        with pytest.raises(ConfigError):
            builtin_target(name, params)


def test_symmetric_builtins_are_symmetric():
    # algebraically symmetric expressions: residual at rounding level
    rng = np.random.Generator(np.random.Philox(7))
    for name in ("sum-coords", "gaussian-pair-sym", "product-smooth-sym"):
        f = builtin_target(name)
        for _ in range(50):
            X = cfg(*rng.random((3, 2)).tolist())
            sigma = Permutation(tuple(int(i) for i in rng.permutation(3)))
            scale = max(1.0, abs(f(X)))
            assert abs(f(permute(X, sigma)) - f(X)) <= REL_TOL * scale


def test_antisymmetric_builtins_flip_sign():
    rng = np.random.Generator(np.random.Philox(8))
    for name in ("vandermonde-gauss-antisym", "vandermonde-sum-antisym"):
        f = builtin_target(name)
        for _ in range(50):
            X = cfg(*rng.random((3, 1)).tolist())
            sigma = Permutation(tuple(int(i) for i in rng.permutation(3)))
            scale = max(1.0, abs(f(X)))
            assert abs(f(permute(X, sigma)) - parity(sigma) * f(X)) <= REL_TOL * scale


# ---------------------------------------------------------------- batches

# Each builtin with its default parameters, and with a non-default one.
BATCHED_TARGETS = [(name, {}) for name in BUILTIN_TARGET_NAMES] + [
    ("gaussian-pair-sym", {"width": 0.7361}),
    ("product-smooth-sym", {"amplitude": 0.9}),
]


def test_every_builtin_target_has_a_batch():
    for name in BUILTIN_TARGET_NAMES:
        assert callable(builtin_target(name).batch), name


def assert_batch_is_the_evaluator(P):
    configurations = [Configuration.from_rows(rows) for rows in P.tolist()]
    for name, params in BATCHED_TARGETS:
        f = builtin_target(name, params)
        got = f.batch(P)
        assert got.dtype == np.float64 and got.shape == (len(P),)
        want = np.array([f(X) for X in configurations], dtype=np.float64)
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize(
    "N, d, n",
    [(3, 2, 8), (3, 1, 32), (4, 1, 16)],
    ids=["tabulate", "certify-verify", "certify-sweep"],
)
def test_batches_equal_the_evaluators_on_every_wedge_corner(N, d, n):
    spec = LatticeSpec.from_counts(n, d, 0.0, 1.0)
    P = np.array([[spec.position(z) for z in zs] for zs in enumerate_wedge(spec, N)])
    assert_batch_is_the_evaluator(P)


# Coordinates with both zeros, subnormals and the smallest normal, on a box
# with a negative lo; points drawn from a small pool, so some coincide.
SPECIAL_COORDINATES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -0.3, 1.1]
coordinate = st.one_of(
    st.sampled_from(SPECIAL_COORDINATES),
    st.floats(-0.3, 1.1, allow_subnormal=True),
    st.floats(-1e-300, 1e-300, allow_subnormal=True),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_batches_equal_the_evaluators_on_drawn_arrays(data):
    N = data.draw(st.integers(1, 4))
    d = data.draw(st.integers(1, 3))
    pool = data.draw(st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=N))
    rows = st.lists(st.sampled_from(pool), min_size=N, max_size=N)
    P = np.array(data.draw(st.lists(rows, min_size=1, max_size=6)), dtype=np.float64)
    assert_batch_is_the_evaluator(P.reshape(-1, N, d))


def column_values():
    """Seeded float64 columns with heavy repeats of both zeros, two NaN
    payloads, both infinities, subnormals and plain values; the last is a
    strided view."""
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000123], dtype=np.uint64).view(np.float64)
    special = [0.0, -0.0, INF, -INF, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308]
    rng = np.random.Generator(np.random.Philox(key=39))
    pool = np.concatenate([special, nans, rng.uniform(-3.0, 3.0, 20)])
    drawn = pool[rng.integers(0, len(pool), 3000)]
    return [drawn[:1000], pool[:1], np.repeat(pool, 7), drawn[::3]]


def per_element(fn, values):
    return np.array([fn(x) for x in values.tolist()], dtype=np.float64)


@pytest.mark.parametrize("name", ["exp", "sin"])
def test_column_math_is_the_per_element_map_called_once_per_bit_pattern(name):
    fn = getattr(math, name)
    for values in column_values():
        if name == "sin":
            values = values[np.isfinite(values) | np.isnan(values)]
        calls = []
        got = core._each(lambda x: calls.append(x) or fn(x), values)
        assert got.tobytes() == per_element(fn, values).tobytes()
        called = np.array(calls, dtype=np.float64).view(np.uint64)
        assert sorted(called.tolist()) == sorted(set(values.view(np.uint64).tolist()))


def test_column_sin_of_an_infinity_raises_the_math_error():
    with pytest.raises(ValueError) as scalar:
        math.sin(INF)
    with pytest.raises(ValueError) as column:
        core._each(math.sin, np.array([0.5, -INF, 0.5, INF]))
    assert str(column.value) == str(scalar.value)


def test_a_build_calls_exp_once_per_distinct_argument(monkeypatch):
    # the 45,760 corners of gaussian-pair-sym at N=3, d=2, delta=1/8 have 3
    # pairs each, and their -r^2 takes 34 values; the per-element map made
    # 137,280 calls
    per_call = []

    def exp(values):
        calls = []
        out = core._each(lambda x: calls.append(x) or math.exp(x), values)
        per_call.append(len(calls))
        return out

    monkeypatch.setattr(core, "_COLUMN_MATH", SimpleNamespace(exp=exp))
    spec = LatticeSpec.from_counts(8, 2, 0.0, 1.0)
    T = build_sym(builtin_target("gaussian-pair-sym"), spec, 3)
    assert len(T.table) == 45_760
    assert per_call and max(per_call) <= 34


@pytest.mark.parametrize("d", [1, 2])
def test_batches_overflow_to_the_evaluators_values_without_a_warning(d):
    # squares and pair products of 1e200 overflow: the columns give the inf
    # and nan the floats give, and numpy does not warn
    P = np.array([[[-1e200] * d, [0.0] * d, [1e200] * d]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_batch_is_the_evaluator(P)
