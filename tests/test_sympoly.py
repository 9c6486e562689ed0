import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symwedge import (
    Configuration,
    DomainError,
    InversionError,
    MonomialExponents,
    Permutation,
    PowerSums,
    SizeLimitError,
    SymPolyApprox,
    elementary_direct,
    elementary_from_power_sums,
    feature_form_eval,
    invert_power_sums,
    permute,
    power_sums,
    symmetrized_monomial,
    symmetrized_monomial_ryser,
)

NEWTON_TOL = 1e-10
ROUNDTRIP_TOL = 1e-7
ORACLE_REL_TOL = 1e-8


def cfg(*rows):
    return Configuration.from_rows(rows)


# ---------------------------------------------------------------- power sums


def test_power_sums_basic():
    assert power_sums((1.0, 2.0, 3.0)).values == (3.0, 6.0, 14.0, 36.0)


def test_power_sums_zeros():
    assert power_sums((0.0, 0.0)).values == (2.0, 0.0, 0.0)


def test_power_sums_constant():
    c = 0.75
    ps = power_sums((c,) * 4)
    for q in range(5):
        assert ps.values[q] == pytest.approx(4 * c**q, rel=1e-15)


def test_power_sums_type_enforces_count():
    with pytest.raises(ValueError):
        PowerSums(values=(2.5, 1.0, 1.0))  # values[0] must equal N = 2 exactly


# ---------------------------------------------------------------- elementary


def test_elementary_direct_examples():
    xs = (1, 2, 3)
    assert elementary_direct(xs, 1) == 6
    assert elementary_direct(xs, 2) == 11
    assert elementary_direct(xs, 3) == 6


def test_elementary_direct_k_range():
    with pytest.raises(ValueError):
        elementary_direct((1.0, 2.0), 3)
    with pytest.raises(ValueError):
        elementary_direct((1.0, 2.0), 0)


def test_elementary_direct_size_guard():
    with pytest.raises(SizeLimitError):
        elementary_direct(tuple(range(13)), 2)


def test_elementary_from_power_sums_examples():
    E = power_sums((1.0, 2.0, 3.0))
    # hand expansions: e1 = E1; e2 = (E1^2 - E2)/2; e3 = (E1^3 - 3 E1 E2 + 2 E3)/6
    assert elementary_from_power_sums(E, 1) == 6.0
    assert elementary_from_power_sums(E, 2) == 11.0
    assert elementary_from_power_sums(E, 3) == 6.0


def test_newton_girard_exact_on_integers():
    rng = np.random.Generator(np.random.Philox(211))
    for _ in range(200):
        n = int(rng.integers(1, 7))
        xs = tuple(int(v) for v in rng.integers(-9, 10, size=n))
        E = power_sums(xs)
        for k in range(1, n + 1):
            assert elementary_from_power_sums(E, k) == elementary_direct(xs, k)


def test_newton_girard_float_tolerance():
    rng = np.random.Generator(np.random.Philox(212))
    for _ in range(100):
        n = int(rng.integers(1, 7))
        xs = tuple(float(v) for v in rng.random(n) * 2.0 - 1.0)
        E = power_sums(xs)
        for k in range(1, n + 1):
            direct = elementary_direct(xs, k)
            assert abs(elementary_from_power_sums(E, k) - direct) <= NEWTON_TOL * (
                1.0 + abs(direct)
            )


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=6))
def test_newton_girard_property(xs):
    E = power_sums(tuple(xs))
    for k in range(1, len(xs) + 1):
        assert elementary_from_power_sums(E, k) == elementary_direct(tuple(xs), k)


# ---------------------------------------------------------------- inversion


def test_invert_power_sums_round_trip():
    got = invert_power_sums(power_sums((1.0, 2.0, 3.0)))
    assert got == pytest.approx((1.0, 2.0, 3.0), abs=ROUNDTRIP_TOL)


def test_invert_power_sums_repeated_root():
    got = invert_power_sums(power_sums((0.5, 0.5)))
    assert got == pytest.approx((0.5, 0.5), abs=ROUNDTRIP_TOL)


def test_invert_power_sums_returns_sorted():
    got = invert_power_sums(power_sums((0.9, 0.1, 0.5)))
    assert list(got) == sorted(got)


def test_invert_power_sums_random_round_trips():
    rng = np.random.Generator(np.random.Philox(213))
    for _ in range(100):
        n = int(rng.integers(1, 7))
        xs = sorted(float(v) for v in rng.random(n))
        got = invert_power_sums(power_sums(tuple(xs)))
        assert got == pytest.approx(xs, abs=ROUNDTRIP_TOL)


def test_invert_power_sums_rejects_unrealizable_input():
    # E1 = 0, E2 = -2 has no real preimage (sum of squares cannot be negative)
    with pytest.raises(InversionError):
        invert_power_sums(PowerSums(values=(2.0, 0.0, -2.0)))


# ------------------------------------------------------- symmetrized monomials


def test_symmetrized_monomial_all_zero_exponents():
    gamma = MonomialExponents.from_rows([[0], [0], [0]])
    X = cfg([0.4], [0.9], [0.2])
    assert symmetrized_monomial(gamma, X) == 6.0  # N!


def test_symmetrized_monomial_d1_example():
    gamma = MonomialExponents.from_rows([[1], [2]])
    X = cfg([1.0], [2.0])
    # 1*2^2 + 2*1^2
    assert symmetrized_monomial(gamma, X) == 6.0


def test_symmetrized_monomial_row_swap_equivalence():
    gamma = MonomialExponents.from_rows([[1, 0], [0, 2]])
    swapped = MonomialExponents.from_rows([[0, 2], [1, 0]])
    X = cfg([1.5, 2.0], [1.25, 1.75])
    assert symmetrized_monomial(gamma, X) == pytest.approx(
        symmetrized_monomial(swapped, X), rel=1e-15
    )


def test_symmetrized_monomial_permutation_invariance():
    gamma = MonomialExponents.from_rows([[2], [1], [0]])
    X = cfg([1.1], [1.7], [1.3])
    for images in ((1, 0, 2), (2, 0, 1), (2, 1, 0)):
        sX = permute(X, Permutation(images))
        assert abs(symmetrized_monomial(gamma, sX) - symmetrized_monomial(gamma, X)) \
            <= 1e-12 * abs(symmetrized_monomial(gamma, X))


def test_symmetrized_monomial_size_guard():
    gamma = MonomialExponents(tuple(((0,),) * 9))
    X = cfg(*[[1.0]] * 9)
    with pytest.raises(SizeLimitError):
        symmetrized_monomial(gamma, X)


def test_monomial_exponents_validation():
    with pytest.raises(ValueError):
        MonomialExponents.from_rows([[1], [-1]])
    with pytest.raises(ValueError):
        MonomialExponents.from_rows([[1], [1, 2]])


def test_ryser_route_all_zero_exponents():
    gamma = MonomialExponents.from_rows([[0], [0], [0]])
    X = cfg([1.4], [1.9], [1.2])
    assert symmetrized_monomial_ryser(gamma, X) == pytest.approx(6.0, rel=1e-12)


def test_ryser_route_d1_example():
    gamma = MonomialExponents.from_rows([[1], [2]])
    X = cfg([1.0], [2.0])
    assert symmetrized_monomial_ryser(gamma, X) == pytest.approx(6.0, rel=ORACLE_REL_TOL)


def test_ryser_route_rejects_zero_coordinate():
    gamma = MonomialExponents.from_rows([[1], [2]])
    with pytest.raises(DomainError):
        symmetrized_monomial_ryser(gamma, cfg([0.0], [2.0]))


def test_ryser_route_matches_direct_oracle():
    rng = np.random.Generator(np.random.Philox(214))
    for _ in range(100):
        n = int(rng.integers(1, 8))
        d = int(rng.integers(1, 3))
        gamma = MonomialExponents(
            tuple(tuple(int(e) for e in row) for row in rng.integers(0, 4, size=(n, d)))
        )
        X = cfg(*(rng.random((n, d)) + 1.0).tolist())  # coords in [1, 2)
        direct = symmetrized_monomial(gamma, X)
        got = symmetrized_monomial_ryser(gamma, X)
        assert abs(got - direct) <= ORACLE_REL_TOL * (1.0 + abs(direct))


# ---------------------------------------------------------------- feature form


def test_feature_form_constant_term():
    gamma = MonomialExponents.from_rows([[0], [0]])
    P = SymPolyApprox(terms=((3.5, gamma),))
    assert feature_form_eval(P, cfg([1.2], [1.8])) == pytest.approx(7.0, rel=1e-9)


def test_feature_form_pair_product_term():
    # gamma = (1,1) symmetrizes to 2*e2; at X=(1,2) that is 4
    gamma = MonomialExponents.from_rows([[1], [1]])
    P = SymPolyApprox(terms=((1.0, gamma),))
    assert feature_form_eval(P, cfg([1.0], [2.0])) == pytest.approx(4.0, rel=ORACLE_REL_TOL)
    assert P.feature_count == 4  # L * 2^N


def test_feature_form_matches_direct_oracle():
    rng = np.random.Generator(np.random.Philox(215))
    for _ in range(50):
        n = int(rng.integers(1, 5))
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            gamma = MonomialExponents(
                tuple(tuple(int(e) for e in row) for row in rng.integers(0, 3, size=(n, 1)))
            )
            terms.append((float(rng.random() * 2.0 - 1.0), gamma))
        P = SymPolyApprox(terms=tuple(terms))
        X = cfg(*(rng.random((n, 1)) + 1.0).tolist())
        direct = sum(c * symmetrized_monomial(g, X) for c, g in terms)
        got = feature_form_eval(P, X)
        assert abs(got - direct) <= ORACLE_REL_TOL * (1.0 + abs(direct))
    # n in {5, 6} at d = 2
    rng = np.random.Generator(np.random.Philox(216))
    for n in (5, 6):
        for _ in range(10):
            terms = []
            for _ in range(int(rng.integers(1, 4))):
                gamma = MonomialExponents(
                    tuple(tuple(int(e) for e in row) for row in rng.integers(0, 3, size=(n, 2)))
                )
                terms.append((float(rng.random() * 2.0 - 1.0), gamma))
            P = SymPolyApprox(terms=tuple(terms))
            X = cfg(*(rng.random((n, 2)) + 1.0).tolist())
            direct = sum(c * symmetrized_monomial(g, X) for c, g in terms)
            got = feature_form_eval(P, X)
            assert abs(got - direct) <= ORACLE_REL_TOL * (1.0 + abs(direct))


def test_feature_form_rejects_non_positive_coordinate():
    gamma = MonomialExponents.from_rows([[1], [1]])
    P = SymPolyApprox(terms=((1.0, gamma),))
    with pytest.raises(DomainError):
        feature_form_eval(P, cfg([-1.0], [2.0]))


def test_sympoly_approx_needs_terms():
    with pytest.raises(ValueError):
        SymPolyApprox(terms=())


@pytest.mark.parametrize(
    "exponents, rows, monomial",
    [
        (((2,), (0,)), ((1e200,), (2.0,)), "(2,)"),  # the power overflows
        (((1, 1), (0, 0)), ((1e200, 1e200), (2.0, 2.0)), "(1, 1)"),  # the product overflows
        # every monomial is 1e200, their product across the slots overflows
        (((1,), (1,)), ((1e200,), (1e200,)), "((1,), (1,))"),
    ],
    ids=["power", "product", "slots"],
)
def test_monomial_overflow_raises_one_value_error(exponents, rows, monomial):
    gamma = MonomialExponents.from_rows(exponents)
    X = Configuration.from_rows(rows)
    routes = [
        lambda: symmetrized_monomial(gamma, X),
        lambda: symmetrized_monomial_ryser(gamma, X),
        lambda: feature_form_eval(SymPolyApprox(terms=((1.0, gamma),)), X),
    ]
    message = f"^monomial with exponents {re.escape(monomial)} overflows"
    for route in routes:
        with pytest.raises(ValueError, match=message):
            route()
