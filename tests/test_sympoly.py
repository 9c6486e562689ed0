import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symwedge import (
    InversionError,
    PowerSums,
    SizeLimitError,
    elementary_direct,
    elementary_from_power_sums,
    invert_power_sums,
    power_sums,
)

NEWTON_TOL = 1e-10
ROUNDTRIP_TOL = 1e-7


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


def test_power_sums_add_left_to_right():
    # a compensated sum, as Python 3.12's builtin sum makes, would give 1.0
    assert power_sums((1e16, 1.0, -1e16)).values[1] == 0.0


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
