import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symwedge import (
    DomainError,
    SizeLimitError,
    permanent_bruteforce,
    permanent_ryser,
    permanent_ryser_logdomain,
)

ORACLE_TOL = 1e-10  # |ryser - bruteforce| <= ORACLE_TOL * (1 + |bruteforce|)
LOG_TOL = 1e-9


def mat(rows):
    return rows


# ---------------------------------------------------------------- oracle


def test_bruteforce_identity():
    assert permanent_bruteforce(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 1.0


def test_bruteforce_all_ones():
    assert permanent_bruteforce(mat([[1.0] * 4] * 4)) == 24.0


def test_bruteforce_2x2():
    # 1*4 + 2*3
    assert permanent_bruteforce(mat([[1, 2], [3, 4]])) == 10.0


def test_bruteforce_size_guard():
    with pytest.raises(SizeLimitError):
        permanent_bruteforce(mat([[1.0] * 11] * 11))


# ---------------------------------------------------------------- ryser


def test_ryser_2x2():
    assert permanent_ryser(mat([[1, 2], [3, 4]])) == 10.0


def test_ryser_3x3():
    # frozen from permanent_bruteforce
    assert permanent_ryser(mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == pytest.approx(
        450.0, abs=1e-10
    )


def test_ryser_identity_all_sizes():
    for n in range(1, 9):
        eye = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
        assert permanent_ryser(mat(eye)) == pytest.approx(1.0, abs=1e-12)


def test_ryser_size_guard():
    with pytest.raises(SizeLimitError):
        permanent_ryser(mat([[0.0] * 31] * 31))


def test_ryser_matches_bruteforce_on_random_matrices():
    rng = np.random.Generator(np.random.Philox(101))
    for _ in range(150):
        n = int(rng.integers(1, 8))
        A = mat((rng.random((n, n)) * 2.0 - 1.0).tolist())
        bf = permanent_bruteforce(A)
        assert abs(permanent_ryser(A) - bf) <= ORACLE_TOL * (1.0 + abs(bf))


def test_permanent_transpose_invariance():
    rng = np.random.Generator(np.random.Philox(102))
    for _ in range(30):
        n = int(rng.integers(2, 6))
        rows = rng.integers(-3, 4, size=(n, n)).tolist()
        a = permanent_bruteforce(mat(rows))
        at = permanent_bruteforce(mat([list(r) for r in zip(*rows)]))
        assert a == at  # integer matrices: exact


def test_permanent_row_and_column_permutation_invariance():
    rng = np.random.Generator(np.random.Philox(103))
    for _ in range(30):
        n = int(rng.integers(2, 6))
        rows = rng.integers(-3, 4, size=(n, n))
        p = rng.permutation(n)
        base = permanent_bruteforce(mat(rows.tolist()))
        assert permanent_bruteforce(mat(rows[p, :].tolist())) == base
        assert permanent_bruteforce(mat(rows[:, p].tolist())) == base


def test_permanent_row_multilinearity():
    rng = np.random.Generator(np.random.Philox(104))
    for _ in range(30):
        n = int(rng.integers(1, 6))
        rows = (rng.random((n, n)) * 2.0 - 1.0)
        i = int(rng.integers(0, n))
        c = float(rng.random() * 4.0 - 2.0)
        scaled = rows.copy()
        scaled[i] *= c
        base = permanent_ryser(mat(rows.tolist()))
        got = permanent_ryser(mat(scaled.tolist()))
        assert got == pytest.approx(c * base, rel=1e-12, abs=1e-12)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.floats(-2, 2, width=32), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_ryser_equals_bruteforce_property(rows):
    A = mat(rows)
    bf = permanent_bruteforce(A)
    assert abs(permanent_ryser(A) - bf) <= ORACLE_TOL * (1.0 + abs(bf))


# ---------------------------------------------------------------- log domain


def test_logdomain_2x2():
    got = permanent_ryser_logdomain(mat([[1, 2], [3, 4]]))
    assert got == pytest.approx(10.0, rel=LOG_TOL)


def test_logdomain_zero_row():
    assert permanent_ryser_logdomain(mat([[0.0, 0.0], [1.0, 2.0]])) == 0.0


def test_logdomain_all_constant():
    # c^n * n! with c = e, n = 3
    got = permanent_ryser_logdomain(mat([[math.e] * 3] * 3))
    assert got == pytest.approx(6.0 * math.e**3, rel=LOG_TOL)


def test_logdomain_rejects_negative_entries():
    with pytest.raises(DomainError):
        permanent_ryser_logdomain(mat([[1.0, -0.5], [0.5, 1.0]]))


def test_logdomain_matches_bruteforce_on_positive_matrices():
    rng = np.random.Generator(np.random.Philox(105))
    for _ in range(100):
        n = int(rng.integers(1, 8))
        A = mat((rng.random((n, n)) + 0.05).tolist())
        bf = permanent_bruteforce(A)
        assert abs(permanent_ryser_logdomain(A) - bf) <= LOG_TOL * (1.0 + abs(bf))


# ---------------------------------------------------------------- validation


def test_matrix_validation():
    bad = [
        ([[1.0, 2.0]], "must be square"),
        ([[1.0, float("nan")], [0.0, 1.0]], "must be finite"),
        ([], "at least one row"),
        # every entry is converted first, and the size cap is checked last
        ([[1.0, "x"]], "could not convert"),
        ([[math.nan] * 31] * 31, "must be finite"),
    ]
    for permanent in (permanent_bruteforce, permanent_ryser, permanent_ryser_logdomain):
        for rows, message in bad:
            with pytest.raises(ValueError, match=message):
                permanent(rows)
