import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symwedge import (
    BUILTIN_TARGET_NAMES,
    Configuration,
    ConfigError,
    DomainSpec,
    Permutation,
    Point,
    Symmetry,
    builtin_target,
    parity,
    permute,
)

REL_TOL = 1e-12


def cfg(*rows):
    return Configuration.from_rows(rows)


def perm_strategy(n):
    return st.permutations(range(n)).map(lambda imgs: Permutation(tuple(imgs)))


# ---------------------------------------------------------------- types


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point((0.1, float("nan")))
    with pytest.raises(ValueError):
        Point((float("inf"),))
    with pytest.raises(ValueError, match="non-finite coordinate"):
        Configuration.from_rows([[0.1], [float("nan")]])


def test_configuration_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        Configuration((Point((0.1,)), Point((0.1, 0.2))))
    with pytest.raises(ValueError, match="share one dimension"):
        Configuration.from_rows([[0.1], [0.1, 0.2]])


def test_configuration_shape_accessors():
    X = cfg([0.1, 0.2], [0.3, 0.4], [0.5, 0.6])
    assert X.N == 3
    assert X.d == 2
    assert X.rows() == ((0.1, 0.2), (0.3, 0.4), (0.5, 0.6))


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
