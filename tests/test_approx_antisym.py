import functools
import itertools
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symwedge import (
    MODE_PROJECTED,
    MODE_RANK,
    Configuration,
    DirectionSearchError,
    DomainError,
    DomainSpec,
    LatticeSpec,
    Permutation,
    Symmetry,
    TargetFunction,
    build_antisym,
    builtin_target,
    choose_direction,
    corner_configuration,
    eval_antisym,
    eval_antisym_batch,
    load_model,
    parity,
    permute,
    save_model,
    vandermonde_product,
)
from symwedge.approx_antisym import (
    _CANDIDATES,
    _candidate_table,
    _choose_directions,
    _difference_patterns,
    _projected_pair_product,
    _projected_pair_products,
    directions_valid,
    entry_seed,
    fnv1a64,
)
from symwedge.approx_sym import _site_index, _site_numbers
from symwedge.harness import reset_philox
from symwedge.lattice import enumerate_wedge, lattice_sites, repetition_constant
from helpers import configurations

MODE_AGREEMENT_TOL = 1e-10


def cfg(*rows):
    return Configuration.from_rows(rows)


def key_array(keys):
    """The site indices of each wedge key as a (K, N, d) int64 array."""
    return np.array(keys, dtype=np.int64)


def unit_domain(d, N):
    return DomainSpec(d=d, N=N, lo=0.0, hi=1.0)


VG_12 = builtin_target("vandermonde-gauss-antisym")
SPEC_HALF = LatticeSpec.from_domain(unit_domain(1, 2), 0.5)


# ---------------------------------------------------------------- factors


def test_vandermonde_product_examples():
    assert vandermonde_product((1.0, 2.0)) == -1.0
    assert vandermonde_product((3.0, 1.0, 2.0)) == -2.0  # (3-1)(3-2)(1-2)
    assert vandermonde_product((0.4, 0.7, 0.4)) == 0.0


# ---------------------------------------------------------------- directions


def test_fnv1a64_known_vectors():
    assert fnv1a64(b"") == 14695981039346656037
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


def test_entry_seed_is_order_sensitive():
    assert entry_seed(((0,), (1,))) != entry_seed(((1,), (0,)))


def test_choose_direction_d1_is_constant():
    assert choose_direction(((0,), (3,)), tau=1e-3) == (1.0,)


def test_choose_direction_deterministic_and_valid():
    zs = ((0, 0), (1, 2), (3, 1))
    a1 = choose_direction(zs, tau=1e-3)
    a2 = choose_direction(zs, tau=1e-3)
    assert a1 == a2
    assert len(a1) == 2
    assert math.hypot(*a1) == pytest.approx(1.0, abs=1e-12)
    assert directions_valid(np.array([a1]), np.array([zs]), 1e-3)[0]


def test_direction_is_valid_rejects_orthogonal():
    zs = ((0, 0), (1, 0), (2, 0))  # differences span the first axis only
    A = np.array([(0.0, 1.0), (1.0, 0.0)])
    assert directions_valid(A, np.array([zs, zs]), 1e-3).tolist() == [False, True]


def test_choose_direction_exhausts_budget_on_impossible_tau():
    # needs |a . (0,1)| >= 0.9 and |a . (1,0)| >= 0.9 from a unit vector, so
    # no candidate of the table clears tau
    zs = ((0, 0), (0, 1), (1, 0))
    with pytest.raises(DirectionSearchError):
        choose_direction(zs, tau=0.9)


def test_choose_direction_validation():
    with pytest.raises(ValueError):
        choose_direction(((0,), (1,)), tau=0.0)
    with pytest.raises(ValueError):
        choose_direction(((0,), (0,)), tau=1e-3)


def test_nan_tau_is_rejected():
    # NaN compares false against every bound, so a "tau <= 0" guard let it through
    nan = float("nan")
    with pytest.raises(ValueError, match="tau must be positive"):
        choose_direction(((0,), (1,)), tau=nan)
    keys = [((0, 0), (1, 1))]
    with pytest.raises(ValueError, match="tau must be positive"):
        _choose_directions(key_array(keys), nan)
    # three slots over two cells: no distinct-cell entry reaches the direction search
    f = builtin_target("vandermonde-gauss-antisym", {})
    with pytest.raises(ValueError, match="tau must be positive"):
        build_antisym(f, SPEC_HALF, 3, mode=MODE_PROJECTED, tau=nan)


# ---------------------------------------------------------------- batched search


def bits(values):
    return [float(v).hex() for v in values]


def draw_is_valid(a, zs, tau):
    """The validity rule for one direction, component by component."""
    for i, j in itertools.combinations(range(len(zs)), 2):
        dot = norm2 = 0.0
        for ac, ci, cj in zip(a, zs[i], zs[j]):
            dot += ac * (ci - cj)
            norm2 += (ci - cj) * (ci - cj)
        if abs(dot) < tau * math.sqrt(norm2):
            return False
    return True


@functools.cache
def candidate_table(d):
    """The candidates written out: Philox(key=0) normals, each row divided by
    the root of its squares summed left to right."""
    rng = np.random.Generator(np.random.Philox(key=0))
    table = []
    for row in rng.standard_normal((_CANDIDATES, d)).tolist():
        norm2 = 0.0
        for x in row:
            norm2 += x * x
        table.append(tuple(x / math.sqrt(norm2) for x in row))
    return tuple(table)


def maximin_direction(zs):
    """The oracle search: a plain loop over the candidates, keeping the first
    of largest smallest relative pair projection. Returns the direction and
    its score; (1,) and None at d = 1."""
    d = len(zs[0])
    if d == 1:
        return (1.0,), None
    best, best_score = None, -1.0
    for a in candidate_table(d):
        score = math.inf
        for i, j in itertools.combinations(range(len(zs)), 2):
            dot = norm2 = 0.0
            for ac, ci, cj in zip(a, zs[i], zs[j]):
                dot += ac * (ci - cj)
                norm2 += (ci - cj) * (ci - cj)
            score = min(score, abs(dot) / math.sqrt(norm2))
        if score > best_score:
            best, best_score = a, score
    return best, best_score


def rejection_message(zs, tau, score):
    return (
        f"no candidate direction clears tau = {tau} for Z = {zs}: its best smallest "
        f"relative pair projection is {score!r}; lower tau"
    )


def assert_batch_matches_oracle(spec, keys, taus=(1e-3, 0.5)):
    """At each tau, batched directions, scalar directions and corner products
    equal the oracle's bit for bit; a key whose oracle direction fails tau
    makes the batch raise the message naming its score. Returns the number
    of such keys per tau."""
    N = len(keys[0])
    found = [(zs, *maximin_direction(zs)) for zs in keys]
    rejected = []
    for tau in taus:
        served = [(zs, a) for zs, a, _ in found if draw_is_valid(a, zs, tau)]
        for zs, a, score in found:
            if not draw_is_valid(a, zs, tau):
                with pytest.raises(DirectionSearchError) as raised:
                    choose_direction(zs, tau)
                assert str(raised.value) == rejection_message(zs, tau, score)
        rejected.append(len(found) - len(served))
        if not served:
            continue
        idx = key_array([zs for zs, _ in served])
        A = _choose_directions(idx, tau)
        assert [bits(row) for row in A.tolist()] == [bits(a) for _, a in served]
        assert [bits(choose_direction(zs, tau)) for zs, _ in served] == [bits(a) for _, a in served]
        psi = _projected_pair_products(A, spec.origin + idx * spec.delta)
        want = [_projected_pair_product(a, [spec.position(z) for z in zs]) for zs, a in served]
        assert bits(psi.tolist()) == bits(want)
    return rejected


def distinct_keys(spec, N):
    return list(itertools.combinations(lattice_sites(spec), N))


def some_keys(keys, count, seed):
    """A seeded sample of ``count`` keys, in order; all of them if there are no more."""
    if len(keys) <= count:
        return keys
    rng = np.random.Generator(np.random.Philox(seed))
    return [keys[i] for i in sorted(rng.choice(len(keys), size=count, replace=False))]


@pytest.mark.parametrize("d, cells", [(1, 12), (2, 4), (3, 2)])
@pytest.mark.parametrize("N", [2, 4, 5])
def test_batched_search_matches_scalar_on_every_key(N, d, cells):
    spec = LatticeSpec.from_counts(cells, d, 0.0, 1.0)
    assert_batch_matches_oracle(spec, distinct_keys(spec, N))


def test_batched_search_matches_scalar_at_d9():
    # nine components, on a seeded sample of the 130,816 keys
    spec = LatticeSpec.from_counts(2, 9, -1.0, 1.0)
    assert_batch_matches_oracle(spec, some_keys(distinct_keys(spec, 2), 300, 66))


@pytest.mark.parametrize("top, floor", [(1000, 256), (200_000, 65_536)])
def test_batched_search_matches_scalar_on_multibyte_indices(top, floor):
    # index differences in the hundreds of thousands, whose squares run past 2**32
    spec = LatticeSpec.from_counts(top, 2, 0.0, 1.0)
    rng = np.random.Generator(np.random.Philox(68))
    keys = []
    while len(keys) < 200:
        sites = {tuple(int(i) for i in rng.integers(0, top, size=2)) for _ in range(3)}
        if len(sites) == 3:
            keys.append(tuple(sorted(sites)))
    assert max(i for zs in keys for site in zs for i in site) >= floor
    assert_batch_matches_oracle(spec, keys)


def test_batched_search_breaks_ties_to_the_lowest_candidate(monkeypatch):
    # a and -a score alike on every key, so with each candidate's mirror in
    # the second half of the table every choice is a tie
    half = _candidate_table(2)[: _CANDIDATES // 2]
    monkeypatch.setattr(
        "symwedge.approx_antisym._candidate_table", lambda d: np.concatenate([half, -half])
    )
    spec = LatticeSpec.from_counts(4, 2, 0.0, 1.0)
    A = _choose_directions(key_array(distinct_keys(spec, 3)), 1e-3)
    assert all((half == row).all(axis=1).any() for row in A)


def test_candidate_table_is_made_once_per_d_and_shared_read_only():
    C = _candidate_table(3)
    assert _candidate_table(3) is C and _candidate_table(2) is not C
    with pytest.raises(ValueError):
        C[0, 0] = 0.0
    V = np.random.Generator(np.random.Philox(key=0)).standard_normal((_CANDIDATES, 3))
    norm2 = V[:, 0] * V[:, 0] + V[:, 1] * V[:, 1] + V[:, 2] * V[:, 2]
    assert (C == V / np.sqrt(norm2)[:, None]).all()


def test_batched_search_d1_tau_above_one_raises_like_scalar():
    spec = LatticeSpec.from_counts(4, 1, 0.0, 1.0)
    keys = distinct_keys(spec, 2)
    message = (
        "no candidate direction clears tau = 1.5 for Z = ((0,), (1,)): its best smallest "
        "relative pair projection is 1.0; lower tau"
    )
    with pytest.raises(DirectionSearchError) as scalar:
        choose_direction(keys[0], 1.5)
    assert str(scalar.value) == message
    with pytest.raises(DirectionSearchError) as batched:
        _choose_directions(key_array(keys), 1.5)
    assert str(batched.value) == message
    f = builtin_target("vandermonde-gauss-antisym")
    with pytest.raises(DirectionSearchError) as built:
        build_antisym(f, spec, 2, mode=MODE_PROJECTED, tau=1.5)
    assert str(built.value) == message


def test_batched_search_exhausted_budget_raises_like_scalar():
    # no candidate clears tau = 0.9 for the first key; the batch names it and
    # the best score the table offers it
    spec = LatticeSpec.from_counts(2, 2, 0.0, 1.0)
    keys = distinct_keys(spec, 3)
    _, score = maximin_direction(keys[0])
    message = rejection_message(keys[0], 0.9, score)
    assert message.startswith(
        "no candidate direction clears tau = 0.9 for Z = ((0, 0), (0, 1), (1, 0)): "
    )
    with pytest.raises(DirectionSearchError) as scalar:
        choose_direction(keys[0], 0.9)
    assert str(scalar.value) == message
    with pytest.raises(DirectionSearchError) as batched:
        _choose_directions(key_array(keys), 0.9)
    assert str(batched.value) == message
    f = builtin_target("vandermonde-gauss-antisym", {})
    with pytest.raises(DirectionSearchError) as built:
        build_antisym(f, spec, 3, mode=MODE_PROJECTED, tau=0.9)
    assert str(built.value) == message


def pattern_code(zs, n):
    """The code of zs's difference pattern: the components of z_i - z_0
    (i >= 1) offset by n - 1, as the digits of one radix 2n - 1 number."""
    code = 0
    for site in zs[1:]:
        for a, b in zip(site, zs[0]):
            code = code * (2 * n - 1) + (a - b + n - 1)
    return code


def test_a_failed_build_names_the_first_failing_key_in_key_order():
    # Two difference patterns fail at this tau, and the one with the smaller
    # code first appears after the first key of the other, so a search in
    # code order meets the later key's pattern first.
    spec = LatticeSpec.from_counts(4, 2, 0.0, 1.0)
    tau = 0.514
    failing = []
    for zs in distinct_keys(spec, 3):
        a, score = maximin_direction(zs)
        if not draw_is_valid(a, zs, tau):
            failing.append((zs, score))
    codes = [pattern_code(zs, 4) for zs, _ in failing]
    assert len(set(codes)) == 2 and codes[0] > min(codes)
    zs, score = failing[0]
    f = builtin_target("vandermonde-gauss-antisym")
    with pytest.raises(DirectionSearchError) as built:
        build_antisym(f, spec, 3, mode=MODE_PROJECTED, tau=tau)
    assert str(built.value) == rejection_message(zs, tau, score)


@pytest.mark.parametrize(
    "cells, d, N", [(4, 2, 3), (12, 1, 4), (2, 3, 5), (3, 2, 1), (2, 5, 30)],
    ids=["4x4", "d1", "d3", "N1", "codes-past-int64"],
)
def test_difference_patterns_give_back_every_key(cells, d, N):
    spec = LatticeSpec.from_counts(cells, d, 0.0, 1.0)
    index = _site_index(spec)
    num = _site_numbers(spec.site_count, N, strict=True)
    keys = index[num]
    patterns, of_key = _difference_patterns(index, num, cells)
    if (2 * cells - 1) ** ((N - 1) * d) < 2**63:
        assert (patterns[:, 0] == 0).all()
        assert (patterns[of_key] + keys[:, :1] == keys).all()
    else:  # codes would not fit an int64: every key is its own pattern
        assert (patterns[of_key] == keys).all()
    flat = patterns.reshape(len(patterns), -1)
    assert len(np.unique(flat, axis=0)) == len(flat)  # each pattern once


def unit_rows(rng, count, d):
    """``count`` seeded directions of unit length, as tuples."""
    V = rng.standard_normal((count, d))
    return [tuple(row) for row in (V / np.linalg.norm(V, axis=1)[:, None]).tolist()]


@pytest.mark.parametrize("N", [4, 5])
def test_batched_pair_products_match_scalar_at_d3(N):
    # arbitrary unit directions, not only chosen ones, on an off-unit box
    spec = LatticeSpec.from_counts(3, 3, -1.25, 0.5)
    rng = np.random.Generator(np.random.Philox(70 + N))
    keys = some_keys(distinct_keys(spec, N), 200, 72)
    directions = unit_rows(rng, len(keys), 3)
    idx = key_array(keys)
    psi = _projected_pair_products(np.array(directions), spec.origin + idx * spec.delta)
    want = [
        _projected_pair_product(a, [spec.position(z) for z in zs])
        for zs, a in zip(keys, directions)
    ]
    assert bits(psi.tolist()) == bits(want)


@pytest.mark.parametrize("N", [4, 5])
def test_directions_valid_matches_the_rule_at_d3(N):
    spec = LatticeSpec.from_counts(3, 3, 0.0, 1.0)
    rng = np.random.Generator(np.random.Philox(73 + N))
    keys = some_keys(distinct_keys(spec, N), 300, 75)
    directions = unit_rows(rng, len(keys), 3)
    idx = key_array(keys)
    for tau in (1e-3, 0.05, 0.2):
        want = [draw_is_valid(a, zs, tau) for zs, a in zip(keys, directions)]
        assert 0 < sum(want) < len(want)  # both outcomes occur
        assert directions_valid(np.array(directions), idx, tau).tolist() == want


# ---------------------------------------------------------------- harness.reset_philox


@pytest.mark.parametrize("key", [0, 1, 2**64 - 1, 2**64, 2**128 - 1])
def test_reset_philox_equals_a_fresh_generator(key):
    fresh = np.random.Philox(key=key)
    rng = np.random.Generator(np.random.Philox(key=12345))
    rng.standard_normal(7)  # leave the generator mid-buffer
    reset_philox(rng.bit_generator, key)
    got, want = rng.bit_generator.state, fresh.state
    assert got["state"]["key"].tolist() == want["state"]["key"].tolist()
    assert got["state"]["counter"].tolist() == want["state"]["counter"].tolist()
    assert got["buffer"].tolist() == want["buffer"].tolist()
    assert {k: got[k] for k in ("bit_generator", "buffer_pos", "has_uint32", "uinteger")} == {
        k: want[k] for k in ("bit_generator", "buffer_pos", "has_uint32", "uinteger")
    }
    assert bits(rng.standard_normal(16)) == bits(np.random.Generator(fresh).standard_normal(16))


@pytest.mark.parametrize("key", [-1, 2**128])
def test_reset_philox_rejects_what_philox_rejects(key):
    with pytest.raises(ValueError):
        np.random.Philox(key=key)
    with pytest.raises(ValueError):
        reset_philox(np.random.Philox(key=0), key)


# ---------------------------------------------------------------- build


def test_build_drops_repeated_cell_entries():
    tab = build_antisym(VG_12, SPEC_HALF, 2, mode=MODE_RANK)
    assert len(tab.table) == 1  # ((0,), (1,)) alone: ((0,), (0,)) and ((1,), (1,)) repeat a cell
    assert tab.stats.wedge_count == 3  # full wedge size, for M accounting
    assert tab.kind == "antisym-c1"


@pytest.mark.parametrize("d, cells", [(1, 8), (2, 3), (3, 2)])
@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_table_keys_are_the_distinct_cell_wedge_entries_in_order(N, d, cells):
    # the multiset wedge with every repeated-cell entry filtered out
    spec = LatticeSpec.from_counts(cells, d, 0.0, 1.0)
    want = [zs for zs in enumerate_wedge(spec, N) if repetition_constant(zs) == 1]
    f = builtin_target("vandermonde-gauss-antisym")
    values = [f(corner_configuration(spec, zs)) for zs in want]
    assert bits(build_antisym(f, spec, N, mode=MODE_RANK).table.tolist()) == bits(values)
    projected = build_antisym(f, spec, N, mode=MODE_PROJECTED)
    assert len(projected.table) == len(projected.directions) == len(want)


def test_build_rank_coefficient_example():
    # rank mode stores f(Z) itself: psi(X)/psi(Z) is just the sort sign
    tab = build_antisym(VG_12, SPEC_HALF, 2, mode=MODE_RANK)
    Z = ((0,), (1,))
    assert tab.table.tolist() == [VG_12(corner_configuration(SPEC_HALF, Z))]


@pytest.mark.parametrize("N", [4, 5])
def test_rank_mode_is_exact_at_every_corner(N):
    # sign * f(Z) exactly, also where slot_rank_product(N) is not a power of 2
    f = builtin_target("vandermonde-gauss-antisym")
    spec = LatticeSpec.from_domain(unit_domain(1, N), 1 / 16)
    tab = build_antisym(f, spec, N, mode=MODE_RANK)
    assert len(tab.table) == math.comb(16, N)
    sigma = Permutation(tuple(range(1, N)) + (0,))
    for Z in distinct_keys(spec, N):
        X = corner_configuration(spec, Z)
        assert eval_antisym(tab, X) == f(X)
        assert eval_antisym(tab, permute(X, sigma)) == parity(sigma) * f(X)


def test_build_projected_divides_by_corner_product():
    tab = build_antisym(VG_12, SPEC_HALF, 2, mode=MODE_PROJECTED)
    Z = ((0,), (1,))  # the only distinct-cell entry
    assert tab.directions.tolist() == [[1.0]]
    # corner positions 0.0 and 0.5: pair product is (0.0 - 0.5) = -0.5
    f_Z = VG_12(corner_configuration(SPEC_HALF, Z))
    assert tab.table.tolist() == [f_Z / -0.5]


def test_build_zero_target_evaluates_to_zero():
    zero = TargetFunction(
        evaluator=lambda X: 0.0,
        declared_symmetry=Symmetry.ANTISYMMETRIC,
        name="zero",
    )
    tab = build_antisym(zero, SPEC_HALF, 2, mode=MODE_RANK)
    rng = np.random.Generator(np.random.Philox(62))
    for _ in range(50):
        assert eval_antisym(tab, cfg(*rng.random((2, 1)).tolist())) == 0.0


def test_build_guards():
    sym = builtin_target("sum-coords")
    with pytest.raises(ValueError):
        build_antisym(sym, SPEC_HALF, 2, mode=MODE_RANK)
    with pytest.raises(ValueError):
        build_antisym(VG_12, SPEC_HALF, 2, mode="sorted")
    with pytest.raises(ValueError):
        build_antisym(VG_12, SPEC_HALF, 2, mode=MODE_RANK, smooth_width=0.1)


# ---------------------------------------------------------------- eval


def test_eval_antisym_zero_when_points_share_a_cell():
    for mode in (MODE_RANK, MODE_PROJECTED):
        tab = build_antisym(VG_12, SPEC_HALF, 2, mode=mode)
        assert eval_antisym(tab, cfg([0.1], [0.2])) == 0.0


def test_eval_antisym_swap_flips_sign_bit_exactly():
    for mode in (MODE_RANK, MODE_PROJECTED):
        tab = build_antisym(VG_12, SPEC_HALF, 2, mode=mode)
        X = cfg([0.2], [0.8])
        v = eval_antisym(tab, X)
        assert v != 0.0
        assert eval_antisym(tab, permute(X, Permutation((1, 0)))) == -v


def test_eval_antisym_sign_equivariance_property():
    f = builtin_target("vandermonde-gauss-antisym")
    spec = LatticeSpec.from_domain(unit_domain(1, 3), 0.25)
    rng = np.random.Generator(np.random.Philox(63))
    for mode in (MODE_RANK, MODE_PROJECTED):
        tab = build_antisym(f, spec, 3, mode=mode)
        for _ in range(300):
            X = cfg(*rng.random((3, 1)).tolist())
            sigma = Permutation(tuple(int(i) for i in rng.permutation(3)))
            expected = parity(sigma) * eval_antisym(tab, X)
            assert eval_antisym(tab, permute(X, sigma)) == expected


def test_mode_agreement_within_tolerance():
    f = builtin_target("vandermonde-gauss-antisym")
    spec = LatticeSpec.from_domain(unit_domain(2, 2), 0.25)
    rank = build_antisym(f, spec, 2, mode=MODE_RANK)
    proj = build_antisym(f, spec, 2, mode=MODE_PROJECTED)
    rng = np.random.Generator(np.random.Philox(64))
    for _ in range(300):
        X = cfg(*rng.random((2, 2)).tolist())
        a, b = eval_antisym(rank, X), eval_antisym(proj, X)
        assert abs(a - b) <= MODE_AGREEMENT_TOL * (1.0 + abs(a))


def test_eval_antisym_error_band():
    spec = LatticeSpec.from_domain(unit_domain(1, 2), 0.125)
    tab = build_antisym(VG_12, spec, 2, mode=MODE_RANK)
    from symwedge import gradient_bound_estimate, sample_configurations

    S = sample_configurations(unit_domain(1, 2), 5000, 99)
    L_hat = gradient_bound_estimate(VG_12, S)
    worst = max(abs(VG_12(X) - eval_antisym(tab, X)) for X in configurations(S))
    assert worst <= 0.125 * math.sqrt(2.0) * L_hat + 1e-12


def test_eval_antisym_domain_and_shape_errors():
    tab = build_antisym(VG_12, SPEC_HALF, 2, mode=MODE_RANK)
    with pytest.raises(DomainError):
        eval_antisym(tab, cfg([0.2], [1.4]))
    with pytest.raises(ValueError):
        eval_antisym(tab, cfg([0.2, 0.1], [0.4, 0.3]))


# ---------------------------------------------------------------- smoothing


def test_smooth_projected_vanishes_on_diagonal():
    f = builtin_target("vandermonde-gauss-antisym", {})
    for d, delta, rows in [
        (1, 0.5, [[0.37], [0.37]]),
        (2, 0.25, [[0.37, 0.61], [0.12, 0.9], [0.37, 0.61], [0.8, 0.3]]),
    ]:
        spec = LatticeSpec.from_domain(unit_domain(d, len(rows)), delta)
        tab = build_antisym(f, spec, len(rows), mode=MODE_PROJECTED, smooth_width=0.1)
        assert eval_antisym(tab, cfg(*rows)) == 0.0


def test_smooth_projected_sign_equivariance():
    f = builtin_target("vandermonde-gauss-antisym", {})
    for N, d in [(3, 1), (4, 2)]:
        spec = LatticeSpec.from_domain(unit_domain(d, N), 0.25)
        tab = build_antisym(f, spec, N, mode=MODE_PROJECTED, smooth_width=0.06)
        rng = np.random.Generator(np.random.Philox(65))
        for _ in range(200):
            X = cfg(*rng.random((N, d)).tolist())
            sigma = Permutation(tuple(int(i) for i in rng.permutation(N)))
            expected = parity(sigma) * eval_antisym(tab, X)
            assert eval_antisym(tab, permute(X, sigma)) == expected


def test_smooth_projected_no_jump_across_face():
    f = builtin_target("vandermonde-gauss-antisym", {})
    h = 1e-4
    xs = np.arange(0.45, 0.55, h)  # the first coordinate crosses the face at 0.5
    for others, floor in [
        ([[0.9]], 0.1),
        # values near 3e-4, where the indicator jumps by 5e-4, so no floor
        ([[0.1, 0.8], [0.7, 0.55], [0.95, 0.15]], 0.0),
    ]:
        d, N = len(others[0]), len(others) + 1
        spec = LatticeSpec.from_domain(unit_domain(d, N), 0.25)
        tab = build_antisym(f, spec, N, mode=MODE_PROJECTED, smooth_width=0.0625)
        vals = [eval_antisym(tab, cfg([float(x)] + [0.3] * (d - 1), *others)) for x in xs]
        jumps = np.abs(np.diff(vals))
        value_range = 2.0 * max(abs(v) for v in vals)
        assert jumps.max() <= 1e-2 * max(value_range, floor)


def test_smooth_projected_continuous_where_sort_flips():
    # crossing the diagonal reorders the canonical sort; the pair product's
    # zero there keeps the blend continuous
    spec = LatticeSpec.from_domain(unit_domain(1, 2), 0.25)
    tab = build_antisym(VG_12, spec, 2, mode=MODE_PROJECTED, smooth_width=0.0625)
    h = 1e-4
    xs = np.arange(0.6 - 0.005, 0.6 + 0.005, h)
    vals = [eval_antisym(tab, cfg([float(x)], [0.6])) for x in xs]
    jumps = np.abs(np.diff(vals))
    assert jumps.max() <= 1e-3


# ---------------------------------------------------------------- batch eval

BOXES = [(0.0, 1.0), (-0.5, 1.5), (-1.0, 0.3)]


def draw_rows(data, spec, N, B):
    """B rows of N points in spec's box: uniform draws, cell faces moved by
    up to 3 ulps either way, hi exactly, and points repeating an earlier
    point of their row."""

    def coordinate():
        where = data.draw(st.sampled_from(["uniform", "face", "hi"]))
        if where == "uniform":
            return data.draw(st.floats(spec.origin, spec.top))
        if where == "hi":
            return spec.top
        c = spec.origin + data.draw(st.integers(0, spec.cells_per_dim)) * spec.delta
        steps = data.draw(st.integers(-3, 3))
        for _ in range(abs(steps)):
            c = math.nextafter(c, math.copysign(math.inf, steps))
        return min(max(c, spec.origin), spec.top)

    rows = []
    for _ in range(B):
        points = []
        for i in range(N):
            if i and data.draw(st.booleans()):
                points.append(points[data.draw(st.integers(0, i - 1))])
            else:
                points.append([coordinate() for _ in range(spec.d)])
        rows.append(points)
    return np.array(rows, dtype=np.float64).reshape(B, N, spec.d)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_eval_antisym_batch_equals_eval_antisym_bit_for_bit(data):
    N, d = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
    lo, hi = data.draw(st.sampled_from(BOXES))
    # at most 1,500 strict wedge entries
    cells = max(n for n in range(1, 9) if math.comb(n**d, N) <= 1500)
    spec = LatticeSpec.from_counts(data.draw(st.integers(1, cells)), d, lo, hi)
    mode = data.draw(st.sampled_from([MODE_RANK, MODE_PROJECTED]))
    T = build_antisym(builtin_target("vandermonde-gauss-antisym"), spec, N, mode=mode)
    if data.draw(st.booleans()):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.swm")
            save_model(path, T)
            T = load_model(path)
    P = draw_rows(data, spec, N, data.draw(st.integers(0, 6)))
    scalar = [eval_antisym(T, Configuration.from_rows(rows)) for rows in P.tolist()]
    bits = lambda values: np.asarray(values, dtype=np.float64).view(np.uint64).tolist()
    assert bits(eval_antisym_batch(T, P)) == bits(scalar)
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
            eval_antisym_batch(T, bad)
        for rows in bad.tolist():  # the scalar eval's error on the first bad row
            try:
                eval_antisym(T, Configuration.from_rows(rows))
            except DomainError as exc:
                assert str(err.value) == str(exc)
                break
        else:
            raise AssertionError("no row is outside the box")
