"""Matrix permanents: a brute-force oracle and inclusion-exclusion evaluators.

Each takes an n-by-n matrix as its rows, sequences of finite numbers. The
inclusion-exclusion form used here is

    perm(A) = (-1)^n * sum_{S nonempty subset of columns} (-1)^|S|
              * prod_i sum_{j in S} A[i][j]

evaluated over a Gray-code subset walk so each step updates the row sums by
a single column. The alternating outer sum is accumulated with compensated
(Kahan) summation. A log-domain variant exists for nonnegative matrices
whose products would overflow or underflow; empty products are handled via
an exp(-inf) = 0 sentinel.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Callable, Sequence

from .errors import DomainError, SizeLimitError

BRUTEFORCE_MAX_N = 10
INCLUSION_EXCLUSION_MAX_N = 30


def _rows(A: Sequence[Sequence[float]], cap: int, method: str) -> tuple[tuple[float, ...], ...]:
    """The rows of A as float tuples. Every entry is converted first; then
    ValueError if A has no rows, is not square or holds a non-finite entry,
    and SizeLimitError if it has more than cap rows."""
    rows = tuple(tuple(float(v) for v in row) for row in A)
    n = len(rows)
    if n == 0:
        raise ValueError("matrix must have at least one row")
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    if any(not math.isfinite(v) for row in rows for v in row):
        raise ValueError("matrix entries must be finite")
    if n > cap:
        raise SizeLimitError(f"{method} permanent capped at n <= {cap}, got {n}")
    return rows


def permanent_bruteforce(A: Sequence[Sequence[float]]) -> float:
    """Sum over all n! permutations; the oracle the fast paths are tested against."""
    rows = _rows(A, BRUTEFORCE_MAX_N, "brute-force")
    n = len(rows)
    total = 0.0
    for sigma in permutations(range(n)):
        prod = 1.0
        for i in range(n):
            prod *= rows[i][sigma[i]]
        total += prod
    return total


def _gray_code_sum(
    rows: tuple[tuple[float, ...], ...],
    subset_product: Callable[[list[float]], float | None],
) -> float:
    """(-1)^n sum_S (-1)^|S| subset_product(row sums over S), walking the
    nonempty column subsets S in Gray-code order; a None product is skipped."""
    n = len(rows)
    row_sums = [0.0] * n
    total = 0.0
    comp = 0.0  # Kahan compensation for the alternating outer sum
    prev_gray = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        changed = gray ^ prev_gray
        j = changed.bit_length() - 1
        if gray & changed:
            for i in range(n):
                row_sums[i] += rows[i][j]
        else:
            for i in range(n):
                row_sums[i] -= rows[i][j]
        prev_gray = gray
        prod = subset_product(row_sums)
        if prod is None:
            continue
        term = -prod if gray.bit_count() & 1 else prod
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return -total if n & 1 else total


def permanent_ryser(A: Sequence[Sequence[float]]) -> float:
    """Inclusion-exclusion permanent over a Gray-code subset walk, O(2^n * n)."""
    return _gray_code_sum(_rows(A, INCLUSION_EXCLUSION_MAX_N, "inclusion-exclusion"), math.prod)


def _exp_sum_log(row_sums: list[float]) -> float | None:
    log_prod = 0.0
    for s in row_sums:
        if s <= 0.0:
            return None
        log_prod += math.log(s)
    return math.exp(log_prod)


def permanent_ryser_logdomain(A: Sequence[Sequence[float]]) -> float:
    """Like permanent_ryser but with per-subset products computed as exp(sum log).

    Requires a nonnegative matrix. Row sums that are zero (or driven to a
    tiny negative by cancellation in the Gray-code updates) contribute an
    exact zero term, the exp(-inf) convention.
    """
    rows = _rows(A, INCLUSION_EXCLUSION_MAX_N, "inclusion-exclusion")
    if any(v < 0.0 for row in rows for v in row):
        raise DomainError("log-domain permanent requires nonnegative entries")
    return _gray_code_sum(rows, _exp_sum_log)
