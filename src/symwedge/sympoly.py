"""Symmetric polynomial machinery: power sums, elementary polynomials and
multiset recovery.

Two independent routes are kept for the elementary symmetric polynomials:
direct subset enumeration and the power-sum recurrence
k*e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} E_i. Recovery inverts the power sums
of a scalar multiset through that recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import InversionError, SizeLimitError

IMAG_TOLERANCE = 1e-7
RESIDUAL_TOLERANCE = 1e-7
DIRECT_ELEMENTARY_MAX_N = 12


@dataclass(frozen=True)
class PowerSums:
    """Power sums E_q = sum_n x_n^q for q = 0..N of a scalar multiset.

    values[0] is the point count N by definition (every x^0 is 1).
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        if len(values) < 2:
            raise ValueError("power sums need at least orders 0 and 1")
        if any(not math.isfinite(v) for v in values):
            raise ValueError("power sums must be finite")
        N = len(values) - 1
        if values[0] != float(N):
            raise ValueError(
                f"order-0 power sum must equal the point count {N}, got {values[0]!r}"
            )
        object.__setattr__(self, "values", values)

    @property
    def N(self) -> int:
        return len(self.values) - 1


def power_sums(xs: Sequence[float]) -> PowerSums:
    """All power sums E_0..E_N of a scalar multiset (d = 1)."""
    points = [float(x) for x in xs]
    if not points:
        raise ValueError("need at least one point")
    N = len(points)
    values = [float(N)]
    for q in range(1, N + 1):
        total = 0.0  # left to right: builtin sum's float summation differs between Python versions
        for x in points:
            total += x**q
        values.append(total)
    return PowerSums(tuple(values))


def elementary_direct(xs: Sequence[float], k: int):
    """Elementary symmetric polynomial e_k by subset enumeration (the oracle).

    Stays in int arithmetic when handed ints, which makes exactness checks
    against the recurrence route possible.
    """
    n = len(xs)
    if n > DIRECT_ELEMENTARY_MAX_N:
        raise SizeLimitError(f"direct e_k capped at N <= {DIRECT_ELEMENTARY_MAX_N}, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k = {k}")
    total = 0
    for subset in combinations(xs, k):
        prod = subset[0]
        for v in subset[1:]:
            prod = prod * v
        total = total + prod
    return total


def elementary_from_power_sums(E: PowerSums, k: int) -> float:
    """e_k from power sums via k*e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} E_i.

    The recurrence is the row expansion of the standard determinant identity
    relating e_k to E_1..E_k; exact for small-integer inputs because every
    intermediate stays an exactly representable integer.
    """
    if not 1 <= k <= E.N:
        raise ValueError(f"need 1 <= k <= {E.N}, got k = {k}")
    e = [1.0]
    for m in range(1, k + 1):
        acc = 0.0
        sign = 1.0
        for i in range(1, m + 1):
            acc += sign * e[m - i] * E.values[i]
            sign = -sign
        e.append(acc / m)
    return e[k]


def invert_power_sums(E: PowerSums) -> tuple[float, ...]:
    """Recover the scalar multiset from its power sums, sorted ascending.

    Forms the monic polynomial with coefficients (-1)^k e_k and takes its
    roots as companion-matrix eigenvalues. Residual imaginary parts above
    the tolerance, or a power-sum mismatch of the recovered points, raise
    InversionError.
    """
    N = E.N
    coeffs = [1.0]
    for k in range(1, N + 1):
        ek = elementary_from_power_sums(E, k)
        coeffs.append(ek if k % 2 == 0 else -ek)
    roots = np.roots(coeffs)
    max_imag = float(np.max(np.abs(roots.imag)))
    if max_imag > IMAG_TOLERANCE:
        raise InversionError(
            f"roots have imaginary parts up to {max_imag:.3e} > {IMAG_TOLERANCE:.1e}"
        )
    xs = tuple(sorted(float(r) for r in roots.real))
    recovered = power_sums(xs)
    for q in range(N + 1):
        residual = abs(recovered.values[q] - E.values[q])
        if residual > RESIDUAL_TOLERANCE:
            raise InversionError(
                f"power sum of order {q} off by {residual:.3e} > {RESIDUAL_TOLERANCE:.1e}"
            )
    return xs
