"""Symmetric polynomial machinery: power sums, elementary polynomials,
multiset recovery, and symmetrized monomials.

Two independent routes are kept for everything that admits one:

* elementary symmetric polynomials by direct subset enumeration and by the
  power-sum recurrence  k*e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} E_i;
* symmetrized monomials by explicit N! enumeration and as a permanent of
  the monomial-evaluation matrix F[i][j] = prod_a x[j][a]^gamma[i][a].

The permanent route requires strictly positive coordinates because it runs
in the log domain; so does the feature form, on the transposed matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable, Sequence

import numpy as np

from .core import Configuration
from .errors import DomainError, InversionError, SizeLimitError
from .permanent import SquareMatrix, permanent_ryser_logdomain

__all__ = [
    "PowerSums",
    "MonomialExponents",
    "SymPolyApprox",
    "power_sums",
    "elementary_direct",
    "elementary_from_power_sums",
    "invert_power_sums",
    "symmetrized_monomial",
    "symmetrized_monomial_ryser",
    "feature_form_eval",
]

IMAG_TOLERANCE = 1e-7
RESIDUAL_TOLERANCE = 1e-7
DIRECT_ELEMENTARY_MAX_N = 12
SYMMETRIZE_BRUTE_MAX_N = 8
SYMMETRIZE_PERMANENT_MAX_N = 20
FEATURE_FORM_MAX_N = 12


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
        values.append(sum(x**q for x in points))
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
    max_imag = float(np.max(np.abs(roots.imag))) if N > 0 else 0.0
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


@dataclass(frozen=True)
class MonomialExponents:
    """An N-by-d grid of nonnegative integer exponents, one row per slot."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(g) for g in row) for row in self.rows)
        if not rows:
            raise ValueError("need at least one exponent row")
        d = len(rows[0])
        if d == 0 or any(len(row) != d for row in rows):
            raise ValueError("exponent rows must be nonempty and of equal length")
        if any(g < 0 for row in rows for g in row):
            raise ValueError("exponents must be nonnegative")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "MonomialExponents":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def scalar(cls, exponents: Sequence[int]) -> "MonomialExponents":
        """d = 1 convenience: one exponent per slot."""
        return cls(tuple((int(g),) for g in exponents))

    @property
    def N(self) -> int:
        return len(self.rows)

    @property
    def d(self) -> int:
        return len(self.rows[0])


def _overflow_checked(value: Callable[[], float], exps, coords) -> float:
    """value(), or ValueError when it overflows, raised or returned as non-finite."""
    try:
        result = value()
    except OverflowError:
        result = math.inf
    if not math.isfinite(result):
        raise ValueError(f"monomial with exponents {exps} overflows at x = {coords}")
    return result


def _monomial_value(coords: tuple[float, ...], exps: tuple[int, ...]) -> float:
    """prod_a coords[a]^exps[a]; a power or a product that overflows raises ValueError."""
    return _overflow_checked(
        lambda: math.prod((coords[a] ** g for a, g in enumerate(exps) if g), start=1.0),
        exps,
        coords,
    )


def _check_shapes(gamma: MonomialExponents, X: Configuration) -> None:
    if gamma.N != X.N or gamma.d != X.d:
        raise ValueError(
            f"exponent grid is {gamma.N}x{gamma.d} but configuration is {X.N}x{X.d}"
        )


def symmetrized_monomial(gamma: MonomialExponents, X: Configuration) -> float:
    """sum over sigma of prod_i prod_a x[sigma(i)][a]^gamma[i][a], by enumeration.

    A monomial, or the sum's product across slots, that overflows raises
    ValueError, as on the permanent route."""
    _check_shapes(gamma, X)
    N = X.N
    if N > SYMMETRIZE_BRUTE_MAX_N:
        raise SizeLimitError(
            f"brute-force symmetrization capped at N <= {SYMMETRIZE_BRUTE_MAX_N}, got {N}"
        )
    coords = X.rows()
    exps = gamma.rows
    total = 0.0
    for sigma in permutations(range(N)):
        prod = 1.0
        for i in range(N):
            prod *= _monomial_value(coords[sigma[i]], exps[i])
        total += prod
    return _overflow_checked(lambda: total, exps, coords)


def symmetrized_monomial_ryser(gamma: MonomialExponents, X: Configuration) -> float:
    """The same symmetrized monomial as perm(F), F[i][j] = prod_a x[j][a]^gamma[i][a].

    Evaluated through the log-domain permanent, so every coordinate must be
    strictly positive (shift the domain into [1, 2]^d or similar upstream).
    """
    _check_shapes(gamma, X)
    N = X.N
    if N > SYMMETRIZE_PERMANENT_MAX_N:
        raise SizeLimitError(
            f"permanent symmetrization capped at N <= {SYMMETRIZE_PERMANENT_MAX_N}, got {N}"
        )
    coords = X.rows()
    if any(c <= 0.0 for row in coords for c in row):
        raise DomainError("permanent route requires strictly positive coordinates")
    exps = gamma.rows
    F = tuple(
        tuple(_monomial_value(coords[j], exps[i]) for j in range(N)) for i in range(N)
    )
    return _overflow_checked(lambda: permanent_ryser_logdomain(SquareMatrix(F)), exps, coords)


@dataclass(frozen=True)
class SymPolyApprox:
    """A linear combination of symmetrized monomials: terms (c_l, gamma_l)."""

    terms: tuple[tuple[float, MonomialExponents], ...]

    def __post_init__(self) -> None:
        terms = tuple((float(c), g) for c, g in self.terms)
        if not terms:
            raise ValueError("need at least one term")
        N, d = terms[0][1].N, terms[0][1].d
        if any(g.N != N or g.d != d for _, g in terms):
            raise ValueError("all terms must share one N-by-d exponent shape")
        object.__setattr__(self, "terms", terms)

    @property
    def L(self) -> int:
        return len(self.terms)

    @property
    def N(self) -> int:
        return self.terms[0][1].N

    @property
    def d(self) -> int:
        return self.terms[0][1].d

    @property
    def feature_count(self) -> int:
        """One feature per (term, subset-of-slots) pair: L * 2^N."""
        return self.L * (1 << self.N)


def feature_form_eval(P: SymPolyApprox, X: Configuration) -> float:
    """Evaluate a symmetrized-monomial combination through its feature expansion.

    Term l is c_l * perm(F), F[i][j] = prod_a x[i][a]^gamma_l[j][a] (rows are
    points, columns are slots), by ``permanent_ryser_logdomain``: features
    g_S(x) = log sum_{j in S} F_j(x) are pooled over points and recombined as
    (-1)^N * sum_S (-1)^|S| exp(sum_i g_S(x_i)), walking the slot subsets S
    in Gray-code order. A monomial, or a term's product across slots, that
    overflows raises ValueError.
    """
    if P.N != X.N or P.d != X.d:
        raise ValueError(f"approximation is {P.N}x{P.d} but configuration is {X.N}x{X.d}")
    N = X.N
    if N > FEATURE_FORM_MAX_N:
        raise SizeLimitError(f"feature form capped at N <= {FEATURE_FORM_MAX_N}, got {N}")
    coords = X.rows()
    if any(c <= 0.0 for row in coords for c in row):
        raise DomainError("feature form requires strictly positive coordinates")
    total = 0.0
    for c_l, gamma in P.terms:
        F = [[_monomial_value(x, g) for g in gamma.rows] for x in coords]
        total += _overflow_checked(lambda: c_l * permanent_ryser_logdomain(F), gamma.rows, coords)
    return total
