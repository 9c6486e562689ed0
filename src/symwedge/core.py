"""Shared domain types: configurations, permutations, target functions.

Conventions used throughout the package:

* Particle slots and permutation images are 0-indexed.
* Coordinates are plain 64-bit floats; no extended precision in hot paths.
* A configuration is its rows: N tuples of d floats, one per point. It has
  one constructor, which validates, so every Configuration holds finite
  rows of one width whoever built it.
* A rule that both a scalar path and an array path use is one text, run on
  floats or on (K,) numpy columns: the targets, sort sign, repetition
  constant, site decoder and pair product.
* A "gradient bound" always means the Euclidean norm of the full
  N*d-component gradient of a target, viewed as a function on R^(N*d).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigError


class Symmetry(enum.Enum):
    """Declared permutation behaviour of a target function."""

    SYMMETRIC = "symmetric"
    ANTISYMMETRIC = "antisymmetric"


@dataclass(frozen=True)
class Configuration:
    """An ordered tuple of N points of R^d, as rows of floats; the argument
    of every target function.

    The ordering carries meaning only up to the declared symmetry of the
    function being evaluated; the type itself is plain ordered data. Each
    row is converted with ``float`` and checked as it is read (not a string,
    at least one coordinate, every one finite), then the rows are checked
    together (at least one, all of one width).
    """

    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        rows = []
        for row in self.rows:
            if isinstance(row, (str, bytes)):
                raise ValueError(f"a point is a row of numbers, not the string {row!r}")
            coords = tuple(map(float, row))
            if not coords:
                raise ValueError("a point needs at least one coordinate")
            if not all(map(math.isfinite, coords)):
                raise ValueError(f"non-finite coordinate: {coords!r}")
            rows.append(coords)
        if not rows:
            raise ValueError("a configuration needs at least one point")
        d = len(rows[0])
        for coords in rows:
            if len(coords) != d:
                raise ValueError("all points of a configuration must share one dimension")
        object.__setattr__(self, "rows", tuple(rows))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "Configuration":
        return cls(rows)

    @property
    def N(self) -> int:
        return len(self.rows)

    @property
    def d(self) -> int:
        return len(self.rows[0])


@dataclass(frozen=True)
class DomainSpec:
    """Per-particle box domain [lo, hi]^d with N particles."""

    d: int
    N: int
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.d < 1 or self.N < 1:
            raise ValueError("d and N must be at least 1")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("domain bounds must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def span(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0, ..., n-1}, stored as its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(int(i) for i in self.images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images!r}")
        object.__setattr__(self, "images", images)

    @property
    def size(self) -> int:
        return len(self.images)


def permute(X: Configuration, sigma: Permutation) -> Configuration:
    """Reorder a configuration: result.rows[i] = X.rows[sigma.images[i]]."""
    if sigma.size != X.N:
        raise ValueError(f"permutation size {sigma.size} != configuration size {X.N}")
    return Configuration([X.rows[j] for j in sigma.images])


def _inversion_sign(seq: Sequence[int]) -> int:
    """(-1)^inversions of a sequence of distinct integers.

    A permutation and its inverse have the same sign, so this is the parity
    of a permutation given by its images or by its sort order alike. The
    elements may also be (K,) int columns, which gives the K signs as a
    (K,) int64 array (1 when there is no pair)."""
    inv = 0
    n = len(seq)
    for i in range(n):
        si = seq[i]
        for j in range(i + 1, n):
            inv += si > seq[j]
    return 1 - 2 * (inv & 1)


def _inversion_signs(order: np.ndarray) -> np.ndarray:
    """``_inversion_sign`` of each row of order (K, N), as int64 +-1: the one
    text run on its columns."""
    return np.full(len(order), _inversion_sign(order.T), dtype=np.int64)


def parity(sigma: Permutation) -> int:
    """Sign (-1)^inversions of a permutation; +1 for even, -1 for odd."""
    return _inversion_sign(sigma.images)


def vandermonde_product(ys: Sequence[float]) -> float:
    """prod_{i<j} (ys[i] - ys[j]) in fixed (i, j) order; 0 on any repeat.
    The ys may also be (K,) float64 columns, which gives the K products as
    a (K,) array (1.0 when there is no pair)."""
    n = len(ys)
    prod = 1.0
    for i in range(n):
        yi = ys[i]
        for j in range(i + 1, n):
            prod *= yi - ys[j]
    return prod


@dataclass(frozen=True)
class TargetFunction:
    """A scalar function of a configuration together with its declared symmetry.

    ``batch``, when set, evaluates the function on each row of a (K, N, d)
    coordinate array and returns the (K,) values, each equal bit for bit to
    ``evaluator`` on that row's configuration. The builders tabulate corner
    values through it; a target without one is called once per wedge entry.
    Every builtin target has one, which runs the evaluator's own text on the
    array's (K,) columns.
    """

    evaluator: Callable[[Configuration], float]
    declared_symmetry: Symmetry
    name: str = field(default="custom", kw_only=True)
    batch: Callable[[np.ndarray], np.ndarray] | None = field(default=None, kw_only=True)

    def __call__(self, X: Configuration) -> float:
        return float(self.evaluator(X))


def _each(fn: Callable[[float], float], values: np.ndarray) -> np.ndarray:
    """fn (a math function) of every element of a 1-D float64 array, called
    once per distinct bit pattern and gathered back, so -0.0 and each NaN
    payload are an argument of their own. The distinct elements are read
    through a memoryview, which makes no list of them."""
    distinct, of_value = np.unique(values.view(np.uint64), return_inverse=True)
    args = memoryview(distinct.view(np.float64))
    return np.fromiter(map(fn, args), dtype=np.float64, count=len(distinct))[of_value]


# The math namespace of a builtin text run on (K,) columns. numpy's exp and
# sin differ from math's in the last bit, so math's are called once per
# distinct argument; every other step is one IEEE operation per element, as
# on floats.
_COLUMN_MATH = SimpleNamespace(exp=partial(_each, math.exp), sin=partial(_each, math.sin))


def _builtin(name: str, symmetry: Symmetry, value: Callable[..., float]) -> TargetFunction:
    """The target whose value at points pts is value(pts, m), for m a math
    namespace. The evaluator runs value on a configuration's rows with m =
    math; the batch runs it on the (K,) columns of a (K, N, d) array, pts[i][a]
    being P[:, i, a], with m = _COLUMN_MATH. Both run one text, so they agree
    bit for bit. Overflow and invalid steps in the columns give inf and nan
    without a warning, as they do on floats."""

    def batch(P: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            values = value(P.transpose(1, 2, 0), _COLUMN_MATH)
        return np.full(len(P), values, dtype=np.float64)

    return TargetFunction(lambda X: value(X.rows, math), symmetry, name=name, batch=batch)


def _coordinate_sum(pts: Sequence[Sequence[float]]) -> float:
    """The sum of every coordinate of pts, point by point, from 0.0: a plain
    loop, since builtin sum's float summation differs between Python versions."""
    total = 0.0
    for p in pts:
        for c in p:
            total += c
    return total


def _finite_number(value: object) -> float | None:
    """``value`` as a float if it is a finite JSON number (not a bool), else None."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    try:
        return float(value) if math.isfinite(value) else None
    except OverflowError:  # an int beyond the float range
        return None


def _param(params: Mapping[str, object], key: str, default: float) -> float:
    value = params.get(key, default)
    number = _finite_number(value)
    if number is None:
        raise ConfigError(f"target parameter {key!r} must be a finite number, got {value!r}")
    return number


def _check_params(name: str, params: Mapping[str, object], allowed: frozenset[str]) -> None:
    unknown = set(params) - allowed
    if unknown:
        raise ConfigError(f"unknown parameter(s) for target {name!r}: {sorted(unknown)}")


def _make_sum_coords(params: Mapping[str, object]) -> TargetFunction:
    _check_params("sum-coords", params, frozenset())
    return _builtin("sum-coords", Symmetry.SYMMETRIC, lambda pts, m: _coordinate_sum(pts))


def _make_gaussian_pair(params: Mapping[str, object]) -> TargetFunction:
    _check_params("gaussian-pair-sym", params, frozenset({"width"}))
    width = _param(params, "width", 1.0)
    w2 = width * width
    if not (width > 0.0 and w2 > 0.0 and 0.0 < 1.0 / w2 < math.inf):
        raise ConfigError(
            "gaussian-pair-sym width must be positive with 1/width^2 finite and nonzero, "
            f"got {width!r}"
        )
    inv_w2 = 1.0 / w2

    def value(pts, m):
        n = len(pts)
        total = 0.0
        for i in range(n):
            ci = pts[i]
            for j in range(i + 1, n):
                cj = pts[j]
                r2 = 0.0
                for a in range(len(ci)):
                    diff = ci[a] - cj[a]
                    r2 += diff * diff
                total += m.exp(-r2 * inv_w2)
        return total

    return _builtin("gaussian-pair-sym", Symmetry.SYMMETRIC, value)


def _make_product_smooth(params: Mapping[str, object]) -> TargetFunction:
    _check_params("product-smooth-sym", params, frozenset({"amplitude"}))
    amplitude = _param(params, "amplitude", 0.5)
    if not 0.0 <= amplitude < 1.0:
        raise ConfigError("product-smooth-sym amplitude must lie in [0, 1)")

    # quarter-period sine: monotone per coordinate on the unit box, so a
    # half-box lattice is not already range-saturated and convergence sweeps
    # starting at delta = 0.5 measure the asymptotic first-order rate.
    def value(pts, m):
        prod = 1.0
        for p in pts:
            prod *= 1.0 + amplitude * m.sin(0.5 * math.pi * (_coordinate_sum((p,)) / len(p)))
        return prod

    return _builtin("product-smooth-sym", Symmetry.SYMMETRIC, value)


def _make_vandermonde_gauss(params: Mapping[str, object]) -> TargetFunction:
    _check_params("vandermonde-gauss-antisym", params, frozenset())

    def value(pts, m):
        r2 = 0.0
        for p in pts:
            for c in p:
                r2 += c * c
        return vandermonde_product([p[0] for p in pts]) * m.exp(-r2)

    return _builtin("vandermonde-gauss-antisym", Symmetry.ANTISYMMETRIC, value)


def _make_vandermonde_sum(params: Mapping[str, object]) -> TargetFunction:
    _check_params("vandermonde-sum-antisym", params, frozenset())

    def value(pts, m):
        return vandermonde_product([p[0] for p in pts]) * _coordinate_sum(pts)

    return _builtin("vandermonde-sum-antisym", Symmetry.ANTISYMMETRIC, value)


_BUILTIN_FACTORIES: dict[str, Callable[[Mapping[str, object]], TargetFunction]] = {
    "sum-coords": _make_sum_coords,
    "gaussian-pair-sym": _make_gaussian_pair,
    "product-smooth-sym": _make_product_smooth,
    "vandermonde-gauss-antisym": _make_vandermonde_gauss,
    "vandermonde-sum-antisym": _make_vandermonde_sum,
}

BUILTIN_TARGET_NAMES: tuple[str, ...] = tuple(sorted(_BUILTIN_FACTORIES))


def builtin_target(name: str, params: Mapping[str, object] | None = None) -> TargetFunction:
    """Look up a named builtin target and build it from its own ``params``;
    an unknown name or parameter raises ConfigError."""
    try:
        factory = _BUILTIN_FACTORIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown builtin target {name!r}; known: {', '.join(BUILTIN_TARGET_NAMES)}"
        ) from None
    return factory(params or {})
