"""Shared domain types: points, configurations, permutations, target functions.

Conventions used throughout the package:

* Particle slots and permutation images are 0-indexed.
* Coordinates are plain 64-bit floats; no extended precision in hot paths.
* A "gradient bound" always means the Euclidean norm of the full
  N*d-component gradient of a target, viewed as a function on R^(N*d).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .errors import ConfigError

__all__ = [
    "Symmetry",
    "Point",
    "Configuration",
    "DomainSpec",
    "Permutation",
    "TargetFunction",
    "permute",
    "parity",
    "vandermonde_product",
    "builtin_target",
    "BUILTIN_TARGET_NAMES",
]


class Symmetry(enum.Enum):
    """Declared permutation behaviour of a target function."""

    SYMMETRIC = "symmetric"
    ANTISYMMETRIC = "antisymmetric"


@dataclass(frozen=True)
class Point:
    """One element x of R^d."""

    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        coords = tuple(float(c) for c in self.coords)
        if not coords:
            raise ValueError("a point needs at least one coordinate")
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"non-finite coordinate: {coords!r}")
        object.__setattr__(self, "coords", coords)

    @property
    def d(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class Configuration:
    """An ordered tuple of N points; the argument of every target function.

    The ordering carries meaning only up to the declared symmetry of the
    function being evaluated; the type itself is plain ordered data.
    """

    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        points = tuple(self.points)
        if not points:
            raise ValueError("a configuration needs at least one point")
        d = points[0].d
        if any(p.d != d for p in points):
            raise ValueError("all points of a configuration must share one dimension")
        object.__setattr__(self, "points", points)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "Configuration":
        return cls(tuple(Point(tuple(row)) for row in rows))

    @property
    def N(self) -> int:
        return len(self.points)

    @property
    def d(self) -> int:
        return self.points[0].d

    def rows(self) -> tuple[tuple[float, ...], ...]:
        return tuple(p.coords for p in self.points)


# Unchecked constructors for values the package assembles from parts it has
# already validated or generated finite; everything from outside goes through
# Point(...) and Configuration(...), which validate.
_new = object.__new__
_set = object.__setattr__


def _point(coords: tuple[float, ...]) -> Point:
    """A Point of a non-empty tuple of finite floats, without the checks."""
    p = _new(Point)
    _set(p, "coords", coords)
    return p


def _configuration(points: tuple[Point, ...]) -> Configuration:
    """A Configuration of a non-empty tuple of Points of one dimension, without the checks."""
    X = _new(Configuration)
    _set(X, "points", points)
    return X


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
    """Reorder a configuration: result.points[i] = X.points[sigma.images[i]]."""
    if sigma.size != X.N:
        raise ValueError(f"permutation size {sigma.size} != configuration size {X.N}")
    return _configuration(tuple([X.points[j] for j in sigma.images]))


def _inversion_sign(seq: Sequence[int]) -> int:
    """(-1)^inversions of a sequence of distinct integers.

    A permutation and its inverse have the same sign, so this is the parity
    of a permutation given by its images or by its sort order alike.
    """
    inv = 0
    n = len(seq)
    for i in range(n):
        si = seq[i]
        for j in range(i + 1, n):
            if si > seq[j]:
                inv += 1
    return -1 if inv & 1 else 1


def parity(sigma: Permutation) -> int:
    """Sign (-1)^inversions of a permutation; +1 for even, -1 for odd."""
    return _inversion_sign(sigma.images)


def vandermonde_product(ys: Sequence[float]) -> float:
    """prod_{i<j} (ys[i] - ys[j]) in fixed (i, j) order; 0 on any repeat."""
    n = len(ys)
    prod = 1.0
    for i in range(n):
        yi = ys[i]
        for j in range(i + 1, n):
            prod *= yi - ys[j]
    return prod


@dataclass(frozen=True)
class TargetFunction:
    """A scalar function of a configuration together with its declared symmetry."""

    evaluator: Callable[[Configuration], float]
    declared_symmetry: Symmetry
    name: str = field(default="custom", kw_only=True)

    def __call__(self, X: Configuration) -> float:
        return float(self.evaluator(X))


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

    def ev(X: Configuration) -> float:
        total = 0.0
        for p in X.points:
            for c in p.coords:
                total += c
        return total

    return TargetFunction(ev, Symmetry.SYMMETRIC, name="sum-coords")


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

    def ev(X: Configuration) -> float:
        pts = X.points
        n = len(pts)
        total = 0.0
        for i in range(n):
            ci = pts[i].coords
            for j in range(i + 1, n):
                cj = pts[j].coords
                r2 = 0.0
                for a in range(len(ci)):
                    diff = ci[a] - cj[a]
                    r2 += diff * diff
                total += math.exp(-r2 * inv_w2)
        return total

    return TargetFunction(ev, Symmetry.SYMMETRIC, name="gaussian-pair-sym")


def _make_product_smooth(params: Mapping[str, object]) -> TargetFunction:
    _check_params("product-smooth-sym", params, frozenset({"amplitude"}))
    amplitude = _param(params, "amplitude", 0.5)
    if not 0.0 <= amplitude < 1.0:
        raise ConfigError("product-smooth-sym amplitude must lie in [0, 1)")

    # quarter-period sine: monotone per coordinate on the unit box, so a
    # half-box lattice is not already range-saturated and convergence sweeps
    # starting at delta = 0.5 measure the asymptotic first-order rate
    def ev(X: Configuration) -> float:
        prod = 1.0
        for p in X.points:
            mean = sum(p.coords) / len(p.coords)
            prod *= 1.0 + amplitude * math.sin(0.5 * math.pi * mean)
        return prod

    return TargetFunction(ev, Symmetry.SYMMETRIC, name="product-smooth-sym")


def _make_vandermonde_gauss(params: Mapping[str, object]) -> TargetFunction:
    _check_params("vandermonde-gauss-antisym", params, frozenset())

    def ev(X: Configuration) -> float:
        r2 = 0.0
        for p in X.points:
            for c in p.coords:
                r2 += c * c
        return vandermonde_product([p.coords[0] for p in X.points]) * math.exp(-r2)

    return TargetFunction(ev, Symmetry.ANTISYMMETRIC, name="vandermonde-gauss-antisym")


def _make_vandermonde_sum(params: Mapping[str, object]) -> TargetFunction:
    _check_params("vandermonde-sum-antisym", params, frozenset())

    def ev(X: Configuration) -> float:
        total = 0.0
        for p in X.points:
            for c in p.coords:
                total += c
        return vandermonde_product([p.coords[0] for p in X.points]) * total

    return TargetFunction(ev, Symmetry.ANTISYMMETRIC, name="vandermonde-sum-antisym")


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
