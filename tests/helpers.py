"""Helpers shared by the test modules."""

import functools
import math
from dataclasses import dataclass
from itertools import chain, combinations, combinations_with_replacement, product

import numpy as np
from hypothesis import strategies as st

from symwedge import ConfigError, Configuration
from symwedge.core import _inversion_sign
from symwedge.lattice import lattice_sites, repetition_constant
from symwedge.persistence import _header, _hex, _site_texts, _tabulator


def configurations(S):
    """The samples of S as Configurations, built with the checks from ``S.points``."""
    return [Configuration.from_rows(rows) for rows in S.points.tolist()]


# The checks a configuration made when it held one validated Point per row,
# frozen as the reference for the rows constructor's faults and their order.
@dataclass(frozen=True)
class ReferencePoint:
    coords: tuple

    def __post_init__(self):
        coords = tuple(float(c) for c in self.coords)
        if not coords:
            raise ValueError("a point needs at least one coordinate")
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"non-finite coordinate: {coords!r}")
        object.__setattr__(self, "coords", coords)


def _reference_row(row):
    """A row as a tuple; a string row is rejected, not read as its characters."""
    if isinstance(row, (str, bytes)):
        raise ValueError(f"a point is a row of numbers, not the string {row!r}")
    return tuple(row)


@dataclass(frozen=True)
class ReferenceConfiguration:
    points: tuple

    def __post_init__(self):
        points = tuple(self.points)
        if not points:
            raise ValueError("a configuration needs at least one point")
        d = len(points[0].coords)
        if any(len(p.coords) != d for p in points):
            raise ValueError("all points of a configuration must share one dimension")
        object.__setattr__(self, "points", points)

    @classmethod
    def from_rows(cls, rows):
        return cls(tuple(ReferencePoint(_reference_row(row)) for row in rows))

    def rows(self):
        return tuple(p.coords for p in self.points)


BOXES = [(0.0, 1.0), (-0.5, 1.5), (-1.0, 0.3)]


def draw_rows(data, spec, N, B):
    """B rows of N points in spec's box: uniform draws, cell faces moved by
    up to 3 ulps either way, lo and hi exactly, and points repeating an
    earlier point of their row."""

    def coordinate():
        where = data.draw(st.sampled_from(["uniform", "face", "lo", "hi"]))
        if where == "uniform":
            return data.draw(st.floats(spec.origin, spec.top))
        if where == "lo":
            return spec.origin
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


def face_rows(rng, spec, N):
    """N points in spec's box whose coordinates each lie, with probability
    1/2, on a cell face (lo and hi included), and are uniform otherwise."""
    shape = (N, spec.d)
    faces = spec.origin + rng.integers(0, spec.cells_per_dim + 1, shape) * spec.delta
    uniform = spec.origin + (spec.top - spec.origin) * rng.random(shape)
    rows = np.where(rng.random(shape) < 0.5, faces, uniform)
    return np.clip(rows, spec.origin, spec.top).tolist()


# ------------------------------------------------------------------------
# A frozen copy of the scalar smooth path as it stood before the cutoffs
# were inlined into site_weight_support: the reference the smooth evals
# must equal bit for bit. Inputs are assumed valid (in the box, 0 < w <=
# delta/2), as the package checks them before blending.


def _smoothstep(t):
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    return t * t * t * (10.0 + t * (6.0 * t - 15.0))


def _axis_profile(spec, index, c, w):
    a = spec.origin + index * spec.delta
    rise_from = a - w
    rise_to = a + w
    fall_from = a + spec.delta - w
    fall_to = a + spec.delta + w
    if c <= rise_from or c >= fall_to:
        return 0.0
    if c < rise_to:
        return _smoothstep((c - rise_from) / (2.0 * w))
    if c <= fall_from:
        return 1.0
    return _smoothstep((fall_to - c) / (2.0 * w))


def axis_weight_support(spec, c, w):
    n = spec.cells_per_dim
    k = int((c - spec.origin) / spec.delta)
    if k >= n:
        k = n - 1
    entries = []
    for index in (k - 1, k, k + 1):
        if 0 <= index < n:
            p = _axis_profile(spec, index, c, w)
            if p > 0.0:
                entries.append((index, p))
    total = 0.0
    for _, p in entries:
        total += p
    return tuple((index, p / total) for index, p in entries)


def site_weight_support(spec, x, w):
    axis_supports = [axis_weight_support(spec, c, w) for c in x]
    out = []
    for combo in product(*axis_supports):
        weight = 1.0
        for _, p in combo:
            weight *= p
        out.append((tuple(index for index, _ in combo), weight))
    return tuple(out)


def smooth_weights(spec, X, w):
    pts = sorted(X.rows)
    supports = [site_weight_support(spec, p, w) for p in pts]
    weights = {}
    for combo in product(*supports):
        sites, masses = zip(*combo)
        key = tuple(sorted(sites))
        weights[key] = weights.get(key, 0.0) + math.prod(masses)
    return weights


@functools.cache
def _ranks(spec, N, strict):
    # each entry's row, from its position in the enumeration of site tuples
    choose = combinations if strict else combinations_with_replacement
    return {key: row for row, key in enumerate(choose(lattice_sites(spec), N))}


def _rank(T, key):
    return _ranks(T.spec, T.N, T.kind != "sym")[key]


def eval_sym_smooth(T, X):
    """The smooth branch of ``eval_sym``."""
    total = 0.0
    for zs, weight in smooth_weights(T.spec, X, T.smooth_width).items():
        total += weight * (T.table.item(_rank(T, zs)) * repetition_constant(zs))
    return total


def _projected_pair_product(a, rows):
    n = len(rows)
    prod = 1.0
    for i in range(n):
        ri = rows[i]
        for j in range(i + 1, n):
            rj = rows[j]
            dot = 0.0
            for av, ci, cj in zip(a, ri, rj):
                dot += av * (ci - cj)
            prod *= dot
    return prod


def eval_antisym_smooth(T, X):
    """The smooth branch of ``eval_antisym`` (projected construction)."""
    rows = X.rows
    order = sorted(range(len(rows)), key=rows.__getitem__)
    rows, sign = [rows[i] for i in order], _inversion_sign(order)
    total = 0.0
    for key, weight in smooth_weights(T.spec, X, T.smooth_width).items():
        if repetition_constant(key) > 1:
            continue
        k = _rank(T, key)
        total += weight * T.table.item(k) * _projected_pair_product(T.directions[k].tolist(), rows)
    return sign * total


# ------------------------------------------------------------------------
# A frozen copy of the model loader's record-by-record text path as it
# stood when every file the writer does not lay out was read again as text,
# in format 3's layout of one coefficient per record: the reference
# ``load_model`` must equal on any file, in what it loads and in the message
# it raises.

_ORACLE_BLOCK = 4096


def wedge_rows(sites, N, strict):
    """The (K, N) site numbers of the entries of the wedge of N slots over
    ``sites`` sites (of the strict wedge, N distinct sites), in lexicographic
    order, as ``itertools`` makes them."""
    choose = combinations if strict else combinations_with_replacement
    return np.array(list(choose(range(sites), N)), dtype=np.int64).reshape(-1, N)


def _oracle_key_blocks(spec, N, strict):
    if strict and N > spec.site_count:
        return
    site_text = _site_texts(spec)
    num = wedge_rows(spec.site_count, N, strict)
    for start in range(0, len(num), _ORACLE_BLOCK):
        rows = num[start : start + _ORACLE_BLOCK]
        keys = site_text[rows].view(np.uint8).reshape(len(rows), -1)
        text = np.column_stack([keys, np.full(len(rows), ord("\n"), np.uint8)]).tobytes()
        yield text.translate(None, b"\0").decode().split("\n")[:-1]


def _oracle_check_records(lines, keys, fields, kind, cells):
    N, d = fields
    n_index = N * d
    values = []
    for line in lines:
        found = line.count(" ") + 1
        if found != n_index + 1:
            raise ConfigError(f"bad record ({found} fields, expected {n_index + 1}): {line!r}")
        key = next(keys)
        if not line.startswith(key):
            try:
                [int(field) for field in line.split(" ")[:n_index]]
            except ValueError:
                raise ConfigError(f"record {line!r} has a field that is not a number") from None
            zs = tuple(zip(*[map(int, key.split())] * d))
            raise ConfigError(
                f"record {line!r} is not the {kind} wedge entry {zs}: records list every "
                f"entry once, in lexicographic order, with decimal indices in [0, {cells})"
            )
        try:
            value = _hex(line[len(key) :])
        except (ValueError, OverflowError):
            raise ConfigError(
                f"record {line!r} has a field that is not a number in float.hex spelling"
            ) from None
        if not math.isfinite(value):
            raise ConfigError(f"non-finite coefficient in record {line!r}")
        values.append(value)
    return values


def _oracle_read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError:
        pass
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for number, line in enumerate(handle, 1):
            bad = next((c for c in line if "\udc80" <= c <= "\udcff"), None)
            if bad is not None:
                raise ConfigError(
                    f"{path}: line {number} holds byte 0x{ord(bad) - 0xDC00:02x}, "
                    "which is not UTF-8"
                )
    raise ConfigError(f"{path} changed while it was read")


def load_model_as_text(path):
    """The model in ``path``, read as text record by record, or the
    ConfigError of its first fault in check order."""
    lines = _oracle_read_text(path).split("\n")
    if lines[-1] == "":
        lines.pop()
    records = lines[12:]
    head = _header(path, lines[:12], len(records))
    del lines
    spec, N, K = head.spec, head.N, head.entries
    table = np.empty(K)
    keys = chain.from_iterable(_oracle_key_blocks(spec, N, head.kind != "sym"))
    for start in range(0, K, _ORACLE_BLOCK):
        part = slice(start, start + _ORACLE_BLOCK)
        table[part] = _oracle_check_records(
            records[part], keys, (N, spec.d), head.kind, spec.cells_per_dim
        )
    return _tabulator(head, table)
