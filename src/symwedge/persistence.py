"""Model container: a versioned header plus one record per wedge entry.

Every float is serialized as a hexadecimal float literal (float.hex), so a
write/read round trip is bit-exact; the lattice geometry is stored the same
way, which keeps cell assignment, and therefore evaluation, bit-identical
after reload. Files are written atomically (temp file + rename).

Layout (text, one field per line, records after the ``entries`` line):

    SYMWEDGE-MODEL 2
    kind sym|antisym-c1|antisym-c2
    d / N / cells          integers, as str(n) writes them
    delta / lo / hi        hex floats
    mode indicator|smooth
    w hex float or -
    tau hex float or -
    entries K              an integer, as str(n) writes it
    <N*d site indices> <coefficient hex> [<d direction components hex>]

The header's ``cells`` is the count that covers [lo, hi] at ``delta``
(``LatticeSpec``'s rule). ``mode indicator`` stores ``w -``; ``mode smooth``
stores a finite w in (0, delta/2] and is not an antisym-c1 mode.

Records hold every wedge entry (sym) or every distinct-cell entry (antisym)
exactly once, in lexicographic key order, with finite coefficients; a key
must read as ``save_model`` writes it, each index in canonical decimal. An
antisym-c2 file stores a finite positive tau, and each record's direction
is a finite unit vector (within 1e-12) that passes the build's validity
test (``approx_antisym.directions_valid``) at that tau; the other kinds
store ``tau -``. The loader raises ConfigError, naming the line or record,
for anything else: a byte that is not UTF-8, a first line other than
``SYMWEDGE-MODEL 2`` (version-1 files no longer load), a malformed header
field, a header that describes no lattice, a non-numeric record field or a
violated rule above.
"""

from __future__ import annotations

import math
import os
from itertools import chain, combinations, combinations_with_replacement
from typing import Callable, Iterator, TypeVar, Union

import numpy as np

from .approx_antisym import (
    KIND_PROJECTED,
    KIND_RANK,
    AntisymTabulator,
    _key_array,
    directions_valid,
)
from .approx_sym import KIND_SYM, MODE_INDICATOR, MODE_SMOOTH, SymmetricTabulator
from .errors import CapacityError, ConfigError
from .lattice import LatticeSpec, WedgeKey, _check_smooth_width, lattice_sites, wedge_size

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "KIND_SYM",
    "KIND_RANK",
    "KIND_PROJECTED",
    "KINDS",
    "save_model",
    "load_model",
    "write_text_atomic",
]

MAGIC = "SYMWEDGE-MODEL"
FORMAT_VERSION = 2

Tabulator = Union[SymmetricTabulator, AntisymTabulator]

KINDS = (KIND_SYM, KIND_RANK, KIND_PROJECTED)

_T = TypeVar("_T")


def write_text_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file and a crashed writer leaves the old content intact. The
    temp file is created with mode 0o666, which the umask reduces as for a
    plain ``open``; O_EXCL keeps a clashing name from being shared."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _records(spec: LatticeSpec, N: int, kind: str) -> Iterator[tuple[WedgeKey, str]]:
    """Each record's wedge entry and key text (its indices in decimal), in file
    order. Lazy: nothing is built before the first record is asked for."""
    text = {site: " ".join(map(str, site)) for site in lattice_sites(spec)}
    choose = combinations_with_replacement if kind == KIND_SYM else combinations
    for zs in choose(text, N):
        yield zs, " ".join([text[z] for z in zs])


def save_model(path: str, tab: Tabulator) -> None:
    spec = tab.spec
    smooth = tab.smooth_width
    tau = getattr(tab, "tau", None)
    lines = [
        f"{MAGIC} {FORMAT_VERSION}",
        f"kind {tab.kind}",
        f"d {spec.d}",
        f"N {tab.N}",
        f"cells {spec.cells_per_dim}",
        f"delta {spec.delta.hex()}",
        f"lo {spec.origin.hex()}",
        f"hi {spec.top.hex()}",
        f"mode {MODE_SMOOTH if smooth is not None else MODE_INDICATOR}",
        f"w {smooth.hex() if smooth is not None else '-'}",
        f"tau {tau.hex() if tau is not None else '-'}",
        f"entries {len(tab.table)}",
    ]
    directions = getattr(tab, "directions", None)
    for zs, key in _records(spec, tab.N, tab.kind):
        fields = [key, tab.table[zs].hex()]
        if directions is not None:
            fields.extend(c.hex() for c in directions[zs])
        lines.append(" ".join(fields))
    write_text_atomic(path, "\n".join(lines) + "\n")


def _field(lines: list[str], idx: int, key: str, parse: Callable[[str], _T] = str) -> _T:
    if idx >= len(lines):
        raise ConfigError(f"model file truncated before {key!r}")
    name, _, value = lines[idx].partition(" ")
    if name != key:
        raise ConfigError(f"expected field {key!r} on line {idx + 1}, found {name!r}")
    try:
        return parse(value)
    except (ValueError, OverflowError):
        raise ConfigError(f"bad {key!r} value {value!r} on line {idx + 1}") from None


def _decimal(value: str) -> int:
    """An integer in the one spelling ``save_model`` writes, str(n)."""
    n = int(value)
    if str(n) != value:
        raise ValueError(f"{value!r} is not canonical decimal")
    return n


def _optional_hex(value: str) -> float | None:
    return None if value == "-" else float.fromhex(value)


def _check_directions(
    N: int, d: int, records: list[str], directions: dict[WedgeKey, tuple[float, ...]], tau: float
) -> None:
    """Each direction is a finite unit vector passing the build's validity test at tau."""
    K = len(directions)
    A = np.fromiter(chain.from_iterable(directions.values()), float, K * d).reshape(K, d)
    idx = _key_array(list(directions), N, d)
    with np.errstate(all="ignore"):  # non-finite or huge components fail, not warn
        finite = np.isfinite(A).all(axis=1)
        unit = np.abs(np.sqrt((A * A).sum(axis=1)) - 1.0) <= 1e-12
        valid = directions_valid(A, idx, tau)
    bad = np.flatnonzero(~(finite & unit & valid))
    if len(bad):
        k = int(bad[0])
        if not finite[k]:
            problem = "is not finite"
        elif not unit[k]:
            problem = "is not a unit vector"
        else:
            problem = f"fails the projection test at tau = {tau!r}"
        raise ConfigError(f"record {records[k]!r}: direction {A[k].tolist()} {problem}")


def _read_lines(path: str) -> list[str]:
    """The file's lines, read as UTF-8 text with universal newlines; a byte
    that is not UTF-8 raises ConfigError naming the file and its line."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return [line.rstrip("\n") for line in handle]
    except UnicodeDecodeError:
        pass
    # Read again keeping each bad byte as a lone surrogate, to find its line.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for number, line in enumerate(handle, 1):
            bad = next((c for c in line if "\udc80" <= c <= "\udcff"), None)
            if bad is not None:
                raise ConfigError(
                    f"{path}: line {number} holds byte 0x{ord(bad) - 0xDC00:02x}, "
                    "which is not UTF-8"
                )
    raise ConfigError(f"{path} changed while it was read")


def load_model(path: str) -> Tabulator:
    lines = _read_lines(path)
    if not lines or lines[0] != f"{MAGIC} {FORMAT_VERSION}":
        raise ConfigError(f"{path}: not a {MAGIC} version-{FORMAT_VERSION} file")
    kind = _field(lines, 1, "kind")
    if kind not in KINDS:
        raise ConfigError(f"unknown model kind {kind!r}")
    d = _field(lines, 2, "d", _decimal)
    N = _field(lines, 3, "N", _decimal)
    cells = _field(lines, 4, "cells", _decimal)
    delta = _field(lines, 5, "delta", float.fromhex)
    lo = _field(lines, 6, "lo", float.fromhex)
    hi = _field(lines, 7, "hi", float.fromhex)
    mode = _field(lines, 8, "mode")
    if mode not in (MODE_INDICATOR, MODE_SMOOTH):
        raise ConfigError(f"unknown mode {mode!r}")
    smooth = _field(lines, 9, "w", _optional_hex)
    tau = _field(lines, 10, "tau", _optional_hex)
    want_direction = kind == KIND_PROJECTED
    if want_direction and not (tau is not None and math.isfinite(tau) and tau > 0.0):
        raise ConfigError(f"an {kind} model needs a finite positive 'tau' on line 11, not {tau}")
    if not want_direction and tau is not None:
        raise ConfigError(f"a {kind} model stores 'tau -' on line 11, not {tau}")
    entries = _field(lines, 11, "entries", _decimal)
    records = [line for line in lines[12:] if line]
    if len(records) != entries:
        raise ConfigError(f"expected {entries} records, found {len(records)}")

    try:
        spec = LatticeSpec(delta=delta, d=d, cells_per_dim=cells, origin=lo, top=hi)
    except (ValueError, CapacityError) as exc:
        advice = "; lower 'cells' or 'd'" if isinstance(exc, CapacityError) else ""
        raise ConfigError(
            f"lines 3 and 5-8 (d, cells, delta, lo, hi) describe no lattice: {exc}{advice}"
        ) from None
    if mode == MODE_INDICATOR and smooth is not None:
        raise ConfigError(f"an indicator-mode model stores 'w -' on line 10, not {smooth}")
    if mode == MODE_SMOOTH:
        if kind == KIND_RANK:
            raise ConfigError(f"an {kind} model has indicator mode only, not {mode!r} on line 9")
        try:
            _check_smooth_width(spec, smooth)
        except ValueError as exc:
            raise ConfigError(f"a smooth-mode model's 'w' on line 10 is invalid: {exc}") from None
    try:
        full_size = wedge_size(spec, N)
    except (ValueError, CapacityError) as exc:
        raise ConfigError(f"lines 3-5 (d, N, cells) describe no wedge: {exc}") from None
    want_size = full_size if kind == KIND_SYM else math.comb(spec.site_count, N)
    if entries != want_size:
        raise ConfigError(f"a {kind} model with N = {N} has {want_size} records, not {entries}")
    table: dict[WedgeKey, float] = {}
    directions: dict[WedgeKey, tuple[float, ...]] = {}
    expected = N * d + 1 + (d if want_direction else 0)
    keys = _records(spec, N, kind)
    for line in records:
        found = line.count(" ") + 1  # before the key is made: N or d may be huge
        if found != expected:
            raise ConfigError(f"bad record ({found} fields, expected {expected}): {line!r}")
        zs, key = next(keys)
        if not line.startswith(key + " "):
            try:
                [int(field) for field in line.split(" ")[: N * d]]  # raises on a non-integer
            except ValueError:
                raise ConfigError(f"record {line!r} has a field that is not a number") from None
            raise ConfigError(
                f"record {line!r} is not the {kind} wedge entry {zs}: records list every "
                f"entry once, in lexicographic order, with decimal indices in [0, {cells})"
            )
        try:
            values = [float.fromhex(field) for field in line[len(key) + 1 :].split(" ")]
        except (ValueError, OverflowError):
            raise ConfigError(f"record {line!r} has a field that is not a number") from None
        if not math.isfinite(values[0]):
            raise ConfigError(f"non-finite coefficient in record {line!r}")
        table[zs] = values[0]
        if want_direction:
            directions[zs] = tuple(values[1:])
    if want_direction:
        _check_directions(N, d, records, directions, tau)
    if kind == KIND_SYM:
        return SymmetricTabulator(spec, N, smooth, table)
    return AntisymTabulator(spec, N, tau, smooth, table, directions if want_direction else None)
