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

A file with several faults reports the first in check order: the header,
line by line; the record count; then, record by record, the field count,
the key, that every value field is a hex float, and a finite coefficient;
and last the directions, in record order. Keys are made a block of records
at a time, each the text of its entry's first N - 1 sites plus that of its
last site; ``save_model`` writes the same key text.
"""

from __future__ import annotations

import math
import os
from itertools import chain, combinations, combinations_with_replacement, islice, repeat
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
    "read_text",
]

MAGIC = "SYMWEDGE-MODEL"
FORMAT_VERSION = 2

Tabulator = Union[SymmetricTabulator, AntisymTabulator]

KINDS = (KIND_SYM, KIND_RANK, KIND_PROJECTED)

_T = TypeVar("_T")

# Records per block of keys: ``load_model`` checks and parses a block in a few
# calls that loop in C, and drops its text before the next.
_BLOCK = 4096


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


def _key_blocks(spec: LatticeSpec, N: int, kind: str) -> Iterator[tuple[list[WedgeKey], list[str]]]:
    """The records' wedge entries and key texts in file (lexicographic) order,
    in blocks of about ``_BLOCK``. A key is the text of its entry's first
    N - 1 sites plus the text of its last site, each index in decimal followed
    by one space, so a record starts with its key and a coefficient follows it
    directly. Lazy: nothing is made before the first block is asked for, and
    nothing at all for a strict wedge with more points than sites, whose
    declared N or d may be huge."""
    step = 0 if kind == KIND_SYM else 1  # a strict wedge repeats no site
    if step and N > spec.site_count:
        return
    sites = list(lattice_sites(spec))
    texts = ["".join(f"{i} " for i in site) for site in sites]
    choose = combinations_with_replacement if step == 0 else combinations
    entries = choose(sites, N)  # in the keys' order, as tuples made in C
    keys: list[str] = []
    for prefix in choose(range(len(sites)), N - 1):
        start = prefix[-1] + step if prefix else 0
        keys += map("".join(map(texts.__getitem__, prefix)).__add__, texts[start:])
        if len(keys) >= _BLOCK:
            yield list(islice(entries, len(keys))), keys
            keys = []
    if keys:
        yield list(islice(entries, len(keys))), keys


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
    for zs, keys in _key_blocks(spec, tab.N, tab.kind):
        values = map(float.hex, map(tab.table.__getitem__, zs))
        if directions is not None:
            components = map(float.hex, chain.from_iterable(map(directions.__getitem__, zs)))
            values = map(" ".join, zip(values, *[components] * spec.d))
        lines += map(str.__add__, keys, values)
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


def _direction_fault(records: list[str], A: np.ndarray, idx: np.ndarray, tau: float) -> str | None:
    """The fault of the first direction, a row of A (K, d) keyed by the site
    indices idx (K, N, d), that is not a finite unit vector passing the
    build's validity test at tau, or None."""
    with np.errstate(all="ignore"):  # non-finite or huge components fail, not warn
        finite = np.isfinite(A).all(axis=1)
        unit = np.abs(np.sqrt((A * A).sum(axis=1)) - 1.0) <= 1e-12
        valid = directions_valid(A, idx, tau)
    bad = np.flatnonzero(~(finite & unit & valid))
    if not len(bad):
        return None
    k = int(bad[0])
    if not finite[k]:
        problem = "is not finite"
    elif not unit[k]:
        problem = "is not a unit vector"
    else:
        problem = f"fails the projection test at tau = {tau!r}"
    return f"record {records[k]!r}: direction {A[k].tolist()} {problem}"


def _block_values(lines: list[str], keys: list[str], per: int) -> list[float] | None:
    """The value fields of records with the right field count, flat, or None
    if a record does not start with its key, holds a field that is not a
    hex float, or has a non-finite coefficient (every ``per``-th value)."""
    if not all(map(str.startswith, lines, keys)):
        return None
    try:
        values = list(map(float.fromhex, " ".join(map(str.removeprefix, lines, keys)).split(" ")))
    except (ValueError, OverflowError):
        return None
    return values if all(map(math.isfinite, values[::per])) else None


def _check_records(
    lines: list[str],
    pairs: Iterator[tuple[WedgeKey, str]],
    fields: tuple[int, int],
    kind: str,
    cells: int,
) -> list[float]:
    """``_block_values`` one record at a time, raising ConfigError on the first
    fault. ``pairs`` gives each record's wedge entry and key text, and
    ``fields`` is (index fields, value fields) per record. A record's
    field count is checked before its key is made (N or d may be huge), then
    its key, then its numbers, then that its coefficient is finite."""
    n_index, per = fields
    values: list[float] = []
    for line in lines:
        found = line.count(" ") + 1
        if found != n_index + per:
            raise ConfigError(f"bad record ({found} fields, expected {n_index + per}): {line!r}")
        zs, key = next(pairs)
        if not line.startswith(key):
            try:
                [int(field) for field in line.split(" ")[:n_index]]  # raises on a non-integer
            except ValueError:
                raise ConfigError(f"record {line!r} has a field that is not a number") from None
            raise ConfigError(
                f"record {line!r} is not the {kind} wedge entry {zs}: records list every "
                f"entry once, in lexicographic order, with decimal indices in [0, {cells})"
            )
        try:
            parsed = [float.fromhex(field) for field in line[len(key) :].split(" ")]
        except (ValueError, OverflowError):
            raise ConfigError(f"record {line!r} has a field that is not a number") from None
        if not math.isfinite(parsed[0]):
            raise ConfigError(f"non-finite coefficient in record {line!r}")
        values += parsed
    return values


def read_text(path: str) -> str:
    """The file's text, read as UTF-8 with universal newlines; a byte that is
    not UTF-8 raises ConfigError naming the file and its line."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
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
    lines = read_text(path).split("\n")
    if lines[-1] == "":  # the newline that ends the last line
        lines.pop()
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
    del lines  # records now holds the only reference to each record's text
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
    n_index, per = N * d, 1 + (d if want_direction else 0)
    if not set(map(str.count, records, repeat(" "))) <= {n_index + per - 1}:
        # a field count is checked before any key is made: N or d may be huge
        pairs = chain.from_iterable(zip(*block) for block in _key_blocks(spec, N, kind))
        _check_records(records, pairs, (n_index, per), kind, cells)
    table: dict[WedgeKey, float] = {}
    directions: dict[WedgeKey, tuple[float, ...]] = {}
    fault = None  # the first bad direction, reported once every record has passed
    start = 0
    for zs, keys in _key_blocks(spec, N, kind):
        n = len(keys)
        block = records[start : start + n]
        records[start : start + n] = [""] * n  # a parsed record's text is not kept
        start += n
        values = _block_values(block, keys, per)
        if values is None:
            values = _check_records(block, zip(zs, keys), (n_index, per), kind, cells)
        table.update(zip(zs, values[::per]))
        if want_direction:
            del values[::per]
            A = np.array(values, dtype=float).reshape(n, d)
            if fault is None:
                fault = _direction_fault(block, A, _key_array(zs, N, d), tau)
            directions.update(zip(zs, zip(*[iter(values)] * d)))
        del block, keys, values  # this block's texts go before the next block's are made
    if fault is not None:
        raise ConfigError(fault)
    if kind == KIND_SYM:
        return SymmetricTabulator(spec, N, smooth, table)
    return AntisymTabulator(spec, N, tau, smooth, table, directions if want_direction else None)
