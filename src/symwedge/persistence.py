"""Model container: a versioned header plus one record per wedge entry.

Every float is serialized as a hexadecimal float literal (float.hex), so a
write/read round trip is bit-exact; the lattice geometry is stored the same
way, which keeps cell assignment, and therefore evaluation, bit-identical
after reload. A float loads only in that spelling: "0x" after an optional
"-" (or inf, -inf, nan), with no "+", "0X" or whitespace, so an edited
"0.5" is an error rather than the hex digits 0x0.5. Files are written
atomically (temp file + rename).

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
the key, that every value field is a float.hex number, and a finite coefficient;
and last the directions, in record order. The loader makes keys, and fills
the tabulator's arrays, a block of records at a time.

``save_model`` writes a record per row of the table (and directions), about
``_WRITE_BYTES`` of text at a time: each block is one uint8 array, a
NUL-padded row per record, from which the NULs are dropped. Save and load
gather a key from each site's text, made once; a value field is
float.hex's text, made from the float's bits (sign, "0x1." or "0x0.", 13
hex digits, and an exponent from a table made on first use), with zero
written "0x0.0p+0". The blocks stream to the temp file as bytes, so the
file's text is never held whole.
"""

from __future__ import annotations

import math
import os
from functools import cache
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, TypeVar, Union

import numpy as np

from .approx_antisym import (
    KIND_PROJECTED,
    KIND_RANK,
    AntisymTabulator,
    _unit_rows,
    directions_valid,
)
from .approx_sym import (
    KIND_SYM,
    MODE_INDICATOR,
    MODE_SMOOTH,
    SymmetricTabulator,
)
from .errors import CapacityError, ConfigError
from .lattice import LatticeSpec, _check_smooth_width, _site_index, _site_numbers, wedge_size

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
# Bytes per block of record text that ``save_model`` lays out. Its arrays stay
# under 128 KB, glibc's default mmap threshold, as freeing larger ones raises
# that threshold and changes how the heap is reused later: the query
# benchmark, which saves four models before it loads them, peaked 3 MB
# higher with 380 KB blocks.
_WRITE_BYTES = 64 * 1024


def write_text_atomic(path: str, text: str | Iterable[bytes]) -> None:
    """Write ``text``, a str (as UTF-8) or the bytes chunks of an iterable,
    which are written one by one as it yields them, via a sibling temp file
    and rename, so readers never see a partial file and a crashed writer (or
    an iterable that raises) leaves the old content intact. The temp file is
    created with mode 0o666, which the umask reduces as for a plain
    ``open``; O_EXCL keeps a clashing name from being shared."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines([text.encode()] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _site_texts(spec: LatticeSpec) -> np.ndarray:
    """Each site's key text, each index in decimal followed by one space, as
    a (site_count, d, width) uint8 array padded with NULs: each index's text
    is made once and gathered by ``_site_index``."""
    n = spec.cells_per_dim
    width = len(str(n - 1)) + 1
    digits = np.array([f"{i} ".encode() for i in range(n)], dtype=f"S{width}")
    return digits.view(np.uint8).reshape(n, width)[_site_index(spec)]


def _key_blocks(spec: LatticeSpec, N: int, strict: bool) -> Iterator[tuple[np.ndarray, list[str]]]:
    """The records' site numbers (rows of ``_site_numbers``) and key texts in
    file order, ``_BLOCK`` records at a time. A key is the text of its
    entry's sites, as ``save_model`` writes it, so a record starts with its
    key and a coefficient follows it directly. Lazy: nothing is made before
    the first block is asked for, and nothing at all for a strict wedge with
    more points than sites, whose declared N or d may be huge."""
    if strict and N > spec.site_count:
        return
    site_text = _site_texts(spec)
    num = _site_numbers(spec.site_count, N, strict)
    for start in range(0, len(num), _BLOCK):
        rows = num[start : start + _BLOCK]
        keys = site_text[rows].reshape(len(rows), -1)
        text = np.column_stack([keys, np.full(len(rows), ord("\n"), np.uint8)]).tobytes()
        yield rows, text.translate(None, b"\0").decode().split("\n")[:-1]


# float.hex text, in fixed-width columns padded with NUL bytes: an optional
# "-", "0x1." or "0x0.", 13 hex digits and an exponent of at most 6 bytes,
# held in 8 so that one uint64 copies it.
_HEX_WIDTH = 26


@cache
def _hex_tables() -> tuple[np.ndarray, np.ndarray]:
    """The two hex digits of each byte value (256,), and the exponent text
    float.hex writes for each biased exponent (2048,), as ASCII in uint16
    and NUL-padded uint64 words; a subnormal's (biased 0) is p-1022. Made on
    first use, not on import."""
    pairs = np.array([f"{byte:02x}".encode() for byte in range(256)], dtype="S2")
    exponents = [f"p{max(biased, 1) - 1023:+d}".encode() for biased in range(2048)]
    return pairs.view(np.uint16), np.array(exponents, dtype="S8").view(np.uint64)


def _ascii(text: bytes, width: int) -> np.ndarray:
    return np.frombuffer(text.ljust(width, b"\0"), dtype=np.uint8)


def _hex_columns(x: np.ndarray) -> np.ndarray:
    """float.hex of each float of x (M,), as (M, _HEX_WIDTH) ASCII bytes
    padded with NULs: the text is the row with its NULs dropped."""
    pairs, exponents = _hex_tables()
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    M = len(bits)
    octets = bits.astype(">u8").view(np.uint8).reshape(M, 8)  # most significant first
    biased = (bits >> 52).astype(np.intp) & 0x7FF
    out = np.zeros((M, _HEX_WIDTH), dtype=np.uint8)
    out[octets[:, 0] >= 0x80, 0] = ord("-")
    out[:, 1:5] = _ascii(b"0x1.", 4)
    out[biased == 0, 3] = ord("0")
    out[:, 5] = pairs[octets[:, 1] & 0xF].view(np.uint8)[1::2]  # the top 4 mantissa bits
    out[:, 6:18] = pairs[octets[:, 2:]].view(np.uint8)
    out[:, 18:] = exponents[biased].view(np.uint8).reshape(M, 8)
    tail = _HEX_WIDTH - 1
    out[bits << 1 == 0, 1:] = _ascii(b"0x0.0p+0", tail)
    special = biased == 0x7FF
    if special.any():
        out[special & (bits << 12 == 0), 1:] = _ascii(b"inf", tail)
        out[special & (bits << 12 != 0)] = _ascii(b"nan", _HEX_WIDTH)  # float.hex drops its sign
    return out


def _record_blocks(spec: LatticeSpec, N: int, strict: bool, values: np.ndarray) -> Iterator[bytes]:
    """The text of the records of a model whose value fields are the rows of
    values (K, per), as ASCII bytes in blocks of about ``_WRITE_BYTES``. Each
    block is laid out as one uint8 array, a row per record padded with NULs,
    and joined by dropping the NULs. A record's key is the text of its entry's
    sites' texts (``_site_texts``), gathered by the entries' ``_site_numbers``."""
    K, per = values.shape
    if K == 0:
        return
    site_text = _site_texts(spec)
    num = _site_numbers(spec.site_count, N, strict)
    key_width = N * site_text[0].size
    row_width = key_width + per * (_HEX_WIDTH + 1)
    step = max(1, _WRITE_BYTES // row_width)
    for start in range(0, K, step):
        block = values[start : start + step]
        B = len(block)
        rows = np.empty((B, row_width), dtype=np.uint8)
        rows[:, :key_width] = site_text[num[start : start + B]].reshape(B, key_width)
        fields = rows[:, key_width:].reshape(B, per, _HEX_WIDTH + 1)
        fields[:, :, :_HEX_WIDTH] = _hex_columns(block.reshape(-1)).reshape(B, per, _HEX_WIDTH)
        fields[:, :, _HEX_WIDTH] = ord(" ")
        fields[:, -1, _HEX_WIDTH] = ord("\n")
        yield rows.tobytes().translate(None, b"\0")


def save_model(path: str, tab: Tabulator) -> None:
    """Write ``tab`` as a model file, a record per row of its table (and
    directions), in key order."""
    spec = tab.spec
    smooth = tab.smooth_width
    tau = getattr(tab, "tau", None)
    directions = getattr(tab, "directions", None)
    strict = tab.kind != KIND_SYM
    values = tab.table[:, None]
    if directions is not None:
        values = np.concatenate([values, directions], axis=1)
    header = [
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
        f"entries {len(values)}",
    ]
    blocks = _record_blocks(spec, tab.N, strict, values)
    write_text_atomic(path, chain([("\n".join(header) + "\n").encode()], blocks))


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


# float.hex writes a finite float as "0x..." after an optional "-", and the
# others as these.
_NON_FINITE_HEX = frozenset({"inf", "-inf", "nan"})


def _hex(value: str) -> float:
    """A float in the spelling float.hex writes, without padding. float.fromhex
    alone would also take "0.5" (as 0x0.5 = 0.3125), "+0x", "0X" and
    surrounding whitespace."""
    if value.strip() != value or not (
        value.removeprefix("-").startswith("0x") or value in _NON_FINITE_HEX
    ):
        raise ValueError(f"{value!r} is not spelled as float.hex writes it")
    return float.fromhex(value)


def _optional_hex(value: str) -> float | None:
    return None if value == "-" else _hex(value)


def _direction_fault(records: list[str], A: np.ndarray, idx: np.ndarray, tau: float) -> str | None:
    """The fault of the first direction, a row of A (K, d) keyed by the site
    indices idx (K, N, d), that is not a finite unit vector passing the
    build's validity test at tau, or None."""
    with np.errstate(all="ignore"):  # non-finite or huge components fail, not warn
        finite = np.isfinite(A).all(axis=1)
        unit = _unit_rows(A)
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


def _block_values(lines: list[str], keys: list[str], per: int) -> np.ndarray | None:
    """The value fields of records with the right field count, flat, or None
    if a record does not start with its key, holds a field that is not a
    finite float in ``_hex``'s spelling, or has a non-finite coefficient
    (every ``per``-th value).

    The spelling is checked by a few C-level scans of the block's value text.
    A field float.fromhex reads holds at most one "x", in its "0x" or "0X"
    after an optional sign, and may be padded with the whitespace it strips.
    So one "x" per field, no "+0x" and no tab, vertical tab or form feed
    (spaces separate fields, and lines were split) leave "0x" or "-0x"
    first in every field."""
    if not all(map(str.startswith, lines, keys)):
        return None
    text = " ".join(map(str.removeprefix, lines, keys))
    spelled = text.count("x") == len(lines) * per and "+0x" not in text
    if not spelled or "\t" in text or "\v" in text or "\f" in text:
        return None
    try:
        values = np.fromiter(map(float.fromhex, text.split(" ")), np.float64, len(lines) * per)
    except (ValueError, OverflowError):
        return None
    return values if np.isfinite(values[::per]).all() else None


def _check_records(
    lines: list[str],
    keys: Iterator[str],
    fields: tuple[int, int, int],
    kind: str,
    cells: int,
) -> list[float]:
    """``_block_values`` one record at a time, raising ConfigError on the first
    fault. ``keys`` gives each record's key text, and ``fields`` is (N, d,
    value fields per record). A record's field count is checked before its
    key is made (N or d may be huge), then its key, then its numbers, then
    that its coefficient is finite."""
    N, d, per = fields
    n_index = N * d
    values: list[float] = []
    for line in lines:
        found = line.count(" ") + 1
        if found != n_index + per:
            raise ConfigError(f"bad record ({found} fields, expected {n_index + per}): {line!r}")
        key = next(keys)
        if not line.startswith(key):
            try:
                [int(field) for field in line.split(" ")[:n_index]]  # raises on a non-integer
            except ValueError:
                raise ConfigError(f"record {line!r} has a field that is not a number") from None
            zs = tuple(zip(*[map(int, key.split())] * d))
            raise ConfigError(
                f"record {line!r} is not the {kind} wedge entry {zs}: records list every "
                f"entry once, in lexicographic order, with decimal indices in [0, {cells})"
            )
        try:
            parsed = [_hex(field) for field in line[len(key) :].split(" ")]
        except (ValueError, OverflowError):
            raise ConfigError(
                f"record {line!r} has a field that is not a number in float.hex spelling"
            ) from None
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
    delta = _field(lines, 5, "delta", _hex)
    lo = _field(lines, 6, "lo", _hex)
    hi = _field(lines, 7, "hi", _hex)
    mode = _field(lines, 8, "mode")
    if mode not in (MODE_INDICATOR, MODE_SMOOTH):
        raise ConfigError(f"unknown mode {mode!r}")
    smooth = _field(lines, 9, "w", _optional_hex)
    tau = _field(lines, 10, "tau", _optional_hex)
    want_direction = kind == KIND_PROJECTED
    strict = kind != KIND_SYM
    if want_direction and not (tau is not None and math.isfinite(tau) and tau > 0.0):
        raise ConfigError(f"an {kind} model needs a finite positive 'tau' on line 11, not {tau}")
    if not want_direction and tau is not None:
        raise ConfigError(f"a {kind} model stores 'tau -' on line 11, not {tau}")
    entries = _field(lines, 11, "entries", _decimal)
    records = lines[12:]
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
    per = 1 + (d if want_direction else 0)
    fields = (N, d, per)
    if not set(map(str.count, records, repeat(" "))) <= {N * d + per - 1}:
        # a field count is checked before any key is made: N or d may be huge
        keys = chain.from_iterable(keys for _, keys in _key_blocks(spec, N, strict))
        _check_records(records, keys, fields, kind, cells)
    table = np.empty(entries)
    directions = np.empty((entries, d)) if want_direction else None
    # made only when a record needs it: a file without records may declare a huge lattice
    index = _site_index(spec) if want_direction and entries else None
    fault = None  # the first bad direction, reported once every record has passed
    start = 0
    for rows, keys in _key_blocks(spec, N, strict):
        n = len(keys)
        part = slice(start, start + n)
        block = records[part]
        values = _block_values(block, keys, per)
        if values is None:
            values = _check_records(block, iter(keys), fields, kind, cells)
        values = np.reshape(values, (n, per))
        table[part] = values[:, 0]
        if want_direction:
            directions[part] = values[:, 1:]
            if fault is None:
                fault = _direction_fault(block, directions[part], index[rows], tau)
        start += n
        del block, keys, values  # this block's keys and values go before the next block's
    if fault is not None:
        raise ConfigError(fault)
    if kind == KIND_SYM:
        return SymmetricTabulator(spec, N, smooth, table)
    return AntisymTabulator(spec, N, tau, smooth, table, directions)
