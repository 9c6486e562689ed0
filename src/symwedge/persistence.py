"""Model container: a versioned header plus one record per wedge entry.

Every float is serialized as a hexadecimal float literal (float.hex), so a
write/read round trip is bit-exact; the lattice geometry is stored the same
way, which keeps cell assignment, and therefore evaluation, bit-identical
after reload. A float loads only in that spelling: "0x" after an optional
"-" (or inf, -inf, nan), with no "+", "0X" or whitespace, so an edited
"0.5" is an error rather than the hex digits 0x0.5. Files are written
atomically (temp file + rename).

Layout (text, one field per line, records after the ``entries`` line):

    SYMWEDGE-MODEL 3
    kind sym|antisym-c1|antisym-c2
    d / N / cells          integers, as str(n) writes them
    delta / lo / hi        hex floats
    mode indicator|smooth
    w hex float or -
    tau hex float or -
    entries K              an integer, as str(n) writes it
    <N*d site indices> <coefficient hex>

The header's ``cells`` is the count that covers [lo, hi] at ``delta``
(``LatticeSpec``'s rule). ``mode indicator`` stores ``w -``; ``mode smooth``
stores a finite w in (0, delta/2] and is not an antisym-c1 mode.

Records hold every wedge entry (sym) or every distinct-cell entry (antisym)
exactly once, in lexicographic key order, with finite coefficients; a key
must read as ``save_model`` writes it, each index in canonical decimal. An
antisym-c2 file stores a finite positive tau and no directions: they follow
from the lattice and N (``approx_antisym._derived``), and each must pass the
build's validity test at that tau. The other kinds store ``tau -``. The
loader raises ConfigError, naming the line or record, for anything else: a
byte that is not UTF-8, a first line other than ``SYMWEDGE-MODEL 3``
(version-1 and version-2 files no longer load), a malformed header field, a
header that describes no lattice, a non-numeric record field or a violated
rule above.

A file with several faults reports the first in check order: the header,
line by line; the record count; then, record by record, the field count,
the key, that the coefficient is a float.hex number, and that it is
finite; and last the derived directions at the file's tau, naming the first
failing entry. If the bytes after the header cannot hold K records of F
fields (K * F - 1 bytes at least), the first record with another field
count comes before any other record fault, and then a sym model's N above
170 (``_MAX_SYM_N``).

``save_model`` writes a record per row of the table, about ``_WRITE_BYTES``
of text at a time: each block is one uint8 array, a NUL-padded row per
record, from which the NULs are dropped (``_record_text``). A key is
gathered from each site's text, made once; a coefficient is float.hex's
text, made from the float's bits (sign, "0x1." or "0x0.", 13 hex digits,
and an exponent from a table made on first use), with zero written
"0x0.0p+0". The blocks stream to the temp file as bytes, so the file's text
is never held whole, and keys come from the wedge's rows
(``lattice.Wedge.rows``) a block at a time, on save as on load.

``load_model`` reads the file's bytes once (``_read``), counts its records'
lines before it reads any, then reads them a block of ``_BLOCK`` at a time.
A block laid out as the writer lays it out is read in a few array
operations (``_writer_block``): cut at its separators, its coefficients
read from fixed places before each field's end, it is taken when
``_record_text`` lays the coefficients out again as its bytes and they are
finite. Any other block is checked record by record (``_check_records``),
which loads the same values or raises the first fault in check order.
"""

from __future__ import annotations

import math
import os
from functools import cache
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar, Union

import numpy as np

from .approx_antisym import KIND_PROJECTED, KIND_RANK, AntisymTabulator
from .approx_sym import (
    _MAX_SYM_N,
    KIND_SYM,
    MODE_INDICATOR,
    MODE_SMOOTH,
    SymmetricTabulator,
)
from .errors import CapacityError, ConfigError, DirectionSearchError
from .lattice import LatticeSpec, _check_smooth_width, _site_index, _wedge_of, wedge_size

MAGIC = "SYMWEDGE-MODEL"
FORMAT_VERSION = 3

Tabulator = Union[SymmetricTabulator, AntisymTabulator]

KINDS = (KIND_SYM, KIND_RANK, KIND_PROJECTED)

_T = TypeVar("_T")

# Records per block: ``load_model`` parses and checks a block, on the byte
# path in a few calls that loop in C, before it moves to the next.
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
    a (site_count,) array of fixed-width bytes padded with NULs: each index's
    text is made once and gathered by ``_site_index``, and a key is a gather
    of its sites' items."""
    n = spec.cells_per_dim
    width = len(str(n - 1)) + 1
    digits = np.array([f"{i} ".encode() for i in range(n)], dtype=f"S{width}")
    texts = digits.view(np.uint8).reshape(n, width)[_site_index(spec)]
    return texts.reshape(spec.site_count, -1).view(f"S{spec.d * width}")[:, 0]


def _keys(site_text: np.ndarray, rows: np.ndarray) -> list[str]:
    """The key texts of the entries whose site numbers are rows (B, N): their
    sites' texts (``_site_texts``), as ``save_model`` writes them, so a record
    starts with its key and a coefficient follows it directly."""
    keys = site_text[rows].view(np.uint8).reshape(len(rows), -1)
    text = np.column_stack([keys, np.full(len(rows), ord("\n"), np.uint8)]).tobytes()
    return text.translate(None, b"\0").decode().split("\n")[:-1]


# float.hex text, in fixed-width columns padded with NUL bytes: three
# little-endian uint64 words holding an optional "-", "0x1." or "0x0.", 13
# hex digits and an exponent of at most 6 bytes.
_HEX_WIDTH = 24


@cache
def _hex_tables() -> np.ndarray:
    """The exponent text float.hex writes for each biased exponent (2048,),
    as NUL-padded little-endian uint64 words; a subnormal's (biased 0) is
    p-1022. Made on first use, not on import."""
    exponents = [f"p{max(biased, 1) - 1023:+d}".encode() for biased in range(2048)]
    return np.array(exponents, dtype="S8").view("<u8")


def _word(text: bytes) -> int:
    """The little-endian uint64 whose bytes are text, padded with NULs."""
    return int.from_bytes(text.ljust(8, b"\0"), "little")


_PREFIX = _word(b"\x000x1.")
_ZERO = (_word(b"\x000x0.0p+"), _word(b"0"))
_INF = _word(b"\x00inf")
_NAN = _word(b"nan")
# Spreading a 32-bit number's 8 nibbles over the bytes of a uint64, least
# significant first: or each part onto itself shifted, then keep the halves.
_SPREAD = ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF), (4, 0x0F0F0F0F0F0F0F0F))
# Its inverse: gathering 8 nibbles, one per byte and the first on top, into
# the low 32 bits.
_GATHER = ((4, 0x00FF00FF00FF00FF), (8, 0x0000FFFF0000FFFF), (16, 0x00000000FFFFFFFF))


def _hex_columns(x: np.ndarray) -> np.ndarray:
    """float.hex of each float of x (M,), as (M, _HEX_WIDTH) ASCII bytes
    padded with NULs: the text is the row with its NULs dropped.

    Each row is made as three words. The mantissa's first 5 and last 8 hex
    digits are spread a nibble per byte, turned into ASCII ("0" + n, plus
    39 for a letter) and byte-swapped, so the first digit comes first."""
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    M = len(bits)
    biased = (bits >> 52 & 0x7FF).astype(np.intp)
    digits = np.empty((M, 2), dtype=np.uint64)
    digits[:, 0] = bits >> 32 & 0xFFFFF
    digits[:, 1] = bits & 0xFFFFFFFF
    for shift, keep in _SPREAD:
        digits |= digits << shift
        digits &= keep
    letters = (digits + 0x0606060606060606) >> 4 & 0x0101010101010101
    digits += 0x3030303030303030
    digits += letters * 39
    first, last = digits.byteswap().T  # "000" and 5 digits; 8 digits
    zero = bits << 1 == 0
    out = np.empty((M, 3), dtype="<u8")
    lead = _PREFIX - ((biased == 0).astype(np.uint64) << 24)  # "0x0." below the normals
    out[:, 0] = np.where(zero, _ZERO[0], first >> 24 << 40 | lead) | (bits >> 63) * ord("-")
    out[:, 1] = np.where(zero, _ZERO[1], first >> 48 | last << 16)
    out[:, 2] = np.where(zero, 0, last >> 48 | _hex_tables()[biased] << 16)
    special = biased == 0x7FF
    if special.any():
        out[special, 0] = (bits[special] >> 63) * ord("-") | _INF
        out[special, 1:] = 0
        out[special & (bits << 12 != 0), 0] = _NAN  # float.hex drops its sign
    return out.view(np.uint8)


def _record_text(site_text: np.ndarray, rows: np.ndarray, values: np.ndarray) -> bytes:
    """The text of the records whose entries have site numbers rows (B, N)
    and coefficients values (B,), as ASCII bytes: one uint8 array with a row
    per record, its key the entry's sites' texts (``site_text``, from
    ``_site_texts``) and its coefficient ``_hex_columns``' text, padded with
    NULs, which are dropped."""
    B = len(values)
    key_width = rows.shape[1] * site_text.itemsize
    out = np.empty((B, key_width + _HEX_WIDTH + 1), dtype=np.uint8)
    out[:, :key_width] = site_text[rows].view(np.uint8).reshape(B, key_width)
    out[:, key_width:-1] = _hex_columns(values)
    out[:, -1] = ord("\n")
    return out.tobytes().translate(None, b"\0")


def _record_blocks(tab: Tabulator) -> Iterator[bytes]:
    """The text of tab's records, in blocks of at most ``_WRITE_BYTES`` of
    text and of wedge rows (``_record_text``)."""
    K = len(tab.table)
    if K == 0:
        return
    site_text = _site_texts(tab.spec)
    width = max(tab.N * site_text.itemsize + _HEX_WIDTH + 1, tab.N * 8)
    step = max(1, _WRITE_BYTES // width)
    for start in range(0, K, step):
        stop = min(start + step, K)
        yield _record_text(site_text, tab._wedge.rows(start, stop), tab.table[start:stop])


def save_model(path: str, tab: Tabulator) -> None:
    """Write ``tab`` as a model file, a record per row of its table, in key order."""
    spec = tab.spec
    smooth = tab.smooth_width
    tau = getattr(tab, "tau", None)
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
        f"entries {len(tab.table)}",
    ]
    blocks = _record_blocks(tab)
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


def _check_field_count(line: str, fields: int) -> None:
    found = line.count(" ") + 1
    if found != fields:
        raise ConfigError(f"bad record ({found} fields, expected {fields}): {line!r}")


def _check_records(lines: list[str], keys: list[str], head: _Header) -> list[float]:
    """The coefficients of records, read one record at a time, raising
    ConfigError on the first fault. ``keys`` holds each record's key text. A
    record's field count is checked first, then its key, then that its
    coefficient is a number in ``_hex``'s spelling, then that it is finite."""
    d, cells = head.spec.d, head.spec.cells_per_dim
    n_index = head.N * d
    values: list[float] = []
    for line, key in zip(lines, keys):
        _check_field_count(line, n_index + 1)
        if not line.startswith(key):
            try:
                [int(field) for field in line.split(" ")[:n_index]]  # raises on a non-integer
            except ValueError:
                raise ConfigError(f"record {line!r} has a field that is not a number") from None
            zs = tuple(zip(*[map(int, key.split())] * d))
            raise ConfigError(
                f"record {line!r} is not the {head.kind} wedge entry {zs}: records list every "
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


def _read(path: str) -> bytes:
    """The file's bytes, each "\\r\\n" and then each "\\r" made "\\n" as
    universal newlines make them; a byte that is not UTF-8 raises ConfigError
    naming the file and its line."""
    with open(path, "rb") as handle:
        data = handle.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.isascii():
        try:
            data.decode()
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ConfigError(
                f"{path}: line {line} holds byte 0x{data[exc.start]:02x}, which is not UTF-8"
            ) from None
    return data


def read_text(path: str) -> str:
    """The file's text, read as UTF-8 with universal newlines (``_read``)."""
    return _read(path).decode()


class _Header(NamedTuple):
    """What a checked header declares."""

    kind: str
    spec: LatticeSpec
    N: int
    smooth: float | None
    tau: float | None
    entries: int


def _header(path: str, lines: list[str], found: int) -> _Header:
    """The model the first 12 lines of a file describe, raising ConfigError
    on the first fault: each header line in order, then the record count
    against the ``found`` lines after them, then the lattice, the smooth width
    and the wedge size the header implies."""
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
    if kind == KIND_PROJECTED and not (tau is not None and math.isfinite(tau) and tau > 0.0):
        raise ConfigError(f"an {kind} model needs a finite positive 'tau' on line 11, not {tau}")
    if kind != KIND_PROJECTED and tau is not None:
        raise ConfigError(f"a {kind} model stores 'tau -' on line 11, not {tau}")
    entries = _field(lines, 11, "entries", _decimal)
    if found != entries:
        raise ConfigError(f"expected {entries} records, found {found}")

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
        wedge_size(spec, N)  # the full wedge holds the strict one
    except (ValueError, CapacityError) as exc:
        raise ConfigError(f"lines 3-5 (d, N, cells) describe no wedge: {exc}") from None
    want_size = _wedge_of(spec, N, kind != KIND_SYM).size
    if entries != want_size:
        raise ConfigError(f"a {kind} model with N = {N} has {want_size} records, not {entries}")
    return _Header(kind, spec, N, smooth, tau, entries)


def _tabulator(head: _Header, table: np.ndarray) -> Tabulator:
    """The tabulator of a checked header and its table; an antisym-c2
    direction that fails the file's tau is a ConfigError naming its entry."""
    if head.kind == KIND_SYM:
        return SymmetricTabulator(head.spec, head.N, head.smooth, table)
    try:
        return AntisymTabulator(head.spec, head.N, head.tau, head.smooth, table)
    except DirectionSearchError as exc:
        raise ConfigError(f"line 11: {exc}") from None


def _hex_values(data: bytes, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The floats whose float.hex texts are the fields data[start:end], each
    given by its offsets (M,); every field ends at offset 24 or later.

    Each part is read where ``_hex_columns`` puts it, counted back from the
    field's end: the exponent word, and before its "p" the lead digit and
    13 mantissa digits, each worth its low nibble, plus 9 for a letter. A
    field of 8 bytes after its sign is a zero. A field spelled any other way
    reads as some float whose text differs from the field, so the caller
    lays the values out again to check them."""
    text = np.frombuffer(data, dtype=np.uint8)
    neg = text[start] == ord("-")
    size = end - start - neg
    exponent_bytes = np.clip(size - 17, 3, 6)  # "p", a sign and 1-4 digits
    p = end - exponent_bytes
    # the 8 and the 16 bytes from each offset, gathered as strings
    word = np.ndarray((len(data) - 7,), "S8", data, 0, (1,))[end - 8].view("<u8")
    x = np.ndarray((len(data) - 15,), "S16", data, 0, (1,))[p - 16].view("<u8").reshape(-1, 2)
    # the exponent's digits end the field: keep them in the word's top 4
    # bytes as d0 d1 d2 d3 (zeros before a shorter exponent), make d0 d1 and
    # d2 d3 two-digit numbers, then one
    clear = (8 * (6 - exponent_bytes)).astype(np.uint64)
    e = word >> 32 >> clear << clear & 0x0F0F0F0F
    e = (e * 10 + (e >> 8)) & 0x00FF00FF
    e = ((e & 0xFF) * 100 + (e >> 16)).astype(np.int64)
    biased = 1023 + np.where(text[p + 1] == ord("-"), -e, e)
    x[:, 0] &= _word(b"\0\xff\0\xff\xff\xff\xff\xff")  # drop the "x" and "." before 5 digits
    x = (x & 0x0F0F0F0F0F0F0F0F) + (x >> 6 & 0x0101010101010101) * 9
    x = x.byteswap()
    for shift, keep in _GATHER:
        x |= x >> shift
        x &= keep
    lead, low = x.T
    bits = np.where(lead >> 24 == 1, biased, 0).astype(np.uint64) << 52
    bits |= (lead & 0xFFFFF) << 32 | low
    bits = np.where(size == 8, 0, bits) | neg.astype(np.uint64) << 63
    return bits.view(np.float64)


def _writer_block(
    data: bytes, pos: int, site_text: np.ndarray, rows: np.ndarray, head: _Header
) -> tuple[np.ndarray, int] | None:
    """The coefficients (B,) of the B records at offset pos of data and the
    offset past them, if the records are the bytes ``save_model`` writes for
    the entries rows (B, N) and those coefficients, all finite; else None.
    The block is cut at its first separators (bytes up to " "),
    ``_hex_values`` reads its coefficients and ``_record_text`` lays them
    out again."""
    B, fields = len(rows), head.N * head.spec.d + 1
    width = head.N * site_text.itemsize + _HEX_WIDTH + 1  # a record's most bytes
    cuts = np.flatnonzero(np.frombuffer(data, np.uint8)[pos : pos + B * width] <= ord(" "))
    if len(cuts) < B * fields:
        return None
    cuts = cuts[: B * fields].reshape(B, fields)[:, -2:] + pos
    values = _hex_values(data, cuts[:, 0] + 1, cuts[:, 1])
    end = int(cuts[-1, -1]) + 1
    text = _record_text(site_text, rows, values)
    if len(text) != end - pos or not data.startswith(text, pos):
        return None
    return (values, end) if np.isfinite(values).all() else None


def _lines(data: bytes, pos: int, n: int) -> tuple[list[str], int]:
    """The text of the n lines of data from offset pos on (fewer if it ends
    first), and the offset past them; the last line may lack its newline."""
    end = pos
    for _ in range(n):
        if end >= len(data):
            break
        end = data.find(b"\n", end) + 1 or len(data) + 1
    return (data[pos : end - 1].decode().split("\n") if end > pos else []), end


def _found(data: bytes, start: int) -> int:
    """The number of lines of data from offset start on."""
    return 0 if start >= len(data) else data.count(b"\n", start) + (not data.endswith(b"\n"))


def _records(data: bytes, start: int, head: _Header) -> np.ndarray:
    """The table of the header head whose K records are the lines of data
    from offset start on, read ``_BLOCK`` records at a time. A block that
    ``_writer_block`` reads is taken as it reads it; any other goes through
    ``_check_records``. As N or d may be huge, no key is made before the
    records fit: K lines of F fields hold at least K * F - 1 bytes, and if
    they do not, the first line with another field count is raised."""
    spec, N, K = head.spec, head.N, head.entries
    table = np.empty(K)
    if not K:  # a strict wedge with more points than sites: make no keys
        return table
    fields = N * spec.d + 1
    if K * fields > len(data) - start + 1:
        for line in data[start:].decode().split("\n"):
            _check_field_count(line, fields)
    if head.kind == KIND_SYM and N > _MAX_SYM_N:
        raise ConfigError(f"a {KIND_SYM} model's N on line 4 is at most {_MAX_SYM_N}, not {N}")
    site_text = _site_texts(spec)
    wedge = _wedge_of(spec, N, head.kind != KIND_SYM)
    pos = start
    for first in range(0, K, _BLOCK):
        rows = wedge.rows(first, min(first + _BLOCK, K))
        block = _writer_block(data, pos, site_text, rows, head)
        if block is None:
            lines, end = _lines(data, pos, len(rows))
            block = _check_records(lines, _keys(site_text, rows), head), end
        table[first : first + len(rows)], pos = block
    return table


def load_model(path: str) -> Tabulator:
    """The tabulator a model file holds, or ConfigError naming its first
    fault in check order. The file is read once, as bytes (``_read``); its
    12 header lines, with its record count, pass ``_header``; its records
    ``_records``. The bytes are freed before the tabulator is made, and with
    it an antisym-c2 model's derived directions."""
    data = _read(path)
    lines, start = _lines(data, 0, 12)
    head = _header(path, lines, _found(data, start))
    table = _records(data, start, head)
    del data
    return _tabulator(head, table)
