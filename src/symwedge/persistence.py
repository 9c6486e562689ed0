"""Model container: a versioned header plus one record per wedge entry.

Every float is serialized as a hexadecimal float literal (float.hex), so a
write/read round trip is bit-exact; the lattice geometry is stored the same
way, which keeps cell assignment, and therefore evaluation, bit-identical
after reload. Files are written atomically (temp file + rename).

Layout (text, one field per line, records after the ``entries`` line):

    SYMWEDGE-MODEL 2
    kind sym|antisym-c1|antisym-c2
    d / N / cells          integers
    delta / lo / hi        hex floats
    mode indicator|smooth
    w hex float or -
    tau hex float or -
    entries K
    <N*d site indices> <coefficient hex> [<d direction components hex>]

Records hold every wedge entry (sym) or every distinct-cell entry (antisym)
exactly once, in lexicographic key order, with finite coefficients; the
loader rejects anything else.

Version 1 files still load: their antisym-c1 coefficients were stored as
f(Z)/slot_rank_product(N) and are multiplied back on load, which reproduces
the version-1 evaluator's sign * coefficient * slot_rank_product(N) bit for
bit (multiplying by the sign is exact).
"""

from __future__ import annotations

import math
import os
import tempfile
from itertools import combinations, combinations_with_replacement
from typing import Union

from .approx_antisym import MODE_PROJECTED, MODE_RANK, AntisymTabulator, slot_rank_product
from .approx_sym import MODE_INDICATOR, MODE_SMOOTH, BuildStats, SymmetricTabulator
from .errors import ConfigError
from .lattice import LatticeSpec, WedgeKey, lattice_sites, wedge_size

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "KIND_SYM",
    "KIND_RANK",
    "KIND_PROJECTED",
    "KINDS",
    "kind_of",
    "save_model",
    "load_model",
    "write_text_atomic",
]

MAGIC = "SYMWEDGE-MODEL"
FORMAT_VERSION = 2

Tabulator = Union[SymmetricTabulator, AntisymTabulator]

KIND_SYM = "sym"
KIND_RANK = "antisym-c1"
KIND_PROJECTED = "antisym-c2"
KINDS = (KIND_SYM, KIND_RANK, KIND_PROJECTED)


def write_text_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file and a crashed writer leaves the old content intact."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def kind_of(tab: Tabulator) -> str:
    """The model kind name of a tabulator: sym, antisym-c1 or antisym-c2."""
    if isinstance(tab, SymmetricTabulator):
        return KIND_SYM
    return KIND_RANK if tab.mode == MODE_RANK else KIND_PROJECTED


def save_model(path: str, tab: Tabulator) -> None:
    spec = tab.spec
    smooth = tab.smooth_width
    tau = getattr(tab, "tau", None)
    lines = [
        f"{MAGIC} {FORMAT_VERSION}",
        f"kind {kind_of(tab)}",
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
    for zs, coeff in tab.table.items():
        fields = [str(i) for site in zs for i in site]
        fields.append(coeff.hex())
        if directions is not None:
            fields.extend(c.hex() for c in directions[zs])
        lines.append(" ".join(fields))
    write_text_atomic(path, "\n".join(lines) + "\n")


def _field(lines: list[str], idx: int, key: str) -> str:
    if idx >= len(lines):
        raise ConfigError(f"model file truncated before {key!r}")
    name, _, value = lines[idx].partition(" ")
    if name != key:
        raise ConfigError(f"expected field {key!r} on line {idx + 1}, found {name!r}")
    return value


def load_model(path: str) -> Tabulator:
    with open(path, "r") as handle:
        lines = [line.rstrip("\n") for line in handle]
    version = {f"{MAGIC} 1": 1, f"{MAGIC} {FORMAT_VERSION}": FORMAT_VERSION}.get(
        lines[0] if lines else None
    )
    if version is None:
        raise ConfigError(f"{path}: not a {MAGIC} version-1 or version-{FORMAT_VERSION} file")
    kind = _field(lines, 1, "kind")
    if kind not in KINDS:
        raise ConfigError(f"unknown model kind {kind!r}")
    d = int(_field(lines, 2, "d"))
    N = int(_field(lines, 3, "N"))
    cells = int(_field(lines, 4, "cells"))
    delta = float.fromhex(_field(lines, 5, "delta"))
    lo = float.fromhex(_field(lines, 6, "lo"))
    hi = float.fromhex(_field(lines, 7, "hi"))
    mode = _field(lines, 8, "mode")
    if mode not in (MODE_INDICATOR, MODE_SMOOTH):
        raise ConfigError(f"unknown mode {mode!r}")
    w_raw = _field(lines, 9, "w")
    smooth = None if w_raw == "-" else float.fromhex(w_raw)
    tau_raw = _field(lines, 10, "tau")
    tau = None if tau_raw == "-" else float.fromhex(tau_raw)
    entries = int(_field(lines, 11, "entries"))
    records = [line for line in lines[12:] if line]
    if len(records) != entries:
        raise ConfigError(f"expected {entries} records, found {len(records)}")

    spec = LatticeSpec(delta=delta, d=d, cells_per_dim=cells, origin=lo, top=hi)
    full_size = wedge_size(spec, N)
    # The records must hold exactly these keys, in this (lexicographic) order.
    if kind == KIND_SYM:
        keys = combinations_with_replacement(lattice_sites(spec), N)
        want_size = full_size
    else:
        keys = combinations(lattice_sites(spec), N)
        want_size = math.comb(spec.site_count, N)
    if entries != want_size:
        raise ConfigError(f"a {kind} model with N = {N} has {want_size} records, not {entries}")
    want_direction = kind == KIND_PROJECTED
    table: dict[WedgeKey, float] = {}
    directions: dict[WedgeKey, tuple[float, ...]] = {}
    n_index = N * d
    expected = n_index + 1 + (d if want_direction else 0)
    for line, zs in zip(records, keys):
        fields = line.split(" ")
        if len(fields) != expected:
            raise ConfigError(f"bad record ({len(fields)} fields, expected {expected}): {line!r}")
        indices = map(int, fields[:n_index])
        if tuple(zip(*[indices] * d)) != zs:
            raise ConfigError(
                f"record {line!r} is not the {kind} wedge entry {zs}: records list every "
                f"entry once, in lexicographic order, with indices in [0, {cells})"
            )
        coeff = float.fromhex(fields[n_index])
        if not math.isfinite(coeff):
            raise ConfigError(f"non-finite coefficient in record {line!r}")
        table[zs] = coeff
        if want_direction:
            directions[zs] = tuple(float.fromhex(v) for v in fields[n_index + 1 :])
    if kind == KIND_RANK and version == 1:
        # Version 1 stored f(Z)/slot_rank_product(N) and multiplied back at eval.
        denom = slot_rank_product(N)
        table = {zs: coeff * denom for zs, coeff in table.items()}

    stats = BuildStats(
        evaluations=0,
        wedge_count=full_size,
        coarse_lattice=delta > N ** (-1.0 / d),
    )
    if kind == KIND_SYM:
        return SymmetricTabulator(spec, N, mode, smooth, table, stats)
    return AntisymTabulator(
        spec,
        N,
        MODE_RANK if kind == KIND_RANK else MODE_PROJECTED,
        tau,
        smooth,
        table,
        directions if want_direction else None,
        stats,
    )
