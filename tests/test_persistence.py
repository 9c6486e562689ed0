import functools
import hashlib
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symwedge import (
    MODE_INDICATOR,
    MODE_PROJECTED,
    MODE_RANK,
    MODE_SMOOTH,
    AntisymTabulator,
    ConfigError,
    Configuration,
    DirectionSearchError,
    DomainSpec,
    LatticeSpec,
    SymmetricTabulator,
    build_antisym,
    build_sym,
    builtin_target,
    enumerate_wedge,
    eval_antisym,
    eval_sym,
    eval_sym_feature_form,
    load_model,
    save_model,
)
from symwedge.cli import main
from symwedge import persistence
from symwedge.lattice import Wedge
from symwedge.persistence import write_text_atomic


def cfg(*rows):
    return Configuration.from_rows(rows)


def unit_domain(d, N):
    return DomainSpec(d=d, N=N, lo=0.0, hi=1.0)


def random_rows(rng, N, d):
    return rng.random((N, d)).tolist()


def test_round_trip_sym_indicator(tmp_path):
    f = builtin_target("gaussian-pair-sym")
    spec = LatticeSpec.from_domain(unit_domain(2, 2), 0.25)
    tab = build_sym(f, spec, 2)
    path = str(tmp_path / "sym.swm")
    save_model(path, tab)

    loaded = load_model(path)
    assert isinstance(loaded, SymmetricTabulator)
    assert loaded.spec == tab.spec
    assert loaded.table.tobytes() == tab.table.tobytes()  # bitwise
    assert loaded.smooth_width is None
    rng = np.random.Generator(np.random.Philox(81))
    for _ in range(100):
        X = cfg(*random_rows(rng, 2, 2))
        assert eval_sym(loaded, X) == eval_sym(tab, X)


def test_round_trip_sym_smooth(tmp_path):
    f = builtin_target("product-smooth-sym")
    spec = LatticeSpec.from_domain(unit_domain(1, 2), 0.25)
    tab = build_sym(f, spec, 2, mode=MODE_SMOOTH, smooth_width=0.0625)
    path = str(tmp_path / "smooth.swm")
    save_model(path, tab)

    loaded = load_model(path)
    assert loaded.smooth_width == 0.0625
    rng = np.random.Generator(np.random.Philox(82))
    for _ in range(100):
        X = cfg(*random_rows(rng, 2, 1))
        assert eval_sym(loaded, X) == eval_sym(tab, X)


def test_round_trip_antisym_rank(tmp_path):
    f = builtin_target("vandermonde-gauss-antisym")
    spec = LatticeSpec.from_domain(unit_domain(1, 3), 0.25)
    tab = build_antisym(f, spec, 3, mode=MODE_RANK)
    path = str(tmp_path / "rank.swm")
    save_model(path, tab)

    loaded = load_model(path)
    assert isinstance(loaded, AntisymTabulator)
    assert loaded.kind == "antisym-c1"
    assert loaded.table.tobytes() == tab.table.tobytes()
    assert loaded.directions is None
    rng = np.random.Generator(np.random.Philox(83))
    for _ in range(100):
        X = cfg(*random_rows(rng, 3, 1))
        assert eval_antisym(loaded, X) == eval_antisym(tab, X)


def test_round_trip_antisym_projected_keeps_directions(tmp_path):
    f = builtin_target("vandermonde-gauss-antisym")
    spec = LatticeSpec.from_domain(unit_domain(2, 2), 0.5)
    tab = build_antisym(f, spec, 2, mode=MODE_PROJECTED, tau=1e-3)
    path = str(tmp_path / "proj.swm")
    save_model(path, tab)

    loaded = load_model(path)
    assert loaded.kind == "antisym-c2"
    assert loaded.tau == tab.tau
    assert loaded.directions.tobytes() == tab.directions.tobytes()
    rng = np.random.Generator(np.random.Philox(84))
    for _ in range(100):
        X = cfg(*random_rows(rng, 2, 2))
        assert eval_antisym(loaded, X) == eval_antisym(tab, X)


@pytest.mark.parametrize(
    "kind, smooth_width",
    [("sym", None), ("sym", 1 / 16), (MODE_RANK, None), (MODE_PROJECTED, None),
     (MODE_PROJECTED, 1 / 16)],
)
def test_load_returns_the_saved_tabulator(tmp_path, kind, smooth_width):
    spec = LatticeSpec.from_counts(8, 1, 0.0, 1.0)
    if kind == "sym":
        mode = MODE_SMOOTH if smooth_width is not None else MODE_INDICATOR
        tab = build_sym(builtin_target("gaussian-pair-sym", {}), spec, 4, mode=mode,
                        smooth_width=smooth_width)
        evaluate = eval_sym
    else:
        tab = build_antisym(builtin_target("vandermonde-gauss-antisym", {}), spec, 4,
                            mode=kind, smooth_width=smooth_width)
        evaluate = eval_antisym
    path = str(tmp_path / "m.swm")
    save_model(path, tab)
    loaded = load_model(path)
    assert loaded == tab
    assert (loaded.kind, loaded.stats) == (tab.kind, tab.stats)
    for X in _pinned_stream(4, 1, 8, 200, 77):
        assert evaluate(loaded, X).hex() == evaluate(tab, X).hex()


def test_loaded_lattice_keeps_cell_count(tmp_path):
    # 0.2499999999998887 snaps to 4 cells at build; the file stores the count
    # itself so the loaded spec cannot re-derive a different one
    f = builtin_target("sum-coords")
    spec = LatticeSpec.from_domain(unit_domain(1, 2), 0.2499999999998887)
    tab = build_sym(f, spec, 2)
    path = str(tmp_path / "snap.swm")
    save_model(path, tab)
    assert load_model(path).spec.cells_per_dim == 4


def test_save_does_not_leave_temp_files(tmp_path):
    f = builtin_target("sum-coords")
    spec = LatticeSpec.from_domain(unit_domain(1, 2), 0.5)
    tab = build_sym(f, spec, 2)
    save_model(str(tmp_path / "m.swm"), tab)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.swm"]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_written_files_take_the_mode_a_plain_open_gives(tmp_path, umask):
    spec = LatticeSpec.from_domain(unit_domain(1, 2), 0.5)
    tab = build_sym(builtin_target("sum-coords"), spec, 2)
    previous = os.umask(umask)
    try:
        write_text_atomic(str(tmp_path / "report.csv"), "payload\n")
        save_model(str(tmp_path / "m.swm"), tab)
        with open(tmp_path / "plain.txt", "w"):
            pass
    finally:
        os.umask(previous)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["report.csv", "m.swm", "plain.txt"], 0o666 & ~umask)


def test_write_text_atomic_creates_directories(tmp_path):
    path = tmp_path / "a" / "b" / "f.txt"
    write_text_atomic(str(path), "payload\n")
    assert path.read_text() == "payload\n"


def test_write_text_atomic_streams_chunks_and_a_raising_iterator_leaves_the_old_file(tmp_path):
    path = tmp_path / "m.swm"
    path.write_text("old\n")

    def chunks():
        yield b"x" * 100_000
        [tmp] = [p for p in tmp_path.iterdir() if p.name != "m.swm"]
        assert tmp.stat().st_size >= 100_000  # written before the next chunk is made
        yield b"y"
        raise RuntimeError("midway")

    with pytest.raises(RuntimeError, match="midway"):
        write_text_atomic(str(path), chunks())
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.swm"]
    write_text_atomic(str(path), iter([b"new ", b"text\n"]))
    assert path.read_text() == "new text\n"


# Floats whose float.hex text has a shape of its own: zeros, subnormals, the
# smallest and largest normals, exponents of every width, and non-finite ones.
HEX_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    -2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.5,
    0.5, 1024.0, 1e-100, 1e100, math.inf, -math.inf, math.nan, -math.nan,
]


def hex_texts(x):
    rows = persistence._hex_columns(np.asarray(x, dtype=np.float64))
    return [bytes(row).replace(b"\0", b"").decode("ascii") for row in rows]


def test_vectorized_hex_is_float_hex_on_edge_values():
    assert hex_texts(HEX_EDGES) == [value.hex() for value in HEX_EDGES]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_vectorized_hex_is_float_hex_on_any_bit_pattern(patterns):
    x = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert hex_texts(x) == [value.hex() for value in x.tolist()]


@pytest.mark.parametrize("cells, N, d", [(11, 2, 2), (101, 2, 1)], ids=["11-cells", "101-cells"])
@pytest.mark.parametrize("kind", ["sym", MODE_RANK, MODE_PROJECTED])
def test_written_keys_are_the_key_text_load_model_makes(tmp_path, kind, cells, N, d):
    spec = LatticeSpec.from_counts(cells, d, 0.0, 1.0)
    if kind == "sym":
        tab = build_sym(builtin_target("sum-coords"), spec, N)
    else:
        tab = build_antisym(builtin_target("vandermonde-gauss-antisym"), spec, N, mode=kind)
    path = tmp_path / "m.swm"
    save_model(str(path), tab)
    records = path.read_text().splitlines()[12:]
    # each index in decimal followed by a space, then the coefficient; antisym
    # files keep entries of N distinct sites
    wedge = [zs for zs in enumerate_wedge(spec, N) if kind == "sym" or len(set(zs)) == N]
    keys = ["".join(f"{i} " for z in zs for i in z) for zs in wedge]
    assert len(records) == len(keys) == len(tab.table)
    assert [record[: len(key)] for record, key in zip(records, keys)] == keys
    values = [record[len(key) :] for record, key in zip(records, keys)]
    assert all(" " not in value and value.lstrip("-").startswith("0x") for value in values)


def test_importing_the_cli_makes_no_hex_tables():
    # the benchmark times a fresh import of the CLI; the tables are made on first use
    code = (
        "import numpy, symwedge.cli, symwedge.persistence as p\n"
        "print(p._hex_tables.cache_info().currsize)\n"
        "p._hex_columns(numpy.zeros(1))\n"
        "print(p._hex_tables.cache_info().currsize)\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    result = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "1"]


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.swm"
    path.write_text("NOT-A-MODEL 1\n")
    with pytest.raises(ConfigError):
        load_model(str(path))


def test_load_rejects_unknown_kind(tmp_path):
    f = builtin_target("sum-coords")
    spec = LatticeSpec.from_domain(unit_domain(1, 2), 0.5)
    tab = build_sym(f, spec, 2)
    path = tmp_path / "m.swm"
    save_model(str(path), tab)
    text = path.read_text().replace("kind sym", "kind hybrid")
    path.write_text(text)
    with pytest.raises(ConfigError):
        load_model(str(path))


def test_load_rejects_truncated_file(tmp_path):
    f = builtin_target("sum-coords")
    spec = LatticeSpec.from_domain(unit_domain(1, 2), 0.5)
    tab = build_sym(f, spec, 2)
    path = tmp_path / "m.swm"
    save_model(str(path), tab)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    with pytest.raises(ConfigError):
        load_model(str(path))


def test_model_file_is_text_with_hex_floats(tmp_path):
    f = builtin_target("sum-coords")
    spec = LatticeSpec.from_domain(unit_domain(1, 2), 0.5)
    tab = build_sym(f, spec, 2)
    path = tmp_path / "m.swm"
    save_model(str(path), tab)
    text = path.read_text()
    assert text.startswith("SYMWEDGE-MODEL 3\n")
    assert "0x1.0000000000000p-1" in text  # 0.5 as a hex literal


def test_version_1_model_is_rejected(tmp_path):
    # version 1 stored rank-mode coefficients as f(Z)/slot ranks' product; no
    # reader for it is kept
    f = builtin_target("vandermonde-gauss-antisym")
    tab = build_antisym(f, LatticeSpec.from_domain(unit_domain(1, 4), 0.125), 4, mode=MODE_RANK)
    path = tmp_path / "v1.swm"
    save_model(str(path), tab)
    path.write_text(path.read_text().replace("SYMWEDGE-MODEL 3\n", "SYMWEDGE-MODEL 1\n", 1))
    with pytest.raises(ConfigError, match=r"^.*v1\.swm: not a SYMWEDGE-MODEL version-3 file$"):
        load_model(str(path))


def _saved_lines(tmp_path, kind):
    if kind == "sym":
        f = builtin_target("sum-coords")
        tab = build_sym(f, LatticeSpec.from_domain(unit_domain(1, 2), 0.25), 2)
    else:
        f = builtin_target("vandermonde-gauss-antisym")
        tab = build_antisym(f, LatticeSpec.from_domain(unit_domain(1, 2), 0.25), 2)
    path = tmp_path / "m.swm"
    save_model(str(path), tab)
    return path, path.read_text().splitlines()


def _with_key(line, key):
    return " ".join([str(i) for i in key] + line.split(" ")[2:])


@pytest.mark.parametrize(
    "kind, edit",
    [
        ("sym", lambda r: [_with_key(r[0], (0, 4))] + r[1:]),  # index past the last cell
        ("sym", lambda r: [_with_key(r[0], (0, -1))] + r[1:]),  # negative index
        ("sym", lambda r: [r[0], _with_key(r[1], (1, 0))] + r[2:]),  # key not sorted
        ("sym", lambda r: [r[1], r[0]] + r[2:]),  # records out of order
        ("sym", lambda r: [r[0], r[0]] + r[2:]),  # repeated record
        ("antisym", lambda r: [_with_key(r[0], (0, 0))] + r[1:]),  # shared cell
        ("sym", lambda r: r[:-1]),  # an entry missing, header count matching
        ("sym", lambda r: [r[0].rsplit(" ", 1)[0] + " nan"] + r[1:]),  # non-finite value
    ],
)
def test_load_rejects_malformed_records(tmp_path, kind, edit):
    path, lines = _saved_lines(tmp_path, kind)
    records = edit(lines[12:])
    lines[11] = f"entries {len(records)}"
    path.write_text("\n".join(lines[:12] + records) + "\n")
    with pytest.raises(ConfigError):
        load_model(str(path))


# Digests of N=3 models, keyed by (kind, smooth width, d, delta), recorded
# when format 3 dropped the directions: each file is its format-2 file with
# line 1 changed and, for antisym-c2, each record's d direction fields
# dropped. Any drift in the candidates, the choice, the corner values or the
# stored quotients changes the bytes.
PINNED_MODEL_SHA256 = {
    (MODE_PROJECTED, None, 2, 0.25):
        "29c9deea7fc23d524f4e99d61ac8047fbc8d444947ae928d57ea426205f87f1a",
    (MODE_PROJECTED, 0.125, 2, 0.25):
        "3a171ab60a92282b128c0ecdbb9c4590971e68c3fd2907122395689e6be9df97",
    ("sym", None, 2, 0.25):
        "8814bce0879eb0fa9903701cd81d75a568bba314a64c89729c9cda949b1a322c",
    ("sym", 0.125, 2, 0.25):
        "a3eb6266bebc85c264b6d71d819acb7b1611f9f8b52df8a6f5f29b54a140940b",
    (MODE_RANK, None, 2, 0.25):
        "a318df8f56599a4b092e95419bf457a61aebd01f789958e4ac0db76221faa4b7",
    (MODE_PROJECTED, None, 1, 0.125):
        "dd7aa1283a2e089291e590c42c9f0a36f67e385b0a0f5d363a81655ffd6510cb",
}


@pytest.mark.parametrize(
    "kind, smooth_width, d, delta",
    list(PINNED_MODEL_SHA256),
    ids=["None", "0.125", "sym-None", "sym-0.125", "antisym-c1-None", "d1-None"],
)
def test_projected_model_bytes_are_pinned(tmp_path, kind, smooth_width, d, delta):
    spec = LatticeSpec.from_domain(unit_domain(d, 3), delta)
    if kind == "sym":
        f = builtin_target("gaussian-pair-sym", {})
        mode = MODE_SMOOTH if smooth_width is not None else MODE_INDICATOR
        tab = build_sym(f, spec, 3, mode=mode, smooth_width=smooth_width)
    else:
        f = builtin_target("vandermonde-gauss-antisym", {})
        tab = build_antisym(f, spec, 3, mode=kind, smooth_width=smooth_width)
    path = tmp_path / "m.swm"
    save_model(str(path), tab)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == PINNED_MODEL_SHA256[kind, smooth_width, d, delta]


# Digests of shapes the N = 3 pins leave out, keyed by (kind, N, d, cells per
# axis), recorded when format 3 dropped the directions, as above: one slot,
# two-digit indices, three axes and an empty strict wedge (N above the site
# count, "entries 0").
PINNED_SHAPE_SHA256 = {
    ("sym", 1, 2, 4): "d0ed402106767cab4740849f9fe7453d1637e454910b811e24a6902d705b775f",
    ("sym", 4, 1, 11): "685806ef1b9cafa2509e10789a7ecfe483a42b4ad2def45cd7671967e7e83906",
    (MODE_PROJECTED, 2, 3, 2): "38b90e9ac2932d3bad21ce6c2e7edc7ea877c933b5f74336ee275114fad21d4e",
    (MODE_RANK, 3, 1, 2): "93dfb49e0654f23c884186e0fe1146db7d33510a6504c5ec20863a0d86a32660",
}


@pytest.mark.parametrize(
    "kind, N, d, cells",
    list(PINNED_SHAPE_SHA256),
    ids=["sym-N1", "sym-N4-11-cells", "antisym-c2-d3", "antisym-c1-empty"],
)
def test_model_bytes_are_pinned_across_shapes(tmp_path, kind, N, d, cells):
    spec = LatticeSpec.from_domain(unit_domain(d, N), 1 / cells)
    assert spec.cells_per_dim == cells
    if kind == "sym":
        tab = build_sym(builtin_target("sum-coords"), spec, N)
    else:
        tab = build_antisym(builtin_target("vandermonde-gauss-antisym"), spec, N, mode=kind)
    path = tmp_path / "m.swm"
    save_model(str(path), tab)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SHAPE_SHA256[kind, N, d, cells]
    assert load_model(str(path)) == tab


# Digests of eval outputs on seeded streams, recorded before locate stopped
# building the permutation; the projected d = 2 ones were recorded again when
# directions became the maximin choice. The streams mix uniform points with
# points on cell faces (hi included) and configurations whose points share a
# cell.
PINNED_EVAL_SHA256 = {
    ("sym", 3, 1): "f6899f84737cb0928b3bcf51cf60c54f3df0015e5a5818a6bb0ddc51004de907",
    ("sym", 3, 2): "7bf745adbde389c1051c7a4ec8ed47b45724248a7eb2010b29ffdfebc9ef764d",
    ("sym", 4, 1): "58012891dcc37a6b06713581a74f13c4b3520de1e9f288931392cd7f715cddad",
    ("sym", 4, 2): "52d99485cba00642e5c0d1e29b8ade2e91ea9439092e700fc7d8acfb579fa5f7",
    (MODE_RANK, 3, 1): "27b71005d5a78870a2c3276c2312b0a3d8ea2689529ffcfa66f2115a2323f590",
    (MODE_RANK, 3, 2): "e940f1e5c06a3beebcd5ce50cf38820d07b775a7d0202b43b6026141ac63ed40",
    (MODE_RANK, 4, 1): "a75878984d73c53d4acd42b539d6c61678b5ce8a67c7e9c0c3a0ecffe1cb31b2",
    (MODE_RANK, 4, 2): "eb639ddcce83e7efb968a7c3688fdee9a6161a569b640c773037b700f470f40f",
    (MODE_PROJECTED, 3, 1): "27b71005d5a78870a2c3276c2312b0a3d8ea2689529ffcfa66f2115a2323f590",
    (MODE_PROJECTED, 3, 2): "69be85d4b8ff77ef4f878cab1d46a8d0bdc2e36d617a470279417598e906a132",
    (MODE_PROJECTED, 4, 1): "a75878984d73c53d4acd42b539d6c61678b5ce8a67c7e9c0c3a0ecffe1cb31b2",
    (MODE_PROJECTED, 4, 2): "49d8dfc95a52b282cd2e2d0db6aff948ba020e04facb50de11e68915ff815ebf",
}


def _pinned_stream(N, d, n, count, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    stream = []
    for k in range(count):
        rows = rng.random((N, d))
        if k % 8 in (1, 2):  # every coordinate on a cell face, hi included
            rows = rng.integers(0, n + 1, size=(N, d)) / n
        elif k % 8 in (3, 4):  # some coordinates on faces
            faces = rng.random((N, d)) < 0.5
            rows[faces] = rng.integers(0, n + 1, size=int(faces.sum())) / n
        elif k % 8 == 5:  # slot 1 shares slot 0's cell
            rows[1] = np.minimum((np.floor(rows[0] * n) + rng.random(d)) / n, 1.0)
        elif k % 8 == 6:  # slot 2 repeats slot 0
            rows[2] = rows[0]
        stream.append(Configuration.from_rows(rows.tolist()))
    return stream


@pytest.mark.parametrize("kind, N, d", list(PINNED_EVAL_SHA256))
def test_eval_outputs_are_pinned(kind, N, d):
    n = 16 if d == 1 else 4
    spec = LatticeSpec.from_counts(n, d, 0.0, 1.0)
    if kind == "sym":
        tab = build_sym(builtin_target("gaussian-pair-sym", {}), spec, N)
        evaluate = eval_sym
    else:
        tab = build_antisym(builtin_target("vandermonde-gauss-antisym", {}), spec, N, mode=kind)
        evaluate = eval_antisym
    values = [evaluate(tab, X) for X in _pinned_stream(N, d, n, 1000, 1000 * N + d)]
    digest = hashlib.sha256(np.array(values).tobytes()).hexdigest()
    assert digest == PINNED_EVAL_SHA256[kind, N, d]


# Digests of smooth eval outputs (sym and antisym-c2) on the same streams,
# keyed by (kind, N, d, cells per axis, delta/w): w = delta/4 on the dyadic
# lattices above, and w = delta/3 on 7 cells, where band ends and face
# weights are not exact.
PINNED_SMOOTH_EVAL_SHA256 = {
    ("sym", 3, 1, 16, 4): "66d339c3763b5d59e46ff6e1ef2add02e7c26049fdd9d664554f033bd27af478",
    ("sym", 3, 2, 4, 4): "d6f30d0d0a4f91a5ac69cf4fef1fbfa56c59672629c31515ed391a396d4a8060",
    ("sym", 4, 1, 16, 4): "73bc1203249e7a072e1db45248ca9d11b5ce5fa82b733a90b106567776b73a39",
    ("sym", 4, 2, 4, 4): "8d5d14132f758f6c2e9d813e62d218742479f292785cfcee1e2df066962ed79e",
    ("sym", 3, 2, 7, 3): "9de00a1d97104f896dc541c09aef9e3bbf67882045743b71499e2e8f0d430c1b",
    (MODE_PROJECTED, 3, 1, 16, 4): "d1af93e4a4a29e9f49b10ac4ec6a99550f0472e9f3dd56c792d9046f83055201",
    (MODE_PROJECTED, 3, 2, 4, 4): "e9e36fa9ebdbc66e8294a46e9bd45124de47ad1b8bdce5ae636f7cb701752d67",
    (MODE_PROJECTED, 4, 1, 16, 4): "c58035fd13ce4e56936678cf1e42e94dca4d270e72957d910d0c5f6f0a484ce3",
    (MODE_PROJECTED, 4, 2, 4, 4): "e19cba0249bfec166b3b2d6f6dc329906c8c33da05e9952c26477d3f5d22100c",
    (MODE_PROJECTED, 3, 2, 7, 3): "27dad72d372bbc6bc7da098b38276852b344adfc52d07a07f555741364be24ea",
}


@pytest.mark.parametrize("kind, N, d, n, per_w", list(PINNED_SMOOTH_EVAL_SHA256))
def test_smooth_eval_outputs_are_pinned(kind, N, d, n, per_w):
    spec = LatticeSpec.from_counts(n, d, 0.0, 1.0)
    w = spec.delta / per_w
    if kind == "sym":
        tab = build_sym(builtin_target("gaussian-pair-sym", {}), spec, N, mode=MODE_SMOOTH,
                        smooth_width=w)
        evaluate = eval_sym
    else:
        tab = build_antisym(builtin_target("vandermonde-gauss-antisym", {}), spec, N, mode=kind,
                            smooth_width=w)
        evaluate = eval_antisym
    values = [evaluate(tab, X) for X in _pinned_stream(N, d, n, 1000, 1000 * N + d)]
    digest = hashlib.sha256(np.array(values).tobytes()).hexdigest()
    assert digest == PINNED_SMOOTH_EVAL_SHA256[kind, N, d, n, per_w]


# Digests of eval_sym_feature_form outputs on the first 300 configurations of
# the same streams, keyed by (N, d); the feature form is otherwise checked
# against eval_sym only to 1e-9.
PINNED_FEATURE_FORM_SHA256 = {
    (3, 1): "856348860cbf6e7c336c51b553bbd1f5e1027750b9fe04d1b2db96d0697fc053",
    (3, 2): "10d31d3961bc7754b4141ab0fa6cc3c27c82dd601900e7ff0ee71a4c76ef2491",
    (4, 1): "046cfdae40799139918b407523856f69545006f68b2a164c4c80da7cbe5cf5e4",
}


@pytest.mark.parametrize("N, d", list(PINNED_FEATURE_FORM_SHA256))
def test_feature_form_outputs_are_pinned(N, d):
    n = 16 if d == 1 else 4
    spec = LatticeSpec.from_counts(n, d, 0.0, 1.0)
    tab = build_sym(builtin_target("gaussian-pair-sym", {}), spec, N)
    values = [eval_sym_feature_form(tab, X) for X in _pinned_stream(N, d, n, 300, 1000 * N + d)]
    digest = hashlib.sha256(np.array(values).tobytes()).hexdigest()
    assert digest == PINNED_FEATURE_FORM_SHA256[N, d]


# A smooth antisym-c2 model (N=3, d=2, delta=1/3, w=1/12) in format 2, whose
# records stored directions from an earlier search. Format 3 derives the
# directions, so no format-3 file reproduces it; it stays as a version-2
# file, which the loader rejects with one line.
EARLIER_MODEL = os.path.join(os.path.dirname(__file__), "data", "antisym_c2_v2.swm")


def test_version_2_model_is_rejected(capsys):
    with open(EARLIER_MODEL) as handle:
        assert handle.readline() == "SYMWEDGE-MODEL 2\n"
    message = f"{EARLIER_MODEL}: not a SYMWEDGE-MODEL version-3 file"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_model(EARLIER_MODEL)
    assert main(["eval", EARLIER_MODEL, "--x", "[[0.1, 0.1], [0.5, 0.5], [0.9, 0.2]]"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _projected_lines(tmp_path):
    f = builtin_target("vandermonde-gauss-antisym")
    tab = build_antisym(f, LatticeSpec.from_domain(unit_domain(2, 2), 0.5), 2, mode=MODE_PROJECTED)
    path = tmp_path / "m.swm"
    save_model(str(path), tab)
    return path, path.read_text().splitlines()


def _with_direction(line, components):
    return " ".join(line.split(" ")[:5] + components)


# Directions a format-2 record carried after its coefficient, and the fault
# the format-2 loader found in each. A format-3 record has no direction
# field, so each is rejected by the field count, whatever its value.
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda r: _with_direction(r, ["0x0.0p+0", "0x0.0p+0"]), "not a unit vector"),
        (lambda r: _with_direction(r, ["0x1.0p+0", "0x1.0p+0"]), "not a unit vector"),
        (lambda r: _with_direction(r, ["nan", "0x1.0p+0"]), "not finite"),
        (lambda r: _with_direction(r, ["inf", "0x0.0p+0"]), "not finite"),
        (lambda r: _with_direction(r, ["0x1.0p+1000", "0x1.0p+1000"]), "not a unit vector"),
        # (0,0) -> (0,1) is orthogonal to (1, 0)
        (lambda r: _with_direction(r, ["0x1.0p+0", "0x0.0p+0"]), "projection test"),
        (lambda r: _with_direction(r, ["0x1.0p+0", "zz"]), "not a number"),
    ],
)
def test_load_rejects_bad_projected_directions(tmp_path, edit, message):
    path, lines = _projected_lines(tmp_path)
    assert lines[12].startswith("0 0 0 1 ") and lines[12].count(" ") == 4
    lines[12] = edit(lines[12])
    path.write_text("\n".join(lines) + "\n")
    want = f"bad record (7 fields, expected 5): {lines[12]!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
        load_model(str(path))


def test_load_rejects_a_tau_the_derived_directions_fail(tmp_path, capsys):
    # the build's own message for the first failing entry, on one line naming line 11
    spec = LatticeSpec.from_counts(4, 2, 0.0, 1.0)
    f = builtin_target("vandermonde-gauss-antisym")
    with pytest.raises(DirectionSearchError) as built:
        build_antisym(f, spec, 3, mode=MODE_PROJECTED, tau=0.514)
    path = tmp_path / "m.swm"
    save_model(str(path), build_antisym(f, spec, 3, mode=MODE_PROJECTED))
    lines = path.read_text().splitlines()
    assert lines[10] == f"tau {1e-3.hex()}"
    lines[10] = f"tau {0.514.hex()}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=f"^line 11: {re.escape(str(built.value))}$"):
        load_model(str(path))
    assert main(["eval", str(path), "--x", "[[0.1, 0.1], [0.5, 0.5], [0.9, 0.2]]"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: line 11: {built.value}\n")
    assert "for Z = ((0, 1), (2, 3), (3, 0))" in err


@pytest.mark.parametrize("tau", ["-", "0x0.0p+0", "-0x1.0p-10", "inf", "nan"])
def test_load_rejects_projected_model_without_positive_tau(tmp_path, tau):
    path, lines = _projected_lines(tmp_path)
    lines[10] = f"tau {tau}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="tau"):
        load_model(str(path))


@pytest.mark.parametrize("kind", ["sym", "antisym"])
def test_load_rejects_tau_on_other_kinds(tmp_path, kind):
    path, lines = _saved_lines(tmp_path, kind)
    assert lines[10] == "tau -"
    lines[10] = "tau 0x1.0p-10"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="tau"):
        load_model(str(path))


@pytest.mark.parametrize(
    "line, value, message",
    [
        (2, "d two", "'d' value 'two' on line 3"),
        (3, "N 0", "describe no wedge"),
        (3, "N 4000000", "describe no wedge"),  # the wedge outgrows 64 bits
        (3, "N x", "'N' value 'x' on line 4"),
        (4, "cells 4000000000", "describe no lattice"),
        (4, "cells 4000000000", "no lattice: 4.000e[+]9 cells .* lower 'cells' or 'd'"),
        (2, "d 100000000", "in d = 100000000 exceed .* lower 'cells' or 'd'"),
        (4, "cells 0", "describe no lattice"),
        (5, "delta 0x1p99999", "'delta' value '0x1p99999' on line 6"),
        (5, "delta -0x1.0p-1", "describe no lattice"),
        (6, "lo -inf", "describe no lattice"),
        (7, "hi inf", "describe no lattice"),
        (7, "hi -0x1.0p+0", "describe no lattice"),
        (9, "w x", "'w' value 'x' on line 10"),
        (4, "cells 3", "describe no lattice: 3 cells per axis"),
        (5, "delta 0x1.0p-2", "describe no lattice: 2 cells per axis"),
        (6, "lo -0x1.0p+0", "describe no lattice: 2 cells per axis"),
        (8, "mode smooth", "line 10"),  # smooth mode with 'w -'
        (9, "w 0x1.0p-3", "line 10"),  # indicator mode with a width
        (11, "entries many", "'entries' value 'many' on line 12"),
    ],
)
def test_load_rejects_malformed_header(tmp_path, line, value, message):
    path, lines = _projected_lines(tmp_path)
    assert lines[line].split(" ")[0] == value.split(" ")[0]
    lines[line] = value
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=message):
        load_model(str(path))


@pytest.mark.parametrize(
    "position, field", [(0, "x"), (0, "1.5"), (1, "1e3"), (2, "x"), (2, "0x1p99999")]
)
def test_load_rejects_non_numeric_record_fields(tmp_path, position, field):
    path, lines = _saved_lines(tmp_path, "sym")
    fields = lines[12].split(" ")
    fields[position] = field
    lines[12] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="not a number"):
        load_model(str(path))


# Spellings float.fromhex reads but float.hex never writes. "0.5" and "1"
# read as the hex digits 0x0.5 = 0.3125 and 0x1 = 1.0.
NOT_FLOAT_HEX = [
    "0.5", "1", "+0x1.0p-1", "0X1.0P-1", "-+0x1.0p-1", "\t0x1.0p-1", "0x1.0p-1\t",
    "\v0x1.0p-1", "0x1.0p-1\f", "infinity", "+inf", "NaN",
]


# Where a spelling goes: the coefficient of the fifth of six records (the
# second block at size 3); a direction field after it, as a format-2 record
# carried, which the field count rejects whatever its spelling; or the
# file's last field, the sixth record's coefficient.
@pytest.mark.parametrize("block", [3, persistence._BLOCK])
@pytest.mark.parametrize("position", ["coefficient", "direction", "last"])
@pytest.mark.parametrize("spelling", NOT_FLOAT_HEX)
def test_record_values_load_only_in_float_hex_spelling(
    tmp_path, monkeypatch, block, position, spelling
):
    monkeypatch.setattr(persistence, "_BLOCK", block)
    path, lines = _projected_lines(tmp_path)
    row = 17 if position == "last" else 16
    fields = lines[row].split(" ")
    if position == "direction":
        fields.append(spelling)
    else:
        fields[4] = spelling
    lines[row] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    message = f"record {lines[row]!r} has a field that is not a number in float.hex spelling"
    if position == "direction":
        message = f"bad record (6 fields, expected 5): {lines[row]!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_model(str(path))


def test_a_coefficient_in_float_hex_spelling_loads_as_written(tmp_path):
    path, lines = _projected_lines(tmp_path)
    fields = lines[16].split(" ")
    fields[4] = "0x1.0p-1"
    lines[16] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    assert load_model(str(path)).table[4] == 0.5  # record 4 is entry ((0, 1), (1, 1))


@pytest.mark.parametrize("line", [5, 6, 7, 9, 10], ids=["delta", "lo", "hi", "w", "tau"])
@pytest.mark.parametrize("spelling", ["0.5", "+0x1.0p-1", "0X1.0P-1", "0x1.0p-1 ", "\t0x1.0p-1"])
def test_header_floats_load_only_in_float_hex_spelling(tmp_path, line, spelling):
    path, lines = _projected_lines(tmp_path)
    if line == 9:
        lines[8] = "mode smooth"
    name = lines[line].split(" ")[0]
    lines[line] = f"{name} {spelling}"
    path.write_text("\n".join(lines) + "\n")
    message = f"bad {name!r} value {spelling!r} on line {line + 1}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_model(str(path))


@pytest.mark.parametrize(
    "kind, mode, w, message",
    [
        ("sym", "smooth", "-", "line 10"),
        ("sym", "smooth", "0x0.0p+0", "line 10"),
        ("sym", "smooth", "-0x1.0p-4", "line 10"),
        ("sym", "smooth", "0x1.0000000000001p-3", "line 10"),  # just above delta/2
        ("sym", "smooth", "inf", "line 10"),
        ("sym", "smooth", "nan", "line 10"),
        ("sym", "indicator", "0x1.0p-4", "line 10"),
        ("antisym", "smooth", "0x1.0p-3", "line 9"),
        ("antisym", "indicator", "0x1.0p-3", "line 10"),
    ],
)
def test_load_rejects_mode_width_mismatch(tmp_path, kind, mode, w, message):
    path, lines = _saved_lines(tmp_path, kind)  # indicator models at delta = 1/4
    assert lines[8:10] == ["mode indicator", "w -"]
    lines[8:10] = [f"mode {mode}", f"w {w}"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=message):
        load_model(str(path))


def test_load_accepts_smooth_width_up_to_half_delta(tmp_path):
    path, lines = _saved_lines(tmp_path, "sym")
    lines[8:10] = ["mode smooth", "w 0x1.0p-3"]
    path.write_text("\n".join(lines) + "\n")
    tab = load_model(str(path))
    assert (tab.kind, tab.smooth_width) == ("sym", 0.125)


def test_load_rejects_a_key_that_only_begins_with_the_expected_one(tmp_path):
    path, lines = _saved_lines(tmp_path, "sym")
    assert lines[14].startswith("0 2 ")
    lines[14] = "0 20 " + lines[14][4:]
    path.write_text("\n".join(lines) + "\n")
    message = r"'0 20 .*' is not the sym wedge entry \(\(0,\), \(2,\)\)"
    with pytest.raises(ConfigError, match=message):
        load_model(str(path))


@pytest.mark.parametrize("where", [12, 15, 22])
def test_a_blank_line_among_the_records_is_a_record(tmp_path, capsys, where):
    # after the entries line, between two records, or after the last one
    path, lines = _saved_lines(tmp_path, "sym")
    assert len(lines) == 22 and lines[11] == "entries 10"
    lines.insert(where, "")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=r"^expected 10 records, found 11$"):
        load_model(str(path))
    assert main(["eval", str(path), "--x", "[[0.1], [0.2]]"]) == 2
    err = capsys.readouterr().err
    assert err == "error: expected 10 records, found 11\n"


@pytest.mark.parametrize("spelling", ["00", "+0", "0_0", "٠"])
def test_load_takes_only_the_decimal_keys_save_model_writes(tmp_path, capsys, spelling):
    # int() reads each of these as 0; only save_model's own spelling loads
    path, lines = _saved_lines(tmp_path, "sym")
    assert lines[12].startswith("0 0 ")
    lines[12] = spelling + lines[12][1:]
    path.write_text("\n".join(lines) + "\n")
    assert main(["eval", str(path), "--x", "[[0.1], [0.2]]"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: record {lines[12]!r} is not the sym wedge entry ((0,), (0,))")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "line, spelling", [(2, "d 01"), (3, "N +2"), (3, "N ٢"), (4, "cells 0_4"), (11, "entries  10")]
)
def test_load_takes_only_the_header_integers_save_model_writes(tmp_path, capsys, line, spelling):
    # int() reads each of these as the saved number; only str(n) loads
    path, lines = _saved_lines(tmp_path, "sym")
    name, _, value = spelling.partition(" ")
    assert lines[line] == f"{name} {int(value)}"
    lines[line] = spelling
    path.write_text("\n".join(lines) + "\n")
    assert main(["eval", str(path), "--x", "[[0.1], [0.2]]"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: bad {name!r} value {value!r} on line {line + 1}\n"


def test_a_byte_that_is_not_utf8_names_the_file_and_line(tmp_path, capsys):
    path, _ = _saved_lines(tmp_path, "sym")
    data = bytearray(path.read_bytes())
    data[200] = 0xFF
    path.write_bytes(bytes(data))
    line = data[:200].count(b"\n") + 1
    assert line > 12  # a record line
    assert main(["eval", str(path), "--x", "[[0.1], [0.2]]"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: line {line} holds byte 0xff, which is not UTF-8\n"


@pytest.mark.parametrize("huge", ["N", "d"])
def test_huge_declared_shape_is_rejected_without_allocating(tmp_path, huge):
    # one cell per axis leaves one site and one wedge entry however large N
    # or d is; the record's field count rejects the file before its key is made
    shape = {"N": 1, "d": 1, huge: 10**6}
    lines = [
        "SYMWEDGE-MODEL 3", "kind sym", f"d {shape['d']}", f"N {shape['N']}", "cells 1",
        "delta 0x1.0p+0", "lo 0x0.0p+0", "hi 0x1.0p+0", "mode indicator", "w -", "tau -",
        "entries 1", "0 0x0.0p+0",
    ]
    path = tmp_path / "huge.swm"
    path.write_text("\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"^bad record \(2 fields, expected 1000001\)"):
            load_model(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _short_sym_file(path, N, first):
    # a d = 1, 2-cell sym model of N points, so N + 1 records: the first
    # record is given, and each of the others is the one field "x"
    lines = [
        "SYMWEDGE-MODEL 3", "kind sym", "d 1", f"N {N}", "cells 2", f"delta {0.5.hex()}",
        "lo 0x0.0p+0", f"hi {1.0.hex()}", "mode indicator", "w -", "tau -", f"entries {N + 1}",
        first, *["x"] * N,
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_records_too_short_for_the_file_are_rejected_before_any_key(tmp_path):
    # the first record is whole; the site numbers of the 1,501 x 1,500 wedge
    # are not made before the one-field second record is named
    first = "0 " * 1500 + "0x0.0p+0"
    path = _short_sym_file(tmp_path / "short.swm", 1500, first)
    assert path.stat().st_size == 6155
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"^bad record \(1 fields, expected 1501\): 'x'$"):
            load_model(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_records_too_short_for_the_file_name_a_field_count_before_a_key(tmp_path, capsys):
    # 21 records of 21 fields need at least 440 bytes; the file holds 89. The
    # first record's key is wrong, yet the one-field record after it is named.
    path = _short_sym_file(tmp_path / "short.swm", 20, "1 " * 20 + "0x0.0p+0")
    assert main(["eval", str(path), "--x", "[[0.1]]"]) == 2
    assert capsys.readouterr().err == "error: bad record (1 fields, expected 21): 'x'\n"
    # with room for the records, the key is named first, as in check order
    _short_sym_file(path, 20, "1 " * 20 + "0x0.0p+0" + "#" * 400)
    assert main(["eval", str(path), "--x", "[[0.1]]"]) == 2
    assert "is not the sym wedge entry ((0,), (0,)," in capsys.readouterr().err


def test_sym_models_hold_at_most_170_points(tmp_path, capsys):
    # the entry with every point in one site has repetition constant N!,
    # a float up to 170! and past the largest float at 171!
    spec = LatticeSpec.from_counts(1, 1, 1.0, 2.0)
    tab = build_sym(builtin_target("sum-coords"), spec, 170)
    path = tmp_path / "m.swm"
    save_model(str(path), tab)
    X = cfg(*[[1.5]] * 170)
    assert eval_sym(load_model(str(path)), X) == pytest.approx(170.0, rel=1e-12)
    lines = path.read_text().splitlines()
    lines[3], lines[12] = "N 171", "0 " + lines[12]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=r"^a sym model's N on line 4 is at most 170, not 171$"):
        load_model(str(path))
    assert main(["eval", str(path), "--x", str([[1.5]] * 171)]) == 2
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("N, d", [(10**6, 1), (2**64, 1), (2, 10**6)])
def test_huge_declared_empty_strict_wedge_loads_without_allocating(tmp_path, N, d):
    # one cell per axis leaves one site, so an antisym wedge of N >= 2 points
    # has no entries and no key is made however large N or d is
    lines = [
        "SYMWEDGE-MODEL 3", "kind antisym-c1", f"d {d}", f"N {N}", "cells 1",
        "delta 0x1.0p+0", "lo 0x0.0p+0", "hi 0x1.0p+0", "mode indicator", "w -", "tau -",
        "entries 0",
    ]
    path = tmp_path / "empty.swm"
    path.write_text("\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        tab = load_model(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert (tab.kind, tab.N, tab.spec.d, len(tab.table)) == ("antisym-c1", N, d, 0)


def test_huge_declared_empty_projected_wedge_loads_without_deriving(tmp_path):
    # no entry has a direction to derive, and N = 2**64 fits no array shape
    lines = [
        "SYMWEDGE-MODEL 3", "kind antisym-c2", "d 1", f"N {2**64}", "cells 1",
        "delta 0x1.0p+0", "lo 0x0.0p+0", "hi 0x1.0p+0", "mode indicator", "w -",
        f"tau {1e-3.hex()}", "entries 0",
    ]
    path = tmp_path / "empty.swm"
    path.write_text("\n".join(lines) + "\n")
    tab = load_model(str(path))
    assert (tab.kind, tab.N, tab.tau, len(tab.table)) == ("antisym-c2", 2**64, 1e-3, 0)


# Every shape of the round-trip fuzz whose wedge stays small: each kind, with
# and without a smooth width (antisym-c1 has none), N in 1..4, d in 1..3 and
# 1..4 cells per axis.
ROUND_TRIP_SHAPES = [
    (kind, smooth, N, d, cells)
    for kind in ("sym", MODE_RANK, MODE_PROJECTED)
    for smooth in (False, True)
    if not (smooth and kind == MODE_RANK)
    for N in range(1, 5)
    for d in range(1, 4)
    for cells in range(1, 5)
    if math.comb(cells**d + N - 1, N) <= 800
]
# Floats whose bits a text round trip could lose; every example holds them.
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1.7976931348623157e308]


@functools.cache
def _round_trip_base(kind, N, d, cells):
    spec = LatticeSpec.from_counts(cells, d, 0.0, 1.0)
    if kind == "sym":
        return build_sym(builtin_target("sum-coords"), spec, N)
    return build_antisym(builtin_target("vandermonde-gauss-antisym"), spec, N, mode=kind)


def _bits(tab):
    return (
        [c.hex() for c in tab.table.tolist()],
        None if tab.smooth_width is None else tab.smooth_width.hex(),
        None if getattr(tab, "tau", None) is None else tab.tau.hex(),
    )


@settings(max_examples=80, derandomize=True, database=None)
@given(
    shape=st.sampled_from(ROUND_TRIP_SHAPES),
    pool=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8),
    data=st.data(),
)
def test_save_load_round_trip_is_bit_exact(shape, pool, data):
    kind, smooth, N, d, cells = shape
    base = _round_trip_base(kind, N, d, cells)
    pool = SPECIAL_FLOATS + pool
    start = data.draw(st.integers(0, len(pool) - 1))
    table = np.array([pool[(start + k) % len(pool)] for k in range(len(base.table))])
    width = data.draw(st.floats(5e-324, base.spec.delta / 2)) if smooth else None
    tab = replace(base, table=table, smooth_width=width)
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "m.swm")
        save_model(path, tab)
        loaded = load_model(path)
        assert loaded == tab
        assert _bits(loaded) == _bits(tab)
        again = os.path.join(folder, "again.swm")
        save_model(again, loaded)
        with open(path, "rb") as first, open(again, "rb") as second:
            assert first.read() == second.read()


# The peak tracemalloc bytes of loading each model below, before the tables
# became arrays (Python 3.11.7, numpy 2.4.6): no load may peak higher.
LOAD_PEAK_BOUNDS = {"sym": 3_714_271, MODE_PROJECTED: 6_574_204}


@pytest.mark.parametrize(
    "kind, crlf",
    [("sym", False), (MODE_PROJECTED, False), ("sym", True), (MODE_PROJECTED, True)],
    ids=["sym", MODE_PROJECTED, "sym-crlf", f"{MODE_PROJECTED}-crlf"],
)
def test_load_peak_memory_stays_near_the_loaded_size(tmp_path, kind, crlf):
    # 20,825 sym or 18,424 smooth antisym-c2 records at N = 3, d = 2, seven
    # cells per axis. The tables take 0.17 MB (sym) and 0.45 MB (antisym-c2);
    # the peak is the file's bytes (twice while CRLF ends become LF), then
    # one block's parse.
    spec = LatticeSpec.from_counts(7, 2, 0.0, 1.0)
    if kind == "sym":
        tab = build_sym(builtin_target("gaussian-pair-sym"), spec, 3)
    else:
        f = builtin_target("vandermonde-gauss-antisym")
        tab = build_antisym(f, spec, 3, mode=kind, smooth_width=spec.delta / 4)
    assert len(tab.table) >= 10_000
    path = tmp_path / "m.swm"
    save_model(str(path), tab)
    if crlf:
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    tracemalloc.start()
    try:
        loaded = load_model(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == tab
    assert peak <= LOAD_PEAK_BOUNDS[kind], peak


@pytest.mark.parametrize("block", [3, persistence._BLOCK])
@pytest.mark.parametrize(
    "faults, message",
    [
        # every record is checked before the derived directions are, at the tau on line 11
        ({"tau": 1.5, 7: "key"}, r"^record '2 0 2 2 .*' is not the antisym-c2 wedge entry"),
        # per record: field count, then key, then numbers, then a finite coefficient
        ({5: "key", 4: "number"}, r"^record '0 0 1 2 0xg' has a field that is not a number"),
        ({6: "fields", 8: "key"}, r"^bad record \(4 fields, expected 5\)"),
        ({2: "coefficient", 3: "fields"}, r"^non-finite coefficient in record"),
        ({"tau": 1.5, 35: "number"}, r"^record '.*0xg' has a field that is not a number"),
        # the derived directions: the first failing entry in key order
        ({"tau": 1.5}, r"^line 11: no candidate direction clears tau = 1.5 for Z = \(\(0, 0\), "
                       r"\(0, 1\)\)"),
    ],
)
def test_a_file_with_several_faults_reports_the_first_in_check_order(
    tmp_path, monkeypatch, block, faults, message
):
    monkeypatch.setattr(persistence, "_BLOCK", block)
    f = builtin_target("vandermonde-gauss-antisym")
    tab = build_antisym(f, LatticeSpec.from_counts(3, 2, 0.0, 1.0), 2, mode=MODE_PROJECTED)
    path = tmp_path / "m.swm"
    save_model(str(path), tab)
    lines = path.read_text().splitlines()
    for k, fault in faults.items():
        if k == "tau":
            lines[10] = f"tau {fault.hex()}"
            continue
        fields = lines[12 + k].split(" ")
        if fault == "key":
            fields[0] = "2"
        elif fault == "number":
            fields[4] = "0xg"
        elif fault == "coefficient":
            fields[4] = "inf"
        else:
            fields.pop()
        lines[12 + k] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=message):
        load_model(str(path))


def test_load_builds_the_site_index_once_however_many_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(persistence, "_BLOCK", 3)
    f = builtin_target("vandermonde-gauss-antisym")
    tab = build_antisym(f, LatticeSpec.from_counts(3, 2, 0.0, 1.0), 2, mode=MODE_PROJECTED)
    path = str(tmp_path / "m.swm")
    save_model(path, tab)
    calls = []
    site_index = persistence._site_index
    monkeypatch.setattr(
        persistence, "_site_index", lambda spec: calls.append(spec) or site_index(spec)
    )
    assert load_model(path) == tab
    # 36 records in 12 blocks: one index, for the key texts
    assert len(calls) == 1


def test_save_and_load_ask_the_wedge_for_one_block_of_rows_at_a_time(tmp_path, monkeypatch):
    # neither holds the site numbers of every entry: save asks for one
    # record's rows per block of at most _WRITE_BYTES = 1, load for 3 (the
    # build made the derived directions, so the load does not make them)
    monkeypatch.setattr(persistence, "_BLOCK", 3)
    monkeypatch.setattr(persistence, "_WRITE_BYTES", 1)
    f = builtin_target("vandermonde-gauss-antisym")
    tab = build_antisym(f, LatticeSpec.from_counts(3, 2, 0.0, 1.0), 2, mode=MODE_PROJECTED)
    ranges = []
    rows = Wedge.rows
    monkeypatch.setattr(Wedge, "rows", lambda self, a, b: ranges.append((a, b)) or rows(self, a, b))
    path = str(tmp_path / "m.swm")
    save_model(path, tab)
    assert ranges == [(k, k + 1) for k in range(36)]
    ranges.clear()
    assert load_model(path) == tab
    assert ranges == [(k, k + 3) for k in range(0, 36, 3)]
