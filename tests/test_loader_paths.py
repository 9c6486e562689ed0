"""``load_model`` loads what the record-by-record text path loads.

A block of records laid out exactly as ``save_model`` writes it loads
through the byte path; any other block goes through
``persistence._check_records``, which checks it record by record. These
tests check that ``load_model`` loads what the frozen text path
(``helpers.load_model_as_text``) loads, or fails with its message, and that
every file the writer makes loads without a record-by-record check.
"""

import os
import tempfile
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import load_model_as_text
from test_model_mutation import BUILDS, mutate

from symwedge import (
    MODE_PROJECTED,
    MODE_RANK,
    MODE_SMOOTH,
    ConfigError,
    LatticeSpec,
    build_antisym,
    build_sym,
    builtin_target,
    load_model,
    save_model,
)
from symwedge import persistence


def _state(tab):
    """A tabulator's kind, shape, widths and value bits."""
    return (
        tab.kind,
        tab.N,
        tab.spec,
        tab.smooth_width,
        getattr(tab, "tau", None),
        tab.table.view(np.uint64).tolist(),
    )


def _outcome(load, path):
    """What loading ``path`` gives: the tabulator's state, or the ConfigError message."""
    try:
        return _state(load(str(path)))
    except ConfigError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def saved():
    return {name: _saved_bytes(build()) for name, build in BUILDS.items()}


def _saved_bytes(tab):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "m.swm")
        save_model(path, tab)
        with open(path, "rb") as handle:
            return handle.read()


@pytest.mark.parametrize("name", sorted(BUILDS))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_an_edited_model_loads_or_fails_as_the_text_path_says(saved, name, data):
    edited = mutate(saved[name], data.draw)
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "edited.swm")
        with open(path, "wb") as handle:
            handle.write(edited)
        assert _outcome(load_model, path) == _outcome(load_model_as_text, path)


def _text_path_only(*args):
    raise AssertionError("a block went through the record-by-record check")


def test_every_saved_model_loads_through_the_byte_path(saved, monkeypatch, tmp_path):
    monkeypatch.setattr(persistence, "_check_records", _text_path_only)
    for name, build in BUILDS.items():
        path = tmp_path / f"{name}.swm"
        path.write_bytes(saved[name])
        assert load_model(str(path)) == build()


SAVED = b" 0x1.f000000000000p+0\n"  # the first coefficient's text, after its key


def _irregular(tmp_path, edit):
    """A saved N=2, d=2 antisym-c2 model whose first coefficient is 1.9375
    (0x1.f000000000000p+0), and the same file after ``edit``."""
    spec = LatticeSpec.from_counts(3, 2, 0.0, 1.0)
    f = builtin_target("vandermonde-gauss-antisym")
    tab = build_antisym(f, spec, 2, mode=MODE_PROJECTED)
    table = tab.table.copy()
    table[0] = 1.9375
    tab = replace(tab, table=table)
    path = tmp_path / "m.swm"
    save_model(str(path), tab)
    text = path.read_bytes()
    assert SAVED in text
    path.write_bytes(edit(text))
    return tab, path


# Files save_model never writes that load to the saved tabulator all the same.
IRREGULAR = {
    "crlf": lambda text: text.replace(b"\n", b"\r\n"),
    "no-final-newline": lambda text: text[:-1],
    "short-mantissa": lambda text: text.replace(SAVED, b" 0x1.fp+0\n", 1),
    "uppercase-digits": lambda text: text.replace(SAVED, b" 0x1.F000000000000p+0\n", 1),
}


@pytest.mark.parametrize("edit", sorted(IRREGULAR))
def test_files_the_writer_never_makes_still_load_through_the_text_path(tmp_path, edit):
    tab, path = _irregular(tmp_path, IRREGULAR[edit])
    loaded = load_model(str(path))
    assert loaded == tab
    assert _state(loaded) == _state(tab)


@pytest.mark.parametrize(
    "edit, checked", [("crlf", []), ("no-final-newline", [11])], ids=["crlf", "no-final-newline"]
)
def test_only_a_block_the_writer_never_lays_out_is_checked_record_by_record(
    tmp_path, monkeypatch, edit, checked
):
    # 36 records in 12 blocks of 3: CRLF ends load as LF ends, and a missing
    # final newline leaves only the last block unlike the writer's layout
    monkeypatch.setattr(persistence, "_BLOCK", 3)
    tab, path = _irregular(tmp_path, IRREGULAR[edit])
    records = path.read_bytes().decode().splitlines()[12:]
    calls = []
    check = persistence._check_records

    def spy(lines, *rest):
        calls.append(records.index(lines[0]) // 3)
        assert lines == records[3 * calls[-1] : 3 * calls[-1] + 3]
        return check(lines, *rest)

    monkeypatch.setattr(persistence, "_check_records", spy)
    loaded = load_model(str(path))
    assert calls == checked
    assert loaded == tab
    assert _state(loaded) == _state(tab)


# Finite floats by sign, biased exponent and mantissa, and those whose text
# has a shape of its own: zeros, subnormals, the smallest normal, the largest.
FINITE_BITS = st.builds(
    lambda sign, biased, mantissa: sign << 63 | biased << 52 | mantissa,
    st.integers(0, 1),
    st.integers(0, 2046),
    st.integers(0, 2**52 - 1),
)
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308]
SHAPES = {
    "sym": lambda spec: build_sym(builtin_target("sum-coords"), spec, 2),
    "sym-smooth": lambda spec: build_sym(
        builtin_target("sum-coords"), spec, 2, mode=MODE_SMOOTH, smooth_width=spec.delta / 4
    ),
    "antisym-c1": lambda spec: build_antisym(
        builtin_target("vandermonde-gauss-antisym"), spec, 3, mode=MODE_RANK
    ),
    "antisym-c2": lambda spec: build_antisym(
        builtin_target("vandermonde-gauss-antisym"), spec, 2, mode=MODE_PROJECTED
    ),
}
SPECS = [LatticeSpec.from_counts(3, 2, 0.0, 1.0), LatticeSpec.from_counts(11, 1, -2.0, 3.0)]
BASES = {(name, k): build(spec) for name, build in SHAPES.items() for k, spec in enumerate(SPECS)}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    base=st.sampled_from(sorted(BASES)),
    patterns=st.lists(FINITE_BITS, min_size=1, max_size=12),
    data=st.data(),
)
def test_any_finite_table_round_trips_through_the_byte_path(base, patterns, data):
    tab = BASES[base]
    pool = np.array(patterns, dtype=np.uint64).view(np.float64).tolist() + EDGE_FLOATS
    start = data.draw(st.integers(0, len(pool) - 1))
    table = np.array([pool[(start + k) % len(pool)] for k in range(len(tab.table))])
    tab = replace(tab, table=table)
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "m.swm")
        save_model(path, tab)
        with mock.patch.object(persistence, "_check_records", _text_path_only):
            loaded = load_model(path)
    assert loaded == tab
    assert _state(loaded) == _state(tab)
