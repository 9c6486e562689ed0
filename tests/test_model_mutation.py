"""A byte-edited model file never crashes ``symwedge eval``.

Each example edits a saved model (overwrite bytes, delete a run, insert
bytes, swap two lines) and runs the CLI on it. The loader either accepts the
file, or rejects it with exit 2 and one line on stderr; no edit raises.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symwedge import (
    MODE_PROJECTED,
    MODE_RANK,
    MODE_SMOOTH,
    LatticeSpec,
    build_antisym,
    build_sym,
    builtin_target,
    save_model,
)
from symwedge.cli import main

SPEC = LatticeSpec.from_counts(3, 2, 0.0, 1.0)
W = SPEC.delta / 4
X = "[[0.2, 0.6], [0.7, 0.1]]"
SYM = builtin_target("gaussian-pair-sym")
ANTISYM = builtin_target("vandermonde-gauss-antisym")
BUILDS = {
    "sym": lambda: build_sym(SYM, SPEC, 2),
    "sym-smooth": lambda: build_sym(SYM, SPEC, 2, mode=MODE_SMOOTH, smooth_width=W),
    "antisym-c1": lambda: build_antisym(ANTISYM, SPEC, 2, mode=MODE_RANK),
    "antisym-c2-smooth": lambda: build_antisym(
        ANTISYM, SPEC, 2, mode=MODE_PROJECTED, smooth_width=W
    ),
}

HEX_DIGITS = b"0123456789abcdef"
# Bytes that spell numbers, keys and separators, mixed with arbitrary ones.
CHUNKS = st.one_of(
    st.binary(min_size=1, max_size=4),
    st.text(alphabet="0123456789abcdefpx.-+ \n", min_size=1, max_size=4).map(str.encode),
)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    folder = tmp_path_factory.mktemp("models")
    models = {}
    for name, build in BUILDS.items():
        path = folder / f"{name}.swm"
        save_model(str(path), build())
        models[name] = path.read_bytes()
    return folder, models


def mutate(data, draw):
    """One edit of ``data``, drawn with ``draw``. A "digit" edit overwrites
    one hex digit with another, which keeps the file well formed often
    enough to reach the loader's value checks, the direction check among them."""
    edit = draw(st.sampled_from(["overwrite", "delete", "insert", "swap", "digit"]))
    if edit == "digit":
        digits = [k for k, byte in enumerate(data) if byte in HEX_DIGITS]
        at = draw(st.sampled_from(digits))
        return data[:at] + bytes([draw(st.sampled_from(HEX_DIGITS))]) + data[at + 1 :]
    if edit == "swap":
        lines = data.split(b"\n")
        i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
        lines[i], lines[j] = lines[j], lines[i]
        return b"\n".join(lines)
    if edit == "insert":
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(CHUNKS) + data[at:]
    at = draw(st.integers(0, len(data) - 1))
    if edit == "overwrite":
        chunk = draw(CHUNKS)
        return data[:at] + chunk + data[at + len(chunk) :]
    return data[:at] + data[at + draw(st.integers(1, 16)) :]


@pytest.mark.parametrize("name", sorted(BUILDS))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_an_edited_model_loads_or_exits_2_with_one_line(saved, name, data):
    folder, models = saved
    path = folder / "edited.swm"
    path.write_bytes(mutate(models[name], data.draw))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", str(path), "--x", X])
    assert code in (0, 2)
    assert err.getvalue().count("\n") <= 1
    if code == 2:
        assert err.getvalue().startswith("error: ")
