import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest

import symwedge.cli as cli
from symwedge import (
    Configuration,
    epsilon_density_limit,
    eval_antisym,
    eval_sym,
    load_model,
)


def write_config(tmp_path, name="cfg.json", **overrides):
    data = {
        "kind": "sym",
        "d": 1,
        "N": 2,
        "target": "sum-coords",
        "delta": 0.5,
        "out": str(tmp_path / "out"),
        "seed": 7,
        "samples": 400,
    }
    data.update(overrides)
    data = {k: v for k, v in data.items() if v is not None}
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def build_model(tmp_path, capsys, **overrides):
    config = write_config(tmp_path, **overrides)
    code, out, _ = run(capsys, "build", "--config", config)
    assert code == 0
    return os.path.join(str(tmp_path / "out"), "model.swm"), out


def test_build_summary_and_artifacts(tmp_path, capsys):
    model_path, out = build_model(tmp_path, capsys)
    assert "wedge=3" in out
    assert "M=12" in out
    assert "kind=sym target=sum-coords" in out
    assert os.path.exists(model_path)
    build = json.loads((tmp_path / "out" / "build.json").read_text())
    assert build["schema"] == "symwedge-build/1"
    assert build["M"] == 12
    assert build["delta"] == {"dec": 0.5, "hex": (0.5).hex()}
    assert build["wall_time_s"] == {"dec": 0.0, "hex": (0.0).hex()}


def test_build_creates_missing_out_dir(tmp_path, capsys):
    out = str(tmp_path / "deep" / "nested" / "dir")
    config = write_config(tmp_path, out=out)
    code, _, _ = run(capsys, "build", "--config", config)
    assert code == 0
    assert os.path.exists(os.path.join(out, "model.swm"))


def test_build_epsilon_route_reports_budget(tmp_path, capsys):
    config = write_config(tmp_path, delta=None, epsilon=0.3)
    code, out, _ = run(capsys, "build", "--config", config)
    assert code == 0
    assert "feature_budget_bound=" in out
    assert "n/a" not in out
    assert "gradient_bound=" in out


def test_build_epsilon_above_density_limit_is_config_error(tmp_path, capsys):
    # limit for N=2, d=1 is sqrt(2)/sqrt(2) = 1/2^(1/1)... computed by the
    # library; 1.1 is above it for every N, d on the unit box
    config = write_config(tmp_path, delta=None, epsilon=1.1)
    code, _, err = run(capsys, "build", "--config", config)
    assert code == 2
    assert "density limit" in err


def test_build_tiny_cap_exits_3(tmp_path, capsys):
    config = write_config(tmp_path, delta=0.125)
    code, _, err = run(capsys, "build", "--config", config, "--cap", "4")
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize(
    "overrides, message",
    [
        # about 1e300 cells: the count prints in scientific notation, not as 300 digits
        ({"delta": 1e-300}, "1.000e+300 cells per axis in d = 1 exceed the 64-bit site "
                            "range; use a larger delta or a smaller d"),
        # a wedge of about 1e4000 entries, named by its slots and sites
        ({"delta": 1e-6, "N": 1000}, "wedge of 1000 slots over 1000000 lattice sites "
                                     "exceeds 64-bit range"),
    ],
    ids=["cells", "wedge"],
)
def test_build_beyond_64_bits_exits_3_with_a_short_message(tmp_path, capsys, overrides, message):
    config = write_config(tmp_path, **overrides)
    code, out, err = run(capsys, "build", "--config", config)
    assert code == 3 and out == ""
    assert err == f"error: {message}\n"
    assert len(err) < 200


def test_build_unknown_config_key_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, granularity=0.5)
    code, _, err = run(capsys, "build", "--config", config)
    assert code == 2
    assert "granularity" in err


def test_build_span_too_wide_for_a_cell_count_exits_2(tmp_path, capsys):
    # (hi - lo)/delta overflows to inf; this was an OverflowError traceback
    config = write_config(tmp_path, lo=0.0, hi=1e308)
    code, out, err = run(capsys, "build", "--config", config)
    assert code == 2
    assert err.startswith("error:") and "no finite cell count" in err


def test_build_without_config_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "build")
    assert code == 2
    assert "--config" in err


def test_direction_search_failure_exits_3(tmp_path, capsys):
    # tau = 0.9 is unsatisfiable for the entry ((0,0),(0,1),(1,0)): its three
    # pairwise differences cannot all have |cos| >= 0.9 against one unit vector
    config = write_config(
        tmp_path, kind="antisym-c2", d=2, N=3,
        target="vandermonde-gauss-antisym", delta=0.5, tau=0.9,
    )
    code, _, err = run(capsys, "build", "--config", config)
    assert code == 3
    assert "direction" in err.lower()


def test_eval_matches_library_bit_for_bit(tmp_path, capsys):
    model_path, _ = build_model(tmp_path, capsys)
    tab = load_model(model_path)
    rng = np.random.Generator(np.random.Philox(19))
    for _ in range(100):
        rows = rng.random((2, 1)).tolist()
        code, out, _ = run(capsys, "eval", model_path, "--x", json.dumps(rows))
        assert code == 0
        want = eval_sym(tab, Configuration.from_rows(rows))
        assert float(out.strip()) == want


def test_eval_sym_prints_identical_string_under_permutation(tmp_path, capsys):
    model_path, _ = build_model(tmp_path, capsys)
    _, out_a, _ = run(capsys, "eval", model_path, "--x", "[[0.1], [0.7]]")
    _, out_b, _ = run(capsys, "eval", model_path, "--x", "[[0.7], [0.1]]")
    assert out_a == out_b


def test_eval_antisym_negates_under_swap(tmp_path, capsys):
    model_path, _ = build_model(
        tmp_path, capsys, kind="antisym-c1",
        target="vandermonde-gauss-antisym", delta=0.25,
    )
    tab = load_model(model_path)
    _, out_a, _ = run(capsys, "eval", model_path, "--x", "[[0.1], [0.7]]")
    _, out_b, _ = run(capsys, "eval", model_path, "--x", "[[0.7], [0.1]]")
    va, vb = float(out_a), float(out_b)
    assert va == -vb
    assert va == eval_antisym(tab, Configuration.from_rows([[0.1], [0.7]]))


def test_eval_x_file(tmp_path, capsys):
    model_path, _ = build_model(tmp_path, capsys)
    x_path = tmp_path / "x.json"
    x_path.write_text("[[0.25], [0.75]]")
    code, out, _ = run(capsys, "eval", model_path, "--x-file", str(x_path))
    assert code == 0
    _, inline, _ = run(capsys, "eval", model_path, "--x", "[[0.25], [0.75]]")
    assert out == inline


def test_eval_requires_exactly_one_input(tmp_path, capsys):
    model_path, _ = build_model(tmp_path, capsys)
    code, _, err = run(capsys, "eval", model_path)
    assert code == 2
    assert "exactly one" in err
    x_path = tmp_path / "x.json"
    x_path.write_text("[[0.2], [0.3]]")
    code, _, _ = run(
        capsys, "eval", model_path, "--x", "[[0.2], [0.3]]", "--x-file", str(x_path)
    )
    assert code == 2


def test_eval_checks_its_flags_before_reading_the_model(tmp_path, capsys):
    code, out, err = run(capsys, "eval", str(tmp_path / "absent.swm"))
    assert (code, out) == (2, "")
    assert err == "error: give exactly one of --x and --x-file\n"


def test_eval_out_of_domain_exits_2(tmp_path, capsys):
    model_path, _ = build_model(tmp_path, capsys)
    code, _, err = run(capsys, "eval", model_path, "--x", "[[0.2], [1.5]]")
    assert code == 2
    assert err.startswith("error:")


def test_eval_shape_mismatch_exits_2(tmp_path, capsys):
    model_path, _ = build_model(tmp_path, capsys)
    code, _, err = run(capsys, "eval", model_path, "--x", "[[0.2], [0.3], [0.4]]")
    assert code == 2
    assert "expects N = 2" in err


def test_eval_missing_model_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "eval", str(tmp_path / "absent.swm"), "--x", "[[0.2]]")
    assert code == 2
    assert "error:" in err


def test_eval_edited_model_key_exits_2(tmp_path, capsys):
    model_path, _ = build_model(tmp_path, capsys)
    with open(model_path) as handle:
        text = handle.read()
    with open(model_path, "w") as handle:
        handle.write(text.replace("\n0 1 ", "\n1 0 "))
    code, out, err = run(capsys, "eval", model_path, "--x", "[[0.2], [0.7]]")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def edit_model(path, old, new):
    with open(path) as handle:
        text = handle.read()
    assert old in text
    with open(path, "w") as handle:
        handle.write(text.replace(old, new, 1))


def assert_one_line_config_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def projected_model(tmp_path, capsys):
    return build_model(
        tmp_path, capsys, kind="antisym-c2", d=2, target="vandermonde-gauss-antisym"
    )[0]


def test_eval_zeroed_projected_direction_exits_2(tmp_path, capsys):
    model_path = projected_model(tmp_path, capsys)
    code, out, _ = run(capsys, "eval", model_path, "--x", "[[0.2, 0.2], [0.7, 0.7]]")
    assert code == 0 and float(out) != 0.0
    with open(model_path) as handle:
        (record,) = [line for line in handle if line.startswith("0 0 1 1 ")]
    fields = record.split(" ")
    edit_model(model_path, record, " ".join(fields[:5] + ["0x0.0p+0", "0x0.0p+0\n"]))
    code, out, err = run(capsys, "eval", model_path, "--x", "[[0.2, 0.2], [0.7, 0.7]]")
    assert_one_line_config_error(code, out, err)
    assert "0 0 1 1" in err and "unit vector" in err


def test_eval_version_1_model_exits_2(tmp_path, capsys):
    model_path, _ = build_model(
        tmp_path, capsys, kind="antisym-c1", target="vandermonde-gauss-antisym"
    )
    edit_model(model_path, "SYMWEDGE-MODEL 2\n", "SYMWEDGE-MODEL 1\n")
    code, out, err = run(capsys, "eval", model_path, "--x", "[[0.2], [0.7]]")
    assert_one_line_config_error(code, out, err)
    assert "not a SYMWEDGE-MODEL version-2 file" in err


def test_eval_model_with_oversized_cells_exits_2(tmp_path, capsys):
    model_path = projected_model(tmp_path, capsys)
    edit_model(model_path, "\ncells 2\n", "\ncells 4000000000\n")
    code, out, err = run(capsys, "eval", model_path, "--x", "[[0.2, 0.2], [0.7, 0.7]]")
    assert_one_line_config_error(code, out, err)
    assert "cells" in err and "64-bit" in err


def test_eval_model_with_non_integer_d_exits_2(tmp_path, capsys):
    model_path = projected_model(tmp_path, capsys)
    edit_model(model_path, "\nd 2\n", "\nd two\n")
    code, out, err = run(capsys, "eval", model_path, "--x", "[[0.2, 0.2], [0.7, 0.7]]")
    assert_one_line_config_error(code, out, err)
    assert "'d'" in err and "line 3" in err


def test_eval_smooth_mode_without_width_exits_2(tmp_path, capsys):
    model_path, _ = build_model(tmp_path, capsys)
    edit_model(model_path, "\nmode indicator\n", "\nmode smooth\n")
    code, out, err = run(capsys, "eval", model_path, "--x", "[[0.2], [0.7]]")
    assert_one_line_config_error(code, out, err)
    assert "line 10" in err


def test_eval_model_with_edited_delta_exits_2(tmp_path, capsys):
    # with delta 1/4, two cells no longer cover [0, 1]; the model evaluated
    # to half its true value instead of failing
    model_path = projected_model(tmp_path, capsys)
    edit_model(model_path, "\ndelta 0x1.0000000000000p-1\n", "\ndelta 0x1.0p-2\n")
    code, out, err = run(capsys, "eval", model_path, "--x", "[[0.2, 0.2], [0.7, 0.7]]")
    assert_one_line_config_error(code, out, err)
    assert "2 cells per axis" in err


@pytest.mark.parametrize(
    "literal",
    [
        "[[true], [0.7]]",
        "[[0.2], [false]]",
        '[["0.2"], [0.7]]',
        "[[null], [0.7]]",
        "[[[0.2]], [0.7]]",
        "[[1" + "0" * 400 + "], [0.7]]",  # an integer too large for a float
    ],
    ids=["true", "false", "string", "null", "nested", "huge-int"],
)
def test_eval_coordinates_must_be_json_numbers(tmp_path, capsys, literal):
    model_path, _ = build_model(tmp_path, capsys)
    code, out, err = run(capsys, "eval", model_path, "--x", literal)
    assert_one_line_config_error(code, out, err)
    assert "configuration" in err


@pytest.mark.parametrize(
    "literal, message",
    [
        ("[[NaN], [0.7]]", "non-finite coordinate"),
        ("[[0.2], [Infinity]]", "non-finite coordinate"),
        ("[[0.2], [0.3, 0.4]]", "share one dimension"),
        ("[[], []]", "at least one coordinate"),
        ("[]", "at least one point"),
    ],
    ids=["nan", "inf", "mixed-dimensions", "empty-rows", "no-rows"],
)
def test_eval_validates_parsed_coordinates(tmp_path, capsys, literal, message):
    model_path, _ = build_model(tmp_path, capsys)
    code, out, err = run(capsys, "eval", model_path, "--x", literal)
    assert_one_line_config_error(code, out, err)
    assert err.startswith("error: bad configuration: ") and message in err


def test_eval_accepts_integer_coordinates(tmp_path, capsys):
    model_path, _ = build_model(tmp_path, capsys)
    _, as_float, _ = run(capsys, "eval", model_path, "--x", "[[0.0], [1.0]]")
    code, as_int, _ = run(capsys, "eval", model_path, "--x", "[[0], [1]]")
    assert code == 0 and as_int == as_float


def test_eval_bad_json_exits_2(tmp_path, capsys):
    model_path, _ = build_model(tmp_path, capsys)
    code, _, err = run(capsys, "eval", model_path, "--x", "[[0.2], 0.3]")
    assert code == 2
    assert "configuration" in err


def test_verify_passes_and_writes_reports(tmp_path, capsys):
    config = write_config(tmp_path, samples=500)
    code, out, _ = run(capsys, "verify", "--config", config)
    assert code == 0
    assert "PASS sup_error_within_budget" in out
    assert "RESULT PASS" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["schema"] == "symwedge-report/1"
    assert report["passed"] is True
    assert report["sup_error"].keys() == {"dec", "hex"}
    assert float.fromhex(report["sup_error"]["hex"]) == report["sup_error"]["dec"]
    assert report["wall_time_s"] == {"dec": 0.0, "hex": (0.0).hex()}
    csv_lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "check,value,threshold,passed"
    assert all(line.endswith(",true") for line in csv_lines[1:])


def test_verify_reruns_are_byte_identical(tmp_path, capsys):
    config = write_config(tmp_path, samples=500)
    assert run(capsys, "verify", "--config", config)[0] == 0
    first = {
        name: (tmp_path / "out" / name).read_bytes()
        for name in ("report.json", "report.csv")
    }
    assert run(capsys, "verify", "--config", config)[0] == 0
    for name, blob in first.items():
        assert (tmp_path / "out" / name).read_bytes() == blob


def test_build_reruns_are_byte_identical(tmp_path, capsys):
    config = write_config(tmp_path)
    assert run(capsys, "build", "--config", config)[0] == 0
    first = {
        name: (tmp_path / "out" / name).read_bytes()
        for name in ("build.json", "model.swm")
    }
    assert run(capsys, "build", "--config", config)[0] == 0
    for name, blob in first.items():
        assert (tmp_path / "out" / name).read_bytes() == blob


def test_verify_failure_exits_1(tmp_path, capsys, monkeypatch):
    real = cli.run_verification

    def sabotaged(*args, **kwargs):
        report = real(*args, **kwargs)
        bad = dataclasses.replace(report.checks[0], threshold=-1.0)
        return dataclasses.replace(report, checks=(bad,) + report.checks[1:])

    monkeypatch.setattr(cli, "run_verification", sabotaged)
    config = write_config(tmp_path, samples=300)
    code, out, _ = run(capsys, "verify", "--config", config)
    assert code == 1
    assert "FAIL" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is False


@pytest.mark.parametrize(
    "raised, message",
    [(MemoryError("Unable to allocate 21.8 TiB for an array with shape (1000000000000, 3, 1)"),
      "Unable to allocate 21.8 TiB for an array with shape (1000000000000, 3, 1)"),
     (MemoryError(), "out of memory")],
    ids=["numpy", "bare"],
)
def test_out_of_memory_exits_3_with_one_line(tmp_path, capsys, monkeypatch, raised, message):
    def exhausted(*_args):
        raise raised

    monkeypatch.setattr(cli, "sample_configurations", exhausted)
    config = write_config(tmp_path, d=1, N=3, samples=10**12)
    code, out, err = run(capsys, "verify", "--config", config)
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_verify_epsilon_route(tmp_path, capsys):
    config = write_config(tmp_path, delta=None, epsilon=0.5, samples=2000, seed=73)
    code, _, _ = run(capsys, "verify", "--config", config)
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    # delta = eps / (sqrt(Nd) * L_hat) with L_hat almost exactly sqrt(2)
    assert report["delta"]["dec"] == pytest.approx(0.25, rel=1e-9)
    assert report["bound"]["dec"] == pytest.approx(0.5, rel=1e-9)


def test_verify_needs_exactly_one_accuracy_knob(tmp_path, capsys):
    config = write_config(tmp_path, delta=None)
    code, out, err = run(capsys, "verify", "--config", config)
    assert (code, out) == (2, "")
    assert err == "error: config needs 'delta' or 'epsilon' for this command\n"
    config = write_config(tmp_path, epsilon=0.3)
    code, out, err = run(capsys, "verify", "--config", config)
    assert (code, out) == (2, "")
    assert err == "error: give exactly one of delta and epsilon, not both\n"


@pytest.mark.parametrize("command", ["build", "verify"])
@pytest.mark.parametrize("epsilon", [epsilon_density_limit(2, 1), 0.9], ids=["at", "above"])
def test_epsilon_not_below_density_limit_exits_2(tmp_path, capsys, command, epsilon):
    config = write_config(tmp_path, delta=None, epsilon=epsilon)
    code, out, err = run(capsys, command, "--config", config)
    assert (code, out) == (2, "")
    limit = epsilon_density_limit(2, 1)
    assert err == (
        f"error: epsilon = {epsilon} is not below the density limit {limit} "
        "for N = 2, d = 1\n"
    )


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(delta=None), "config needs 'delta' or 'epsilon' for this command"),
        (dict(delta=None, epsilon=0.9),
         f"epsilon = 0.9 is not below the density limit {epsilon_density_limit(2, 1)} "
         "for N = 2, d = 1"),
    ],
    ids=["no-accuracy", "above-limit"],
)
def test_verify_checks_accuracy_before_sampling(tmp_path, capsys, monkeypatch, overrides, message):
    def no_sampling(*_args):
        raise AssertionError("verify sampled before checking its accuracy setting")

    monkeypatch.setattr(cli, "sample_configurations", no_sampling)
    config = write_config(tmp_path, **overrides)
    code, out, err = run(capsys, "verify", "--config", config)
    assert (code, out, err) == (2, "", f"error: {message}\n")


DELTAS = [0.5, 0.25, 0.125]


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        ("build", dict(deltas=DELTAS),
         "'deltas' is for sweep; this command takes 'delta' or 'epsilon'"),
        ("verify", dict(delta=None, epsilon=0.3, deltas=DELTAS),
         "'deltas' is for sweep; this command takes 'delta' or 'epsilon'"),
        ("sweep", dict(deltas=DELTAS), "sweep takes its spacings from 'deltas'; remove 'delta'"),
        ("sweep", dict(delta=None, epsilon=5.0, deltas=DELTAS),
         "sweep takes its spacings from 'deltas'; remove 'epsilon'"),
        ("build", dict(tau=0.7), "'tau' is for kind antisym-c2; remove it"),
        ("verify", dict(kind="antisym-c1", target="vandermonde-gauss-antisym", tau=1e-3),
         "'tau' is for kind antisym-c2; remove it"),
        ("sweep", dict(kind="antisym-c1", target="vandermonde-gauss-antisym", delta=None,
                       deltas=DELTAS, tau=0.7),
         "'tau' is for kind antisym-c2; remove it"),
        ("build", dict(n_perms=5), "'n_perms' is for verify; remove it from a build config"),
        ("build", dict(kind="antisym-c2", target="vandermonde-gauss-antisym", min_gap=0.05),
         "'min_gap' is for verify; remove it from a build config"),
    ],
    ids=["build-deltas", "verify-deltas", "sweep-delta", "sweep-epsilon", "build-sym-tau",
         "verify-c1-tau", "sweep-c1-tau", "build-n_perms", "build-min_gap"],
)
def test_keys_a_command_ignores_are_config_errors(tmp_path, capsys, command, overrides, message):
    config = write_config(tmp_path, **overrides)
    code, out, err = run(capsys, command, "--config", config)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["build", "verify", "sweep"])
@pytest.mark.parametrize(
    "kind, target, message",
    [
        ("sym", "vandermonde-sum-antisym",
         "kind 'sym' tabulates symmetric targets; 'vandermonde-sum-antisym' is antisymmetric"),
        ("antisym-c1", "gaussian-pair-sym",
         "kind 'antisym-c1' tabulates antisymmetric targets; 'gaussian-pair-sym' is symmetric"),
    ],
    ids=["sym-kind", "antisym-kind"],
)
def test_kind_and_target_symmetry_must_agree(tmp_path, capsys, command, kind, target, message):
    config = write_config(
        tmp_path, kind=kind, target=target, deltas=[0.5, 0.25, 0.125], samples=50
    )
    code, out, err = run(capsys, command, "--config", config)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_sweep_csv_shape(tmp_path, capsys):
    config = write_config(
        tmp_path, delta=None, deltas=[0.5, 0.25, 0.125], samples=600
    )
    code, out, _ = run(capsys, "sweep", "--config", config)
    assert code == 0
    assert "slope=" in out
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "delta,sup_error,bound,wedge_count,M,wall_time_s"
    assert len(lines) == 5
    assert lines[-1].startswith("# slope=")
    for line in lines[1:4]:
        delta, sup, bound, wedge, M, wall = line.split(",")
        assert int(M) == int(wedge) * 4  # 2^N with N = 2
        assert float(sup) <= float(bound) + 1e-12
        assert float(wall) == 0.0


def test_sweep_reruns_are_byte_identical(tmp_path, capsys):
    config = write_config(
        tmp_path, delta=None, deltas=[0.5, 0.25, 0.125], samples=400
    )
    assert run(capsys, "sweep", "--config", config)[0] == 0
    first = (tmp_path / "out" / "sweep.csv").read_bytes()
    assert run(capsys, "sweep", "--config", config)[0] == 0
    assert (tmp_path / "out" / "sweep.csv").read_bytes() == first


def test_sweep_requires_deltas_list(tmp_path, capsys):
    config = write_config(tmp_path)
    code, _, err = run(capsys, "sweep", "--config", config)
    assert code == 2
    assert "deltas" in err


def test_sweep_smooth_width_above_half_the_finest_spacing_exits_2(tmp_path, capsys, monkeypatch):
    def no_sampling(*_args):
        raise AssertionError("sampled before the config was checked")

    monkeypatch.setattr(cli, "sample_configurations", no_sampling)
    config = write_config(
        tmp_path, delta=None, deltas=[0.25, 0.125, 0.0625], smooth_width=0.05
    )
    code, out, err = run(capsys, "sweep", "--config", config)
    assert (code, out) == (2, "")
    assert err == "error: 'smooth_width' = 0.05 exceeds half the finest spacing 0.0625\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("build", {}),
        ("verify", {}),
        ("sweep", {"delta": None, "deltas": [0.5, 0.25, 0.125]}),  # the finest one is over
    ],
    ids=["build", "verify", "sweep"],
)
def test_wedge_above_the_cap_exits_3_before_sampling(
    tmp_path, capsys, monkeypatch, command, overrides
):
    def no_sampling(*_args):
        raise AssertionError("sampled before the cap was checked")

    monkeypatch.setattr(cli, "sample_configurations", no_sampling)
    config = write_config(tmp_path, **{"delta": 0.125, **overrides})  # 36 entries
    code, out, err = run(capsys, command, "--config", config, "--cap", "35")
    assert (code, out) == (3, "")
    assert err == "error: wedge has 36 entries, above the cap of 35; rerun with cap >= 36\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["build", "verify"])
def test_smooth_width_above_half_the_spacing_exits_2_before_sampling(
    tmp_path, capsys, monkeypatch, command
):
    def no_sampling(*_args):
        raise AssertionError("sampled before the config was checked")

    monkeypatch.setattr(cli, "sample_configurations", no_sampling)
    config = write_config(
        tmp_path, target="gaussian-pair-sym", N=3, delta=0.125, smooth_width=0.1, samples=20000
    )
    code, out, err = run(capsys, command, "--config", config)
    assert (code, out) == (2, "")
    assert err == "error: 'smooth_width' = 0.1 exceeds half the spacing 0.125\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["build", "verify"])
def test_smooth_width_above_half_the_epsilon_spacing_exits_2_before_building(
    tmp_path, capsys, monkeypatch, command
):
    def no_build(*_args, **_kwargs):
        raise AssertionError("built before the width was checked")

    monkeypatch.setattr(cli, "build_sym", no_build)
    config = write_config(tmp_path, delta=None, epsilon=0.3, smooth_width=0.4)
    code, out, err = run(capsys, command, "--config", config)
    assert (code, out) == (2, "")
    assert err.startswith("error: 'smooth_width' = 0.4 exceeds half the spacing ")
    assert not (tmp_path / "out").exists()


# SHA-256 of sweep.csv over deltas (1/2, 1/4, 1/8), 2,000 samples, seed 7.
PINNED_SWEEP_CSV_SHA256 = {
    ("sym", "product-smooth-sym", 4):
        "0b7a0eb9ea1bece7b4cd5f1896a95907f6b5b39414fec01577bc7de6f8a10580",
    ("antisym-c1", "vandermonde-gauss-antisym", 3):
        "0a908b6ac7fe0a7435f4e6fe532a1880793d590ddaaf6c84e2c18704179b12a8",
}


@pytest.mark.parametrize("kind, target, N", sorted(PINNED_SWEEP_CSV_SHA256))
def test_sweep_csv_bytes_are_pinned(tmp_path, capsys, kind, target, N):
    config = write_config(
        tmp_path, kind=kind, target=target, N=N, delta=None, deltas=[0.5, 0.25, 0.125],
        samples=2000, seed=7,
    )
    assert run(capsys, "sweep", "--config", config)[0] == 0
    digest = hashlib.sha256((tmp_path / "out" / "sweep.csv").read_bytes()).hexdigest()
    assert digest == PINNED_SWEEP_CSV_SHA256[(kind, target, N)]


@pytest.mark.parametrize("smooth_width", [None, 1 / 64], ids=["indicator", "smooth"])
@pytest.mark.parametrize("target", ["vandermonde-gauss-antisym", "vandermonde-sum-antisym"])
def test_sweep_projected_construction_converges_first_order(
    tmp_path, capsys, target, smooth_width
):
    config = write_config(
        tmp_path, kind="antisym-c2", target=target, d=2, N=2, delta=None,
        deltas=[0.25, 0.125, 0.0625], smooth_width=smooth_width, samples=2000, seed=4,
    )
    code, _, err = run(capsys, "sweep", "--config", config)
    assert code == 0, err
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    for line in lines[1:-1]:
        _, sup, bound, *_ = line.split(",")
        assert float(sup) <= float(bound)
    assert 0.8 <= float(lines[-1].removeprefix("# slope=")) <= 1.2


@pytest.mark.parametrize(
    "flag",
    [["--config", "missing.json"], ["--seed", "1"], ["--out", "elsewhere"], ["--cap", "1"],
     ["--timings"]],
    ids=["config", "seed", "out", "cap", "timings"],
)
def test_eval_takes_no_config_flags(tmp_path, capsys, flag):
    model_path, _ = build_model(tmp_path, capsys)
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", model_path, "--x", "[[0.2], [0.7]]", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_seed_and_out_overrides(tmp_path, capsys):
    config = write_config(tmp_path, samples=300)
    other = str(tmp_path / "elsewhere")
    code, _, _ = run(capsys, "verify", "--config", config, "--out", other, "--seed", "99")
    assert code == 0
    report = json.loads((tmp_path / "elsewhere" / "report.json").read_text())
    assert report["seed"] == 99
    assert not (tmp_path / "out").exists()


def test_config_with_both_delta_and_epsilon_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, epsilon=0.3)
    code, _, err = run(capsys, "build", "--config", config)
    assert code == 2
    assert "delta" in err and "epsilon" in err


def test_timings_flag_writes_nonzero_wall(tmp_path, capsys):
    config = write_config(tmp_path)
    code, _, _ = run(capsys, "build", "--config", config, "--timings")
    assert code == 0
    build = json.loads((tmp_path / "out" / "build.json").read_text())
    assert build["wall_time_s"]["dec"] > 0.0


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("build", {"kind": "antisym-c2", "target": "vandermonde-gauss-antisym", "tau": math.nan}),
        ("verify", {"kind": "antisym-c2", "target": "vandermonde-gauss-antisym", "tau": math.nan}),
        ("build", {"target": {"name": "gaussian-pair-sym", "params": {"width": math.inf}}}),
        ("build", {"lo": -math.inf}),
        ("build", {"smooth_width": math.nan}),
        ("verify", {"min_gap": math.inf}),
        ("sweep", {"delta": None, "deltas": [0.5, math.nan, 0.125]}),
    ],
    ids=["build-tau-nan", "verify-tau-nan", "width-inf", "lo-inf", "smooth-width-nan",
         "min-gap-inf", "deltas-nan"],
)
def test_non_finite_config_numbers_exit_2(tmp_path, capsys, command, overrides):
    config = write_config(tmp_path, **overrides)
    code, out, err = run(capsys, command, "--config", config)
    assert_one_line_config_error(code, out, err)
    assert "finite number" in err  # rejected at the config key, before any work
    assert not (tmp_path / "out").exists()


DEEP_JSON = "[" * 50000


def test_deeply_nested_x_exits_2(tmp_path, capsys):
    model_path, _ = build_model(tmp_path, capsys)
    code, out, err = run(capsys, "eval", model_path, "--x", DEEP_JSON)
    assert_one_line_config_error(code, out, err)
    assert "nested too deeply" in err
    x_path = tmp_path / "x.json"
    x_path.write_text(DEEP_JSON)
    code, out, err = run(capsys, "eval", model_path, "--x-file", str(x_path))
    assert_one_line_config_error(code, out, err)
    assert "nested too deeply" in err


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(DEEP_JSON)
    code, out, err = run(capsys, "build", "--config", str(path))
    assert_one_line_config_error(code, out, err)
    assert "nested too deeply" in err


def test_config_that_is_not_utf8_names_the_file_and_line(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{\n  "kind": "sym",\n  "target": "\xff"\n}\n')
    code, out, err = run(capsys, "build", "--config", str(path))
    assert_one_line_config_error(code, out, err)
    assert err == f"error: {path}: line 3 holds byte 0xff, which is not UTF-8\n"


def test_x_file_that_is_not_utf8_names_the_file_and_line(tmp_path, capsys):
    model_path, _ = build_model(tmp_path, capsys)
    x_path = tmp_path / "x.json"
    x_path.write_bytes(b"[[0.25],\n [0.75]] \xff\n")
    code, out, err = run(capsys, "eval", model_path, "--x-file", str(x_path))
    assert_one_line_config_error(code, out, err)
    assert err == f"error: {x_path}: line 2 holds byte 0xff, which is not UTF-8\n"


@pytest.mark.parametrize("command", ["build", "verify"])
def test_gaussian_width_whose_square_underflows_exits_2(tmp_path, capsys, command):
    config = write_config(
        tmp_path, target={"name": "gaussian-pair-sym", "params": {"width": 1e-200}}
    )
    code, out, err = run(capsys, command, "--config", config)
    assert_one_line_config_error(code, out, err)
    assert "width" in err


@pytest.mark.parametrize("key", ["d", "N"])
def test_target_shape_params_are_unknown_parameters(tmp_path, capsys, key):
    # a target takes only its own parameters; the shape is the config's
    config = write_config(tmp_path, target={"name": "sum-coords", "params": {key: 2}})
    code, out, err = run(capsys, "build", "--config", config)
    assert_one_line_config_error(code, out, err)
    assert err == f"error: unknown parameter(s) for target 'sum-coords': ['{key}']\n"


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_flag_below_one_exits_2(tmp_path, capsys, cap):
    config = write_config(tmp_path)
    code, out, err = run(capsys, "build", "--config", config, "--cap", cap)
    assert_one_line_config_error(code, out, err)
    assert err == f"error: --cap must be >= 1, got {cap}\n"


@pytest.mark.parametrize(
    "command, seed",
    [("verify", -1), ("verify", 2**128), ("build", -1)],
    ids=["verify-minus-1", "verify-2**128", "build-minus-1"],
)
def test_seed_flag_outside_philox_keys_exits_2(tmp_path, capsys, command, seed):
    config = write_config(tmp_path)
    code, out, err = run(capsys, command, "--config", config, "--seed", str(seed))
    assert_one_line_config_error(code, out, err)
    assert err == f"error: --seed must be >= 0 and < 2**128, got {seed}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "seed", [2**128 - 1, (2**128 - 1) ^ 0x9E3779B97F4A7C15], ids=["top", "top-permutation-key"]
)
def test_verify_takes_seeds_up_to_the_top_of_the_range(tmp_path, capsys, seed):
    # the second seed puts the permutation key of sample 0 at 2**128 - 1
    config = write_config(tmp_path, samples=50)
    code, _, err = run(capsys, "verify", "--config", config, "--seed", str(seed))
    assert (code, err) == (0, "")


@pytest.mark.parametrize("command", ["verify", "build"])
@pytest.mark.parametrize("seed", [2**128, 2**200], ids=["2**128", "2**200"])
def test_seed_key_outside_philox_keys_exits_2(tmp_path, capsys, command, seed):
    config = write_config(tmp_path, seed=seed)
    code, out, err = run(capsys, command, "--config", config)
    assert_one_line_config_error(code, out, err)
    assert err == f"error: config key 'seed' must be >= 0 and < 2**128, got {seed}\n"
    assert not (tmp_path / "out").exists()
