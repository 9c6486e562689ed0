"""The scripts under scripts/ and the benchmark's smoke test call the
public API; run each at tiny sizes."""

import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def run_script(name, *args, folder="scripts"):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, folder, name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_antisym_modes_demo_is_sign_exact():
    result = run_script(
        "antisym_modes_demo.py", "--N", "2", "--d", "1", "--deltas", "0.5", "0.25",
        "--samples", "50",
    )
    assert result.returncode == 0, result.stderr
    residuals = re.findall(r"sign_residual=(\S+)", result.stdout)
    assert len(residuals) == 4  # two spacings, two constructions
    assert all(r == "0.0" for r in residuals)


def test_convergence_study_writes_csvs(tmp_path):
    result = run_script(
        "convergence_study.py", "--out", str(tmp_path), "--samples", "100",
        "--deltas", "0.5", "0.25", "0.125", "--configs", "2x1",
    )
    assert result.returncode == 0, result.stderr
    paths = sorted(tmp_path.iterdir())
    assert len(paths) == 3  # one per builtin symmetric target
    for path in paths:
        lines = path.read_text().splitlines()
        assert lines[0] == "delta,sup_error,bound,wedge_count,M,wall_time_s"
        assert len(lines) == 5
        assert lines[-1].startswith("# slope=")


def test_benchmark_smoke_passes():
    # exercises build modes, the MODE_* constants, tab.table, tab.stats and
    # locate(...).wedge as benches/ uses them; writes only under .bench_out/
    result = run_script("smoke.py", folder="benches")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "smoke: all checks passed" in result.stdout
