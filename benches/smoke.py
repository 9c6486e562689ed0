"""Smoke test of the benchmark itself, at tiny shapes.

    python3 benches/smoke.py

Asserts that every metric BENCHMARK.json names is emitted with its unit,
that counts repeat exactly on a rerun with the same seed, that the output
checks fail on a model copy with one coefficient off by one ulp, and that
the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (pins the thread count before numpy loads)

symwedge = run.import_package()

from workloads import TINY, WORKLOADS, Ops, Query  # noqa: E402

SEED = 7
SMOKE = os.path.join(run.OUT, "smoke")


def declared() -> tuple[dict, dict, list]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
        [w["name"] for w in bench["workloads"]],
    )


def run_tiny(workload_cls, trace: bool) -> dict:
    result = run.measure(workload_cls, SEED, 0.0, trace, TINY,
                         os.path.join(SMOKE, workload_cls.name))
    line = json.loads(run.result_line(result))
    assert line["correct"] and line["failed"] == 0, result["failure_notes"]
    assert line["attempted"] >= 1
    return line["metrics"]


def check_metrics() -> None:
    end_to_end, per_layer, names = declared()
    assert sorted(names) == sorted(WORKLOADS), names
    for name, cls in WORKLOADS.items():
        metrics = run_tiny(cls, trace=False)
        assert {k: v["unit"] for k, v in metrics.items()} == end_to_end, (name, metrics)
        assert all(v["value"] > 0 for v in metrics.values()), (name, metrics)
        first, second = run_tiny(cls, trace=True), run_tiny(cls, trace=True)
        assert {k: v["unit"] for k, v in first.items()} == per_layer, (name, first)
        for key, value in first.items():
            if value["unit"] != "s":
                assert second[key]["value"] == value["value"], (name, key, value, second[key])
        print(f"ok {name}: {len(metrics)} end-to-end and {len(first)} per-module metrics, "
              "counts repeat")


def perturb_copy(path: str, key, copy: str) -> None:
    """Copy a model file, moving the coefficient stored for ``key`` by one ulp."""
    flat = [str(i) for site in key for i in site]
    with open(path) as handle:
        lines = handle.read().splitlines()
    hits = 0
    for n, line in enumerate(lines):
        fields = line.split(" ")
        if fields[: len(flat)] == flat and len(fields) > len(flat):
            coeff = float.fromhex(fields[len(flat)])
            fields[len(flat)] = math.nextafter(coeff, math.inf).hex()
            lines[n] = " ".join(fields)
            hits += 1
    assert hits == 1, hits
    with open(copy, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def run_cycle(workload, ops: Ops) -> None:
    for _name, step in workload.steps():
        step(ops)


def check_perturbed() -> None:
    query = Query(os.path.join(SMOKE, "perturbed"), SEED, TINY)
    ops = Ops()
    query.setup(ops)
    run_cycle(query, ops)
    assert ops.failed == 0, ops.notes
    m = query.models[0]  # sym indicator: every input hits a stored entry
    X = symwedge.Configuration.from_rows(json.loads(m.cli_x))
    key = symwedge.locate(m.loaded.spec, X).wedge
    copy = os.path.join(query.workdir, "perturbed.swm")
    perturb_copy(m.path, key, copy)
    m.path = copy
    m.loaded = symwedge.load_model(copy)
    ops = Ops()
    run_cycle(query, ops)
    assert ops.failed > 0, "a one-ulp change to a model went unnoticed"
    print(f"ok perturbed {m.label}: failed_fraction {ops.failed / ops.attempted:.4g}")


def check_entry_point() -> None:
    """The script's last line is the result; without src/ it must refuse."""
    argv = [sys.executable, "benches/run.py", "--workload", "certify", "--seconds", "0"]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"], last
    assert last["correct"], proc.stdout

    bare = os.path.join(SMOKE, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "benches"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok entry point: result line in a checkout, refusal without src/")


if __name__ == "__main__":
    check_metrics()
    check_perturbed()
    check_entry_point()
    print("smoke: all checks passed")
