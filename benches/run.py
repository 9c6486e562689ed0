"""symwedge benchmark: tabulate, certify and query workloads.

    python3 benches/run.py --workload tabulate --seed 1 --seconds 20 --trace 0
    python3 benches/run.py            # every workload, each in its own process

Run from the repository root; the package is imported from ``src/``. A run
sets up its inputs from ``--seed`` (several times, reporting the median
set-up time), then runs closed-loop cycles of the workload for ``--seconds``
and reports medians over cycles. With ``--trace 0`` the last line of stdout
is the JSON result with the end-to-end metrics; with ``--trace 1`` it holds
the per-module metrics of traced cycles, alternated with untraced cycles to
measure the tracing overhead. Lines above it are a readable report. Each run
also writes its full result, with machine info, under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

# One thread: pinned before numpy is imported, here and in child processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
# Speed probe: loop size, the seconds one loop is scaled to, the sampling
# interval, and the fewest samples a step's speed is averaged over.
PROBE_ITERATIONS = 400
PROBE_S = 0.001
PROBE_INTERVAL_S = 0.05
PROBE_WINDOW = 20
IMPORT_PROBE = "import symwedge.cli"


def import_package():
    """Import symwedge from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import symwedge
    except ImportError as exc:
        sys.exit(f"error: cannot import symwedge from {SRC}: {exc}")
    if not os.path.abspath(symwedge.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: symwedge was imported from {symwedge.__file__}, not {SRC}")
    return symwedge


def machine_info() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_in_fresh_interpreter() -> None:
    """Start an interpreter that imports the CLI, as each CLI user pays it."""
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(), cwd=ROOT, check=True)


def probe_loop() -> None:
    """A fixed pure-Python loop of the kind of work the package does: small
    tuples, sorting, dict updates and float maths. It never calls the
    package, so no change to the package can move it."""
    table = {}
    for i in range(PROBE_ITERATIONS):
        row = (float(i % 13), float(i % 5) * 0.5, float(i % 11) * 0.25)
        key = tuple(sorted(int(c) for c in row))
        table[key] = table.get(key, 0.0) + math.exp(-row[0] * row[1])


class SpeedProbe:
    """Machine speed, sampled while the workload runs.

    Every PROBE_INTERVAL_S a SIGALRM handler times ``probe_loop``. A step's
    calibrated time is its wall time, less the probe's own time, scaled to
    the speed at which the loop takes PROBE_S. The speed is the mean over
    the samples taken during the step, and over at least the last
    PROBE_WINDOW samples for a short step.
    """

    def __init__(self) -> None:
        self.durations: list[float] = []

    def _sample(self, _signum=None, _frame=None) -> None:
        start = time.perf_counter()
        probe_loop()
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        for _ in range(PROBE_WINDOW):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn) -> tuple[float, float, float]:
        """Run ``fn``, which returns the seconds of its timed part (or None
        for all of it). Returns (wall s, calibrated s, mean probe s)."""
        first = len(self.durations)
        begin = time.perf_counter()
        elapsed = fn()
        window = time.perf_counter() - begin
        if elapsed is None:
            elapsed = window
        inside = self.durations[first:]
        # the probe ran evenly over the window; take out its share of the timed part
        wall = elapsed - sum(inside) * elapsed / window
        speed = statistics.fmean(self.durations[-max(PROBE_WINDOW, len(inside)):])
        return wall, wall * PROBE_S / speed, speed


def measure(workload_cls, seed: int, seconds: float, trace: bool, shapes, workdir: str) -> dict:
    """One run of one workload; returns the full result.

    Every step is reported in wall seconds and in calibrated seconds (see
    ``SpeedProbe``). On a shared 2-vCPU VM the speed drifts by up to 2x over
    minutes; calibrated figures cancel that drift, so they are the ones
    gated.
    """
    from tracing import PER_MODULE, Tracer, installed
    from workloads import Ops

    workload = workload_cls(workdir, seed, shapes)
    ops = Ops()
    tracer = Tracer()
    setups, setups_wall = [], []
    plain, plain_wall, traced, per_cycle = [], [], [], []

    def set_up() -> None:
        import_in_fresh_interpreter()
        workload.setup(ops)

    with SpeedProbe() as probe:
        for _ in range(1 if trace else SETUP_REPEATS):
            wall, cal, _ = probe.timed(set_up)
            setups_wall.append(wall)
            setups.append(cal)
        start = time.perf_counter()
        while True:
            use_trace = trace and len(plain) > len(traced)
            if use_trace:
                tracer.reset_sums()
            cal, wall, speeds = {}, {}, []
            for name, step in workload.steps():
                with installed(tracer) if use_trace else contextlib.nullcontext():
                    wall[name], cal[name], speed = probe.timed(lambda: step(ops))
                speeds.append(speed)
            if use_trace:
                scale = PROBE_S / statistics.fmean(speeds)
                values = tracer.per_module()
                per_cycle.append({
                    name: values[name] * scale if unit == "s" else values[name]
                    for name, unit, _, _ in PER_MODULE
                })
                traced.append(cal)
            else:
                plain.append(cal)
                plain_wall.append(wall)
            done = time.perf_counter() - start >= seconds
            if done and (not trace or traced):
                break

    def medians(cycles):
        return {k: statistics.median(c[k] for c in cycles) for k in cycles[0]}

    def cycle_s(cycles):
        return statistics.median(sum(c.values()) for c in cycles)

    steps = medians(plain)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "probe_s": PROBE_S,
        "cycles": len(plain),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failure_notes": ops.notes,
        "cycles_calibrated_s": plain,
        "cycles_wall_s": plain_wall,
        "setup_calibrated_s": setups,
        "setup_wall_s": setups_wall,
        "named": {
            "setup_s": (statistics.median(setups), "s"),
            **workload.derived(steps),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "failed_fraction": (ops.failed / max(ops.attempted, 1), "ratio"),
        },
        "wall": {
            "setup_s": (statistics.median(setups_wall), "s"),
            **workload.derived(medians(plain_wall)),
        },
        "end_to_end": {
            "setup_s": (statistics.median(setups), "s"),
            "cycle_s": (cycle_s(plain), "s"),
            "leg_a_s": (steps[workload.leg_a], "s"),
            "leg_b_s": (steps[workload.leg_b], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
    }
    if trace:
        counts_repeat = all(
            c[name] == per_cycle[0][name]
            for c in per_cycle
            for name, unit, _, _ in PER_MODULE
            if unit != "s"
        )
        per_layer = {
            name: (
                statistics.median(c[name] for c in per_cycle) if unit == "s" else per_cycle[0][name],
                unit,
            )
            for name, unit, _, _ in PER_MODULE
        }
        per_layer["trace.spans"] = (tracer.span_count // len(traced), "count")
        per_layer["trace.overhead_s"] = (cycle_s(traced) - cycle_s(plain), "s")
        result["traced_cycles"] = len(traced)
        result["counts_repeat"] = counts_repeat
        result["per_layer"] = per_layer
        tracer.write(os.path.join(os.path.dirname(workdir), "spans.npz"))
    result["correct"] = ops.failed == 0 and result.get("counts_repeat", True)
    return result


def report_lines(result: dict) -> list[str]:
    lines = [
        f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
        f"{result['cycles']} untraced cycles, {result['attempted']} operations, "
        f"{result['failed']} failed",
    ]
    sections = ["named", "wall", "end_to_end"] + (["per_layer"] if result["trace"] else [])
    for section in sections:
        lines.append(f"  [{section}]")
        for name, (value, unit) in result[section].items():
            lines.append(f"  {name:<40} {value:>16.6g} {unit}")
    for note in result["failure_notes"]:
        lines.append(f"  FAILED {note}")
    return lines


def result_line(result: dict) -> str:
    section = "per_layer" if result["trace"] else "end_to_end"
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in result[section].items()
        },
    })


def run_all(args) -> int:
    """Every workload, one child process each, so peak RSS is per workload."""
    from workloads import WORKLOADS

    status = 0
    summary = {}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in summary.items()
            for metric, value in r["metrics"].items()
        },
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", "tabulate", "certify", "query"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if args.workload == "all":
        return run_all(args)

    from workloads import FULL, WORKLOADS

    info = machine_info()
    outdir = os.path.join(OUT, args.workload)
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     FULL, os.path.join(outdir, "work"))
    result["machine"] = info
    with open(os.path.join(outdir, f"result-seed{args.seed}-trace{args.trace}.json"), "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print("machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    print("\n".join(report_lines(result)))
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
