"""The three benchmark workloads: tabulate, certify and query.

Each workload makes its inputs from a seed in ``setup`` and then runs closed
loop cycles: one caller issues each operation when the previous one has
returned. ``steps`` lists the steps of one cycle; each returns its timed
seconds and counts every operation, and every failed check on its output, in
an ``Ops`` tally.
The package only ever receives the generated configs and coordinates.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import time
import traceback
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import symwedge
import symwedge.cli
from symwedge import (
    MODE_INDICATOR,
    MODE_PROJECTED,
    MODE_RANK,
    MODE_SMOOTH,
    DomainSpec,
    LatticeSpec,
    build_antisym,
    build_sym,
    builtin_target,
    load_model,
    save_model,
)

perf_counter = time.perf_counter

# Every workload's domain is the unit box.
LO, HI = 0.0, 1.0


@dataclass(frozen=True)
class Shapes:
    """Problem sizes. ``FULL`` is what the benchmark measures; the smoke test
    runs the same code at ``TINY``."""

    build_delta: float  # tabulate and query: N=3, d=2
    verify_delta: float  # certify verify: N=3, d=1
    sweep_deltas: tuple[float, ...]  # certify sweep: N=4, d=1
    samples: int  # certify: samples per verify and sweep
    n_perms: int  # certify: permutations per sample
    indicator_pairs: int  # query: (X, sigma X) pairs per indicator model
    smooth_pairs: int  # query: (X, sigma X) pairs per smooth model


FULL = Shapes(
    build_delta=1 / 8,
    verify_delta=1 / 32,
    sweep_deltas=(1 / 4, 1 / 8, 1 / 16),
    samples=2000,
    n_perms=8,
    indicator_pairs=5000,
    smooth_pairs=2000,
)
TINY = Shapes(
    build_delta=1 / 2,
    verify_delta=1 / 4,
    sweep_deltas=(1 / 2, 1 / 4, 1 / 8),
    samples=200,
    n_perms=8,
    indicator_pairs=50,
    smooth_pairs=50,
)


class Ops:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)

    def record_many(self, total: int, failed: int, note: str) -> None:
        self.attempted += total
        if failed:
            self.failed += failed
            if len(self.notes) < 20:
                self.notes.append(f"{note}: {failed} of {total}")


def cells(delta: float) -> int:
    return round((HI - LO) / delta)


def sym_entries(delta: float, N: int, d: int) -> int:
    """Closed-form wedge size C(n^d + N - 1, N)."""
    return math.comb(cells(delta) ** d + N - 1, N)


def antisym_entries(delta: float, N: int, d: int) -> int:
    """Closed-form count of distinct-cell wedge entries C(n^d, N)."""
    return math.comb(cells(delta) ** d, N)


def run_cli(argv: list[str]) -> tuple[int | None, str, float]:
    """Run ``symwedge.cli.main`` in this process with output captured.

    Returns (exit code or None if it raised, stdout text, seconds). The
    function is looked up on each call, so a traced wrapper is picked up.
    """
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = symwedge.cli.main(argv)
        except Exception:  # a traceback from the CLI is a failed operation
            elapsed = perf_counter() - start
            return None, traceback.format_exc(limit=3), elapsed
        elapsed = perf_counter() - start
    return code, out.getvalue() + err.getvalue(), elapsed


def write_json(path: str, data) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
    return path


class Workload:
    name = ""
    # The two steps of a cycle reported as leg_a_s and leg_b_s; any other
    # step only counts in cycle_s.
    leg_a = ""
    leg_b = ""

    def __init__(self, workdir: str, seed: int, shapes: Shapes) -> None:
        self.workdir = workdir
        self.seed = seed
        self.shapes = shapes

    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.seed))

    def fresh_dir(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)

    def setup(self, ops: Ops) -> None:
        raise NotImplementedError

    def steps(self) -> list[tuple[str, Callable[[Ops], float]]]:
        """One cycle, in order: (step name, run the step and return its
        timed seconds)."""
        raise NotImplementedError

    def derived(self, steps: dict[str, float]) -> dict[str, tuple[float, str]]:
        """Named metrics computed from median step times, for the report."""
        return {name: (value, "s") for name, value in steps.items()}


class Tabulate(Workload):
    """Two CLI builds at N=3, d=2: sym (gaussian-pair-sym) and antisym-c2
    (vandermonde-gauss-antisym). All work is build side: wedge enumeration,
    corner target calls, direction search and save_model."""

    name = "tabulate"
    leg_a = "build_sym_s"
    leg_b = "build_c2_s"
    N, d = 3, 2

    def setup(self, ops: Ops) -> None:
        self.fresh_dir()
        delta = self.shapes.build_delta
        width = 0.5 + float(self.rng().random())
        common = {"d": self.d, "N": self.N, "delta": delta, "seed": self.seed}
        self.builds = []
        for step, kind, target, expected in (
            ("build_sym_s", "sym", {"name": "gaussian-pair-sym", "params": {"width": width}},
             sym_entries(delta, self.N, self.d)),
            ("build_c2_s", "antisym-c2", "vandermonde-gauss-antisym",
             antisym_entries(delta, self.N, self.d)),
        ):
            out = os.path.join(self.workdir, step)
            config = write_json(
                os.path.join(self.workdir, f"{step}.json"),
                dict(common, kind=kind, target=target, out=out),
            )
            self.builds.append((step, config, out, expected))

    def steps(self) -> list[tuple[str, Callable[[Ops], float]]]:
        return [(build[0], partial(self._build, *build)) for build in self.builds]

    def _build(self, step: str, config: str, out: str, expected: int, ops: Ops) -> float:
        code, text, elapsed = run_cli(["build", "--config", config])
        if code != 0:
            ops.record(False, f"{step}: exit {code}: {text[-300:]}")
            return elapsed
        with open(os.path.join(out, "build.json")) as handle:
            entries = json.load(handle)["entries"]
        ops.record(
            entries == expected and os.path.isfile(os.path.join(out, "model.swm")),
            f"{step}: {entries} entries, closed form {expected}",
        )
        return elapsed


class Certify(Workload):
    """Two CLI verifies at N=3, d=1 (sym gaussian-pair-sym; antisym-c1
    vandermonde-gauss-antisym with the Cauchy check) and one CLI sweep of
    sym product-smooth-sym at N=4, d=1 over three spacings."""

    name = "certify"
    leg_a = "verify_s"
    leg_b = "sweep_s"

    def setup(self, ops: Ops) -> None:
        self.fresh_dir()
        s = self.shapes
        config_seed = int(self.rng().integers(0, 2**31))
        common = {"samples": s.samples, "n_perms": s.n_perms, "seed": config_seed}
        self.verifies = []
        for label, kind, target in (
            ("verify_sym", "sym", "gaussian-pair-sym"),
            ("verify_c1", "antisym-c1", "vandermonde-gauss-antisym"),
        ):
            config = write_json(
                os.path.join(self.workdir, f"{label}.json"),
                dict(common, kind=kind, target=target, d=1, N=3, delta=s.verify_delta,
                     out=os.path.join(self.workdir, label)),
            )
            # the d = 1 anti-symmetric report must carry the Cauchy check
            self.verifies.append((label, config, 4 if kind == "antisym-c1" else 3))
        self.sweep_out = os.path.join(self.workdir, "sweep")
        self.sweep_config = write_json(
            os.path.join(self.workdir, "sweep.json"),
            dict(common, kind="sym", target="product-smooth-sym", d=1, N=4,
                 deltas=list(s.sweep_deltas), out=self.sweep_out),
        )

    def steps(self) -> list[tuple[str, Callable[[Ops], float]]]:
        return [("verify_s", self._verify), ("sweep_s", self._sweep)]

    def _verify(self, ops: Ops) -> float:
        verify_s = 0.0
        for label, config, n_checks in self.verifies:
            code, text, elapsed = run_cli(["verify", "--config", config])
            verify_s += elapsed
            lines = text.splitlines()
            checks = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
            ok = (
                code == 0
                and len(checks) == n_checks
                and all(line.startswith("PASS ") for line in checks)
                and "RESULT PASS" in lines
            )
            ops.record(ok, f"{label}: exit {code}: {text[-300:]}")
        return verify_s

    def _sweep(self, ops: Ops) -> float:
        code, text, elapsed = run_cli(["sweep", "--config", self.sweep_config])
        ops.record(code == 0 and self._sweep_ok(), f"sweep: exit {code}: {text[-300:]}")
        return elapsed

    def _sweep_ok(self) -> bool:
        with open(os.path.join(self.sweep_out, "sweep.csv")) as handle:
            lines = handle.read().splitlines()
        rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
        N = 4
        expected = [sym_entries(delta, N, 1) for delta in self.shapes.sweep_deltas]
        return (
            [int(r["wedge_count"]) for r in rows] == expected
            and [int(r["M"]) for r in rows] == [w << N for w in expected]
            and lines[-1].startswith("# slope=")
            and lines[-1] != "# slope=undefined"
        )


def _sign(perm: list[int]) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions & 1 else 1


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@dataclass
class _Model:
    label: str
    smooth: bool
    antisym: bool
    path: str
    loaded: object  # the tabulator read back from ``path``
    stream: list  # X0, sigma0 X0, X1, sigma1 X1, ...
    signs: np.ndarray  # sign(sigma_k) for antisym, +1 for sym
    expected: np.ndarray  # the in-memory model's outputs on ``stream``
    cli_x: str  # JSON rows for the one-shot CLI eval
    cli_expected: float


class Query(Workload):
    """Four saved models at N=3, d=2: sym indicator, sym smooth (w =
    delta/4), antisym-c1, antisym-c2 smooth (w = delta/4). A cycle runs one
    CLI eval per model (load_model plus one eval), then a stream of seeded
    configurations and their permuted copies on each loaded model. No
    target is called inside a cycle."""

    name = "query"
    leg_a = "eval_indicator_s"
    leg_b = "eval_smooth_s"
    N, d = 3, 2

    def setup(self, ops: Ops) -> None:
        self.fresh_dir()
        s = self.shapes
        N, d = self.N, self.d
        spec = LatticeSpec.from_domain(DomainSpec(d=d, N=N, lo=LO, hi=HI), s.build_delta)
        w = s.build_delta / 4
        sym_target = builtin_target("gaussian-pair-sym")
        antisym_target = builtin_target("vandermonde-gauss-antisym")
        rng = self.rng()
        self.models = []
        for label, smooth, antisym, build in (
            ("sym_indicator", False, False,
             lambda: build_sym(sym_target, spec, N, mode=MODE_INDICATOR)),
            ("sym_smooth", True, False,
             lambda: build_sym(sym_target, spec, N, mode=MODE_SMOOTH, smooth_width=w)),
            ("antisym_c1", False, True,
             lambda: build_antisym(antisym_target, spec, N, mode=MODE_RANK)),
            ("antisym_c2_smooth", True, True,
             lambda: build_antisym(antisym_target, spec, N, mode=MODE_PROJECTED, smooth_width=w)),
        ):
            tab = build()
            expected_entries = (antisym_entries if antisym else sym_entries)(s.build_delta, N, d)
            ops.record(len(tab.table) == expected_entries,
                       f"{label}: {len(tab.table)} entries, closed form {expected_entries}")
            path = os.path.join(self.workdir, f"{label}.swm")
            save_model(path, tab)
            evaluate = symwedge.eval_antisym if antisym else symwedge.eval_sym
            pairs = s.smooth_pairs if smooth else s.indicator_pairs
            stream, signs = [], []
            for rows in (LO + (HI - LO) * rng.random((pairs, N, d))).tolist():
                perm = [int(i) for i in rng.permutation(N)]
                stream.append(symwedge.Configuration.from_rows(rows))
                stream.append(symwedge.Configuration.from_rows([rows[j] for j in perm]))
                signs.append(_sign(perm) if antisym else 1)
            cli_rows = (LO + (HI - LO) * rng.random((N, d))).tolist()
            self.models.append(_Model(
                label=label, smooth=smooth, antisym=antisym, path=path,
                loaded=load_model(path), stream=stream, signs=np.array(signs, dtype=np.float64),
                expected=np.array([evaluate(tab, X) for X in stream], dtype=np.float64),
                cli_x=json.dumps(cli_rows),
                cli_expected=evaluate(tab, symwedge.Configuration.from_rows(cli_rows)),
            ))

    def steps(self) -> list[tuple[str, Callable[[Ops], float]]]:
        return [
            ("eval_cold_s", self._eval_cold),
            ("eval_indicator_s", partial(self._streams, False)),
            ("eval_smooth_s", partial(self._streams, True)),
        ]

    def _eval_cold(self, ops: Ops) -> float:
        eval_cold_s = 0.0
        for m in self.models:
            code, text, elapsed = run_cli(["eval", m.path, "--x", m.cli_x])
            eval_cold_s += elapsed
            ok = code == 0
            if ok:
                try:
                    ok = _bits([float(text.strip())]) == _bits([m.cli_expected])
                except ValueError:
                    ok = False
            ops.record(bool(ok), f"{m.label} cli eval: exit {code}: {text.strip()[-200:]!r} "
                                 f"expected {m.cli_expected!r}")
        return eval_cold_s

    def _streams(self, smooth: bool, ops: Ops) -> float:
        total = 0.0
        for m in self.models:
            if m.smooth != smooth:
                continue
            evaluate = symwedge.eval_antisym if m.antisym else symwedge.eval_sym
            T = m.loaded
            start = perf_counter()
            outputs = [evaluate(T, X) for X in m.stream]
            total += perf_counter() - start
            self._check_stream(m, np.array(outputs, dtype=np.float64), ops)
        return total

    def _check_stream(self, m: _Model, outputs: np.ndarray, ops: Ops) -> None:
        # every output equals the in-memory model's bit for bit ...
        wrong = _bits(outputs) != _bits(m.expected)
        # ... and the permuted copy obeys the symmetry law
        base, permuted = outputs[0::2], outputs[1::2]
        law = np.abs(permuted - m.signs * base)
        broken = law > 1e-12 if m.smooth else law != 0.0
        wrong[1::2] |= broken
        ops.record_many(len(outputs), int(wrong.sum()), f"{m.label} stream")

    @property
    def calls(self) -> dict[str, int]:
        counts = {"eval_indicator_s": 0, "eval_smooth_s": 0}
        for m in self.models:
            counts["eval_smooth_s" if m.smooth else "eval_indicator_s"] += len(m.stream)
        return counts

    def derived(self, steps: dict[str, float]) -> dict[str, tuple[float, str]]:
        calls = self.calls
        return {
            "eval_cold_s": (steps["eval_cold_s"], "s"),
            "eval_indicator_per_s": (calls["eval_indicator_s"] / steps["eval_indicator_s"], "calls/s"),
            "eval_smooth_per_s": (calls["eval_smooth_s"] / steps["eval_smooth_s"], "calls/s"),
        }


WORKLOADS = {w.name: w for w in (Tabulate, Certify, Query)}
