"""Command-line front end: build, eval, verify, sweep.

Exit codes: 0 success (verify: all checks passed), 1 verification failure,
2 usage or configuration error, 3 capacity error (enumeration caps, no
candidate direction clearing tau, memory).

Outputs are deterministic for a fixed seed: JSON/CSV files are written with
stable key order and shortest-round-trip float formatting, and wall-clock
fields in files are zeroed unless --timings is given (measured times always
go to stdout, which carries no byte-identity promise).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from typing import Any, Mapping, Sequence

from .approx_antisym import DEFAULT_TAU, MODE_PROJECTED, MODE_RANK, build_antisym, eval_antisym
from .approx_sym import (
    MODE_INDICATOR,
    MODE_SMOOTH,
    SymmetricTabulator,
    build_sym,
    delta_for_epsilon,
    epsilon_density_limit,
    feature_budget_bound,
    eval_sym,
)
from .core import (
    Configuration,
    DomainSpec,
    Symmetry,
    TargetFunction,
    _finite_number,
    builtin_target,
)
from .errors import (
    CapacityError,
    ConfigError,
    DirectionSearchError,
    SymwedgeError,
)
from .harness import (
    SampleSet,
    VerificationReport,
    convergence_sweep,
    gradient_bound_estimate,
    run_verification,
    sample_configurations,
)
from .lattice import DEFAULT_WEDGE_CAP, LatticeSpec, _check_wedge_cap
from .persistence import (
    KIND_PROJECTED,
    KIND_RANK,
    KIND_SYM,
    KINDS,
    load_model,
    read_text,
    save_model,
    write_text_atomic,
)

__all__ = ["main", "ExperimentConfig"]

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_CONFIG = 2
EXIT_CAPACITY = 3

SWEEP_COLUMNS = "delta,sup_error,bound,wedge_count,M,wall_time_s"


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, as read from a config file."""

    kind: str
    d: int
    N: int
    lo: float
    hi: float
    target_name: str
    target_params: dict[str, Any]
    delta: float | None
    epsilon: float | None
    deltas: tuple[float, ...] | None
    smooth_width: float | None
    tau: float
    seed: int
    samples: int
    n_perms: int
    min_gap: float
    out: str
    model: str
    cap: int

    def domain(self) -> DomainSpec:
        return DomainSpec(d=self.d, N=self.N, lo=self.lo, hi=self.hi)

    def target(self) -> TargetFunction:
        """The named target; its declared symmetry must be the one ``kind`` tabulates."""
        f = builtin_target(self.target_name, self.target_params)
        want = Symmetry.SYMMETRIC if self.kind == KIND_SYM else Symmetry.ANTISYMMETRIC
        if f.declared_symmetry is not want:
            raise ConfigError(
                f"kind {self.kind!r} tabulates {want.value} targets; "
                f"{self.target_name!r} is {f.declared_symmetry.value}"
            )
        return f


# A config file's keys are the ExperimentConfig fields, with the target's
# name and params under one 'target' key.
_CONFIG_KEYS = frozenset(
    "target" if field.name.startswith("target_") else field.name
    for field in dataclasses.fields(ExperimentConfig)
)


def _require_int(raw: Mapping[str, Any], key: str, default: int, minimum: int) -> int:
    value = raw.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"config key {key!r} must be >= {minimum}, got {value}")
    return value


def _check_seed(seed: int, name: str) -> int:
    """Seeds key Philox generators, which take keys in [0, 2**128)."""
    if not 0 <= seed < 1 << 128:
        raise ConfigError(f"{name} must be >= 0 and < 2**128, got {seed}")
    return seed


def _optional_number(raw: Mapping[str, Any], key: str) -> float | None:
    if key not in raw:
        return None
    value = raw[key]
    number = _finite_number(value)
    if number is None:
        raise ConfigError(f"config key {key!r} must be a finite number, got {value!r}")
    return number


def _config_from(raw: dict[str, Any]) -> ExperimentConfig:
    """Validate a config file's JSON object; unknown keys are a hard error."""
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")

    kind = raw.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"config key 'kind' must be one of {KINDS}, got {kind!r}")
    d = _require_int(raw, "d", 0, 1) if "d" in raw else _missing("d")
    N = _require_int(raw, "N", 0, 1) if "N" in raw else _missing("N")

    lo = _optional_number(raw, "lo")
    hi = _optional_number(raw, "hi")
    lo = 0.0 if lo is None else lo
    hi = 1.0 if hi is None else hi
    if not lo < hi:
        raise ConfigError(f"need lo < hi, got [{lo}, {hi}]")

    target_raw = raw.get("target")
    if isinstance(target_raw, str):
        target_name, target_params = target_raw, {}
    elif isinstance(target_raw, dict):
        extra = set(target_raw) - {"name", "params"}
        if extra:
            raise ConfigError(f"unknown target key(s): {sorted(extra)}")
        target_name = target_raw.get("name")
        target_params = target_raw.get("params", {})
        if not isinstance(target_name, str):
            raise ConfigError("target name must be a string")
        if not isinstance(target_params, dict):
            raise ConfigError("target params must be an object")
    else:
        raise ConfigError("config key 'target' must be a name or {name, params}")

    delta = _optional_number(raw, "delta")
    epsilon = _optional_number(raw, "epsilon")
    if delta is not None and delta <= 0.0:
        raise ConfigError("delta must be positive")
    if epsilon is not None and epsilon <= 0.0:
        raise ConfigError("epsilon must be positive")
    if delta is not None and epsilon is not None:
        raise ConfigError("give exactly one of delta and epsilon, not both")

    deltas = None
    if "deltas" in raw:
        seq = raw["deltas"]
        if not isinstance(seq, list):
            raise ConfigError("config key 'deltas' must be a list of finite numbers")
        deltas = tuple(_finite_number(v) for v in seq)
        if None in deltas:
            raise ConfigError("config key 'deltas' must be a list of finite numbers")
        if len(deltas) < 3:
            raise ConfigError("'deltas' needs at least three spacings")
        if any(v <= 0.0 for v in deltas):
            raise ConfigError("'deltas' must be positive")
        if any(b >= a for a, b in zip(deltas, deltas[1:])):
            raise ConfigError("'deltas' must be strictly descending")

    smooth_width = _optional_number(raw, "smooth_width")
    if smooth_width is not None and smooth_width <= 0.0:
        raise ConfigError("smooth_width must be positive")
    if smooth_width is not None and kind == KIND_RANK:
        raise ConfigError("smoothing is not available for kind antisym-c1")

    tau = _optional_number(raw, "tau")
    if tau is not None and kind != KIND_PROJECTED:
        raise ConfigError(f"'tau' is for kind {KIND_PROJECTED}; remove it")
    tau = DEFAULT_TAU if tau is None else tau
    if tau <= 0.0:
        raise ConfigError("tau must be positive")

    min_gap = _optional_number(raw, "min_gap")
    min_gap = 0.05 if min_gap is None else min_gap
    if min_gap <= 0.0:
        raise ConfigError("min_gap must be positive")

    out = raw.get("out", "out")
    model = raw.get("model", "model.swm")
    if not isinstance(out, str) or not isinstance(model, str):
        raise ConfigError("'out' and 'model' must be strings")

    return ExperimentConfig(
        kind=kind,
        d=d,
        N=N,
        lo=lo,
        hi=hi,
        target_name=target_name,
        target_params=target_params,
        delta=delta,
        epsilon=epsilon,
        deltas=deltas,
        smooth_width=smooth_width,
        tau=tau,
        seed=_check_seed(_require_int(raw, "seed", 0, 0), "config key 'seed'"),
        samples=_require_int(raw, "samples", 10000, 1),
        n_perms=_require_int(raw, "n_perms", 8, 1),
        min_gap=min_gap,
        out=out,
        model=model,
        cap=_require_int(raw, "cap", DEFAULT_WEDGE_CAP, 1),
    )


def _missing(key: str):
    raise ConfigError(f"config key {key!r} is required")


def _num(x: float) -> dict[str, Any]:
    """Float leaf for JSON reports: decimal for humans, hex for exactness."""
    v = float(x)
    return {"dec": v, "hex": v.hex()}


def _config_echo(cfg: ExperimentConfig) -> dict[str, Any]:
    echo = dataclasses.asdict(cfg)
    echo["target"] = {"name": echo.pop("target_name"), "params": echo.pop("target_params")}
    return echo


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    updates: dict[str, Any] = {}
    if args.seed is not None:
        updates["seed"] = _check_seed(args.seed, "--seed")
    if args.out is not None:
        updates["out"] = args.out
    if args.cap is not None:
        if args.cap < 1:
            raise ConfigError(f"--cap must be >= 1, got {args.cap}")
        updates["cap"] = args.cap
    if not updates:
        return cfg
    return dataclasses.replace(cfg, **updates)


def _load_config(args: argparse.Namespace) -> tuple[ExperimentConfig, frozenset[str]]:
    """The config with the command-line overrides applied, and the keys the
    file gave (a key left out takes its default, so only the file shows it)."""
    path = args.config
    if not path:
        raise ConfigError("this command needs --config PATH")
    try:
        raw = json.loads(read_text(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"config {path} is nested too deeply") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return _apply_overrides(_config_from(raw), args), frozenset(raw)


def _check_spacing(cfg: ExperimentConfig, delta: float, spacing: str) -> None:
    """A 'smooth_width' must not exceed half the ``spacing`` ``delta``, and
    the wedge at ``delta`` must fit 'cap'; checked as soon as the spacing is
    known, before the work it sizes."""
    w = cfg.smooth_width
    if w is not None and w > delta / 2.0:
        raise ConfigError(f"'smooth_width' = {w} exceeds half the {spacing} {delta}")
    _check_wedge_cap(LatticeSpec.from_domain(cfg.domain(), delta), cfg.N, cfg.cap)


def _check_single_lattice(cfg: ExperimentConfig) -> None:
    """A single-lattice command (build, verify) takes 'delta', or an accuracy
    'epsilon' below the density limit, and no 'deltas'. An explicit 'delta'
    must fit the smoothing width and the cap."""
    if cfg.deltas is not None:
        raise ConfigError("'deltas' is for sweep; this command takes 'delta' or 'epsilon'")
    if cfg.delta is not None:
        _check_spacing(cfg, cfg.delta, "spacing")
        return
    if cfg.epsilon is None:
        raise ConfigError("config needs 'delta' or 'epsilon' for this command")
    limit = epsilon_density_limit(cfg.N, cfg.d)
    if cfg.epsilon >= limit:
        raise ConfigError(
            f"epsilon = {cfg.epsilon} is not below the density limit {limit} "
            f"for N = {cfg.N}, d = {cfg.d}"
        )


def _resolve_delta(
    cfg: ExperimentConfig, f: TargetFunction, S: SampleSet | None = None
) -> tuple[float, float | None]:
    """Spacing for a config that passed ``_check_single_lattice``, and the
    gradient bound measured to get it (None for an explicit delta).

    An accuracy target is converted through the gradient bound measured on
    ``S``, or on the config's samples when ``S`` is not given, and the
    spacing it gives must fit the smoothing width.
    """
    if cfg.delta is not None:
        return cfg.delta, None
    if S is None:
        S = sample_configurations(cfg.domain(), cfg.samples, cfg.seed)
    L_hat = gradient_bound_estimate(f, S)
    if L_hat <= 0.0:
        raise ConfigError("measured gradient bound is zero; give 'delta' explicitly")
    delta = delta_for_epsilon(cfg.epsilon, cfg.N, cfg.d, L_hat)
    _check_spacing(cfg, delta, "spacing")
    return delta, L_hat


def _build_tabulator(cfg: ExperimentConfig, f: TargetFunction, delta: float):
    spec = LatticeSpec.from_domain(cfg.domain(), delta)
    if cfg.kind == KIND_SYM:
        mode = MODE_SMOOTH if cfg.smooth_width is not None else MODE_INDICATOR
        return build_sym(
            f, spec, cfg.N, mode=mode, smooth_width=cfg.smooth_width, cap=cfg.cap
        )
    mode = MODE_RANK if cfg.kind == KIND_RANK else MODE_PROJECTED
    return build_antisym(
        f, spec, cfg.N, mode=mode, tau=cfg.tau, smooth_width=cfg.smooth_width, cap=cfg.cap
    )


def cmd_build(args: argparse.Namespace) -> int:
    cfg, given = _load_config(args)
    start = time.perf_counter()
    f = cfg.target()
    for key in ("n_perms", "min_gap"):
        if key in given:
            raise ConfigError(f"{key!r} is for verify; remove it from a build config")
    _check_single_lattice(cfg)
    delta, L_hat = _resolve_delta(cfg, f)
    tab = _build_tabulator(cfg, f, delta)
    os.makedirs(cfg.out, exist_ok=True)
    model_path = os.path.join(cfg.out, cfg.model)
    save_model(model_path, tab)
    elapsed = time.perf_counter() - start

    M = tab.stats.wedge_count * (1 << cfg.N)
    if cfg.epsilon is not None:
        budget = feature_budget_bound(cfg.N, cfg.d, cfg.epsilon)
        budget_text = repr(budget)
    else:
        budget = None
        budget_text = "n/a (no accuracy target given)"
    summary = {
        "schema": "symwedge-build/1",
        "config": _config_echo(cfg),
        "delta": _num(delta),
        "entries": len(tab.table),
        "wedge_count": tab.stats.wedge_count,
        "M": M,
        "feature_budget_bound": _num(budget) if budget is not None else None,
        "coarse_lattice": tab.stats.coarse_lattice,
        "model": model_path,
        "wall_time_s": _num(elapsed if args.timings else 0.0),
    }
    write_text_atomic(
        os.path.join(cfg.out, "build.json"),
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
    )
    print(f"kind={cfg.kind} target={cfg.target_name} d={cfg.d} N={cfg.N}")
    print(f"delta={delta!r} wedge={tab.stats.wedge_count} entries={len(tab.table)} M={M}")
    if L_hat is not None:
        print(f"gradient_bound={L_hat!r} (measured, used to size the lattice)")
    print(f"feature_budget_bound={budget_text}")
    print(f"model written to {model_path}")
    print(f"wall_time_s={elapsed:.3f}")
    return EXIT_OK


def _parse_configuration(text: str) -> Configuration:
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration literal is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError("configuration literal is nested too deeply") from None
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ConfigError("configuration must be a list of coordinate rows")
    for row in rows:
        for c in row:
            if not isinstance(c, (int, float)) or isinstance(c, bool):
                raise ConfigError(
                    f"configuration coordinates must be JSON numbers, got {json.dumps(c)}"
                )
    try:
        return Configuration.from_rows(rows)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"bad configuration: {exc}") from exc


def cmd_eval(args: argparse.Namespace) -> int:
    if (args.x is None) == (args.x_file is None):
        raise ConfigError("give exactly one of --x and --x-file")
    tab = load_model(args.model)
    if args.x is not None:
        X = _parse_configuration(args.x)
    else:
        X = _parse_configuration(read_text(args.x_file))
    if isinstance(tab, SymmetricTabulator):
        value = eval_sym(tab, X)
    else:
        value = eval_antisym(tab, X)
    print(f"{value:.17g}")
    return EXIT_OK


def _report_json_text(report: VerificationReport, cfg: ExperimentConfig, wall_time_s: float) -> str:
    data = {
        "schema": "symwedge-report/1",
        "config": _config_echo(cfg),
        "target": report.target,
        "kind": report.kind,
        "d": report.d,
        "N": report.N,
        "delta": _num(report.delta),
        "samples": report.samples,
        "seed": report.seed,
        "gradient_bound": _num(report.gradient_bound),
        "sup_error": _num(report.sup_error),
        "argmax_configuration": [
            [_num(c) for c in p.coords] for p in report.argmax_configuration.points
        ],
        "bound": _num(report.bound),
        "bound_satisfied": report.bound_satisfied,
        "invariance_max_residual": _num(report.invariance_max_residual),
        "cauchy_residual": _num(report.cauchy_residual)
        if report.cauchy_residual is not None
        else None,
        "slope": None,  # one spacing fits no slope; the key keeps symwedge-report/1
        "wall_time_s": _num(wall_time_s),
        "passed": report.passed,
        "checks": [
            {
                "name": c.name,
                "value": _num(c.value),
                "threshold": _num(c.threshold),
                "passed": c.passed,
            }
            for c in report.checks
        ],
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _report_csv_text(report: VerificationReport) -> str:
    lines = ["check,value,threshold,passed"]
    for c in report.checks:
        lines.append(f"{c.name},{c.value!r},{c.threshold!r},{str(c.passed).lower()}")
    return "\n".join(lines) + "\n"


def cmd_verify(args: argparse.Namespace) -> int:
    cfg, _ = _load_config(args)
    start = time.perf_counter()
    f = cfg.target()
    _check_single_lattice(cfg)
    S = sample_configurations(cfg.domain(), cfg.samples, cfg.seed)
    delta, L_hat = _resolve_delta(cfg, f, S)
    if L_hat is None:
        L_hat = gradient_bound_estimate(f, S)
    tab = _build_tabulator(cfg, f, delta)
    report = run_verification(f, tab, S, L_hat, cfg.n_perms, cfg.min_gap)
    elapsed = time.perf_counter() - start
    os.makedirs(cfg.out, exist_ok=True)
    write_text_atomic(
        os.path.join(cfg.out, "report.json"),
        _report_json_text(report, cfg, elapsed if args.timings else 0.0),
    )
    write_text_atomic(os.path.join(cfg.out, "report.csv"), _report_csv_text(report))
    for c in report.checks:
        state = "PASS" if c.passed else "FAIL"
        print(f"{state} {c.name}: value={c.value!r} threshold={c.threshold!r}")
    print(f"sup_error={report.sup_error!r} bound={report.bound!r} delta={report.delta!r}")
    print(f"RESULT {'PASS' if report.passed else 'FAIL'}")
    print(f"reports written to {cfg.out}")
    print(f"wall_time_s={elapsed:.3f}")
    return EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg, _ = _load_config(args)
    if cfg.deltas is None:
        raise ConfigError("sweep needs a 'deltas' list in the config")
    f = cfg.target()
    for key in ("delta", "epsilon"):
        if getattr(cfg, key) is not None:
            raise ConfigError(f"sweep takes its spacings from 'deltas'; remove {key!r}")
    _check_spacing(cfg, cfg.deltas[-1], "finest spacing")
    S = sample_configurations(cfg.domain(), cfg.samples, cfg.seed)
    start = time.perf_counter()
    result = convergence_sweep(f, cfg.deltas, S, functools.partial(_build_tabulator, cfg, f))
    elapsed = time.perf_counter() - start
    lines = [SWEEP_COLUMNS]
    for row in result.rows:
        wall = row.wall_time_s if args.timings else 0.0
        lines.append(
            f"{row.delta!r},{row.sup_error!r},{row.bound!r},{row.wedge_count},{row.M},{wall!r}"
        )
    lines.append(f"# slope={'undefined' if result.slope is None else repr(result.slope)}")
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "sweep.csv")
    write_text_atomic(path, "\n".join(lines) + "\n")
    print(f"swept {len(result.rows)} spacings; slope="
          f"{'undefined' if result.slope is None else repr(result.slope)}")
    print(f"gradient_bound={result.gradient_bound!r}")
    print(f"CSV written to {path}")
    print(f"wall_time_s={elapsed:.3f}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symwedge",
        description="Tabulated approximators for symmetric and anti-symmetric functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON experiment config")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out", help="override the config output directory")
    common.add_argument("--cap", type=int, help="override the wedge capacity cap")
    common.add_argument(
        "--timings",
        action="store_true",
        help="write measured wall times into output files (breaks byte-identity)",
    )
    p_build = sub.add_parser("build", parents=[common], help="build a tabulator and save it")
    p_build.set_defaults(handler=cmd_build)
    p_eval = sub.add_parser("eval", help="evaluate a saved model")
    p_eval.add_argument("model", help="path to a saved model")
    p_eval.add_argument("--x", help="configuration literal, JSON rows")
    p_eval.add_argument("--x-file", dest="x_file", help="file with a JSON configuration")
    p_eval.set_defaults(handler=cmd_eval)
    p_verify = sub.add_parser("verify", parents=[common], help="build and verify a config")
    p_verify.set_defaults(handler=cmd_verify)
    p_sweep = sub.add_parser("sweep", parents=[common], help="convergence sweep over spacings")
    p_sweep.set_defaults(handler=cmd_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (CapacityError, DirectionSearchError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAPACITY
    except (SymwedgeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
