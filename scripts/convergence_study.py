"""Convergence study for the symmetric tabulators.

Sweeps every builtin symmetric target over a spacing ladder for a set of
(N, d) box configurations, writes one plot-ready CSV per target/config and
prints the fitted error slopes. First-order behavior shows up as slope
close to 1.
"""

import argparse
import os

from symwedge import (
    DomainSpec,
    LatticeSpec,
    build_sym,
    builtin_target,
    convergence_sweep,
    sample_configurations,
)

SYM_TARGETS = ("sum-coords", "gaussian-pair-sym", "product-smooth-sym")
CSV_HEADER = "delta,sup_error,bound,wedge_count,M,wall_time_s"


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="study_out", help="directory for CSV files")
    parser.add_argument("--samples", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--deltas",
        type=float,
        nargs="+",
        default=[0.5, 0.25, 0.125, 0.0625],
        help="strictly descending spacings, at least three",
    )
    parser.add_argument(
        "--configs",
        nargs="+",
        default=["2x1", "2x2", "3x1"],
        help="box configurations as NxD",
    )
    return parser.parse_args()


def main():
    args = parse_args()
    os.makedirs(args.out, exist_ok=True)
    configs = []
    for token in args.configs:
        N, _, d = token.partition("x")
        configs.append((int(N), int(d)))

    print(f"{'target':<22} {'N':>2} {'d':>2} {'L_hat':>10} {'slope':>8}")
    for N, d in configs:
        domain = DomainSpec(d=d, N=N, lo=0.0, hi=1.0)
        S = sample_configurations(domain, args.samples, args.seed)
        for name in SYM_TARGETS:
            f = builtin_target(name)
            result = convergence_sweep(
                f, args.deltas, S,
                lambda delta: build_sym(f, LatticeSpec.from_domain(domain, delta), N),
            )
            rows = [CSV_HEADER]
            for row in result.rows:
                rows.append(
                    f"{row.delta!r},{row.sup_error!r},{row.bound!r},"
                    f"{row.wedge_count},{row.M},{row.wall_time_s!r}"
                )
            slope_text = "undefined" if result.slope is None else repr(result.slope)
            rows.append(f"# slope={slope_text}")
            path = os.path.join(args.out, f"{name}_N{N}_d{d}.csv")
            with open(path, "w") as handle:
                handle.write("\n".join(rows) + "\n")
            shown = "undefined" if result.slope is None else f"{result.slope:8.4f}"
            print(f"{name:<22} {N:>2} {d:>2} {result.gradient_bound:10.4f} {shown:>8}")
    print(f"CSV files in {args.out}/")


if __name__ == "__main__":
    main()
