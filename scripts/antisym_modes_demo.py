"""Side-by-side comparison of the two anti-symmetric constructions.

Builds the rank-product and the projected-direction tabulator for one
builtin anti-symmetric target, then reports for each spacing: the sampled
sup error against the spacing bound, the worst sign-equivariance residual
(expected exactly 0), and the worst disagreement between the two modes.
For d = 1 it also prints the permutation residual of the quotient
f / pair-difference product away from the diagonal.
"""

import argparse

import numpy as np

from symwedge import (
    MODE_PROJECTED,
    MODE_RANK,
    DomainSpec,
    LatticeSpec,
    Permutation,
    build_antisym,
    builtin_target,
    cauchy_factor_check,
    error_budget,
    eval_antisym_batch,
    gradient_bound_estimate,
    parity,
    sample_configurations,
)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--target", default="vandermonde-gauss-antisym")
    parser.add_argument("--N", type=int, default=3)
    parser.add_argument("--d", type=int, default=1)
    parser.add_argument("--deltas", type=float, nargs="+", default=[0.25, 0.125])
    parser.add_argument("--samples", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args()


def main():
    args = parse_args()
    f = builtin_target(args.target)
    domain = DomainSpec(d=args.d, N=args.N, lo=0.0, hi=1.0)
    S = sample_configurations(domain, args.samples, args.seed)
    fvals = f.batch(S.points)
    L = gradient_bound_estimate(f, S)
    print(f"target={args.target} N={args.N} d={args.d} L_hat={L:.6f}")

    # sample k's copy with point i taken from point orders[k, i], and its sign
    rng = np.random.Generator(np.random.Philox(args.seed + 1))
    orders = np.array([rng.permutation(args.N) for _ in range(S.count)])
    signs = np.array([parity(Permutation(tuple(order))) for order in orders.tolist()])
    permuted = S.points[np.arange(S.count)[:, None], orders]

    for delta in args.deltas:
        spec = LatticeSpec.from_domain(domain, delta)
        bound = error_budget(delta, args.N, args.d, L)
        tabs = {
            "rank": build_antisym(f, spec, args.N, mode=MODE_RANK),
            "projected": build_antisym(f, spec, args.N, mode=MODE_PROJECTED),
        }
        values = {}
        for label, tab in tabs.items():
            vals = values[label] = eval_antisym_batch(tab, S.points)
            sup = float(np.max(np.abs(fvals - vals)))
            sign_residual = float(np.max(np.abs(eval_antisym_batch(tab, permuted) - signs * vals)))
            print(
                f"  delta={delta:<8} {label:<10} sup_error={sup:.6f} "
                f"bound={bound:.6f} sign_residual={sign_residual!r}"
            )
        gap = float(np.max(np.abs(values["rank"] - values["projected"])))
        print(f"  delta={delta:<8} mode gap = {gap!r}")

    if args.d == 1:
        residual = cauchy_factor_check(f, S, min_gap=0.05)
        print(f"quotient permutation residual (min gap 0.05): {residual!r}")


if __name__ == "__main__":
    main()
