#!/usr/bin/env python3
"""Large-node-count smoke run: blocked, binned curves plus the two-group test.

Builds two synthetic groups at the requested node count, computes both
quantized filtration curves per group from one Prim pass over the row stream
``AbsWeightBlocks.row(u)`` (each weight row computed once, the dense pair
matrix never materialized), compares them, and reports timing and peak
memory.
"""

import argparse
import math
import resource
import sys
import time

from sparsecc import (
    AbsWeightBlocks,
    SimConfig,
    filtration_curves_binned,
    generate_null_group,
    ks_pvalue,
    rep_rng,
    sup_distance,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-nodes", type=int, default=25972)
    ap.add_argument("--n-obs", type=int, default=20)
    ap.add_argument("--bins", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=70)
    args = ap.parse_args()

    t0 = time.time()
    cfg = SimConfig(n_obs=args.n_obs, n_nodes=args.n_nodes, noise_sd=0.02,
                    n_reps=1, seed=args.seed)
    groups = [generate_null_group(cfg, rep_rng(cfg.seed, r)) for r in (0, 1)]
    print(f"generated 2 groups: n={args.n_obs}, p={args.n_nodes} "
          f"({time.time() - t0:.1f}s)")

    curve_sets = []
    for i, ds in enumerate(groups, 1):
        t1 = time.time()
        stream = AbsWeightBlocks(ds, symmetrize=True)
        curve_sets.append(filtration_curves_binned(stream, n_bins=args.bins))
        print(f"group {i} curves: {time.time() - t1:.1f}s "
              f"({curve_sets[-1][0].breakpoints.size} breakpoints)")

    norm = math.sqrt(2.0 * (args.n_nodes - 1))
    for k in (0, 1):
        d = sup_distance(curve_sets[0][k], curve_sets[1][k])
        print(f"{curve_sets[0][k].kind}: D={d}, d_normalized={d / norm:.4f}, "
              f"p={ks_pvalue(d / norm):.4g}")

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0**2
    print(f"total {time.time() - t0:.1f}s, peak rss {peak:.2f} GiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
