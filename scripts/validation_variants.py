#!/usr/bin/env python3
"""Sensitivity study: the three-group validation under alternative conventions.

The default pipeline compares curves as functions of the threshold value,
with groups drawn independently and the dependency injected into y only.
This script re-runs the study while toggling conventions that plausibly vary
between implementations of this kind of analysis:

  --share-base       all three groups reuse one x draw per repetition
  --dependent-both   the dependent group rewires its x columns too (the
                     first block becomes a near-clique)
  --rank-aligned     curves are compared at equal edge counts (filtration
                     level index) instead of equal threshold values
  --legacy-series    tail series with the first term's exponent halved and
                     the sum truncated after four terms (a hand-rolled
                     variant seen in the wild)

Useful for understanding how strongly the reported means depend on details
the standard description leaves open. Run with --grid to print a table over
all 16 combinations.
"""

import argparse
import itertools
import math
import sys

import numpy as np

from sparsecc import (
    KIND_COMPONENTS,
    KIND_LARGEST,
    SimConfig,
    WeightedGraph,
    cross_correlate,
    filtration_curves,
    group_curves,
    ks_pvalue,
    normalize_arrays,
    rep_rng,
    sup_distance,
)


def legacy_series(d: float) -> float:
    if d == 0:
        return 1.0
    total = math.exp(-d * d)
    for i in range(2, 5):
        total += (-1) ** (i - 1) * math.exp(-2.0 * i * i * d * d)
    return min(1.0, max(0.0, 2.0 * total))


def rank_curves(w: np.ndarray):
    """Component count and largest size indexed by edge count.

    Each merge of the exact filtration's log sits at its edge's rank among all
    node pairs in descending |w| order.
    """
    p = w.shape[0]
    _, _, events = filtration_curves(WeightedGraph(w))
    desc = np.sort(-np.abs(w[np.triu_indices(p, k=1)]))
    ranks = np.searchsorted(desc, -events.thresholds) + 1
    merged = np.searchsorted(ranks, np.arange(desc.size + 1), side="right")
    return p - merged, np.append(1, events.merged_sizes)[merged]


def run_study(cfg, share_base, dependent_both, rank_aligned, legacy):
    pv = legacy_series if legacy else ks_pvalue
    norm = math.sqrt(2.0 * (cfg.n_nodes - 1))
    sums = {}
    sq = {}
    for rep in range(cfg.n_reps):
        rng = rep_rng(cfg.seed, rep)
        if share_base:
            base = rng.standard_normal((cfg.n_obs, cfg.n_nodes))
            xs = [base, base, base.copy()]
        else:
            xs = [rng.standard_normal((cfg.n_obs, cfg.n_nodes)) for _ in range(3)]
        groups = []
        for g in range(3):
            x = xs[g]
            eps = rng.standard_normal((cfg.n_obs, cfg.n_nodes))
            y = x + cfg.noise_sd * eps
            if g == 2 and cfg.n_dependent:
                d = cfg.n_dependent
                y[:, :d] = x[:, [0]] + cfg.noise_sd * eps[:, :d]
                if dependent_both:
                    x = x.copy()
                    x[:, :d] = x[:, [0]] + cfg.noise_sd * rng.standard_normal(
                        (cfg.n_obs, d)
                    )
                    y[:, :d] = x[:, [0]] + cfg.noise_sd * eps[:, :d]
            groups.append(normalize_arrays(x, y))
        if rank_aligned:
            curves = [rank_curves(cross_correlate(ds, symmetrize=True).rho) for ds in groups]
            dists = {
                ("null_vs_null", k): int(np.abs(curves[0][i] - curves[1][i]).max())
                for i, k in enumerate(("count", "largest"))
            }
            dists.update(
                {
                    ("null_vs_dependent", k): int(
                        np.abs(curves[0][i] - curves[2][i]).max()
                    )
                    for i, k in enumerate(("count", "largest"))
                }
            )
        else:
            curves = [group_curves(ds) for ds in groups]
            dists = {}
            for tag, (a, b) in {"null_vs_null": (0, 1), "null_vs_dependent": (0, 2)}.items():
                for k, kind in (("count", KIND_COMPONENTS), ("largest", KIND_LARGEST)):
                    dists[(tag, k)] = sup_distance(curves[a][kind], curves[b][kind])
        for key, d in dists.items():
            p = pv(d / norm)
            sums[key] = sums.get(key, 0.0) + p
            sq[key] = sq.get(key, 0.0) + p * p
    out = {}
    for key in sums:
        mean = sums[key] / cfg.n_reps
        var = max(sq[key] / cfg.n_reps - mean * mean, 0.0)
        out[key] = (mean, math.sqrt(var * cfg.n_reps / max(cfg.n_reps - 1, 1)))
    return out


KEYS = [
    ("null_vs_null", "count"),
    ("null_vs_null", "largest"),
    ("null_vs_dependent", "count"),
    ("null_vs_dependent", "largest"),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--reps", type=int, default=200)
    ap.add_argument("--seed", type=int, default=515)
    ap.add_argument("--share-base", action="store_true")
    ap.add_argument("--dependent-both", action="store_true")
    ap.add_argument("--rank-aligned", action="store_true")
    ap.add_argument("--legacy-series", action="store_true")
    ap.add_argument("--grid", action="store_true", help="run all 16 combinations")
    args = ap.parse_args()

    cfg = SimConfig(n_reps=args.reps, seed=args.seed)
    combos = (
        itertools.product((False, True), repeat=4)
        if args.grid
        else [(args.share_base, args.dependent_both, args.rank_aligned, args.legacy_series)]
    )
    header = "share dep_both rank legacy | " + " | ".join(f"{a[:4]}/{b}" for a, b in KEYS)
    print(header)
    for share, both, rank, legacy in combos:
        res = run_study(cfg, share, both, rank, legacy)
        cells = " | ".join(f"{res[k][0]:.3f}+-{res[k][1]:.3f}" for k in KEYS)
        print(f"{int(share):5d} {int(both):8d} {int(rank):4d} {int(legacy):6d} | {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
