#!/usr/bin/env python3
"""Large-node-count smoke run: blocked, binned curves plus the two-group test,
then the CLI's streamed ``build``, ``compare`` and ``hgi``.

Builds two synthetic groups at the requested node count, computes both
quantized filtration curves per group from one Prim pass over the rows of an
``AbsWeightBlocks`` stream (each joining node's row computed against the nodes
still outside the tree only, so every pair once, and the dense pair matrix
never materialized), compares them, and reports timing and peak
memory. It then writes both groups to binary files and runs three CLI
commands on them, each in a child process: ``sparsecc build`` on the first
group, ``sparsecc compare`` (no permutations) on both, and ``sparsecc hgi``
with the first group as MZ and the second as DZ. For each it reports the
time, the rows written and the peak memory of that child alone.
"""

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import sparsecc
from sparsecc import (
    AbsWeightBlocks,
    SimConfig,
    filtration_curves_binned,
    generate_null_group,
    ks_pvalue,
    rep_rng,
    save_binary,
    sup_distance,
)

# build's --lambda: on null groups it keeps the edge file to a few rows
BUILD_LAMBDA = 0.9
# hgi's --edge-threshold, for the same reason
HGI_EDGE_THRESHOLD = 3.0


def run_cli(argv, out: Path) -> tuple[float, float]:
    """``sparsecc argv --out out`` in a child process: its wall time in
    seconds and its own peak RSS in GiB."""
    src = str(Path(sparsecc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    t0 = time.time()
    proc = subprocess.Popen([sys.executable, "-m", "sparsecc.cli", *argv, "--out", str(out)],
                            env=env)
    _, status, usage = os.wait4(proc.pid, 0)  # this child's usage, not every child's
    seconds = time.time() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return seconds, usage.ru_maxrss / 1024.0**2


def data_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def run_commands(groups) -> None:
    """``build``, ``compare`` and ``hgi`` on the groups, each in a child process."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = []
        for g, ds in enumerate(groups, 1):
            for name, values in (("x", ds.x), ("y", ds.y)):
                paths.append(tmp / f"{name}{g}.bin")
                save_binary(values, paths[-1], node_ids=ds.node_ids)
        paths = list(map(str, paths))

        out = tmp / "build"
        seconds, peak = run_cli(["build", *paths[:2], "--lambda", repr(BUILD_LAMBDA)], out)
        rows = data_rows(out / f"edges_lambda_{BUILD_LAMBDA:g}.csv")
        print(f"build (group 1): {seconds:.1f}s, {rows} edge rows above {BUILD_LAMBDA:g}, "
              f"peak rss {peak:.2f} GiB")

        out = tmp / "compare"
        seconds, peak = run_cli(["compare", *paths], out)
        results = [json.loads(path.read_text()) for path in sorted(out.glob("result_*.json"))]
        stats = ", ".join(f"{r['kind']} D={r['d_raw']}" for r in results)
        print(f"compare: {seconds:.1f}s, {len(results)} result files ({stats}), "
              f"peak rss {peak:.2f} GiB")

        out = tmp / "hgi"
        seconds, peak = run_cli(["hgi", *paths, "--edge-threshold", repr(HGI_EDGE_THRESHOLD)], out)
        rows = data_rows(out / "hgi_edges.csv")
        print(f"hgi (group 1 as MZ, group 2 as DZ): {seconds:.1f}s, {rows} edge rows "
              f"above {HGI_EDGE_THRESHOLD:g}, peak rss {peak:.2f} GiB")


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
    print(f"curves and comparison: {time.time() - t0:.1f}s, peak rss {peak:.2f} GiB")

    run_commands(groups)
    print(f"total {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
