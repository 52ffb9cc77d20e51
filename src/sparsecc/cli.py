"""Command-line front end.

Subcommands wire the library into batch pipelines with machine-readable
outputs only; reruns with identical inputs, seeds, and flags produce
byte-identical files regardless of the thread count.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import crosscorr, dataset, filtration, heritability, inference, simulation
from .errors import SparseCCError
from ._parallel import resolve_threads

# Dense p x p float64 matrices that `build` and `hgi` hold at their peak, with
# headroom: tracemalloc at p = 600 read 3.7 (build, two --lambda values), 4.5
# (build --lambda 0, every pair an edge) and 4.4-5.0 (hgi).
_DENSE_MATRICES = 5

_KINDS = {
    "count": (filtration.KIND_COMPONENTS,),
    "largest": (filtration.KIND_LARGEST,),
    "both": filtration.KINDS,
}


def _add_common(parser, symmetrize_default=True):
    parser.add_argument("--out", required=True, help="output directory (created if missing)")
    parser.add_argument("--block-size", type=int, default=1024)
    parser.add_argument("--format", choices=("auto", "csv", "binary"), default="auto")
    sym = parser.add_mutually_exclusive_group()
    sym.add_argument("--symmetrize", dest="symmetrize", action="store_true",
                     help="average the two regression directions (default)")
    sym.add_argument("--no-symmetrize", dest="symmetrize", action="store_false")
    parser.set_defaults(symmetrize=symmetrize_default)


def _load_pair(x_path, y_path, fmt, policy="error"):
    x = dataset.ingest(x_path, format=fmt)
    y = dataset.ingest(y_path, format=fmt)
    return dataset.normalize_pair(x, y, zero_variance_policy=policy)


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_dense_fits(p: int) -> None:
    """Refuse, before the first p x p allocation, a dense working set larger
    than physical memory, rather than fail partway through the run."""
    need, have = _DENSE_MATRICES * 8 * p * p, _physical_memory()
    if need > have:
        raise SparseCCError(
            f"{p} nodes need about {need / 2**30:.1f} GiB of dense p x p matrices, "
            f"more than the {have / 2**30:.1f} GiB of physical memory"
        )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sparsecc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="sparse networks at given sparsity levels")
    b.add_argument("x_path")
    b.add_argument("y_path")
    b.add_argument("--lambda", dest="lambdas", type=float, action="append", required=True,
                   metavar="LAM", help="sparsity level; repeatable")
    b.add_argument("--zero-variance", choices=("error", "drop"), default="error")
    _add_common(b)

    f = sub.add_parser("filtrate", help="filtration curves and merge events")
    f.add_argument("x_path")
    f.add_argument("y_path")
    mode = f.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true",
                      help="exact curves and merge events (default)")
    mode.add_argument("--bins", type=int, default=None,
                      help="curves snapped to this many bins")
    wt = f.add_mutually_exclusive_group()
    wt.add_argument("--absolute", dest="absolute", action="store_true",
                    help="filter on absolute weights (default)")
    wt.add_argument("--raw", dest="absolute", action="store_false",
                    help="filter on signed weights (exact mode only)")
    f.set_defaults(absolute=True)
    f.add_argument("--threads", type=int, default=None)
    f.add_argument("--zero-variance", choices=("error", "drop"), default="error")
    _add_common(f)

    c = sub.add_parser("compare", help="two-group curve comparison")
    c.add_argument("x1_path")
    c.add_argument("y1_path")
    c.add_argument("x2_path")
    c.add_argument("y2_path")
    c.add_argument("--kind", choices=("count", "largest", "both"), default="both")
    c.add_argument("--permutations", type=int, default=0)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--threads", type=int, default=None)
    _add_common(c)

    h = sub.add_parser("hgi", help="heritability indices from MZ and DZ pairs")
    h.add_argument("mz_x_path")
    h.add_argument("mz_y_path")
    h.add_argument("dz_x_path")
    h.add_argument("dz_y_path")
    h.add_argument("--kind", choices=("count", "largest", "both"), default="both")
    h.add_argument("--edge-threshold", type=float, default=0.0)
    _add_common(h)

    s = sub.add_parser("simulate", help="three-group validation study")
    s.add_argument("--n-obs", type=int, default=20)
    s.add_argument("--n-nodes", type=int, default=100)
    s.add_argument("--noise-sd", type=float, default=0.02)
    s.add_argument("--n-dependent", type=int, default=10)
    s.add_argument("--reps", type=int, default=1000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--threads", type=int, default=None)
    _add_common(s)
    return ap


def _cmd_build(args, out: Path) -> None:
    if not all(lam >= 0 for lam in args.lambdas):
        raise ValueError("--lambda must be >= 0")
    for k, lam in enumerate(args.lambdas):
        for m in args.lambdas[:k]:
            if f"{m:g}" == f"{lam:g}":
                raise ValueError(f"--lambda {m!r} and {lam!r} share edges_lambda_{lam:g}.csv")
    ds = _load_pair(args.x_path, args.y_path, args.format, args.zero_variance)
    _check_dense_fits(ds.n_nodes)
    cc = crosscorr.cross_correlate(ds, block_size=args.block_size, symmetrize=args.symmetrize)
    count_curve, largest_curve, _ = filtration.filtration_curves(
        filtration.WeightedGraph.from_crosscorr(cc), "absolute"
    )
    edges = []
    for lam in args.lambdas:
        net = crosscorr.sparse_network(cc, lam)
        crosscorr.write_edge_list(net, out / f"edges_lambda_{lam:g}.csv")
        edges.append(net.values.size)
    lams = np.array(args.lambdas)
    dataset._write_rows(out / "summary.csv", "lambda,edges,components,largest", "{:g},{},{},{}",
                        lams, edges, count_curve.value_at(lams), largest_curve.value_at(lams))


def _cmd_filtrate(args, out: Path) -> None:
    if args.bins is not None and not args.absolute:
        raise ValueError("--raw requires exact mode (binned weights live in [0, 1])")
    ds = _load_pair(args.x_path, args.y_path, args.format, args.zero_variance)
    # one Prim pass over streamed weight rows in every mode: no p x p matrix
    stream = crosscorr.AbsWeightBlocks(ds, args.block_size, args.symmetrize)
    if args.bins is not None:
        count_curve, largest_curve = filtration.filtration_curves_binned(
            stream, n_bins=args.bins, threads=args.threads
        )
    else:
        transform = "absolute" if args.absolute else "raw"
        count_curve, largest_curve, events = filtration._streamed_curves(stream, transform)
        events.write_csv(out / "merge_events.csv")
    count_curve.write_csv(out / "curve_component_count.csv")
    largest_curve.write_csv(out / "curve_largest_component_size.csv")


def _cmd_compare(args, out: Path) -> None:
    if args.permutations < 0:
        raise ValueError("--permutations must be >= 0")
    ds1 = _load_pair(args.x1_path, args.y1_path, args.format)
    ds2 = _load_pair(args.x2_path, args.y2_path, args.format)
    kinds = _KINDS[args.kind]
    results = inference._compare_kinds(ds1, ds2, kinds, args.symmetrize, args.block_size)
    if args.permutations > 0:
        p_perm = inference._permutation_pvalues(
            ds1, ds2, kinds, args.permutations, args.seed, args.symmetrize,
            args.block_size, args.threads,
        )
        for kind, res in results.items():
            res.p_permutation, res.n_perm, res.seed = p_perm[kind], args.permutations, args.seed
    for kind, res in results.items():
        (out / f"result_{kind}.json").write_text(res.to_json())


def _cmd_hgi(args, out: Path) -> None:
    if not args.edge_threshold >= 0:
        raise ValueError("--edge-threshold must be >= 0")
    mz = _load_pair(args.mz_x_path, args.mz_y_path, args.format)
    dz = _load_pair(args.dz_x_path, args.dz_y_path, args.format)
    _check_dense_fits(mz.n_nodes)
    result, results = heritability._hgi_and_significance(
        mz, dz, _KINDS[args.kind], args.symmetrize, args.block_size
    )
    heritability.write_hi_csv(result, out / "hi.csv")
    heritability.write_hgi_edges(result, out / "hgi_edges.csv", threshold=args.edge_threshold)
    for kind, res in results.items():
        (out / f"result_{kind}.json").write_text(res.to_json())


def _cmd_simulate(args, out: Path) -> None:
    cfg = simulation.SimConfig(
        n_obs=args.n_obs,
        n_nodes=args.n_nodes,
        noise_sd=args.noise_sd,
        n_dependent=args.n_dependent,
        n_reps=args.reps,
        seed=args.seed,
    )
    rows = simulation.run_validation(cfg, symmetrize=args.symmetrize, threads=args.threads)
    simulation.write_summary_csv(rows, out / "summary.csv")


_COMMANDS = {
    "build": _cmd_build,
    "filtrate": _cmd_filtrate,
    "compare": _cmd_compare,
    "hgi": _cmd_hgi,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        # validate thread settings early so a bad value fails before output
        resolve_threads(getattr(args, "threads", None))
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](args, out)
    except (SparseCCError, OSError, ValueError) as exc:
        print(f"sparsecc {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
