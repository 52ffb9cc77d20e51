"""Command-line front end.

Subcommands wire the library into batch pipelines with machine-readable
outputs only; reruns with identical inputs, seeds, and flags produce
byte-identical files regardless of the thread count.

The process starts no BLAS thread pool: before numpy loads, this module sets
OPENBLAS_NUM_THREADS=1 unless the environment already sets it. No code path
calls BLAS (see the crosscorr module), so the pool would only cost start-up
time and a spinning worker's CPU. ``import sparsecc`` loads no numpy, so both
``python -m sparsecc.cli`` and the ``sparsecc`` script get here first.
"""

from __future__ import annotations

import os
import sys

# This process makes no BLAS call (the product kernel is numpy's einsum loop),
# so OpenBLAS's thread pool would only add start-up time and a spinning worker.
# A value set by the user wins, and once numpy is loaded the pool exists.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import shutil
from pathlib import Path

import numpy as np

from . import crosscorr, dataset, filtration  # the other modules load in the commands using them
from .errors import NodeSetMismatch, SparseCCError
from ._parallel import resolve_threads

_KINDS = {
    "count": (filtration.KIND_COMPONENTS,),
    "largest": (filtration.KIND_LARGEST,),
    "both": filtration.KINDS,
}


def _add_common(parser, symmetrize_default=True):
    parser.add_argument("--out", required=True, help="output directory (created if missing)")
    parser.add_argument("--block-size", type=int, default=1024,
                        help="accepted for compatibility; has no effect")
    parser.add_argument("--format", choices=("auto", "csv", "binary"), default="auto")
    sym = parser.add_mutually_exclusive_group()
    sym.add_argument("--symmetrize", dest="symmetrize", action="store_true",
                     help="average the two regression directions (default)")
    sym.add_argument("--no-symmetrize", dest="symmetrize", action="store_false")
    parser.set_defaults(symmetrize=symmetrize_default)


def _load_pair(x_path, y_path, fmt, policy="error"):
    x = dataset.ingest(x_path, format=fmt)
    y = dataset.ingest(y_path, format=fmt)
    try:
        return dataset.normalize_pair(x, y, zero_variance_policy=policy)
    except SparseCCError as exc:
        raise type(exc)(f"{x_path}, {y_path}: {exc}") from exc


def _check_edges_fit(p: int, threshold: float, path: Path, header: str, option: str,
                     directed: bool = False) -> None:
    """Refuse, before any row is computed, an edge file written at threshold 0
    (``build --lambda 0``, ``hgi --edge-threshold 0``) larger than the free
    space where it goes (plus the file it replaces).

    At threshold 0 the file holds every pair i < j (every ordered pair i != j
    when ``directed``) whose value is nonzero. The bound counts each pair's
    index digits (each node is in p - 1 pairs, twice that when directed), its
    two commas and newline and 3 bytes for the value, the shortest ``repr`` of
    a nonzero float, so it never exceeds such a file. It is a worst case:
    pairs whose value is exactly 0 are not written, so inputs with many of
    them can be refused although their file would fit, and the message says
    so. At a positive threshold the file can be empty, and nothing is refused.
    """
    if threshold > 0:
        return
    digits = sum(len(str(i)) for i in range(p))
    need = len(header) + 1 + (1 + directed) * ((p - 1) * digits + 6 * (p * (p - 1) // 2))
    have = shutil.disk_usage(path.parent).free + (path.stat().st_size if path.is_file() else 0)
    if need > have:
        raise SparseCCError(
            f"{path.name} at {option} 0 needs at least {need:,} bytes for {p} nodes, "
            f"more than the {have:,} bytes free under {path.parent} (a worst-case bound that "
            f"counts every pair; a positive {option} is not checked)"
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
    f.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility; has no effect")
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
    c.add_argument("--threads", type=int, default=None,
                   help="workers, at most one per core, sharing out permutations of 257 "
                        "to 1023 nodes; smaller ones run in larger batches, and larger ones "
                        "as streamed passes, on one thread")
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
    s.add_argument("--threads", type=int, default=None,
                   help="workers, at most one per core, sharing out repetitions of 210 "
                        "to 1023 nodes; smaller ones run in larger batches, and larger ones "
                        "as streamed passes, on one thread")
    _add_common(s)
    return ap


def _cmd_build(args, out: Path) -> None:
    if not all(lam >= 0 for lam in args.lambdas):
        raise ValueError("--lambda must be >= 0")
    for k, lam in enumerate(args.lambdas):
        for m in args.lambdas[:k]:
            if m == lam:  # also -0 and 0, which name two files
                raise ValueError(f"--lambda {m!r} and {lam!r} are one level")
            if f"{m:g}" == f"{lam:g}":
                raise ValueError(f"--lambda {m!r} and {lam!r} share edges_lambda_{lam:g}.csv")
    ds = _load_pair(args.x_path, args.y_path, args.format, args.zero_variance)
    paths = [out / f"edges_lambda_{lam:g}.csv" for lam in args.lambdas]
    for lam, path in zip(args.lambdas, paths):
        _check_edges_fit(ds.n_nodes, lam, path, crosscorr._EDGES_CSV[0], "--lambda",
                         directed=not args.symmetrize)
    # one streamed Prim pass for the curves, then one row pass that writes every
    # edge file: no p x p matrix
    curves = filtration._streamed_curves(ds, args.symmetrize)[:2]
    edges = dataset._write_rows(paths, *crosscorr._EDGES_CSV,
                                crosscorr._streamed_edges(ds, args.symmetrize, args.lambdas))
    lams = np.array(args.lambdas)
    values = (curve.value_at(lams) for curve in curves)
    dataset._write_rows(out / "summary.csv", "lambda,edges,components,largest", "{:g},{},{},{}",
                        [(lams, edges, *values)])


def _cmd_filtrate(args, out: Path) -> None:
    if args.bins is not None and not args.absolute:
        raise ValueError("--raw requires exact mode (binned weights live in [0, 1])")
    if args.bins is not None and args.bins < 2:
        raise ValueError("--bins must be >= 2")
    ds = _load_pair(args.x_path, args.y_path, args.format, args.zero_variance)
    # one Prim pass over streamed weight rows in every mode: no p x p matrix
    if args.bins is not None:
        stream = crosscorr.AbsWeightBlocks(ds, symmetrize=args.symmetrize)
        curves = filtration.filtration_curves_binned(stream, n_bins=args.bins)
    else:
        transform = "absolute" if args.absolute else "raw"
        *curves, events = filtration._streamed_curves(ds, args.symmetrize, transform)
        events.write_csv(out / "merge_events.csv")
    for curve in curves:  # curve_component_count.csv, curve_largest_component_size.csv
        curve.write_csv(out / f"curve_{curve.kind}.csv")


def _cmd_compare(args, out: Path) -> None:
    if args.permutations < 0:
        raise ValueError("--permutations must be >= 0")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    from . import inference

    ds1 = _load_pair(args.x1_path, args.y1_path, args.format)
    ds2 = _load_pair(args.x2_path, args.y2_path, args.format)
    try:
        results = inference._compare_kinds(ds1, ds2, _KINDS[args.kind], args.symmetrize,
                                           args.permutations, args.seed, args.threads)
    except NodeSetMismatch as exc:  # the two pairs cover different node sets
        raise NodeSetMismatch(f"{args.x1_path}, {args.y1_path} and {args.x2_path}, "
                              f"{args.y2_path}: {exc}") from exc
    for kind, res in results.items():
        (out / f"result_{kind}.json").write_text(res.to_json())


def _cmd_hgi(args, out: Path) -> None:
    if not args.edge_threshold >= 0:
        raise ValueError("--edge-threshold must be >= 0")
    from . import heritability

    mz = _load_pair(args.mz_x_path, args.mz_y_path, args.format)
    dz = _load_pair(args.dz_x_path, args.dz_y_path, args.format)
    heritability._check_twins(mz, dz)
    _check_edges_fit(mz.n_nodes, args.edge_threshold, out / "hgi_edges.csv",
                     heritability._HGI_EDGES_CSV[0], "--edge-threshold")
    results = heritability._streamed_hgi(mz, dz, _KINDS[args.kind], args.symmetrize,
                                         args.edge_threshold, out / "hi.csv", out / "hgi_edges.csv")
    for kind, res in results.items():
        (out / f"result_{kind}.json").write_text(res.to_json())


def _cmd_simulate(args, out: Path) -> None:
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    from . import simulation

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
        # validate thread settings and the block size early, so a bad value
        # fails before any input is read or output written
        resolve_threads(getattr(args, "threads", None))
        if args.block_size < 1:
            raise ValueError("--block-size must be >= 1")
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](args, out)
    except (SparseCCError, OSError, ValueError) as exc:
        print(f"sparsecc {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
