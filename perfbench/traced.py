"""Run ``sparsecc.cli.main(argv)`` in process with spans around each layer.

Usage: python3 traced.py SPANS_JSON -- <cli arguments>

Every public function or method a workload reaches is replaced by a wrapper
that records a span (name, start, end, parent, thread) and a few counts.
Modules bind names at import (``from .crosscorr import cross_correlate``), so
each wrapper replaces the name in every sparsecc module that holds it. Spans
stay in memory and are written to SPANS_JSON when the run ends; the exit code
is the CLI's.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, thread)
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def add(self, key: str, amount=1) -> None:
        with self._lock:
            self.counts[key] += amount

    def keep_max(self, key: str, value) -> None:
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    def new_id(self) -> int:
        return next(self._ids)

    def span(self, name: str, parent=None):
        return _Span(self, name, parent)

    def record(self, sid, name, start, end, parent) -> None:
        self.spans.append((sid, name, start, end, parent, threading.get_ident()))


class _Span:
    """Context manager: pushes the span on this thread's stack while open."""

    def __init__(self, tracer: Tracer, name: str, parent):
        self.tracer, self.name, self.parent = tracer, name, parent

    def __enter__(self):
        t = self.tracer
        self.id = t.new_id()
        if self.parent is None:
            self.parent = t.current()
        t._stack().append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.record(self.id, self.name, self.start, end, self.parent)
        return False


def replace_everywhere(original, wrapper) -> None:
    """Rebind every sparsecc module attribute that holds ``original``."""
    for name, mod in list(sys.modules.items()):
        if name == "sparsecc" or name.startswith("sparsecc."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    from sparsecc import cli, crosscorr, dataset, filtration, heritability, inference
    from sparsecc import _parallel

    def spanned(name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    # a name the program no longer has is skipped, and its metrics read 0
    def wrap_function(module, attr, name, after=None):
        if hasattr(module, attr):
            original = getattr(module, attr)
            replace_everywhere(original, spanned(name, original, after))

    def wrap_method(cls, attr, name, after=None):
        if hasattr(cls, attr):
            setattr(cls, attr, spanned(name, getattr(cls, attr), after))

    # dataset
    def after_ingest(result, path, *a, **k):
        path = Path(path)
        sidecar = Path(str(path) + ".json")
        size = path.stat().st_size + (sidecar.stat().st_size if path.suffix != ".csv" else 0)
        tracer.add("dataset.ingest_bytes", size)

    wrap_function(dataset, "ingest", "dataset.ingest", after_ingest)
    wrap_function(dataset, "normalize_pair", "dataset.normalize")

    # crosscorr: kernel counts computed from shapes
    def after_product(result, X, Y):
        n, rows = X.shape
        cols = Y.shape[1]
        tracer.add("crosscorr.products")
        tracer.add("crosscorr.product_flop", 2 * n * rows * cols)
        # rank-1 loop: zero the output once, then per observation read one
        # row of each input, write tmp, read out and tmp, write out
        moved = rows * cols + n * (rows + cols + 4 * rows * cols)
        tracer.add("crosscorr.product_bytes", 8 * moved)

    wrap_function(crosscorr, "_product_blocks", "crosscorr.product", after_product)
    wrap_function(crosscorr, "cross_correlate", "crosscorr.cross_correlate")
    wrap_function(crosscorr, "write_edge_list", "cli.write")
    wrap_method(crosscorr.AbsWeightBlocks, "compute_block", "crosscorr.stream_block")
    stream_iter = crosscorr.AbsWeightBlocks.__iter__

    def counted_iter(self):
        tracer.add("crosscorr.stream_passes")
        return stream_iter(self)

    crosscorr.AbsWeightBlocks.__iter__ = counted_iter

    # filtration: a curve is used once the caller compares or writes it
    def after_curves(result, *a, **k):
        tracer.add("filtration.merge_events", len(result[2].thresholds))
        for curve in result[:2]:
            curve._bench_used = False
        tracer.add("filtration.curves_computed", 2)

    def mark_used(*curves):
        for curve in curves:
            if getattr(curve, "_bench_used", True) is False:
                curve._bench_used = True
                tracer.add("filtration.curves_used")

    def after_binned(result, *a, **k):
        tracer.add("filtration.breakpoints", int(result[0].breakpoints.size))

    wrap_function(filtration, "filtration_curves", "filtration.curves", after_curves)
    wrap_function(filtration, "filtration_curves_binned", "filtration.binned", after_binned)

    def after_curve_write(result, curve, *a, **k):
        mark_used(curve)

    wrap_method(filtration.FiltrationCurve, "write_csv", "cli.write", after_curve_write)
    wrap_method(filtration.MergeEvents, "write_csv", "cli.write")

    # inference
    permutation_args = inspect.signature(inference.permutation_test)

    def after_permutation(result, *a, **k):
        bound = permutation_args.bind(*a, **k)
        bound.apply_defaults()
        tracer.add("inference.replicates", bound.arguments["n_perm"])

    wrap_function(inference, "permutation_test", "inference.permutation_test", after_permutation)
    wrap_function(inference, "compare_groups", "inference.compare_groups")
    wrap_function(inference, "sup_distance", "inference.sup_distance",
                  lambda result, c1, c2: mark_used(c1, c2))
    wrap_function(inference, "ks_pvalue", "inference.ks_pvalue")

    # heritability
    def after_edges(result, res, path, *a, **k):
        with open(path, "rb") as fh:
            lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
        tracer.add("heritability.rows_written", lines - 1)

    wrap_function(heritability, "hgi", "heritability.hgi")
    wrap_function(heritability, "hgi_significance", "heritability.significance")
    wrap_function(heritability, "write_hi_csv", "cli.write")
    wrap_function(heritability, "write_hgi_edges", "heritability.write_edges", after_edges)

    # _parallel: "wait" is the consumer's time inside next() minus the work
    # that runs inline on the consumer thread (its child spans)
    ordered_map = _parallel.ordered_map

    def traced_ordered_map(fn, items, threads=None):
        # a generator's body runs inside the consumer's next() calls, so the
        # map span is recorded by hand instead of sitting on the stack
        map_id, parent, start = tracer.new_id(), tracer.current(), time.perf_counter()
        tracer.keep_max("parallel.threads", _parallel.resolve_threads(threads))

        def item(arg):
            # on a pool thread the stack is empty; run inline, the item sits
            # under the consumer's wait span, so it does not count as waiting
            tracer.add("parallel.map_items")
            with tracer.span("_parallel.item", parent=tracer.current() or map_id):
                return fn(arg)

        inner = ordered_map(item, items, threads)
        try:
            while True:
                with tracer.span("_parallel.wait", parent=map_id):
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                yield value
        finally:
            inner.close()
            tracer.record(map_id, "_parallel.ordered_map", start, time.perf_counter(), parent)

    replace_everywhere(ordered_map, traced_ordered_map)
    wrap_function(cli, "main", "cli.main")


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_JSON -- <cli arguments>")
    tracer = Tracer()
    import sparsecc.cli

    install(tracer)
    rc = sparsecc.cli.main(argv)
    Path(spans_path).write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))
    return rc


if __name__ == "__main__":
    sys.exit(main())
