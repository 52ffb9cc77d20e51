#!/usr/bin/env python3
"""sparsecc benchmark: seeded CLI workloads, end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload {perm_small,stream_large,twin_dense,all}
        [--seed N] [--seconds S] [--trace 0|1]

Each workload generates its inputs from the seed (gen.py), so the program
sees only files. With ``--trace 0`` it repeats a separate set-up process, a
CLI child process and a calibration loop for about ``--seconds`` seconds,
checks the first run's outputs against an independent oracle (oracle.py)
and byte-compares later runs with it, and reports end-to-end metrics with
times scaled to the calibration loop's reference speed. With
``--trace 1`` it makes one untraced run, then two in-process traced runs
(traced.py) and reports per-layer metrics; counts that the two traced runs
record must repeat exactly. The last line of stdout is one JSON object.
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from workloads import THREADS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PROBE = BENCH / "probe.py"
MIN_SETUPS = 5
# seconds per calibration repetition, by kind, at the reference machine's typical speed
REF_S = {"cache": 0.012, "memory": 0.045}
RUN_LIMIT_S = 170.0  # every child is killed before a run can pass 180 s
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIB = 1 << 20


def child_env(**extra) -> dict:
    """The program from this checkout's sources, NET_THREADS and the BLAS
    thread variables unset (library defaults), no bytecode written."""
    env = {k: v for k, v in os.environ.items()
           if k not in BLAS_VARS + ("NET_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update(extra)
    return env


@dataclass
class Proc:
    rc: int
    wall: float
    cpu: float
    rss_mib: float


def run_process(cmd: list, log: Path, deadline: float, env: dict | None = None) -> Proc:
    """Run to exit; wall from spawn to exit, CPU and peak RSS from wait4."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT,
                                env=env or child_env())
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def probe(args: list, log: Path, deadline: float, env: dict | None = None) -> str:
    """Run a probe.py helper; return its last output line."""
    proc = run_process([sys.executable, str(PROBE), *map(str, args)], log, deadline, env)
    text = log.read_text(errors="replace")
    if proc.rc != 0:
        raise RuntimeError(f"probe {args[0]} failed:\n{text[-4000:]}")
    return text.splitlines()[-1] if text else ""


def digest(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


class Job:
    """One workload at one seed in a private work directory.

    The first CLI run is checked by the oracle; later runs must match it byte
    for byte. Every problem is reported on stderr."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.wl = WORKLOADS[name]
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.inputs = json.loads(probe(["gen", name, seed, work / "in"], work / "gen.log",
                                       self.deadline))
        self.attempted = self.failed = 0
        self.reference = None  # (digest of the first run's outputs, passed the oracle)
        self.output_mib = 0.0

    def cli_run(self, traced_spans: Path | None = None) -> Proc:
        self.attempted += 1
        out, log = self.work / f"out{self.attempted}", self.work / f"log{self.attempted}"
        argv = self.wl.argv(self.inputs, out, self.seed)
        if traced_spans is None:
            cmd = [sys.executable, "-m", "sparsecc.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "traced.py"), str(traced_spans), "--", *argv]
        proc = run_process(cmd, log, self.deadline)
        if not self.outputs_ok(proc, out, log):
            self.failed += 1
        shutil.rmtree(out, ignore_errors=True)
        return proc

    def outputs_ok(self, proc: Proc, out: Path, log: Path) -> bool:
        if proc.rc != 0:
            tail = log.read_text(errors="replace")[-2000:]
            print(f"{self.name}: exit code {proc.rc}\n{tail}", file=sys.stderr)
            return False
        if self.reference is None:
            try:
                problems = json.loads(probe(["check", self.name, self.seed, out, *self.inputs],
                                            self.work / "check.log", self.deadline))
            except (RuntimeError, ValueError) as exc:  # malformed output
                problems = [str(exc)]
            for problem in problems:
                print(f"{self.name}: oracle: {problem}", file=sys.stderr)
            self.reference = (digest(out), not problems)
            self.output_mib = sum(p.stat().st_size for p in out.iterdir()) / MIB
        elif digest(out) != self.reference[0]:
            print(f"{self.name}: outputs differ from the first run", file=sys.stderr)
            return False
        return self.reference[1]

    def setup_s(self) -> float:
        start = time.perf_counter()
        probe(["setup", *self.inputs], self.work / "setup.log", self.deadline)
        return time.perf_counter() - start

    def calibration(self) -> float:
        kind = self.wl.calibration
        return float(probe(["calibrate", kind], self.work / "calibrate.log", self.deadline))

    def end_to_end(self, seconds: float) -> dict:
        """Repeat a set-up probe, a CLI run and a calibration for about
        ``seconds``, after a first calibration. The shared machine's speed
        drifts by tens of percent in spells of tens of seconds to minutes,
        which a median over one run cannot average out, so every time is
        reported as its median over the run times REF_S over the median
        calibration of the same run: seconds at the reference speed. Each
        workload names the calibration kind whose speed follows its own."""
        start = time.monotonic()
        refs, setups, procs = [self.calibration()], [], []
        while True:
            began = time.monotonic()
            setups.append(self.setup_s())
            procs.append(self.cli_run())
            refs.append(self.calibration())
            now = time.monotonic()
            if now + (now - began) > min(start + seconds, self.deadline - 10.0):
                break
        while len(setups) < MIN_SETUPS:
            setups.append(self.setup_s())
        median = statistics.median
        raw = {"wall_s": median(p.wall for p in procs), "cpu_s": median(p.cpu for p in procs),
               "setup_s": median(setups)}
        speed = REF_S[self.wl.calibration] / median(refs)
        print(f"{self.name}: unscaled medians {raw}; calibration {median(refs)} s "
              f"per repetition, {speed} times the reference speed")
        return {
            "wall_s": raw["wall_s"] * speed,
            "cpu_s": raw["cpu_s"] * speed,
            "peak_rss_mib": median(p.rss_mib for p in procs),
            "setup_s": raw["setup_s"] * speed,
            "ok_frac": 1.0 - self.failed / self.attempted,
        }

    def per_layer(self) -> tuple[dict, bool]:
        untraced_wall = self.cli_run().wall
        walls, summaries = [], []
        for k in range(2):
            spans = self.work / f"spans{k}.json"
            walls.append(self.cli_run(traced_spans=spans).wall)
            # a failed traced run is counted by cli_run and leaves no spans
            trace = json.loads(spans.read_text()) if spans.exists() else {"spans": [], "counts": {}}
            summaries.append(summarize(trace))
        (m0, counts0), (m1, counts1) = summaries
        repeat = counts0 == counts1
        if not repeat:
            diff = {k: (counts0.get(k), counts1.get(k))
                    for k in counts0.keys() | counts1.keys() if counts0.get(k) != counts1.get(k)}
            print(f"{self.name}: traced counts differ between runs: {diff}", file=sys.stderr)
        metrics = {k: (m0[k] if isinstance(m0[k], int) else statistics.median([m0[k], m1[k]]))
                   for k in m0}
        metrics["crosscorr.gemm_ref_gflops"] = gemm_ref(self.wl.n_obs, self.work, self.deadline)
        metrics["cli.output_mib"] = self.output_mib
        metrics["trace.overhead_s"] = statistics.median(walls) - untraced_wall
        return metrics, repeat


def union_length(intervals) -> float:
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(trace: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, and every count it recorded."""
    children = defaultdict(list)
    for span in trace["spans"]:
        children[span[4]].append(span)
    dur, self_s, calls = Counter(), Counter(), Counter()
    for sid, name, start, end, _, _ in trace["spans"]:
        covered = union_length(
            (max(c[2], start), min(c[3], end)) for c in children[sid] if c[3] > start and c[2] < end
        )
        dur[name] += end - start
        self_s[name] += end - start - covered
        calls[name] += 1
    c = Counter(trace["counts"])

    def ratio(a, b):
        return a / b if b else 0.0

    flop, moved = c["crosscorr.product_flop"], c["crosscorr.product_bytes"]
    metrics = {
        "crosscorr.product_gflops": ratio(flop / 1e9, dur["crosscorr.product"]),
        "crosscorr.product_gflop": flop / 1e9,
        "crosscorr.product_bytes_gib": moved / (1 << 30),
        "crosscorr.ops_per_byte": ratio(flop, moved),
        "crosscorr.stream_passes": c["crosscorr.stream_passes"],
        "crosscorr.stream_blocks": calls["crosscorr.stream_block"],
        "crosscorr.stream_block_s": dur["crosscorr.stream_block"],
        "crosscorr.cross_correlate_calls": calls["crosscorr.cross_correlate"],
        "crosscorr.cross_correlate_s": dur["crosscorr.cross_correlate"],
        "filtration.binned_s": dur["filtration.binned"],
        "filtration.binned_self_s": self_s["filtration.binned"],
        "filtration.breakpoints": c["filtration.breakpoints"],
        "filtration.curves_calls": calls["filtration.curves"],
        "filtration.curves_s": dur["filtration.curves"],
        "filtration.merge_events": c["filtration.merge_events"],
        "filtration.useful_curve_ratio": ratio(c["filtration.curves_used"],
                                               c["filtration.curves_computed"]),
        "inference.permutation_test_s": dur["inference.permutation_test"],
        "inference.replicates": c["inference.replicates"],
        "inference.replicates_per_s": ratio(c["inference.replicates"],
                                            dur["inference.permutation_test"]),
        "inference.compare_groups_s": dur["inference.compare_groups"],
        "inference.sup_distance_s": dur["inference.sup_distance"],
        "inference.ks_pvalue_s": dur["inference.ks_pvalue"],
        "heritability.hgi_s": dur["heritability.hgi"],
        "heritability.significance_s": dur["heritability.significance"],
        "heritability.write_edges_s": dur["heritability.write_edges"],
        "heritability.rows_written": c["heritability.rows_written"],
        "cli.write_s": dur["cli.write"] + dur["heritability.write_edges"],
        "dataset.ingest_s": dur["dataset.ingest"],
        "dataset.ingest_mib": c["dataset.ingest_bytes"] / MIB,
        "dataset.normalize_calls": calls["dataset.normalize"],
        "dataset.normalize_s": dur["dataset.normalize"],
        "parallel.threads": c["parallel.threads"],
        "parallel.map_items": c["parallel.map_items"],
        "parallel.consumer_wait_s": self_s["_parallel.wait"],
    }
    counts = {**c, **{f"calls.{name}": n for name, n in calls.items()}}
    return metrics, counts


def gemm_ref(n: int, work: Path, deadline: float) -> float:
    env = child_env(**{var: "1" for var in BLAS_VARS})
    return float(probe(["gemm", n], work / "gemm.log", deadline, env))


def environment(name: str, work: Path, deadline: float) -> dict:
    try:
        l3 = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                text=True, check=True).stdout.strip() or 0)
    except (OSError, subprocess.CalledProcessError, ValueError):
        l3 = 0
    largest = WORKLOADS[name].largest_array_bytes
    return {
        "nproc": os.cpu_count(),
        "cli_threads": THREADS if name != "twin_dense" else "serial (hgi has no --threads)",
        "NET_THREADS": "unset",
        "blas_thread_vars": "unset in CLI runs (library default); 1 for the gemm reference",
        **json.loads(probe(["env"], work / "env.log", deadline)),
        "l3_mib": l3 / MIB,
        "largest_array_mib": largest / MIB,
        "largest_array_over_l3": largest / l3 if l3 else None,
        "note": "product byte rates are cache rates: the largest working array fits in L3",
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        job = Job(name, seed, work)
        if trace:
            metrics, repeat = job.per_layer()
        else:
            metrics, repeat = job.end_to_end(seconds), True
        print(f"{name}: env {json.dumps(environment(name, work, job.deadline))}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    if units.keys() != metrics.keys():
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {units.keys() ^ metrics.keys()}")
    for key, value in metrics.items():
        print(f"{name}: {key} = {value} {units[key]}")
    print(f"{name}: fail_frac = {job.failed / job.attempted} "
          f"({job.failed} of {job.attempted} CLI runs failed)")
    if trace:
        print(f"{name}: traced counts repeat exactly: {repeat}")
        passes = metrics["crosscorr.stream_passes"]
        derived = {**metrics, "stream_blocks_per_pass":
                   metrics["crosscorr.stream_blocks"] / passes if passes else 0}
        for key, want in job.wl.at_seed.items():
            print(f"{name}: {key} = {derived[key]}, {want} at the seed")
    return {
        "correct": job.failed == 0 and repeat,
        "attempted": job.attempted,
        "failed": job.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "sparsecc" / "cli.py").is_file():
        print(f"error: no sparsecc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
