"""The three workloads: CLI arguments and the facts the report needs.

Kept free of numpy so run.py stays a small process: a child started by a
process inherits that process's peak RSS as its own starting peak.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

THREADS = 2  # fixed --threads, at most nproc on the reference machine
PERMUTATIONS = 200
BINS = 10000
EDGE_THRESHOLD = 0.5


@dataclass(frozen=True)
class Workload:
    argv: Callable[[list, Path, int], list]
    n_obs: int
    largest_array_bytes: int
    calibration: str  # probe.py calibrate kind that slows as this workload does
    at_seed: dict  # traced counts measured at the benchmark's first commit


WORKLOADS = {
    "perm_small": Workload(
        argv=lambda ins, out, seed: [
            "compare", *map(str, ins), "--kind", "both", "--permutations", str(PERMUTATIONS),
            "--seed", str(seed), "--threads", str(THREADS), "--out", str(out),
        ],
        n_obs=20,
        largest_array_bytes=8 * 100 * 100,
        calibration="cache",
        at_seed={"crosscorr.cross_correlate_calls": 808, "filtration.curves_calls": 808,
                 "filtration.useful_curve_ratio": 0.5},
    ),
    "stream_large": Workload(
        argv=lambda ins, out, seed: [
            "filtrate", *map(str, ins), "--bins", str(BINS), "--threads", str(THREADS),
            "--out", str(out),
        ],
        n_obs=20,
        largest_array_bytes=8 * 1024 * 1024,
        calibration="cache",
        at_seed={"stream_blocks_per_pass": 10},
    ),
    "twin_dense": Workload(
        argv=lambda ins, out, seed: [
            "hgi", *map(str, ins), "--kind", "both", "--edge-threshold", str(EDGE_THRESHOLD),
            "--out", str(out),
        ],
        n_obs=40,
        largest_array_bytes=8 * 1000 * 1000,
        calibration="memory",  # visits half a million edges in sorted, not memory, order
        at_seed={"crosscorr.cross_correlate_calls": 6, "filtration.curves_calls": 4,
                 "filtration.useful_curve_ratio": 0.5},
    ),
}
