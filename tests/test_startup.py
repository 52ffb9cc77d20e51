"""Process start: ``import sparsecc`` is lazy, the CLI starts no BLAS pool and
freezes its start-up objects out of the collector's reach, and a command
loads only the sparsecc modules it uses.

Each case runs in a fresh interpreter, since numpy reads the BLAS thread
variable once, when it is first imported, and the CLI changes the collector
only in a process it starts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden.regenerate import cases, differences

SRC = Path(__file__).resolve().parents[1] / "src"
VAR = "OPENBLAS_NUM_THREADS"
TASKS = Path("/proc/self/task")

PUBLIC = {
    "dataset": ["PairedDataset", "RawMatrix", "ingest", "normalize_arrays", "normalize_pair",
                "save_binary", "save_csv"],
    "crosscorr": ["AbsWeightBlocks", "CrossCorrMatrix", "SparseCrossCorr", "cross_correlate",
                  "soft_threshold", "sparse_network", "symmetric_sparse_network",
                  "write_edge_list"],
    "filtration": ["KIND_COMPONENTS", "KIND_LARGEST", "KINDS", "BinaryGraph", "FiltrationCurve",
                   "MergeEvents", "WeightedGraph", "binarize", "filtration_curves",
                   "filtration_curves_binned", "graph_sum", "soft_threshold_equivalence_check",
                   "support_graph"],
    "inference": ["KSResult", "compare_groups", "exact_sup_tail", "group_curves", "ks_pvalue",
                  "permutation_test", "random_pairing_null", "sup_distance"],
    "heritability": ["HeritabilityResult", "falconer_hi", "hgi", "hgi_significance",
                     "write_hgi_edges", "write_hi_csv"],
    "simulation": ["SimConfig", "generate_dependent_group", "generate_null_group",
                   "generate_twin_group", "rep_rng", "run_validation", "write_summary_csv"],
}

REPORT = f"""
import gc, json, os, sys
from pathlib import Path
tasks = Path({str(TASKS)!r})
print(json.dumps({{
    "numpy": "numpy" in sys.modules,
    "var": os.environ.get({VAR!r}),
    "threads": len(list(tasks.iterdir())) if tasks.is_dir() else None,
    "collector": gc.isenabled(),
    "frozen": gc.get_freeze_count(),
}}))
"""


def child(code: str, **env) -> dict:
    """Run ``code`` then print what it left: numpy loaded, the variable,
    threads, the collector's state and its count of frozen objects."""
    base = {k: v for k, v in os.environ.items() if k != VAR}
    base["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", code + REPORT], env={**base, **env},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_numpy_and_sets_nothing():
    assert child("import sparsecc") == {"numpy": False, "var": None,
                                        "threads": 1 if TASKS.is_dir() else None,
                                        "collector": True, "frozen": 0}


def test_every_public_name_resolves():
    code = f"""
import importlib, sparsecc
public = {PUBLIC!r}
for module, names in public.items():
    for name in names:
        assert getattr(sparsecc, name) is getattr(importlib.import_module("sparsecc." + module),
                                                  name), name
for module in [*public, "errors", "_parallel"]:
    assert getattr(sparsecc, module) is importlib.import_module("sparsecc." + module), module
assert sparsecc.__version__ == "0.1.0"
listed = set(dir(sparsecc))
assert {{n for names in public.values() for n in names}} <= listed
try:
    sparsecc.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
"""
    assert sum(map(len, PUBLIC.values())) == 49
    assert child(code)["numpy"]


def test_cli_import_starts_no_blas_pool():
    report = child("import sparsecc.cli")
    assert report["numpy"] and report["var"] == "1"
    if report["threads"] is None:
        pytest.skip(f"{TASKS} does not exist")
    assert report["threads"] == 1


def test_cli_keeps_a_value_the_user_set():
    assert child("import sparsecc.cli", **{VAR: "3"})["var"] == "3"


def test_cli_sets_nothing_once_numpy_is_loaded():
    report = child("import numpy\nimport sparsecc.cli")
    assert report["var"] is None
    assert report["collector"] and report["frozen"] == 0


def test_cli_import_freezes_start_up_objects():
    # numpy's and sparsecc's import-time objects leave the collector's reach,
    # and the collector runs again for what the command creates
    report = child("import sparsecc.cli")
    assert report["collector"] and report["frozen"] > 0


@pytest.mark.parametrize("name", ["build_symmetrized", "filtrate",
                                  "compare_permutations_threads_2", "hgi", "simulate"])
def test_golden_case_out_of_process(tmp_path, name):
    # the CLI's own process start (collector frozen, exit hook) writes the same
    # bytes as the in-process golden run, and prints nothing: an exception in
    # an exit hook goes to stderr while the exit status stays 0
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "sparsecc.cli", *cases()[name],
                           "--out", str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert not differences(name, tmp_path), f"{name}: differs from expected/{name}"


def test_filtrate_loads_no_replicate_or_twin_modules(tmp_path):
    inputs = Path(__file__).resolve().parent / "golden" / "inputs"
    argv = ["filtrate", str(inputs / "mz_x.csv"), str(inputs / "mz_y.csv"), "--out", str(tmp_path)]
    code = f"""
import sys
import sparsecc.cli
assert sparsecc.cli.main({argv!r}) == 0
loaded = [m for m in ("inference", "heritability", "simulation") if "sparsecc." + m in sys.modules]
assert not loaded, loaded
"""
    assert child(code)["numpy"]
    assert (tmp_path / "merge_events.csv").is_file()


def test_only_edge_file_writers_load_orjson(tmp_path):
    # filtrate and compare write no node block, so they never pay orjson's import
    inputs = Path(__file__).resolve().parent / "golden" / "inputs"
    groups = [str(inputs / f"{g}_{s}.csv") for g in ("mz", "dz") for s in "xy"]
    runs = [["filtrate", *groups[:2]], ["compare", *groups], ["hgi", *groups]]
    code = f"""
import sys
import sparsecc.dataset
loaded = ["orjson" in sys.modules]
import sparsecc.cli
for k, argv in enumerate({runs!r}):
    assert sparsecc.cli.main([*argv, "--out", {str(tmp_path)!r} + f"/{{k}}"]) == 0
    loaded.append("orjson" in sys.modules)
assert loaded == [False, False, False, True], loaded
"""
    assert child(code)["numpy"]
    assert (tmp_path / "2" / "hgi_edges.csv").is_file()
