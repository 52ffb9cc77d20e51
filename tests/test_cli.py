import json
import threading

import numpy as np
import pytest

from sparsecc import SimConfig, dataset, heritability, inference, run_validation, save_binary
from sparsecc.cli import main

import worked_example


@pytest.fixture()
def worked_csvs(tmp_path, worked_raw):
    x, y = worked_raw
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    dataset.save_csv(x, xp)
    dataset.save_csv(y, yp)
    return str(xp), str(yp)


@pytest.fixture()
def group_csvs(tmp_path):
    rng = np.random.default_rng(123)

    def make(tag, n=12, p=18):
        x = rng.standard_normal((n, p))
        y = x + 0.3 * rng.standard_normal((n, p))
        xp, yp = tmp_path / f"{tag}_x.csv", tmp_path / f"{tag}_y.csv"
        dataset.save_csv(x, xp)
        dataset.save_csv(y, yp)
        return str(xp), str(yp)

    return make


def read_lines(path):
    return path.read_text().strip().splitlines()


def test_build_worked_example(tmp_path, worked_csvs):
    out = tmp_path / "out"
    rc = main(["build", *worked_csvs, "--lambda", "0.5", "--lambda", "0.95", "--out", str(out)])
    assert rc == 0
    summary = read_lines(out / "summary.csv")
    assert summary[0] == "lambda,edges,components,largest"
    assert summary[1] == "0.5,2,2,3"
    lam, edges, comps, largest = summary[2].split(",")
    assert (edges, comps, largest) == ("0", "4", "1")
    edge_rows = read_lines(out / "edges_lambda_0.5.csv")
    assert len(edge_rows) == 3
    empty_rows = read_lines(out / "edges_lambda_0.95.csv")
    assert empty_rows == ["i,j,weight"]


def test_build_missing_input(tmp_path, capsys):
    rc = main(["build", "nope_x.csv", "nope_y.csv", "--lambda", "0.5",
               "--out", str(tmp_path / "o")])
    assert rc != 0
    assert "error" in capsys.readouterr().err


def test_filtrate_exact(tmp_path, group_csvs):
    xp, yp = group_csvs("g1")
    out = tmp_path / "filt"
    rc = main(["filtrate", xp, yp, "--exact", "--out", str(out)])
    assert rc == 0
    curve = read_lines(out / "curve_component_count.csv")
    assert curve[0] == "threshold,value"
    assert curve[1].startswith("-inf,")
    assert curve[-1].startswith("inf,")
    assert curve[-1] == "inf,18"
    # at most p-1 merge thresholds, plus header and two sentinels
    assert len(curve) <= 17 + 3
    events = read_lines(out / "merge_events.csv")
    assert events[0] == "threshold,new_size"
    assert len(events) <= 18


def test_filtrate_binned_row_count(tmp_path, group_csvs):
    xp, yp = group_csvs("g2")
    out = tmp_path / "filtb"
    rc = main(["filtrate", xp, yp, "--bins", "100", "--out", str(out)])
    assert rc == 0
    assert not (out / "merge_events.csv").exists()
    curve = read_lines(out / "curve_component_count.csv")
    assert 3 <= len(curve) <= 100 + 3


def test_filtrate_exact_and_bins_mutually_exclusive(tmp_path, group_csvs):
    xp, yp = group_csvs("g3")
    with pytest.raises(SystemExit):
        main(["filtrate", xp, yp, "--exact", "--bins", "10", "--out", str(tmp_path / "o")])


def test_compare_same_group_twice(tmp_path, group_csvs):
    xp, yp = group_csvs("g4")
    out = tmp_path / "cmp"
    rc = main(["compare", xp, yp, xp, yp, "--out", str(out)])
    assert rc == 0
    for kind in ("component_count", "largest_component_size"):
        blob = json.loads((out / f"result_{kind}.json").read_text())
        assert blob["d_raw"] == 0
        assert blob["p_asymptotic"] == 1.0
        assert blob["p_permutation"] is None


def test_compare_with_permutations(tmp_path, group_csvs):
    x1, y1 = group_csvs("g5")
    x2, y2 = group_csvs("g6")
    out = tmp_path / "cmp2"
    rc = main(["compare", x1, y1, x2, y2, "--kind", "count",
               "--permutations", "19", "--seed", "7", "--out", str(out)])
    assert rc == 0
    blob = json.loads((out / "result_component_count.json").read_text())
    assert blob["n_perm"] == 19 and blob["seed"] == 7
    assert 0 < blob["p_permutation"] <= 1
    assert not (out / "result_largest_component_size.json").exists()


def test_compare_binary_inputs(tmp_path):
    rng = np.random.default_rng(5)
    paths = []
    for tag in ("x1", "y1", "x2", "y2"):
        arr = rng.standard_normal((8, 10))
        p = tmp_path / f"{tag}.bin"
        save_binary(arr, p)
        paths.append(str(p))
    out = tmp_path / "cmpbin"
    rc = main(["compare", *paths, "--kind", "largest", "--out", str(out)])
    assert rc == 0
    assert (out / "result_largest_component_size.json").exists()


def test_hgi_outputs(tmp_path, group_csvs):
    mzx, mzy = group_csvs("mz")
    dzx, dzy = group_csvs("dz")
    out = tmp_path / "hgi"
    rc = main(["hgi", mzx, mzy, dzx, dzy, "--edge-threshold", "0.5", "--out", str(out)])
    assert rc == 0
    hi = read_lines(out / "hi.csv")
    assert hi[0] == "node_id,hi,a,c"
    assert len(hi) == 19
    edges = read_lines(out / "hgi_edges.csv")
    assert edges[0] == "i,j,hgi"
    for kind in ("component_count", "largest_component_size"):
        assert (out / f"result_{kind}.json").exists()


def test_simulate_summary(tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", "--n-obs", "8", "--n-nodes", "15", "--reps", "3",
               "--seed", "2", "--out", str(out)])
    assert rc == 0
    lines = read_lines(out / "summary.csv")
    assert lines[0] == "comparison,kind,mean_p,sd_p,n_reps"
    assert len(lines) == 5


def test_rerun_byte_identical_across_threads(tmp_path, group_csvs):
    x1, y1 = group_csvs("t1")
    x2, y2 = group_csvs("t2")
    outputs = []
    for t, tag in ((1, "a"), (2, "b"), (8, "c")):
        out = tmp_path / f"run_{tag}"
        rc = main(["compare", x1, y1, x2, y2, "--permutations", "12", "--seed", "3",
                   "--threads", str(t), "--out", str(out)])
        assert rc == 0
        outputs.append([(out / f"result_{kind}.json").read_bytes()
                        for kind in ("component_count", "largest_component_size")])
    assert outputs[0] == outputs[1] == outputs[2]

    sims = []
    for t, tag in ((1, "sa"), (2, "sb"), (8, "sc")):
        out = tmp_path / f"sim_{tag}"
        rc = main(["simulate", "--n-obs", "8", "--n-nodes", "12", "--reps", "4",
                   "--seed", "5", "--threads", str(t), "--out", str(out)])
        assert rc == 0
        sims.append((out / "summary.csv").read_bytes())
    assert sims[0] == sims[1] == sims[2]


def test_rerun_idempotent(tmp_path, group_csvs):
    xp, yp = group_csvs("g7")
    out = tmp_path / "idem"
    for _ in range(2):
        rc = main(["filtrate", xp, yp, "--out", str(out)])
        assert rc == 0
    first = (out / "curve_component_count.csv").read_bytes()
    rc = main(["filtrate", xp, yp, "--out", str(out)])
    assert rc == 0
    assert (out / "curve_component_count.csv").read_bytes() == first


def test_net_threads_env(tmp_path, group_csvs, monkeypatch):
    xp, yp = group_csvs("g8")
    monkeypatch.setenv("NET_THREADS", "2")
    out = tmp_path / "env"
    rc = main(["filtrate", xp, yp, "--bins", "50", "--out", str(out)])
    assert rc == 0
    monkeypatch.setenv("NET_THREADS", "zebra")
    rc = main(["filtrate", xp, yp, "--bins", "50", "--out", str(tmp_path / "env2")])
    assert rc != 0


@pytest.fixture()
def pipeline_calls(monkeypatch):
    """Counts of the cross-correlations and filtrations the inference and
    heritability layers run."""
    calls = {"cross_correlate": 0, "filtration_curves": 0}
    lock = threading.Lock()  # replicates run on worker threads

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            with lock:
                calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(inference, "cross_correlate")
    counted(heritability, "cross_correlate")
    counted(inference, "filtration_curves")
    return calls


def test_each_group_curves_computed_once(tmp_path, group_csvs, pipeline_calls):
    x1, y1 = group_csvs("once1")
    x2, y2 = group_csvs("once2")
    rc = main(["compare", x1, y1, x2, y2, "--kind", "both", "--permutations", "9",
               "--threads", "2", "--out", str(tmp_path / "cmp")])
    assert rc == 0
    # the two groups once, then both permuted groups of the observed split
    # and of each of the 9 replicates, once for both kinds
    assert pipeline_calls == {"cross_correlate": 22, "filtration_curves": 22}

    pipeline_calls.update(cross_correlate=0, filtration_curves=0)
    cfg = SimConfig(n_obs=8, n_nodes=12, n_reps=3, seed=4)
    run_validation(cfg, threads=2)
    assert pipeline_calls == {"cross_correlate": 9, "filtration_curves": 9}

    pipeline_calls.update(cross_correlate=0, filtration_curves=0)
    rc = main(["hgi", x1, y1, x2, y2, "--kind", "both", "--out", str(tmp_path / "hgi")])
    assert rc == 0
    # each twin group's node-pair matrix also gives its curves
    assert pipeline_calls == {"cross_correlate": 2, "filtration_curves": 2}

    pipeline_calls.update(cross_correlate=0, filtration_curves=0)
    rc = main(["hgi", x1, y1, x2, y2, "--kind", "both", "--no-symmetrize",
               "--out", str(tmp_path / "hgi_directed")])
    assert rc == 0
    # directed node-pair matrices, then symmetrized ones for the test
    assert pipeline_calls == {"cross_correlate": 4, "filtration_curves": 2}
    for kind in ("component_count", "largest_component_size"):
        name = f"result_{kind}.json"
        directed = (tmp_path / "hgi_directed" / name).read_bytes()
        assert directed == (tmp_path / "hgi" / name).read_bytes()


@pytest.mark.parametrize("command", ["compare", "hgi"])
def test_kinds_together_match_kinds_alone(tmp_path, group_csvs, command):
    x1, y1 = group_csvs("k1")
    x2, y2 = group_csvs("k2")
    extra = ["--permutations", "19", "--seed", "7"] if command == "compare" else []
    for kind in ("both", "count", "largest"):
        rc = main([command, x1, y1, x2, y2, "--kind", kind, *extra,
                   "--out", str(tmp_path / kind)])
        assert rc == 0
    for kind, alone in (("component_count", "count"), ("largest_component_size", "largest")):
        name = f"result_{kind}.json"
        assert (tmp_path / "both" / name).read_bytes() == (tmp_path / alone / name).read_bytes()
