import argparse
import json
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from sparsecc import (
    SimConfig,
    WeightedGraph,
    cli,
    cross_correlate,
    crosscorr,
    dataset,
    filtration,
    filtration_curves,
    heritability,
    inference,
    run_validation,
    save_binary,
    simulation,
    soft_threshold,
    sparse_network,
)
from sparsecc.cli import main

import worked_example
from conftest import permutation_oracle, tied_raw_groups, tied_zero_inputs


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


def test_filtrate_raw_bins_rejected_before_ingest(tmp_path, capsys):
    rc = main(["filtrate", "nope_x.csv", "nope_y.csv", "--raw", "--bins", "10",
               "--out", str(tmp_path / "o")])
    assert rc != 0
    err = capsys.readouterr().err
    assert "--raw requires exact mode" in err
    assert "no such file" not in err


@pytest.mark.parametrize("bins", ["1", "0", "-3"])
def test_filtrate_bins_below_two_rejected_before_ingest(tmp_path, capsys, bins):
    out = tmp_path / "o"
    rc = main(["filtrate", str(tmp_path / "nope_x.csv"), str(tmp_path / "nope_y.csv"),
               "--bins", bins, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "sparsecc filtrate: error: --bins must be >= 2\n"
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "command, flags, message",
    [
        pytest.param("hgi", ["--edge-threshold", "-1"], "--edge-threshold must be >= 0",
                     id="hgi-flags0"),
        pytest.param("build", ["--lambda", "0.5", "--lambda", "-0.1"], "--lambda must be >= 0",
                     id="build-flags1"),
        pytest.param("compare", ["--permutations", "-3"], "--permutations must be >= 0",
                     id="compare-flags2"),
        # both levels print as 0.123456, so the second edge file would overwrite the first
        pytest.param("build", ["--lambda", "0.1234561", "--lambda", "0.1234562"],
                     "--lambda 0.1234561 and 0.1234562 share edges_lambda_0.123456.csv",
                     id="build-same-edge-file"),
        # -0 == 0, although the two levels would name two edge files
        pytest.param("build", ["--lambda", "0", "--lambda", "-0"],
                     "--lambda 0.0 and -0.0 are one level", id="build-zero-and-minus-zero"),
        pytest.param("compare", ["--permutations", "5", "--seed", "-1"],
                     "sparsecc compare: error: --seed must be >= 0", id="compare-negative-seed"),
        pytest.param("simulate", ["--seed", "-2"], "sparsecc simulate: error: --seed must be >= 0",
                     id="simulate-negative-seed"),
    ],
)
def test_out_of_range_numbers_rejected_before_ingest(tmp_path, group_csvs, capsys, monkeypatch,
                                                     command, flags, message):
    n_paths = {"build": 2, "simulate": 0}.get(command, 4)
    paths = [*group_csvs("a"), *group_csvs("b")][:n_paths]

    def no_input(*args, **kwargs):
        raise AssertionError("input was read")

    monkeypatch.setattr(dataset, "ingest", no_input)
    monkeypatch.setattr(simulation, "_raw_group", no_input)
    out = tmp_path / "out"
    rc = main([command, *paths, *flags, "--out", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["build", "filtrate", "compare", "hgi"])
def test_repeated_node_ids_refused_before_any_output(tmp_path, capsys, command):
    # the last input file's header repeats an id; the error names that file and the
    # run writes nothing to --out
    rng = np.random.default_rng(4)
    paths = [tmp_path / f"in{k}.csv" for k in range(4 if command in ("compare", "hgi") else 2)]
    for k, path in enumerate(paths):
        ids = ["a", "b", "c", "a" if k == len(paths) - 1 else "d"]
        dataset.save_csv(rng.standard_normal((6, 4)), path, node_ids=ids)
    flags = ["--lambda", "0"] if command == "build" else []
    out = tmp_path / "out"
    assert main([command, *map(str, paths), *flags, "--out", str(out)]) == 1
    error = f"sparsecc {command}: error: {paths[-1]}: repeated node ids: a\n"
    assert capsys.readouterr().err == error
    assert not any(out.iterdir())


@pytest.mark.filterwarnings("error")  # a warning is a second stderr line
@pytest.mark.parametrize("case", ["empty-csv", "header-only-csv", "unreadable-sidecar",
                                  "sidecar-id-count", "xy-node-ids", "xy-shape",
                                  "drop-leaves-one-node", "group-node-sets", "hgi-node-sets",
                                  "group-constant-column"])
def test_input_refusals_name_their_files(tmp_path, capsys, case):
    # each bad input exits 1 with one error line that starts with the file or
    # files at fault, and the run writes nothing to --out
    rng = np.random.default_rng(8)

    def csv(name, values, ids=None):
        dataset.save_csv(values, tmp_path / name, node_ids=ids)
        return str(tmp_path / name)

    x1, y1, x2, y2 = (csv(f"{name}.csv", rng.standard_normal((8, 5)))
                      for name in ("x1", "y1", "x2", "y2"))
    command, flags = "filtrate", []
    if case == "empty-csv":
        (tmp_path / "empty.csv").write_text("")
        paths, error = [str(tmp_path / "empty.csv"), y1], f"{tmp_path / 'empty.csv'}: empty file"
    elif case == "header-only-csv":
        (tmp_path / "header.csv").write_text("a,b,c\n")
        paths = [str(tmp_path / "header.csv"), y1]
        error = f"{tmp_path / 'header.csv'}: no data rows"
    elif case in ("unreadable-sidecar", "sidecar-id-count"):
        xb = tmp_path / "x.bin"
        save_binary(rng.standard_normal((8, 5)), xb)
        paths, sidecar = [str(xb), y1], tmp_path / "x.bin.json"
        if case == "unreadable-sidecar":
            sidecar.write_text("{")
            error = f"{sidecar}: unreadable sidecar ("
        else:
            sidecar.write_text(json.dumps({"n": 8, "p": 5, "node_ids": list("abcd")}))
            error = f"{xb}: sidecar has 4 node ids for p=5"
    elif case == "xy-node-ids":
        paths = [x1, csv("y_ids.csv", rng.standard_normal((8, 5)), list("abcde"))]
        error = f"{x1}, {paths[1]}: x and y carry different node ids"
    elif case == "xy-shape":
        paths = [x1, csv("y_short.csv", rng.standard_normal((7, 5)))]
        error = f"{x1}, {paths[1]}: shape mismatch: x is (8, 5), y is (7, 5)"
    elif case == "drop-leaves-one-node":
        x = rng.standard_normal((8, 5))
        x[:, 1:] = 2.0
        paths, flags = [csv("x_flat.csv", x), y1], ["--zero-variance", "drop"]
        error = f"{paths[0]}, {y1}: fewer than 2 nodes left after dropping constant signals"
    else:
        command = "hgi" if case == "hgi-node-sets" else "compare"
        if case != "group-constant-column":
            x2, y2 = (csv(f"{name}_ids.csv", rng.standard_normal((8, 5)), list("abcde"))
                      for name in ("x2", "y2"))
            error = f"{x1}, {y1} and {x2}, {y2}: datasets cover different node sets"
        else:
            y = rng.standard_normal((8, 5))
            y[:, 2] = 0.5
            y2 = csv("y2_flat.csv", y)
            error = f"{x2}, {y2}: constant signal at nodes: v3"
        paths = [x1, y1, x2, y2]
    out = tmp_path / "out"
    assert main([command, *paths, *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"sparsecc {command}: error: {error}")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not any(out.iterdir())


@pytest.mark.parametrize("meta", ["[6, 4]", "5", '{"n": null, "p": 4}', '{"n": 6, "p": 4.0}',
                                  '{"n": "6", "p": 4}', '{"n": 6, "p": 4, "node_ids": 7}',
                                  '{"n": 6, "p": 4, "node_ids": "abcd"}'])
def test_malformed_sidecar_refused_with_one_line(tmp_path, capsys, meta):
    # a sidecar must be a JSON object with integer n and p, and node_ids absent or a list
    rng = np.random.default_rng(4)
    xb, yb = tmp_path / "x.bin", tmp_path / "y.bin"
    save_binary(rng.standard_normal((6, 4)), xb)
    save_binary(rng.standard_normal((6, 4)), yb)
    (tmp_path / "x.bin.json").write_text(meta)
    out = tmp_path / "out"
    assert main(["filtrate", str(xb), str(yb), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"sparsecc filtrate: error: {tmp_path / 'x.bin.json'}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not any(out.iterdir())


@pytest.mark.parametrize("tail, meta, size", [
    (b"abc", '{"n": 6, "p": 4}', 195),  # a trailing partial value
    (b"", '{"n": 7, "p": 4}', 192),  # one row short
    (b"", '{"n": 1000000000, "p": 1000000000}', 192),  # refused without reading
])
def test_payload_size_must_match_the_sidecar(tmp_path, capsys, tail, meta, size):
    rng = np.random.default_rng(4)
    xb, yb = tmp_path / "x.bin", tmp_path / "y.bin"
    save_binary(rng.standard_normal((6, 4)), xb)
    save_binary(rng.standard_normal((6, 4)), yb)
    xb.write_bytes(xb.read_bytes() + tail)
    (tmp_path / "x.bin.json").write_text(meta)
    n, p = json.loads(meta).values()
    out = tmp_path / "out"
    assert main(["filtrate", str(xb), str(yb), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"sparsecc filtrate: error: {xb}: sidecar declares {n}x{p} = {n * p} float64 "
                   f"values ({8 * n * p} bytes), the file has {size} bytes\n")
    assert not any(out.iterdir())


def test_help_renders_and_option_sets_are_unchanged():
    # every subcommand's --help renders, with these options and positionals
    common = ["--out", "--block-size", "--format", "--symmetrize", "--no-symmetrize"]
    expected = {
        "build": (["x_path", "y_path"], ["--lambda", "--zero-variance"]),
        "filtrate": (["x_path", "y_path"], ["--exact", "--bins", "--absolute", "--raw",
                                            "--threads", "--zero-variance"]),
        "compare": (["x1_path", "y1_path", "x2_path", "y2_path"],
                    ["--kind", "--permutations", "--seed", "--threads"]),
        "hgi": (["mz_x_path", "mz_y_path", "dz_x_path", "dz_y_path"],
                ["--kind", "--edge-threshold"]),
        "simulate": ([], ["--n-obs", "--n-nodes", "--noise-sd", "--n-dependent", "--reps",
                          "--seed", "--threads"]),
    }
    ap = cli.build_parser()
    (sub,) = (a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(expected)
    for name, parser in sub.choices.items():
        assert parser.format_help().startswith(f"usage: sparsecc {name} ")
        positionals, options = expected[name]
        assert [a.dest for a in parser._actions if not a.option_strings] == positionals
        assert ([o for a in parser._actions for o in a.option_strings]
                == ["-h", "--help", *options, *common])


@pytest.mark.parametrize("command", ["build", "filtrate", "compare", "hgi", "simulate"])
def test_block_size_below_one_rejected_before_ingest(tmp_path, capsys, command):
    # the input paths do not exist, so only a check made before reading them can pass
    inputs = {"build": 2, "filtrate": 2, "compare": 4, "hgi": 4, "simulate": 0}[command]
    flags = ["--lambda", "0.5"] if command == "build" else []
    out = tmp_path / "out"
    paths = [str(tmp_path / f"nope{k}.csv") for k in range(inputs)]
    assert main([command, *paths, *flags, "--block-size", "0", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"sparsecc {command}: error: --block-size must be >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["mixed", "signs", "split"])
@pytest.mark.parametrize(
    "flags", [[], ["--raw"], ["--no-symmetrize"], ["--raw", "--no-symmetrize"]]
)
def test_filtrate_exact_matches_dense_reference(tmp_path, kind, flags):
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    for values, path in zip(tied_zero_inputs(kind), (xp, yp)):
        dataset.save_csv(values, path)
    out, ref = tmp_path / "out", tmp_path / "ref"
    assert main(["filtrate", str(xp), str(yp), *flags, "--out", str(out)]) == 0
    ds = dataset.normalize_pair(dataset.ingest(xp), dataset.ingest(yp))
    cc = cross_correlate(ds, symmetrize="--no-symmetrize" not in flags)
    upper = cc.rho[np.triu_indices(ds.n_nodes, 1)]
    assert (upper == 0.0).any() and np.unique(upper).size < upper.size
    transform = "raw" if "--raw" in flags else "absolute"
    count, largest, events = filtration_curves(WeightedGraph.from_crosscorr(cc), transform)
    ref.mkdir()
    count.write_csv(ref / "curve_component_count.csv")
    largest.write_csv(ref / "curve_largest_component_size.csv")
    events.write_csv(ref / "merge_events.csv")
    for f in ref.iterdir():
        assert (out / f.name).read_bytes() == f.read_bytes(), f.name


@pytest.mark.parametrize(
    "flags", [[], ["--raw"], ["--no-symmetrize"], ["--bins", "1000"],
              # hgi, at a threshold that keeps about a thousand of the 4.5 M pairs
              ["hgi", "--edge-threshold", "3"],
              ["hgi", "--edge-threshold", "3", "--no-symmetrize"]]
)
def test_filtrate_memory_stays_linear_in_nodes(tmp_path, flags):
    """``filtrate`` in every mode, and ``hgi`` (flags that start with "hgi"),
    stream their weight rows and hold no p x p matrix."""
    command, flags = ("hgi", flags[1:]) if flags[:1] == ["hgi"] else ("filtrate", flags)
    p = 3000
    rng = np.random.default_rng(9)
    paths = []
    for group in range(2 if command == "hgi" else 1):
        x = rng.standard_normal((10, p))
        for name, values in (("x", x), ("y", x + 0.3 * rng.standard_normal((10, p)))):
            paths.append(tmp_path / f"{name}{group}.bin")
            save_binary(values, paths[-1])
    tracemalloc.start()
    try:
        rc = main([command, *map(str, paths), *flags, "--out", str(tmp_path / "o")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    # one dense p x p float64 matrix would be 8 * p**2 bytes = 69 MiB
    assert peak < 8 * 2**20


def render_pairs(header, w, upper):
    """Reference edge file: the nonzero off-diagonal entries of the dense
    matrix ``w`` in (i, j) order, only those above the diagonal when ``upper``."""
    lines = [header]
    p = len(w)
    for i in range(p):
        for j in range(i + 1 if upper else 0, p):
            if i != j and w[i, j] != 0.0:
                lines.append(f"{i},{j},{repr(float(w[i, j]))}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("symmetrize", [True, False])
def test_edge_files_match_dense_rendering(tmp_path, symmetrize):
    # p = 400 gives 79 800 pairs above the diagonal, past one writer chunk
    p = 400
    rng = np.random.default_rng(11)
    paths = []
    for tag in ("mz", "dz"):
        x = rng.standard_normal((10, p))
        for name, values in (("x", x), ("y", x + rng.standard_normal((10, p)))):
            paths.append(tmp_path / f"{tag}_{name}.bin")
            save_binary(values, paths[-1])
    assert p * (p - 1) // 2 > dataset._VALUES_PER_CHUNK // 3
    sym = [] if symmetrize else ["--no-symmetrize"]
    out = tmp_path / "out"
    lams = (0.0, 0.3)
    assert main(["build", *map(str, paths[:2]), "--lambda", "0", "--lambda", "0.3", *sym,
                 "--out", str(out)]) == 0
    assert main(["hgi", *map(str, paths), "--edge-threshold", "0", *sym,
                 "--out", str(out / "hgi")]) == 0

    groups = [dataset.normalize_pair(dataset.ingest(paths[k]), dataset.ingest(paths[k + 1]))
              for k in (0, 2)]
    cc = cross_correlate(groups[0], symmetrize=symmetrize)
    for lam in lams:
        expected = render_pairs("i,j,weight", soft_threshold(cc.rho, lam), upper=symmetrize)
        assert (out / f"edges_lambda_{lam:g}.csv").read_text() == expected
        net = sparse_network(cc, lam)
        assert net.rows.dtype == net.cols.dtype == np.int64
        assert net.values.dtype == np.float64
        assert net.entries == dict(
            zip(zip(net.rows.tolist(), net.cols.tolist()), net.values.tolist())
        )
    result = heritability.hgi(*groups, symmetrize=symmetrize)
    assert (out / "hgi" / "hgi_edges.csv").read_text() == render_pairs(
        "i,j,hgi", result.hgi, upper=True
    )


@pytest.mark.parametrize("symmetrize", [True, False])
def test_build_writes_every_lambda_file_from_one_row_pass(tmp_path, group_csvs, monkeypatch,
                                                          symmetrize):
    # p = 18: p kernel rows for the edge files (the summed heights of the
    # kernel's row blocks), whatever the number of lambda levels, and for the
    # forest one exact row on gathered candidate columns per Prim step that has
    # candidates after the float32 screen: the first step (every weight
    # reaches the zero floor) and at most the p - 2 others; each file as a
    # one-level run writes it
    x, y = group_csvs("lams")
    sym = [] if symmetrize else ["--no-symmetrize"]
    rows = {True: [], False: []}  # gathered or not: Prim's rows, the edge rows
    original = crosscorr._signed_blocks

    def counted(x, y, I, J, *args, **kwargs):
        rows[type(J) is not slice].append(len(range(x.shape[1])[I]))
        return original(x, y, I, J, *args, **kwargs)

    monkeypatch.setattr(crosscorr, "_signed_blocks", counted)
    lams = ["0.3", "0", "0.05"]
    per_run = []
    for tag, levels in [("all", lams), *((lam, [lam]) for lam in lams)]:
        rows[True].clear(), rows[False].clear()
        flags = [f for lam in levels for f in ("--lambda", lam)]
        assert main(["build", x, y, *flags, *sym, "--out", str(tmp_path / tag)]) == 0
        per_run.append((sum(rows[True]), sum(rows[False])))
    assert per_run == [per_run[0]] * 4
    assert 1 <= per_run[0][0] <= 18 - 1 and per_run[0][1] == 18
    summary = read_lines(tmp_path / "all" / "summary.csv")
    for k, lam in enumerate(lams):
        name = f"edges_lambda_{lam}.csv"
        text = (tmp_path / "all" / name).read_bytes()
        assert text == (tmp_path / lam / name).read_bytes()
        assert summary[1 + k] == read_lines(tmp_path / lam / "summary.csv")[1]
        assert int(summary[1 + k].split(",")[1]) == text.count(b"\n") - 1


# kernel rows per block in the edge passes at p = 30: one, two, seven (30 is
# no multiple of it, so the last block is short) and every row in one block
_ROWS_PER_BLOCK = (1, 2, 7, 30)


@pytest.mark.parametrize("symmetrize", [True, False])
@pytest.mark.parametrize("threshold", [0.0, 0.5])
def test_hgi_edge_file_matches_the_dense_public_path(tmp_path, group_csvs, monkeypatch,
                                                     symmetrize, threshold):
    # the CLI's node rows, computed in blocks of rows and each node's rendered
    # by one orjson call, against the public whole-array writer on the dense
    # node-pair matrix
    mz, dz = group_csvs("hgi_mz", p=30), group_csvs("hgi_dz", p=30)
    sym = [] if symmetrize else ["--no-symmetrize"]
    groups = [dataset.normalize_pair(*map(dataset.ingest, pair)) for pair in (mz, dz)]
    result = heritability.hgi(*groups, symmetrize=symmetrize)
    heritability.write_hgi_edges(result, tmp_path / "dense.csv", threshold)
    heritability.write_hi_csv(result, tmp_path / "dense_hi.csv")
    for b in _ROWS_PER_BLOCK:
        monkeypatch.setattr(crosscorr, "_ROW_BLOCK_BYTES", 8 * 30 * b)
        out = tmp_path / f"hgi_{b}"
        assert main(["hgi", *mz, *dz, "--edge-threshold", repr(threshold), *sym,
                     "--out", str(out)]) == 0
        text = (out / "hgi_edges.csv").read_bytes()
        assert text == (tmp_path / "dense.csv").read_bytes()
        assert (out / "hi.csv").read_bytes() == (tmp_path / "dense_hi.csv").read_bytes()
    rows, pairs = text.count(b"\n") - 1, 30 * 29 // 2
    assert rows == pairs if threshold == 0.0 else 0 < rows < pairs


@pytest.mark.parametrize("symmetrize", [True, False])
def test_build_edge_files_match_the_dense_public_path(tmp_path, group_csvs, monkeypatch,
                                                      symmetrize):
    # build's edge passes at levels 0 and 0.3, at any number of kernel rows per
    # block, against the public writer on the dense sparse networks
    x, y = group_csvs("build", p=30)
    sym = [] if symmetrize else ["--no-symmetrize"]
    cc = cross_correlate(dataset.normalize_pair(dataset.ingest(x), dataset.ingest(y)),
                         symmetrize=symmetrize)
    for lam in ("0", "0.3"):
        crosscorr.write_edge_list(sparse_network(cc, float(lam)), tmp_path / f"dense_{lam}.csv")
    for b in _ROWS_PER_BLOCK:
        monkeypatch.setattr(crosscorr, "_ROW_BLOCK_BYTES", 8 * 30 * b)
        out = tmp_path / f"build_{b}"
        assert main(["build", x, y, "--lambda", "0", "--lambda", "0.3", *sym,
                     "--out", str(out)]) == 0
        for lam in ("0", "0.3"):
            assert ((out / f"edges_lambda_{lam}.csv").read_bytes()
                    == (tmp_path / f"dense_{lam}.csv").read_bytes())


def test_build_memory_below_six_dense_matrices(tmp_path):
    # build and compare without permutations stream their rows: below one
    # p x p matrix, even at lambda = 0, where every one of the ~500k pairs
    # (~1M ordered pairs when directed) is an edge
    p = 1000
    rng = np.random.default_rng(9)
    paths = []
    for tag in ("a", "b"):
        x = rng.standard_normal((10, p))
        for name, values in (("x", x), ("y", x + 0.3 * rng.standard_normal((10, p)))):
            paths.append(tmp_path / f"{tag}_{name}.bin")
            save_binary(values, paths[-1])
    paths = list(map(str, paths))
    runs = {
        "build": (["build", *paths[:2], "--lambda", "0"], p * (p - 1) // 2),
        "build-no-symmetrize": (["build", *paths[:2], "--lambda", "0", "--no-symmetrize"],
                                p * (p - 1)),
        "compare": (["compare", *paths], None),
    }
    for tag, (argv, pairs) in runs.items():
        out = tmp_path / tag
        tracemalloc.start()
        try:
            rc = main([*argv, "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        if pairs is not None:
            assert len(read_lines(out / "edges_lambda_0.csv")) == 1 + pairs
        # one dense p x p float64 matrix is 8 * p**2 bytes = 7.6 MiB
        assert peak < 8 * p**2, tag


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


@pytest.mark.parametrize("threads", ["1", "2"])
def test_compare_permutation_p_value_ranks_the_reported_d_raw(tmp_path, threads):
    # integer inputs whose observed groups, rebuilt from their pooled rows,
    # read another sup distance than the one reported
    groups = tied_raw_groups()
    paths = []
    for g, (x, y) in enumerate(groups):
        for tag, values in (("x", x), ("y", y)):
            paths.append(str(tmp_path / f"{tag}{g}.csv"))
            np.savetxt(paths[-1], values, fmt="%d", delimiter=",")
    out = tmp_path / "cmp"
    assert main(["compare", *paths, "--no-symmetrize", "--permutations", "199", "--seed", "0",
                 "--threads", threads, "--out", str(out)]) == 0
    ds1, ds2 = (dataset.normalize_arrays(x, y) for x, y in groups)
    oracle = permutation_oracle(ds1, ds2, n_perm=199, seed=0, symmetrize=False)
    for kind, (d_raw, p_value) in oracle.items():
        blob = json.loads((out / f"result_{kind}.json").read_text())
        assert (blob["d_raw"], blob["p_permutation"]) == (d_raw, p_value)
        assert (blob["n_perm"], blob["seed"]) == (199, 0)


def test_compare_permutations_refuse_a_column_a_permuted_group_could_hold_constant(
        tmp_path, capsys):
    # nine equal raw values per group in column v3: no input column is constant,
    # but a permuted group of 10 could draw ten equal values
    rng = np.random.default_rng(5)
    paths = []
    for tag in ("a", "b"):
        x, y = rng.standard_normal((10, 6)), rng.standard_normal((10, 6))
        x[:9, 2] = 1.5
        paths += [tmp_path / f"{tag}_x.csv", tmp_path / f"{tag}_y.csv"]
        dataset.save_csv(x, paths[-2])
        dataset.save_csv(y, paths[-1])
    paths = [str(path) for path in paths]
    out = tmp_path / "refused"
    assert main(["compare", *paths, "--permutations", "50", "--out", str(out)]) == 1
    assert ("sparsecc compare: error: a permuted group of 10 observations could have a "
            "constant signal at nodes: v3") in capsys.readouterr().err
    assert not list(out.glob("result_*.json"))
    assert main(["compare", *paths, "--out", str(tmp_path / "observed")]) == 0


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


@pytest.mark.parametrize("symmetrize", [True, False])
def test_cli_matches_public_reference_paths(tmp_path, group_csvs, symmetrize):
    # the CLI at --block-size 16, which has no effect, against the public
    # references at their defaults
    mz, dz = group_csvs("ref_mz", p=40), group_csvs("ref_dz", p=40)
    sym = [] if symmetrize else ["--no-symmetrize"]
    ds = dataset.normalize_pair(*map(dataset.ingest, mz))
    cc = cross_correlate(ds, symmetrize=symmetrize)
    curves = filtration_curves(WeightedGraph.from_crosscorr(cc))[:2]
    # a merge weight itself, where the strict `weight > lam` rule decides
    lams = [0.0, 0.2, float(curves[0].breakpoints[-5]), 0.6, 0.9]
    out = tmp_path / "build"
    assert main(["build", *mz, *(f for lam in lams for f in ("--lambda", repr(lam))),
                 "--block-size", "16", *sym, "--out", str(out)]) == 0
    rows = [line.split(",") for line in read_lines(out / "summary.csv")[1:]]
    assert [[int(r[2]), int(r[3])] for r in rows] == [[c.value_at(lam) for c in curves]
                                                      for lam in lams]

    out = tmp_path / "hgi"
    assert main(["hgi", *mz, *dz, "--kind", "both", "--block-size", "16", *sym,
                 "--out", str(out)]) == 0
    groups = [dataset.normalize_pair(*map(dataset.ingest, pair)) for pair in (mz, dz)]
    for kind in filtration.KINDS:
        expected = vars(heritability.hgi_significance(*groups, kind))
        assert json.loads((out / f"result_{kind}.json").read_text()) == expected


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
    """Counts of the cross-correlations the CLI, inference and heritability
    layers run, of the spanning forests built, one per graph at the entry of
    the lockstep core, which takes G graphs per call, and one per streamed
    pass, of the forests whose curves and merge events are read from their
    steps and of the curves built."""
    calls = {"cross_correlate": 0, "forests": 0, "step_curves": 0, "curves": 0}
    lock = threading.Lock()  # replicates run on worker threads

    def counted(module, name, key, graphs):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            with lock:
                calls[key] += graphs(*args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(crosscorr, "cross_correlate", "cross_correlate", lambda *a: 1)
    counted(inference, "cross_correlate", "cross_correlate", lambda *a: 1)
    counted(heritability, "cross_correlate", "cross_correlate", lambda *a: 1)
    counted(filtration, "_prim_steps", "forests", lambda rows, G, p: G)
    counted(inference, "_prim_steps", "forests", lambda rows, G, p: G)  # replicate batches
    counted(filtration, "_streamed_steps", "forests", lambda *a: 1)
    counted(inference, "_streamed_steps", "forests", lambda *a: 1)
    counted(filtration, "_step_curves", "step_curves", lambda *a: 1)
    counted(filtration.FiltrationCurve, "__post_init__", "curves", lambda *a: 1)
    return calls


def test_each_group_curves_computed_once(tmp_path, group_csvs, pipeline_calls):
    x1, y1 = group_csvs("once1")
    x2, y2 = group_csvs("once2")
    rc = main(["compare", x1, y1, x2, y2, "--kind", "both", "--permutations", "9",
               "--threads", "2", "--out", str(tmp_path / "cmp")])
    assert rc == 0
    # one streamed forest per group, then both permuted groups of each of the
    # 9 permutations as dense matrices, once for both kinds; no merge log is
    # listed and no curve built: every sup, observed or permuted, comes from
    # the forests' step weights
    assert pipeline_calls == {"cross_correlate": 18, "forests": 20, "step_curves": 0, "curves": 0}

    pipeline_calls.update(dict.fromkeys(pipeline_calls, 0))
    rc = main(["compare", x1, y1, x2, y2, "--kind", "both", "--out", str(tmp_path / "cmp0")])
    assert rc == 0
    # without permutations: one streamed forest per group, and no dense matrix
    assert pipeline_calls == {"cross_correlate": 0, "forests": 2, "step_curves": 0, "curves": 0}

    pipeline_calls.update(dict.fromkeys(pipeline_calls, 0))
    rc = main(["build", x1, y1, "--lambda", "0", "--lambda", "0.5",
               "--out", str(tmp_path / "build")])
    assert rc == 0
    # one streamed forest for both lambdas; the edge files are streamed rows
    assert pipeline_calls == {"cross_correlate": 0, "forests": 1, "step_curves": 1, "curves": 2}

    pipeline_calls.update(dict.fromkeys(pipeline_calls, 0))
    cfg = SimConfig(n_obs=8, n_nodes=12, n_reps=3, seed=4)
    run_validation(cfg, threads=2)
    # three dense groups per repetition, and no curve: every sup comes from step weights
    assert pipeline_calls == {"cross_correlate": 9, "forests": 9, "step_curves": 0, "curves": 0}

    pipeline_calls.update(dict.fromkeys(pipeline_calls, 0))
    rc = main(["hgi", x1, y1, x2, y2, "--kind", "both", "--out", str(tmp_path / "hgi")])
    assert rc == 0
    # one streamed forest per twin group, no node-pair matrix and no curve
    assert pipeline_calls == {"cross_correlate": 0, "forests": 2, "step_curves": 0, "curves": 0}

    pipeline_calls.update(dict.fromkeys(pipeline_calls, 0))
    rc = main(["hgi", x1, y1, x2, y2, "--kind", "both", "--no-symmetrize",
               "--out", str(tmp_path / "hgi_directed")])
    assert rc == 0
    # the test always filtrates the symmetrized rows
    assert pipeline_calls == {"cross_correlate": 0, "forests": 2, "step_curves": 0, "curves": 0}
    for kind in ("component_count", "largest_component_size"):
        name = f"result_{kind}.json"
        directed = (tmp_path / "hgi_directed" / name).read_bytes()
        assert directed == (tmp_path / "hgi" / name).read_bytes()


def test_small_permutations_run_on_one_thread(tmp_path, group_csvs, map_threads):
    # at p = 18 the 9 permutations are one batch, which runs on the calling
    # thread although --threads asks for two
    x1, y1 = group_csvs("one1")
    x2, y2 = group_csvs("one2")
    rc = main(["compare", x1, y1, x2, y2, "--permutations", "9", "--threads", "2",
               "--out", str(tmp_path / "cmp")])
    assert rc == 0
    assert map_threads == [1]


@pytest.mark.parametrize("command", ["compare", "simulate"])
def test_replicates_write_the_same_files_on_both_routes(tmp_path, group_csvs, monkeypatch,
                                                        command):
    # at p = 18 the replicates are dense batches below the cut, streamed passes from it
    paths = [*group_csvs("a"), *group_csvs("b")] if command == "compare" else []
    flags = {"compare": ["--permutations", "9", "--seed", "2"],
             "simulate": ["--n-nodes", "18", "--reps", "3", "--seed", "2"]}[command]
    written = {}
    for cut in (19, 18):
        monkeypatch.setattr(inference, "_STREAMED_FROM", cut)
        for threads in ("1", "2"):
            out = tmp_path / f"{cut}_{threads}"
            assert main([command, *paths, *flags, "--threads", threads, "--out", str(out)]) == 0
            written[out] = {f.name: f.read_bytes() for f in out.iterdir()}
    first, *rest = written.values()
    assert len(first) == {"compare": 2, "simulate": 1}[command]
    assert all(files == first for files in rest)


def test_hgi_runs_where_one_dense_matrix_would_not_fit(tmp_path, group_csvs, monkeypatch):
    # hgi, build and compare without permutations stream their rows
    paths = [*group_csvs("a"), *group_csvs("b")]  # p = 18

    def no_dense(*args, **kwargs):
        raise AssertionError("a p x p matrix was computed")

    for module in (crosscorr, heritability, inference):
        monkeypatch.setattr(module, "cross_correlate", no_dense)
    for sym in ([], ["--no-symmetrize"]):
        out = tmp_path / f"out{len(sym)}"
        assert main(["hgi", *paths, "--edge-threshold", "0", *sym, "--out", str(out)]) == 0
        assert len(read_lines(out / "hgi_edges.csv")) == 1 + 18 * 17 // 2
        assert len(read_lines(out / "hi.csv")) == 1 + 18

        assert main(["build", *paths[:2], "--lambda", "0", "--lambda", "0.5", *sym,
                     "--out", str(out / "build")]) == 0
        pairs = 18 * 17 // (1 if sym else 2)
        assert len(read_lines(out / "build" / "edges_lambda_0.csv")) == 1 + pairs
        summary = read_lines(out / "build" / "summary.csv")
        assert summary[1].startswith(f"0,{pairs},")
        assert len(summary) == 3

        assert main(["compare", *paths, *sym, "--out", str(out / "compare")]) == 0
        assert len(list((out / "compare").glob("result_*.json"))) == 2


def test_hgi_edge_file_refused_when_it_cannot_fit(tmp_path, group_csvs, monkeypatch, capsys):
    paths = [*group_csvs("a"), *group_csvs("b")]  # p = 18
    # every pair's row holds its indices, two commas, a newline and 3 value bytes or more
    need = len("i,j,hgi\n") + sum(len(f"{i},{j},\n") + 3
                                   for i in range(18) for j in range(i + 1, 18))
    free = need - 1
    monkeypatch.setattr(cli.shutil, "disk_usage", lambda path: SimpleNamespace(free=free))

    def no_rows(*args, **kwargs):
        raise AssertionError("a row was computed")

    out = tmp_path / "refused"
    with monkeypatch.context() as m:
        m.setattr(crosscorr, "_product_blocks", no_rows)
        assert main(["hgi", *paths, "--edge-threshold", "0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert (f"sparsecc hgi: error: hgi_edges.csv at --edge-threshold 0 needs at least "
                f"{need:,} bytes for 18 nodes, more than the {need - 1:,} bytes free") in err
        assert "a positive --edge-threshold is not checked" in err
    assert not any(out.iterdir())
    # a positive threshold can keep no row at all, so it is never refused
    free = 0
    assert main(["hgi", *paths, "--edge-threshold", "0.5", "--out", str(tmp_path / "kept")]) == 0

    free = need
    assert main(["hgi", *paths, "--edge-threshold", "0", "--out", str(out)]) == 0
    assert (out / "hgi_edges.csv").stat().st_size >= need
    # the file a rerun replaces counts as free
    free = 0
    assert main(["hgi", *paths, "--edge-threshold", "0", "--out", str(out)]) == 0


@pytest.mark.parametrize("symmetrize", [True, False])
def test_build_edge_file_refused_when_it_cannot_fit(tmp_path, group_csvs, monkeypatch, capsys,
                                                    symmetrize):
    paths = group_csvs("a")  # p = 18
    sym = [] if symmetrize else ["--no-symmetrize"]
    # every pair's row holds its indices, two commas, a newline and 3 value bytes
    # or more; a directed file holds every ordered pair
    need = len("i,j,weight\n") + sum(len(f"{i},{j},\n") + 3 for i in range(18)
                                      for j in range(18) if (i < j if symmetrize else i != j))
    free = need - 1
    monkeypatch.setattr(cli.shutil, "disk_usage", lambda path: SimpleNamespace(free=free))

    def no_rows(*args, **kwargs):
        raise AssertionError("a row was computed")

    out = tmp_path / "refused"
    with monkeypatch.context() as m:
        m.setattr(crosscorr, "_product_blocks", no_rows)
        assert main(["build", *paths, "--lambda", "0.5", "--lambda", "0", *sym,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert (f"sparsecc build: error: edges_lambda_0.csv at --lambda 0 needs at least "
                f"{need:,} bytes for 18 nodes, more than the {need - 1:,} bytes free") in err
        assert "a positive --lambda is not checked" in err
    assert not any(out.iterdir())
    # a positive lambda can keep no edge at all, so it is never refused
    free = 0
    assert main(["build", *paths, "--lambda", "0.5", *sym, "--out", str(tmp_path / "kept")]) == 0

    free = need
    assert main(["build", *paths, "--lambda", "0", *sym, "--out", str(out)]) == 0
    assert (out / "edges_lambda_0.csv").stat().st_size >= need


def test_hgi_outputs_do_not_depend_on_block_size(tmp_path):
    # every subcommand that reads inputs, at n = 8300: past 8193 observations
    # einsum sums a plain 1 x 1 product in another order, and --block-size 1
    # (every product) and 2 (the last diagonal block at p = 3) cut such products
    rng = np.random.default_rng(3)
    paths = []
    for tag in ("mz", "dz"):
        x = rng.standard_normal((8300, 3))
        for name, values in (("x", x), ("y", x + rng.standard_normal((8300, 3)))):
            paths.append(str(tmp_path / f"{tag}_{name}.bin"))
            save_binary(values, paths[-1])
    runs = {
        "build": ["build", *paths[:2], "--lambda", "0", "--lambda", "0.01"],
        "build-directed": ["build", *paths[:2], "--lambda", "0", "--no-symmetrize"],
        "filtrate": ["filtrate", *paths[:2]],
        "filtrate-bins": ["filtrate", *paths[:2], "--bins", "40"],
        "compare": ["compare", *paths, "--permutations", "3"],
        "hgi": ["hgi", *paths, "--edge-threshold", "0"],
    }
    files = {}
    for name, argv in runs.items():
        outputs = []
        for flags in ([], ["--block-size", "1"], ["--block-size", "2"]):
            out = tmp_path / f"{name}{''.join(flags)}"
            assert main([*argv, *flags, "--out", str(out)]) == 0
            outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert outputs[0] == outputs[1] == outputs[2], name
        files[name] = outputs[0]
    assert [len(files[name]) for name in runs] == [3, 2, 3, 2, 2, 4]
    # the dense library path at the default block size, three nodes wide
    groups = [dataset.normalize_pair(*map(dataset.ingest, paths[k : k + 2])) for k in (0, 2)]
    result = heritability.hgi(*groups)
    heritability.write_hi_csv(result, tmp_path / "hi.csv")
    heritability.write_hgi_edges(result, tmp_path / "hgi_edges.csv")
    for name in ("hi.csv", "hgi_edges.csv"):
        assert files["hgi"][name] == (tmp_path / name).read_bytes()


def test_permutation_outputs_identical_at_any_thread_count(tmp_path, group_csvs):
    # one replicate, one short of a batch and one past it; groups of 12 and
    # 10 observations are normalized as two stacks
    p = 60
    batch = len(next(inference._batches(10**6, 2, p)))
    assert batch > 2
    x1, y1 = group_csvs("t1", n=12, p=p)
    x2, y2 = group_csvs("t2", n=10, p=p)
    for n_perm in (1, batch - 1, batch + 1):
        outputs = []
        for threads in (1, 2, 3):
            out = tmp_path / f"n{n_perm}_t{threads}"
            rc = main(["compare", x1, y1, x2, y2, "--permutations", str(n_perm), "--seed", "4",
                       "--threads", str(threads), "--out", str(out)])
            assert rc == 0
            outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert len(outputs[0]) == 2
        assert outputs[0] == outputs[1] == outputs[2]
        assert json.loads(outputs[0]["result_component_count.json"])["n_perm"] == n_perm


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
