import numpy as np
import pytest

from sparsecc import (
    SimConfig,
    binarize,
    cross_correlate,
    generate_dependent_group,
    generate_null_group,
    generate_twin_group,
    random_pairing_null,
    rep_rng,
    run_validation,
    write_summary_csv,
)
from sparsecc import inference
from sparsecc.filtration import WeightedGraph


def small_cfg(**kw):
    base = dict(n_obs=10, n_nodes=25, noise_sd=0.02, n_dependent=5, n_reps=4, seed=99)
    base.update(kw)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n_obs=1)
    with pytest.raises(ValueError):
        SimConfig(noise_sd=0.0)
    with pytest.raises(ValueError):
        SimConfig(n_dependent=101, n_nodes=100)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SimConfig(seed=-2)


def test_null_group_pairing_is_tight():
    cfg = SimConfig(n_obs=20, n_nodes=100, noise_sd=0.02, n_reps=1, seed=1)
    hits = 0
    for rep in range(20):
        ds = generate_null_group(cfg, rep_rng(cfg.seed, rep))
        pearson = np.einsum("ki,ki->i", ds.x, ds.y)
        hits += pearson.min() > 0.99
    assert hits >= 19


def test_generators_deterministic():
    cfg = small_cfg()
    a = generate_null_group(cfg, rep_rng(cfg.seed, 0))
    b = generate_null_group(cfg, rep_rng(cfg.seed, 0))
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)


def test_dependent_reduces_to_null_at_zero():
    cfg = small_cfg(n_dependent=0)
    a = generate_null_group(cfg, rep_rng(cfg.seed, 3))
    b = generate_dependent_group(cfg, rep_rng(cfg.seed, 3))
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)


def test_dependent_columns_track_first_node():
    cfg = SimConfig(n_obs=20, n_nodes=50, noise_sd=0.02, n_dependent=10, n_reps=1, seed=5)
    ds = generate_dependent_group(cfg, rep_rng(cfg.seed, 0))
    cc = cross_correlate(ds, symmetrize=False)
    # x(v1) against y(vj), j <= 10: near-perfect cross-correlation
    assert cc.rho[0, :10].min() > 0.99
    assert abs(cc.rho[0, 20]) < 0.9


def test_run_validation_shapes_and_determinism():
    cfg = small_cfg()
    rows1 = run_validation(cfg)
    rows2 = run_validation(cfg)
    assert rows1 == rows2
    assert len(rows1) == 4
    keys = {(r["comparison"], r["kind"]) for r in rows1}
    assert ("null_vs_null", "component_count") in keys
    assert ("null_vs_dependent", "largest_component_size") in keys
    for r in rows1:
        assert 0.0 <= r["mean_p"] <= 1.0
        assert r["n_reps"] == cfg.n_reps


def test_run_validation_thread_invariance():
    cfg = small_cfg(n_reps=6)
    rows = [run_validation(cfg, threads=t) for t in (1, 2, 8)]
    assert rows[0] == rows[1] == rows[2]


def test_run_validation_rows_unchanged_by_batching():
    # ten repetitions at p = 100 run as batches of 8 and 2; the values are
    # those the study gave when every group was computed alone
    expected = {
        True: [0.34398971122701816, 0.2437502049020409, 0.01398229022915766,
               0.022913231766101123, 0.25032120820925857, 0.24996433211630295,
               0.005620718948560199, 0.011469238669920945],
        False: [0.34498204799378296, 0.2659162043861195, 0.022047333722607965,
                0.04804144657018474, 0.44049006583617006, 0.2717641136262137,
                0.008046074545627054, 0.023833280849422447],
    }
    assert [len(b) for b in inference._batches(10, 3, 100)] == [8, 2]
    for symmetrize, n_dependent in ((True, 10), (False, 3)):
        cfg = SimConfig(n_obs=10, n_nodes=100, n_reps=10, seed=11, n_dependent=n_dependent)
        for threads in (1, 2, 3):
            rows = run_validation(cfg, symmetrize=symmetrize, threads=threads)
            assert [v for r in rows for v in (r["mean_p"], r["sd_p"])] == expected[symmetrize]


def test_run_validation_routes_agree_across_the_cut(monkeypatch):
    # p = 210 is one repetition per batch, so two threads share the dense batches
    # out; from the cut on every group takes a streamed pass instead
    cfg = small_cfg(n_nodes=210, n_reps=3)
    monkeypatch.setattr(inference, "_STREAMED_FROM", 211)
    dense = {t: run_validation(cfg, threads=t) for t in (1, 2)}

    def no_dense(*args, **kwargs):
        raise AssertionError("a p x p matrix was computed")

    monkeypatch.setattr(inference, "_STREAMED_FROM", 210)
    monkeypatch.setattr(inference, "cross_correlate", no_dense)
    assert dense[1] == dense[2] == run_validation(cfg, threads=1) == run_validation(cfg, threads=2)


def test_run_validation_single_rep_has_no_sd(tmp_path):
    cfg = small_cfg(n_reps=1)
    rows = run_validation(cfg)
    assert all(r["sd_p"] is None for r in rows)
    path = tmp_path / "summary.csv"
    write_summary_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "comparison,kind,mean_p,sd_p,n_reps"
    assert len(lines) == 5
    assert ",,1" in lines[1]


def test_null_vs_null_p_values_not_small():
    # conservative bound: few tiny p-values between identically generated groups
    cfg = SimConfig(n_obs=20, n_nodes=100, noise_sd=0.02, n_dependent=10, n_reps=40, seed=7)
    rows = run_validation(cfg, kinds=("component_count",))
    row = next(r for r in rows if r["comparison"] == "null_vs_null")
    assert row["mean_p"] > 0.2


def test_twin_group_dense_edges_and_pairing_break():
    rng = np.random.default_rng(11)
    ds = generate_twin_group(20, 40, rng, latent_corr=1.0, noise_scale=0.1)
    cc = cross_correlate(ds, symmetrize=True)
    w = np.abs(cc.rho)
    np.fill_diagonal(w, 0.0)
    g = WeightedGraph(w)
    dense_edges = len(binarize(g, 0.7).edges)
    assert dense_edges > 700  # out of 780 pairs
    broken = random_pairing_null(ds, seed=0)
    cc_b = cross_correlate(broken, symmetrize=True)
    wb = np.abs(cc_b.rho)
    np.fill_diagonal(wb, 0.0)
    broken_edges = len(binarize(WeightedGraph(wb), 0.7).edges)
    assert broken_edges < dense_edges / 100


def test_twin_group_latent_corr_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        generate_twin_group(10, 5, rng, latent_corr=1.5)
