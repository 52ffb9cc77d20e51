import numpy as np
import pytest

from sparsecc import (
    cross_correlate,
    falconer_hi,
    generate_twin_group,
    hgi,
    hgi_significance,
    normalize_arrays,
    write_hgi_edges,
    write_hi_csv,
)
from sparsecc.errors import NodeSetMismatch

from conftest import random_dataset


def test_falconer_worked_cases():
    hi, a, c = falconer_hi(0.5, 0.2)
    assert abs(hi - 0.6) < 1e-15 and abs(a - 0.6) < 1e-15 and abs(c + 0.1) < 1e-15
    for r in (-0.9, 0.0, 0.37, 1.0):
        hi, _, _ = falconer_hi(r, r)
        assert hi == 0.0
    hi, a, c = falconer_hi(1.0, 0.5)
    assert hi == 1.0 and c == 0.0


def test_falconer_ac_decomposition():
    rng = np.random.default_rng(0)
    mz = rng.uniform(-1, 1, 50)
    dz = rng.uniform(-1, 1, 50)
    hi, a, c = falconer_hi(mz, dz)
    np.testing.assert_allclose(a + c, mz, atol=1e-12)
    np.testing.assert_allclose(a / 2 + c, dz, atol=1e-12)


def test_falconer_range_validation():
    with pytest.raises(ValueError):
        falconer_hi(1.5, 0.0)
    with pytest.raises(ValueError):
        falconer_hi(0.0, np.array([0.2, -1.2]))


def test_hgi_same_dataset_is_zero(rng):
    ds = random_dataset(rng, 10, 8)
    res = hgi(ds, ds)
    np.testing.assert_array_equal(res.hgi, np.zeros((8, 8)))
    np.testing.assert_array_equal(res.hi, np.zeros(8))


def test_hgi_diagonal_identity(rng):
    mz = random_dataset(rng, 12, 9)
    dz = random_dataset(rng, 12, 9)
    res = hgi(mz, dz)
    np.testing.assert_allclose(np.diag(res.hgi), res.hi, atol=1e-12)
    np.testing.assert_allclose(res.a_factor + res.c_factor, res.rho_mz, atol=1e-12)
    assert np.abs(res.hgi - res.hgi.T).max() < 1e-12  # symmetrized build


def test_hgi_antisymmetric_under_group_swap(rng):
    mz = random_dataset(rng, 10, 7)
    dz = random_dataset(rng, 10, 7)
    a = hgi(mz, dz)
    b = hgi(dz, mz)
    np.testing.assert_array_equal(a.hgi, -b.hgi)


def test_hgi_blockwise_equals_dense(rng):
    mz = random_dataset(rng, 9, 61)
    dz = random_dataset(rng, 9, 61)
    # hgi's block_size has no effect; its matrix is the contrast of the
    # cross-correlations at every tile size, and its diagonal gives hi
    result = hgi(mz, dz, block_size=7)
    for bs in (7, 16, 61, 64):
        rho_mz, rho_dz = (cross_correlate(ds, bs, symmetrize=True).rho for ds in (mz, dz))
        assert np.array_equal(result.hgi, 2.0 * (rho_mz - rho_dz))
    assert np.array_equal(result.hi, np.diag(result.hgi))


def test_hgi_node_set_mismatch(rng):
    mz = random_dataset(rng, 8, 5)
    dz = random_dataset(rng, 8, 6)
    with pytest.raises(NodeSetMismatch):
        hgi(mz, dz)


def test_hgi_twin_like_construction(rng):
    # identical-twin-like: y tracks x; fraternal-like: y carries half the signal
    n, p = 400, 30
    x_mz = rng.standard_normal((n, p))
    mz = normalize_arrays(x_mz, x_mz + 0.02 * rng.standard_normal((n, p)))
    x_dz = rng.standard_normal((n, p))
    y_dz = 0.5 * x_dz + np.sqrt(0.75) * rng.standard_normal((n, p))
    dz = normalize_arrays(x_dz, y_dz)
    res = hgi(mz, dz)
    assert res.rho_mz.min() > 0.99
    assert np.all(np.abs(res.hi - 1.0) < 0.5)
    assert abs(float(np.mean(res.hi)) - 1.0) < 0.1


def test_hgi_significance_same_dataset(rng):
    ds = random_dataset(rng, 10, 8)
    res = hgi_significance(ds, ds)
    assert res.d_raw == 0 and res.p_asymptotic == 1.0


def test_hgi_significance_detects_twin_contrast():
    # identical-like: y = x + small noise; fraternal-like: y = x/2 + noise
    # with half the pair correlation, so its network merges at half the levels
    n, p = 20, 100
    n_sig = 0
    reps = 30
    for seed in range(reps):
        rng_local = np.random.default_rng(seed)
        x = rng_local.standard_normal((n, p))
        mz = normalize_arrays(x, x + 0.02 * rng_local.standard_normal((n, p)))
        x2 = rng_local.standard_normal((n, p))
        y2 = 0.5 * x2 + np.sqrt(0.75) * rng_local.standard_normal((n, p))
        dz = normalize_arrays(x2, y2)
        res = hgi_significance(mz, dz)
        if res.p_asymptotic < 0.05:
            n_sig += 1
    assert n_sig > reps / 2


def test_hi_csv_export(tmp_path, rng):
    mz = random_dataset(rng, 8, 4)
    dz = random_dataset(rng, 8, 4)
    res = hgi(mz, dz)
    path = tmp_path / "hi.csv"
    write_hi_csv(res, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "node_id,hi,a,c"
    assert len(lines) == 5
    name, h, a, c = lines[1].split(",")
    assert name == res.node_ids[0]
    assert float(h) == res.hi[0]


def test_hgi_edges_export_threshold(tmp_path, rng):
    mz = random_dataset(rng, 8, 6)
    dz = random_dataset(rng, 8, 6)
    res = hgi(mz, dz)
    all_path, thr_path = tmp_path / "all.csv", tmp_path / "thr.csv"
    write_hgi_edges(res, all_path, threshold=0.0)
    threshold = float(np.median(np.abs(res.hgi[np.triu_indices(6, k=1)])))
    write_hgi_edges(res, thr_path, threshold=threshold)
    n_all = len(all_path.read_text().strip().splitlines()) - 1
    n_thr = len(thr_path.read_text().strip().splitlines()) - 1
    assert n_all == 15
    assert 0 < n_thr < n_all
    with pytest.raises(ValueError):
        write_hgi_edges(res, thr_path, threshold=-1.0)
