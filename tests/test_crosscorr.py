import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecc import (
    AbsWeightBlocks,
    cross_correlate,
    normalize_arrays,
    soft_threshold,
    sparse_network,
    symmetric_sparse_network,
    write_edge_list,
)
from sparsecc import PairedDataset, crosscorr
from sparsecc.errors import DimensionMismatch

import worked_example
from conftest import random_dataset


def golden_section_minimizer(rho, lam, lo=-2.0, hi=2.0, iters=80):
    """Independent 1-D minimizer of f(b) = 1 - 2 b rho + b^2 + 2 lam |b|."""
    rho = np.asarray(rho, dtype=float)
    lam = np.asarray(lam, dtype=float)

    def f(b):
        return 1.0 - 2.0 * b * rho + b * b + 2.0 * lam * np.abs(b)

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a = np.full(np.broadcast(rho, lam).shape, lo, dtype=float)
    b = np.full_like(a, hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    for _ in range(iters):
        fc, fd = f(c), f(d)
        take_c = fc < fd
        b = np.where(take_c, d, b)
        a = np.where(take_c, a, c)
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
    return (a + b) / 2.0


def test_identity_dataset_diagonal(rng):
    x = rng.standard_normal((9, 6))
    ds = normalize_arrays(x, x.copy())
    cc = cross_correlate(ds)
    np.testing.assert_allclose(np.diag(cc.rho), 1.0, atol=1e-12)


def test_worked_matrix_realized(worked_ds):
    cc = cross_correlate(worked_ds, symmetrize=True)
    cc.check_invariants()
    for (i, j), target in worked_example.TARGET_UPPER.items():
        assert abs(cc.rho[i, j] - target) < 1e-13
    # the near-tie entry must not exceed the 0.5 threshold
    assert abs(cc.rho[0, 2]) <= 0.5


def test_symmetrized_is_symmetric(rng):
    ds = random_dataset(rng, 8, 12)
    cc = cross_correlate(ds, symmetrize=True)
    np.testing.assert_allclose(cc.rho, cc.rho.T, atol=1e-12)
    assert np.abs(cc.rho).max() <= 1.0 + 1e-9


def test_soft_threshold_worked_cases():
    assert abs(soft_threshold(0.9, 0.5) - 0.4) < 1e-15
    assert soft_threshold(0.4, 0.5) == 0.0
    assert abs(soft_threshold(-0.7, 0.5) + 0.2) < 1e-15
    for rho in (-1.0, -0.3, 0.0, 0.648, 1.0):
        assert soft_threshold(rho, 0.0) == rho


def test_soft_threshold_negative_lambda():
    with pytest.raises(ValueError):
        soft_threshold(0.3, -0.1)


def test_soft_threshold_matches_numeric_minimizer(rng):
    rho = rng.uniform(-1, 1, 500)
    lam = rng.uniform(0, 1, 500)
    closed = soft_threshold(rho, lam)
    numeric = golden_section_minimizer(rho, lam)
    assert np.abs(closed - numeric).max() < 1e-6


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-1, max_value=1),
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
)
def test_shrinkage_monotone(rho, lam1, lam2):
    lo, hi = sorted((lam1, lam2))
    assert abs(soft_threshold(rho, lo)) >= abs(soft_threshold(rho, hi))


def test_sparse_network_worked_example(worked_ds):
    cc = cross_correlate(worked_ds, symmetrize=True)
    net = sparse_network(cc, 0.5)
    assert set(net.entries) == set(worked_example.EXPECTED_SPARSE_05)
    for key, val in worked_example.EXPECTED_SPARSE_05.items():
        assert abs(net.entries[key] - val) < 1e-12


def test_sparse_network_extremes(worked_ds):
    cc = cross_correlate(worked_ds, symmetrize=True)
    assert sparse_network(cc, 1.0).entries == {}
    full = sparse_network(cc, 0.0)
    ii, jj = np.triu_indices(4, k=1)
    nonzero = int((cc.rho[ii, jj] != 0).sum())
    assert len(full.entries) == nonzero
    for (i, j), v in full.entries.items():
        assert v == cc.rho[i, j]


def test_sparse_network_directed_keys(rng):
    ds = random_dataset(rng, 7, 5)
    cc = cross_correlate(ds, symmetrize=False)
    net = sparse_network(cc, 0.1)
    assert any(i > j for i, j in net.entries) or not net.entries
    assert all(i != j for i, j in net.entries)


def test_blocked_equals_dense_bitwise(rng):
    x = rng.standard_normal((11, 97))
    y = rng.standard_normal((11, 97))
    ds = normalize_arrays(x, y)
    for symmetrize in (False, True):
        dense = cross_correlate(ds, block_size=97, symmetrize=symmetrize)
        for bs in (13, 32, 64, 96, 200):
            blocked = cross_correlate(ds, block_size=bs, symmetrize=symmetrize)
            assert np.array_equal(blocked.rho, dense.rho)


def rank1_products(X, Y):
    """X.T @ Y as a sequential rank-1 accumulation over the observations."""
    out = np.zeros((X.shape[1], Y.shape[1]))
    for k in range(X.shape[0]):
        out += np.multiply.outer(X[k], Y[k])
    return out


@pytest.mark.parametrize("n", [2, 3, 5, 16, 61, 257, 1000, 8194, 8300, 9000])
def test_product_kernel_is_the_rank1_loop(n):
    # operands cut from C-ordered arrays as _signed_blocks cuts them: blocks
    # and diagonal blocks of odd widths, a single row against every node, and
    # every strided single column of block_size 1, which past 8193
    # observations plain einsum sums in chunks of its iterator buffer
    x, y = np.random.default_rng(n).standard_normal((2, n, 13))
    cuts = [slice(0, 13), slice(2, 9), slice(3, 7)] + [slice(i, i + 1) for i in range(13)]
    for a, b in ((x, y), (y, x)):
        loop = rank1_products(a, b)  # each entry is its own rank-1 loop
        for I in cuts:
            for J in cuts:
                assert np.array_equal(crosscorr._product_blocks(a[:, I], b[:, J]), loop[I, J])


@pytest.mark.parametrize("n", [3, 20, 8193, 9000])
@pytest.mark.parametrize("k", [1, 2, 100])
def test_gathered_columns_give_the_full_row_bitwise(n, k):
    # the streamed pass's exact kernel runs on candidate columns gathered from
    # the node-ordered observations: C-ordered copies, of which a 1-column one
    # is contiguous along the observations and must take the 1 x 1 guard
    p = 130
    ds = PairedDataset(*np.random.default_rng(n + k).standard_normal((2, n, p)),
                       tuple(map(str, range(p))))
    cols = np.random.default_rng(k).choice(p, size=k, replace=False)
    for u in (0, 57, p - 1):
        assert np.array_equal(crosscorr._product_blocks(ds.x[:, u : u + 1], ds.y[:, cols]),
                              crosscorr._product_blocks(ds.x[:, u : u + 1], ds.y)[:, cols])
        for symmetrize in (True, False):
            full = crosscorr._signed_row(ds.x, ds.y, u, slice(None), symmetrize)
            got = crosscorr._signed_row(ds.x, ds.y, u, cols, symmetrize)
            assert (got[0] is got[1]) == symmetrize
            for a, b in zip(got, full, strict=True):
                assert np.array_equal(a, b[cols])


@pytest.mark.parametrize("symmetrize", [True, False])
def test_screen_row_is_within_the_slack_of_the_exact_row(rng, symmetrize):
    # the float32 screen, against the exact kernel row over the same slots:
    # every signed entry within the pass's epsilon, which also bounds the
    # absolute weights and their larger direction
    from sparsecc.filtration import _screen_slack

    for n, p, scale in ((20, 300, 1.0), (150, 200, 1.0), (20, 100, 1e6), (9, 50, 1e-30)):
        x, y = rng.standard_normal((2, n, p)) * scale
        ds = PairedDataset(x, y, tuple(map(str, range(p))))
        eps = _screen_slack(ds)
        assert 0 < eps < np.inf
        yx = np.stack((ds.y, ds.x)).astype(np.float32)
        for u in (0, p // 2):
            v = yx[::-1, :, u] * np.float32(0.5 if symmetrize else 1.0)
            screened = crosscorr._screen_row(v, yx, p, symmetrize)
            exact = crosscorr._signed_row(ds.x, ds.y, u, slice(None), symmetrize)
            for a, b in zip(screened, exact, strict=True):
                assert a.dtype == np.float32
                assert np.abs(a.astype(float) - b).max() <= eps / 2
    # no bound holds once a float32 product can overflow
    ds = PairedDataset(*rng.standard_normal((2, 9, 5)) * 1e20, tuple("abcde"))
    assert _screen_slack(ds) == np.inf


@pytest.mark.parametrize("symmetrize", [True, False])
def test_one_node_tiles_change_no_bit(symmetrize):
    # at block size 1 every product is 1 x 1, here past 8193 observations
    ds = normalize_arrays(*np.random.default_rng(8300).standard_normal((2, 8300, 5)))
    rho = cross_correlate(ds, symmetrize=symmetrize).rho
    assert np.array_equal(cross_correlate(ds, 1, symmetrize).rho, rho)
    stream = AbsWeightBlocks(ds, block_size=1, symmetrize=symmetrize)
    rows = np.stack([stream.row(u) for u in range(5)])
    pairs = [(i0, j0, w) for i0, j0, w in stream if i0 < j0]
    assert len(pairs) == 10
    for i0, j0, w in pairs:
        assert np.array_equal(w, rows[[i0], j0 : j0 + 1])
        assert np.array_equal(w, rows[[j0], i0 : i0 + 1])


def test_paired_dataset_layout_gives_c_ordered_bits(rng):
    ds = normalize_arrays(*rng.standard_normal((2, 40, 23)))
    # observations contiguous: Fortran order, and every other column of it
    layouts = [np.asfortranarray, lambda m: np.asfortranarray(np.repeat(m, 2, axis=1))[:, ::2]]
    for layout in layouts:
        other = PairedDataset(layout(ds.x), layout(ds.y), ds.node_ids)
        assert other.x.flags.c_contiguous and other.y.flags.c_contiguous
        for symmetrize in (False, True):
            for bs in (1, 7, 1024):
                assert np.array_equal(cross_correlate(other, bs, symmetrize).rho,
                                      cross_correlate(ds, bs, symmetrize).rho)
    for n, p in ((5, 1), (1, 5)):
        with pytest.raises(DimensionMismatch):
            PairedDataset(np.zeros((n, p)), np.zeros((n, p)), ("v1",) * p)


def test_symmetric_sparse_network(rng):
    ds = random_dataset(rng, 9, 6)
    cc = cross_correlate(ds, symmetrize=False)
    lam = 0.2
    eta = symmetric_sparse_network(cc, lam)
    assert eta.symmetric
    soft = lambda v: np.sign(v) * max(abs(v) - lam, 0.0)
    for (i, j), v in eta.entries.items():
        assert i < j
        expected = (soft(cc.rho[i, j]) + soft(cc.rho[j, i])) / 2.0
        assert abs(v - expected) < 1e-15


def test_symmetric_sparse_rejects_symmetrized(worked_ds):
    cc = cross_correlate(worked_ds, symmetrize=True)
    with pytest.raises(ValueError):
        symmetric_sparse_network(cc, 0.3)


def test_edge_list_export(tmp_path, worked_ds):
    cc = cross_correlate(worked_ds, symmetrize=True)
    net = sparse_network(cc, 0.5)
    path = tmp_path / "edges.csv"
    write_edge_list(net, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i,j,weight"
    assert len(lines) == 3
    i, j, w = lines[1].split(",")
    assert (int(i), int(j)) == (0, 3)
    assert abs(float(w) + 0.2) < 1e-12


def test_abs_weight_blocks_cover_upper_triangle(rng):
    ds = random_dataset(rng, 8, 37)
    cc = cross_correlate(ds, symmetrize=True)
    expect = np.abs(cc.rho)
    stream = AbsWeightBlocks(ds, block_size=10, symmetrize=True)
    seen = np.full((37, 37), np.nan)
    for i0, j0, w in stream:
        seen[i0 : i0 + w.shape[0], j0 : j0 + w.shape[1]] = w
    iu, ju = np.triu_indices(37, k=1)
    assert np.array_equal(seen[iu, ju], expect[iu, ju])
    # re-iterable: a second pass yields the same blocks
    again = [w for _, _, w in stream]
    assert all(np.array_equal(a, b) for (_, _, b), a in zip(stream, again))


@pytest.mark.parametrize("symmetrize", [True, False])
def test_abs_weight_row_matches_blocks_bitwise(rng, symmetrize):
    ds = random_dataset(rng, 9, 70)
    rows = np.stack([AbsWeightBlocks(ds, symmetrize=symmetrize).row(u) for u in range(70)])
    for block_size in (1, 7, 64):
        stream = AbsWeightBlocks(ds, block_size=block_size, symmetrize=symmetrize)
        blocks = np.full((70, 70), np.nan)
        for i0, j0, w in stream:
            blocks[i0 : i0 + w.shape[0], j0 : j0 + w.shape[1]] = w
        iu, ju = np.triu_indices(70, k=1)
        # both orientations: row i at column j and row j at column i
        assert np.array_equal(rows[iu, ju], blocks[iu, ju])
        assert np.array_equal(rows[ju, iu], blocks[iu, ju])
    # the signed kernel rows are row u and column u of the dense matrix
    rho = cross_correlate(ds, symmetrize=symmetrize).rho
    for u in range(70):
        b, c = crosscorr._signed_row(ds.x, ds.y, u, slice(None), symmetrize)
        assert np.array_equal(b, rho[u])
        assert np.array_equal(c, rho[:, u])


@pytest.mark.parametrize("symmetrize", [True, False])
def test_kernel_rows_without_reverse(rng, monkeypatch, symmetrize):
    # the edge passes' rows, computed B rows at a time, are those of the dense
    # matrix bitwise; a directed block is one product, b alone, and a
    # symmetrized one still needs both directions for the average
    calls = 0
    product = crosscorr._product_blocks

    def counted(x, y):
        nonlocal calls
        calls += 1
        return product(x, y)

    ds = random_dataset(rng, 9, 70)
    rho = cross_correlate(ds, symmetrize=symmetrize).rho
    monkeypatch.setattr(crosscorr, "_product_blocks", counted)
    for B, blocks in ((1, 70), (2, 35), (7, 10), (8, 9), (70, 1), (100, 1)):
        monkeypatch.setattr(crosscorr, "_ROW_BLOCK_BYTES", 8 * 70 * B)
        for upper in (True, False):
            calls = 0
            rows = list(crosscorr._kernel_rows(ds, symmetrize, upper))
            assert len(rows) == 70
            for u, b in enumerate(rows):
                assert np.array_equal(b, rho[u, u:] if upper else rho[u])
            assert calls == blocks * (2 if symmetrize else 1)


@pytest.mark.parametrize("symmetrize", [True, False])
@pytest.mark.parametrize("block_size, expected", [(7, 100), (64, 4), (1024, 1)])
def test_kernel_calls_per_matrix(rng, monkeypatch, symmetrize, block_size, expected):
    # nb row blocks cost nb**2 block products in either mode: a diagonal
    # block's second direction is the transpose of its first
    calls = 0
    product = crosscorr._product_blocks

    def counted(x, y):
        nonlocal calls
        calls += 1
        return product(x, y)

    monkeypatch.setattr(crosscorr, "_product_blocks", counted)
    ds = random_dataset(rng, 9, 70)
    cross_correlate(ds, block_size=block_size, symmetrize=symmetrize)
    assert calls == expected
    calls = 0
    for _ in AbsWeightBlocks(ds, block_size=block_size, symmetrize=symmetrize):
        pass
    assert calls == expected
