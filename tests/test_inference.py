import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecc import (
    FiltrationCurve,
    KIND_COMPONENTS,
    KIND_LARGEST,
    KINDS,
    WeightedGraph,
    compare_groups,
    cross_correlate,
    crosscorr,
    exact_sup_tail,
    filtration,
    filtration_curves,
    group_curves,
    inference,
    ks_pvalue,
    normalize_arrays,
    permutation_test,
    random_pairing_null,
    sup_distance,
)
from sparsecc.errors import CurveMismatch, SparseCCError, ZeroVarianceNode

from conftest import permutation_oracle, random_dataset, tied_raw_groups


def curve(breakpoints, values, kind=KIND_COMPONENTS, n=None):
    values = np.asarray(values)
    n = n if n is not None else int(values.max())
    return FiltrationCurve(kind, n, np.asarray(breakpoints, float), values)


# ------------------------------------------------------------- sup_distance


def test_sup_identical_curves():
    c = curve([0.2, 0.5], [1, 2, 4], n=4)
    assert sup_distance(c, c) == 0


def test_sup_same_breakpoints():
    c1 = curve([0.2, 0.5, 0.7], [1, 2, 3, 4], n=4)
    c2 = curve([0.2, 0.5, 0.7], [1, 2, 2, 4], n=4)
    assert sup_distance(c1, c2) == 1


def test_sup_disjoint_breakpoints():
    c1 = curve([0.9], [1, 4], n=4)
    c2 = curve([0.1], [1, 4], n=4)
    assert sup_distance(c1, c2) == 3


def test_sup_catches_difference_inside_shared_breakpoint():
    # curves differing only between two breakpoints of the other curve
    c1 = curve([0.3, 0.6], [1, 3, 5], n=5)
    c2 = curve([0.45], [1, 5], n=5)
    # on (0.3, 0.45): c1=3, c2=1; on (0.45, 0.6): c1=3, c2=5
    assert sup_distance(c1, c2) == 2


def test_sup_kind_mismatch():
    c1 = curve([0.5], [1, 3], n=3)
    c2 = curve([0.5], [3, 1], kind=KIND_LARGEST, n=3)
    with pytest.raises(CurveMismatch):
        sup_distance(c1, c2)
    with pytest.raises(CurveMismatch):
        sup_distance(c1, curve([0.5], [1, 4], n=4))


def test_sup_pseudometric_properties(rng):
    def random_curve():
        m = int(rng.integers(1, 6))
        bps = np.sort(rng.uniform(0, 1, m))
        vals = np.sort(rng.integers(1, 10, m + 1))
        return curve(bps, vals, n=10)

    for _ in range(40):
        a, b, c = random_curve(), random_curve(), random_curve()
        dab, dba = sup_distance(a, b), sup_distance(b, a)
        assert dab == dba
        assert sup_distance(a, c) <= dab + sup_distance(b, c)
        assert sup_distance(a, a) == 0


def test_sup_matches_brute_force_evaluation(rng):
    # breakpoints drawn from a coarse grid, so curves often share some and
    # sometimes have none; each value is counted straight from the definition
    def random_curve(kind):
        bps = np.sort(rng.choice(np.linspace(0, 1, 8), int(rng.integers(0, 6)), replace=False))
        vals = np.sort(rng.integers(1, 11, bps.size + 1))
        return curve(bps, vals if kind == KIND_COMPONENTS else vals[::-1], kind, n=10)

    def at(c, lam):
        return int(c.values[int(np.sum(c.breakpoints <= lam))])

    for _ in range(300):
        kind = (KIND_COMPONENTS, KIND_LARGEST)[int(rng.integers(2))]
        a, b = random_curve(kind), random_curve(kind)
        grid = np.union1d(a.breakpoints, b.breakpoints)
        probes = [-np.inf, np.inf, *grid, *(grid[1:] + grid[:-1]) / 2]
        assert sup_distance(a, b) == max(abs(at(a, lam) - at(b, lam)) for lam in probes)


# ---------------------------------------------------------------- ks_pvalue


def test_ks_reference_values():
    assert ks_pvalue(0.0) == 1.0
    p240 = ks_pvalue(2.40)
    assert 1.9e-5 < p240 < 2.0e-5
    assert ks_pvalue(23.12) < 1e-100
    # partial sums 2e^-2 - 2e^-8 + 2e^-18 - ...
    expected = 2 * (math.exp(-2) - math.exp(-8) + math.exp(-18) - math.exp(-32))
    assert abs(ks_pvalue(1.0) - expected) < 1e-12
    assert round(ks_pvalue(1.0), 4) == 0.2700


def test_ks_matches_scipy():
    for d in (0.05, 0.3, 0.5, 0.8687, 1.2, 2.0, 3.5):
        assert abs(ks_pvalue(d) - scipy.special.kolmogorov(d)) < 1e-9


def test_ks_validation():
    with pytest.raises(ValueError):
        ks_pvalue(-0.1)
    with pytest.raises(ValueError):
        ks_pvalue(1.0, tol=0.0)


def test_ks_truncation_stable():
    for d in np.linspace(0.5, 5.0, 40):
        assert abs(ks_pvalue(float(d), tol=1e-16) - ks_pvalue(float(d), tol=1e-10)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0, max_value=10), st.floats(min_value=0, max_value=10))
def test_ks_monotone_nonincreasing(d1, d2):
    lo, hi = sorted((d1, d2))
    assert ks_pvalue(lo) >= ks_pvalue(hi) - 1e-12


def test_ks_tends_to_zero():
    assert ks_pvalue(8.0) < 1e-50
    # but never reaches it while the first term, 2 exp(-2 d^2), is a positive
    # float: here it is below tol, and the rest of the series far smaller
    for d in (4.3, 4.43, 6.0):
        p = ks_pvalue(d)
        assert p > 0.0
        assert math.isclose(p, 2.0 * math.exp(-2.0 * d * d), rel_tol=1e-12)


# ------------------------------------------------------------ compare_groups


def test_compare_identical_groups(rng):
    ds = random_dataset(rng, 10, 15)
    res = compare_groups(ds, ds)
    assert res.d_raw == 0 and res.p_asymptotic == 1.0
    assert res.n_nodes == 15
    assert res.d_normalized == 0.0


def test_compare_symmetric_in_arguments(rng):
    ds1 = random_dataset(rng, 10, 12)
    ds2 = random_dataset(rng, 10, 12)
    for kind in (KIND_COMPONENTS, KIND_LARGEST):
        a = compare_groups(ds1, ds2, kind=kind)
        b = compare_groups(ds2, ds1, kind=kind)
        assert a.d_raw == b.d_raw and a.p_asymptotic == b.p_asymptotic


def test_compare_normalization(rng):
    ds1 = random_dataset(rng, 8, 12)
    ds2 = random_dataset(rng, 8, 12)
    res = compare_groups(ds1, ds2)
    assert res.d_normalized == res.d_raw / math.sqrt(2 * 11)
    assert 0.0 <= res.p_asymptotic <= 1.0


def dense_curves(ds, symmetrize):
    return filtration_curves(WeightedGraph.from_crosscorr(cross_correlate(ds, symmetrize=symmetrize)))


def blocked_group(rng, n_blocks, p):
    """A normalized group of 4 observations per block on p nodes. Each node's
    x and y are zero-sum integers on its own block's observations and zero
    elsewhere, so nodes on different blocks share no edge and the forest
    restarts once per block."""
    block = rng.integers(n_blocks, size=p)
    xy = np.zeros((2, 4 * n_blocks, p))
    for v, b in enumerate(block):
        steps = rng.integers(1, 4, size=(2, 3)) * rng.choice([-1, 1], size=(2, 3))
        xy[:, 4 * b : 4 * b + 4, v] = np.column_stack([steps, -steps.sum(axis=1)])
    return normalize_arrays(*xy)


@pytest.mark.parametrize("symmetrize", [True, False])
def test_compare_d_raw_is_sup_of_dense_curves(rng, symmetrize):
    # the observed sups come from Prim's step weights, with no curve: they
    # equal sup_distance of the curves of the groups' dense graphs
    pairs = [tuple(normalize_arrays(x, y) for x, y in tied_raw_groups())]
    pairs += [(random_dataset(rng, 8, p), random_dataset(rng, 9, p)) for p in range(2, 41)]
    split = (blocked_group(rng, 3, 30), blocked_group(rng, 4, 30))
    pairs.append(split)
    for ds in split:  # several trees
        assert dense_curves(ds, symmetrize)[0].values[0] >= 3
    for ds1, ds2 in pairs:
        curves = [dense_curves(ds, symmetrize) for ds in (ds1, ds2)]
        for kind, c1, c2 in zip(KINDS, *curves):
            assert compare_groups(ds1, ds2, kind, symmetrize).d_raw == sup_distance(c1, c2)


def test_result_json_roundtrip(rng):
    import json

    ds1 = random_dataset(rng, 8, 10)
    ds2 = random_dataset(rng, 8, 10)
    res = compare_groups(ds1, ds2, kind=KIND_LARGEST)
    blob = json.loads(res.to_json())
    assert blob["kind"] == KIND_LARGEST
    assert blob["d_raw"] == res.d_raw
    assert blob["p_permutation"] is None
    assert set(blob) == {
        "kind", "d_raw", "d_normalized", "p_asymptotic",
        "p_permutation", "n_nodes", "n_perm", "seed",
    }


# --------------------------------------------------------- permutation test


def test_permutation_identical_groups(rng):
    ds = random_dataset(rng, 6, 8)
    p = permutation_test(ds, ds, n_perm=49, seed=3)
    assert p >= 1.0 / 50.0
    assert p == 1.0  # observed D=0 can never be exceeded strictly... matched by all


def test_permutation_validation(rng):
    ds = random_dataset(rng, 6, 8)
    with pytest.raises(ValueError):
        permutation_test(ds, ds, n_perm=0)
    with pytest.raises(ValueError):
        permutation_test(ds, ds, kind="bogus", n_perm=1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        permutation_test(ds, ds, n_perm=1, seed=-1)
    small1 = random_dataset(rng, 3, 8)
    small2 = random_dataset(rng, 3, 8)
    assert 0 < permutation_test(small1, small2, n_perm=5, seed=1) <= 1
    # unequal group sizes are permutable too
    assert 0 < permutation_test(small1, ds, n_perm=5, seed=1) <= 1


def test_permutation_deterministic_and_thread_invariant(rng):
    ds1 = random_dataset(rng, 7, 10)
    ds2 = random_dataset(rng, 7, 10)
    vals = {
        permutation_test(ds1, ds2, n_perm=30, seed=11, threads=t) for t in (1, 2, 8)
    }
    assert len(vals) == 1
    assert permutation_test(ds1, ds2, n_perm=30, seed=11) in vals
    assert permutation_test(ds1, ds2, n_perm=30, seed=12) != permutation_test(
        ds1, ds2, n_perm=31, seed=11
    ) or True  # different draws may coincide; only determinism is contractual


def test_permutation_batches_equal_one_replicate_at_a_time(rng):
    # unequal group sizes (two normalization stacks) over more than a batch
    ds1, ds2 = random_dataset(rng, 9, 40), random_dataset(rng, 7, 40)
    n_perm = len(next(inference._batches(10**6, 2, 40))) + 1
    x, y = np.vstack([ds1.x, ds2.x]), np.vstack([ds1.y, ds2.y])

    kinds = (KIND_COMPONENTS, KIND_LARGEST)

    def sups(c1, c2):
        return np.array([sup_distance(c1[kind], c2[kind]) for kind in kinds])

    def perm_sups(idx1, idx2):
        return sups(*(group_curves(normalize_arrays(x[i], y[i])) for i in (idx1, idx2)))

    d_obs = sups(group_curves(ds1), group_curves(ds2))
    exceed = sum(
        perm_sups(perm[:9], perm[9:]) >= d_obs
        for perm in (np.random.default_rng(np.random.SeedSequence([3, r])).permutation(16)
                     for r in range(n_perm))
    )
    for kind, e in zip(kinds, exceed):
        expected = (1 + int(e)) / (1 + n_perm)
        assert permutation_test(ds1, ds2, kind, n_perm=n_perm, seed=3, threads=2) == expected


def test_permutation_ranks_the_reported_d_raw():
    # tied data, where the observed groups rebuilt from their pooled rows read
    # another sup distance than compare_groups reports
    ds1, ds2 = (normalize_arrays(x, y) for x, y in tied_raw_groups())
    expected = permutation_oracle(ds1, ds2, n_perm=199, seed=0, symmetrize=False)
    assert expected == {KIND_COMPONENTS: (3, 0.86), KIND_LARGEST: (5, 0.55)}
    for kind, (_, p_value) in expected.items():
        assert permutation_test(ds1, ds2, kind, n_perm=199, seed=0, symmetrize=False) == p_value


@pytest.mark.parametrize("p, threads, in_flight", [
    (18, 2, [3]),  # the 3 permutations are one batch
    (260, 1, [1]),  # one split per batch from p = 257 on, one batch per thread
    (260, 2, [1, 1]),
])
def test_permutation_refused_before_any_matrix(rng, monkeypatch, p, threads, in_flight):
    # each batch in flight holds its groups' p x p weights and four matrices
    # of kernel temporaries
    ds1, ds2 = random_dataset(rng, 6, p), random_dataset(rng, 5, p)
    need = sum(2 * splits + 4 for splits in in_flight) * 8 * p * p
    monkeypatch.setattr(inference, "_physical_memory", lambda: need - 1)

    def no_dense(*args, **kwargs):
        raise AssertionError("a p x p matrix was computed")

    with monkeypatch.context() as m:
        m.setattr(inference, "cross_correlate", no_dense)
        m.setattr(crosscorr, "_product_blocks", no_dense)  # nor the streamed pass
        with pytest.raises(SparseCCError, match=f"^{p} nodes need about .* of physical memory$"):
            permutation_test(ds1, ds2, n_perm=3, threads=threads)
    monkeypatch.setattr(inference, "_physical_memory", lambda: need)
    assert 0 < permutation_test(ds1, ds2, n_perm=3, threads=threads) <= 1


def test_permutation_threads_share_out_batches_of_one_split(rng, map_threads):
    # from p = 257 on a batch is one split, so the threads share the batches
    # out; this keeps the pool path covered, and the p-values do not move
    p = 260
    assert len(next(inference._batches(10**6, 2, p))) == 1
    assert len(next(inference._batches(10**6, 2, p - 4))) == 2
    ds1, ds2 = random_dataset(rng, 7, p), random_dataset(rng, 6, p)
    values = {t: [permutation_test(ds1, ds2, kind, n_perm=5, seed=2, threads=t)
                  for kind in (KIND_COMPONENTS, KIND_LARGEST)] for t in (1, 2, 3)}
    assert values[1] == values[2] == values[3]
    assert map_threads == [1, 1, 2, 2, 3, 3]


def test_permutation_refuses_a_column_a_permuted_group_could_hold_constant(rng, monkeypatch):
    # no group's column v3 is constant, but nine equal raw values in each make
    # 18 equal pooled values, of which a permuted group of 10 can draw only them
    groups = []
    for _ in range(2):
        x, y = rng.standard_normal((10, 6)), rng.standard_normal((10, 6))
        x[:9, 2] = 1.5
        groups.append(normalize_arrays(x, y))

    def no_work(*args, **kwargs):
        raise AssertionError("a weight matrix or a spanning forest was computed")

    with monkeypatch.context() as m:
        # the replicates' dense weights and every forest, the streamed ones included
        m.setattr(inference, "cross_correlate", no_work)
        m.setattr(filtration, "_prim_steps", no_work)
        with pytest.raises(ZeroVarianceNode, match="^a permuted group of 10 observations "
                                                   "could have a constant signal at nodes: v3$"):
            permutation_test(*groups, n_perm=50, seed=0)
    # one equal value fewer in a group, and no group of 10 can draw only equal values
    x, y = rng.standard_normal((10, 6)), rng.standard_normal((10, 6))
    x[:8, 2] = 1.5
    assert 0 < permutation_test(groups[0], normalize_arrays(x, y), n_perm=50, seed=0) <= 1


def test_permutation_detects_strong_difference():
    # one group mixes a shared latent signal into every node, the other is
    # pure noise; moderate coupling keeps the sup statistic off its ceiling
    rng = np.random.default_rng(7)
    n, p = 12, 20
    s = rng.standard_normal((n, 1))
    x1 = s + 0.4 * rng.standard_normal((n, p))
    y1 = s + 0.4 * rng.standard_normal((n, p))
    ds1 = normalize_arrays(x1, y1)
    ds2 = random_dataset(rng, n, p)
    p_val = permutation_test(ds1, ds2, n_perm=60, seed=5)
    assert p_val <= 0.1


# ------------------------------------------------------- random pairing null


def test_derangement_two_rows():
    x = np.array([[1.0, 2.0], [3.0, 1.0]])
    y = np.array([[0.5, 1.0], [2.0, 0.0]])
    ds = normalize_arrays(x, y)
    broken = random_pairing_null(ds, seed=0)
    np.testing.assert_array_equal(broken.y, ds.y[[1, 0]])


def test_derangement_no_fixed_points(rng):
    ds = random_dataset(rng, 9, 5)
    for seed in range(10):
        broken = random_pairing_null(ds, seed=seed)
        assert not any(np.array_equal(broken.y[k], ds.y[k]) for k in range(9))
        broken.check_normalized()


def test_derangement_deterministic(rng):
    ds = random_dataset(rng, 8, 5)
    a = random_pairing_null(ds, seed=42)
    b = random_pairing_null(ds, seed=42)
    np.testing.assert_array_equal(a.y, b.y)


# ------------------------------------------------- exact small-p distribution


def brute_force_sup_tail(p, c):
    """Enumerate all interleavings of two merge ladders of length p-1."""
    m = p - 1
    total = 0
    hits = 0
    for pattern in itertools.combinations(range(2 * m), m):
        xs = set(pattern)
        i = j = 0
        worst = 0
        for step in range(2 * m):
            if step in xs:
                i += 1
            else:
                j += 1
            worst = max(worst, abs(i - j))
        total += 1
        if worst >= c:
            hits += 1
    return hits / total


def test_exact_recursion_matches_enumeration():
    for p in (2, 3, 4, 5, 6):
        for c in range(0, p + 1):
            assert abs(exact_sup_tail(p, c) - brute_force_sup_tail(p, c)) < 1e-12


def full_table_sup_tail(p, c):
    """The recursion over the whole (p - 1) x (p - 1) grid, the tail as the
    exact complement of the path count over one division."""
    m = p - 1
    a = [[0] * (m + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        for j in range(m + 1):
            if (i, j) == (0, 0):
                a[i][j] = 1
            elif abs(i - j) < c:
                a[i][j] = (a[i - 1][j] if i else 0) + (a[i][j - 1] if j else 0)
    paths = math.comb(2 * m, m)
    return (paths - a[m][m]) / paths if c else 1.0


def test_exact_band_matches_full_grid():
    for p in range(2, 24):
        for c in range(0, p + 2):
            assert exact_sup_tail(p, c) == full_table_sup_tail(p, c)
    # the full grid's values at larger p
    for (p, c), tail in {(101, 14): 0.2819416298082478, (300, 20): 0.5160925431059654,
                         (1000, 45): 0.26294185919591323, (2000, 60): 0.3288758405955082,
                         (2000, 120): 0.0014840467952705195}.items():
        assert exact_sup_tail(p, c) == tail


def test_exact_small_tails_keep_their_digits():
    # 1 - A / comb cancels to 0.0 here; the true tails are 1.65e-17 and 4.77e-20
    tails = [exact_sup_tail(2000, c) for c in (120, 280, 300)]
    assert 0.0 < tails[2] < tails[1] < tails[0]
    assert math.isclose(tails[1], 1.645635840462248e-17, rel_tol=1e-12)
    assert math.isclose(tails[2], 4.773984647589213e-20, rel_tol=1e-12)


def test_exact_tail_holds_one_band_row():
    # the full grid would hold (p - 1)^2 = 4 M list slots, 32 MB of pointers
    tracemalloc.start()
    try:
        exact_sup_tail(2000, 120)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_exact_recursion_approaches_asymptotic():
    # modest p: the exact tail at c ~ d sqrt(2(p-1)) should be near ks_pvalue(d)
    p = 12
    d = 1.0
    c = d * math.sqrt(2 * (p - 1))
    exact = exact_sup_tail(p, math.ceil(c))
    assert abs(exact - ks_pvalue(d)) < 0.15
