import tracemalloc

import numpy as np
import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecc import (
    KIND_COMPONENTS,
    KIND_LARGEST,
    AbsWeightBlocks,
    BinaryGraph,
    FiltrationCurve,
    WeightedGraph,
    binarize,
    cross_correlate,
    filtration_curves,
    filtration_curves_binned,
    graph_sum,
    normalize_arrays,
    soft_threshold_equivalence_check,
    sparse_network,
    sup_distance,
    support_graph,
)
from sparsecc import crosscorr, filtration
from sparsecc.errors import NodeSetMismatch

import worked_example
from conftest import random_dataset, tied_zero_inputs


def brute_force_components(weights, lam):
    """BFS oracle: component count and largest size of {|w| > lam}."""
    p = weights.shape[0]
    adj = np.abs(weights) > lam
    adj |= adj.T
    np.fill_diagonal(adj, False)
    g = nx.from_numpy_array(adj)
    comps = list(nx.connected_components(g))
    return len(comps), max(len(c) for c in comps)


def worked_graph(worked_ds):
    cc = cross_correlate(worked_ds, symmetrize=True)
    return WeightedGraph.from_crosscorr(cc)


def worked_abs_graph(worked_ds):
    cc = cross_correlate(worked_ds, symmetrize=True)
    w = np.abs(cc.rho)
    np.fill_diagonal(w, 0.0)
    return WeightedGraph(w)


# ---------------------------------------------------------------- binarize


def test_binarize_worked_example(worked_ds):
    g = worked_abs_graph(worked_ds)
    bg = binarize(g, 0.5)
    assert bg.edges == frozenset({(0, 3), (2, 3)})
    assert binarize(g, 0.95).edges == frozenset()
    # sentinel below all weights keeps the whole weighted support
    assert len(binarize(g, -np.inf).edges) == 6


def test_binarize_zero_weight_is_absent():
    g = WeightedGraph.from_edges(4, [(0, 1, 0.5), (1, 2, 0.0)])
    assert binarize(g, -np.inf).edges == frozenset({(0, 1)})
    assert binarize(g, 0.2, mode="nonzero").edges == frozenset({(0, 1)})


def test_binarize_directed():
    w = np.zeros((3, 3))
    w[0, 1], w[1, 0], w[1, 2] = 0.9, 0.2, -0.5
    g = WeightedGraph(w, directed=True)
    bg = binarize(g, 0.1)
    assert bg.directed
    assert bg.edges == frozenset({(0, 1), (1, 0)})


def test_binary_graph_validation():
    with pytest.raises(ValueError):
        BinaryGraph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        BinaryGraph(3, frozenset({(2, 1)}))


# ------------------------------------------- soft-thresholding equivalence


def test_equivalence_worked_example(worked_ds):
    cc = cross_correlate(worked_ds, symmetrize=True)
    for lam in (0.0, 0.3, 0.5, 0.8):
        assert soft_threshold_equivalence_check(cc, lam)


def test_equivalence_random_and_tied(rng):
    for _ in range(25):
        ds = random_dataset(rng, 8, 10)
        cc = cross_correlate(ds, symmetrize=bool(rng.integers(2)))
        offdiag = np.abs(cc.rho[~np.eye(10, dtype=bool)])
        lams = np.concatenate([rng.uniform(0, 1, 10), rng.choice(offdiag, 5)])
        for lam in lams:
            assert soft_threshold_equivalence_check(cc, float(lam))


def test_equivalence_exact_tie():
    # lam exactly equal to an entry: both operators drop the tied edge
    rho = np.array([[1.0, 0.5, -0.25], [0.5, 1.0, 0.125], [-0.25, 0.125, 1.0]])
    from sparsecc import CrossCorrMatrix

    cc = CrossCorrMatrix(rho, symmetrized=True)
    net = sparse_network(cc, 0.5)
    assert (0, 1) not in net.entries
    assert soft_threshold_equivalence_check(cc, 0.5)
    assert soft_threshold_equivalence_check(cc, 0.125)


# ------------------------------------------------------- filtration curves


def test_worked_example_curves(worked_ds):
    count_curve, largest_curve, events = filtration_curves(worked_graph(worked_ds))
    np.testing.assert_allclose(
        sorted(events.thresholds, reverse=True),
        worked_example.EXPECTED_MERGE_THRESHOLDS,
        atol=1e-12,
    )
    # realized merge weights sit within 1e-13 of (0.9, 0.7, 0.4); evaluate
    # away from them so float direction cannot matter
    for lam, expected in ((0.95, 4), (0.8, 3), (0.5, 2), (0.3, 1)):
        assert count_curve.value_at(lam) == expected
    for lam, expected in ((0.95, 1), (0.8, 2), (0.5, 3), (0.39, 4)):
        assert largest_curve.value_at(lam) == expected
    assert count_curve.value_at(0.5) == 2 and largest_curve.value_at(0.5) == 3


def test_idealized_curve_breakpoint_semantics():
    # exactly representable weights: at a merge weight the edge is already gone
    g = WeightedGraph.from_edges(
        4, [(0, 1, 0.4), (0, 2, 0.5), (0, 3, 0.7), (1, 2, 0.3), (1, 3, 0.1), (2, 3, 0.9)]
    )
    count_curve, largest_curve, events = filtration_curves(g)
    assert list(events.thresholds) == [0.9, 0.7, 0.4]
    for lam, expected in ((0.9, 4), (0.7, 3), (0.4, 2), (0.39, 1)):
        assert count_curve.value_at(lam) == expected
    assert count_curve.left_limit(0.9) == 3
    assert count_curve.left_limit(0.4) == 1
    for lam, expected in ((0.9, 1), (0.7, 2), (0.4, 3)):
        assert largest_curve.value_at(lam) == expected
    assert largest_curve.left_limit(0.4) == 4


def test_empty_graph_curves():
    g = WeightedGraph(np.zeros((5, 5)))
    count_curve, largest_curve, events = filtration_curves(g)
    assert events.thresholds.size == 0
    assert count_curve.breakpoints.size == 0
    assert count_curve.value_at(-10.0) == 5 and count_curve.value_at(10.0) == 5
    assert largest_curve.value_at(0.0) == 1


def test_star_graph_single_breakpoint():
    w = 0.6
    g = WeightedGraph.from_edges(6, [(0, k, w) for k in range(1, 6)])
    count_curve, largest_curve, events = filtration_curves(g)
    assert list(count_curve.breakpoints) == [w]
    assert list(count_curve.values) == [1, 6]
    assert list(largest_curve.values) == [6, 1]
    assert len(events.thresholds) == 5


def test_curves_against_brute_force(rng):
    for _ in range(20):
        p = int(rng.integers(3, 16))
        w = rng.uniform(-1, 1, (p, p))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        g = WeightedGraph(w)
        count_curve, largest_curve, _ = filtration_curves(g)
        lams = np.concatenate([rng.uniform(0, 1, 25), count_curve.breakpoints])
        for lam in lams:
            c, l = brute_force_components(w, lam)
            assert count_curve.value_at(float(lam)) == c
            assert largest_curve.value_at(float(lam)) == l


def test_directed_weak_connectivity():
    w = np.zeros((3, 3))
    w[0, 1], w[2, 1] = 0.9, -0.4  # one direction only
    g = WeightedGraph(w, directed=True)
    count_curve, _, _ = filtration_curves(g, weight_transform="absolute")
    assert count_curve.value_at(0.5) == 2  # {0,1} merged, {2} apart
    assert count_curve.value_at(0.1) == 1


def test_raw_transform_negative_weights():
    g = WeightedGraph.from_edges(3, [(0, 1, -0.5), (1, 2, 0.5)])
    count_curve, _, _ = filtration_curves(g, weight_transform="raw")
    assert count_curve.value_at(0.0) == 2
    assert count_curve.value_at(-0.7) == 1
    absolute, _, _ = filtration_curves(g, weight_transform="absolute")
    assert absolute.value_at(0.3) == 1


def test_breakpoints_subset_of_msf(rng):
    for _ in range(10):
        p = int(rng.integers(4, 20))
        w = rng.uniform(0, 1, (p, p))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        count_curve, _, events = filtration_curves(WeightedGraph(w))
        g = nx.from_numpy_array(w)
        msf = nx.maximum_spanning_tree(g)
        msf_weights = {d["weight"] for _, _, d in msf.edges(data=True)}
        assert set(events.thresholds).issubset(msf_weights)
        assert len(events.thresholds) <= p - 1
        assert set(count_curve.breakpoints).issubset(msf_weights)


def test_determinism_under_edge_order(rng):
    p = 9
    w = rng.uniform(0, 1, (p, p))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    perm = rng.permutation(p)
    a = filtration_curves(WeightedGraph(w))
    b = filtration_curves(WeightedGraph(w[np.ix_(perm, perm)]))
    np.testing.assert_array_equal(a[0].breakpoints, b[0].breakpoints)
    np.testing.assert_array_equal(a[0].values, b[0].values)
    np.testing.assert_array_equal(a[1].values, b[1].values)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_nestedness_of_thresholded_graphs(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(3, 10))
    w = rng.uniform(-1, 1, (p, p))
    g = WeightedGraph((w + w.T) / 2 - np.diag(np.diag(w)))
    lams = np.sort(rng.uniform(0, 1, 3))
    prev = None
    for lam in lams:
        edges = binarize(g, float(lam)).edges
        if prev is not None:
            assert edges.issubset(prev)
        prev = edges


def test_curve_monotonicity_enforced(rng):
    for _ in range(5):
        ds = random_dataset(rng, 6, 12)
        cc = cross_correlate(ds, symmetrize=True)
        count_curve, largest_curve, _ = filtration_curves(WeightedGraph.from_crosscorr(cc))
        assert (np.diff(count_curve.values) >= 0).all()
        assert (np.diff(largest_curve.values) <= 0).all()
        assert count_curve.values[-1] == 12 and largest_curve.values[-1] == 1


def kruskal_merge_log(w):
    """All-pairs Kruskal over the finite upper-triangle weights in (-w, i, j)
    order: the forest edges (i, j, w) in merge order, and the largest size
    after each merge."""
    p = w.shape[0]
    parent, size, largest = list(range(p)), [1] * p, 1
    edges, sizes = [], []
    for neg_w, i0, j0 in sorted((-w[i, j], i, j) for i in range(p) for j in range(i + 1, p)):
        i, j = i0, j0
        while parent[i] != i:
            i = parent[i]
        while parent[j] != j:
            j = parent[j]
        if neg_w != np.inf and i != j:
            parent[i], size[j] = j, size[i] + size[j]
            largest = max(largest, size[j])
            edges.append((i0, j0, -neg_w))
            sizes.append(largest)
    return edges, sizes


def kruskal_curves(p, edges, sizes):
    """The count and largest-size curves of a :func:`kruskal_merge_log`."""
    thresholds = [t for _, _, t in edges]
    bps = np.unique(thresholds)
    above = [sum(t > lam for t in thresholds) for lam in [-np.inf, *bps]]
    return (FiltrationCurve(KIND_COMPONENTS, p, bps, [p - n for n in above]),
            FiltrationCurve(KIND_LARGEST, p, bps, [sizes[n - 1] if n else 1 for n in above]))


def assert_curves_match_kruskal(w, directed, weight_transform, curves, forest=None):
    """``curves`` (count, largest, events) and, when given, the forest's
    (i, j, w) arrays are those of the all-pairs Kruskal on ``w``."""
    a = np.abs(w) if weight_transform == "absolute" else w
    eff = np.where(a != 0.0, a, -np.inf)
    edges, sizes = kruskal_merge_log(np.maximum(eff, eff.T) if directed else eff)
    events = curves[2]
    assert events.thresholds.tolist() == [t for _, _, t in edges]
    assert events.merged_sizes.tolist() == sizes
    for got, want in zip(curves, kruskal_curves(w.shape[0], edges, sizes)):
        assert got.breakpoints.tolist() == want.breakpoints.tolist()
        assert got.values.tolist() == want.values.tolist()
    if forest is not None:
        ii, jj, ww = forest
        assert sorted(zip(ii.tolist(), jj.tolist(), ww.tolist())) == sorted(edges)


def assert_matches_kruskal(w, directed, weight_transform):
    g = WeightedGraph(w, directed=directed)
    assert_curves_match_kruskal(w, directed, weight_transform,
                                filtration_curves(g, weight_transform))


def tied_graph(rng, p):
    """Weights with heavy ties and zeros (often disconnected, so forests
    restart), directed or not, and the weight transform to filtrate them by."""
    levels = int(rng.integers(1, 4))
    w = rng.integers(-levels, levels + 1, (p, p)) / levels
    w *= rng.random((p, p)) < rng.uniform(0.1, 1.0)
    directed = bool(rng.integers(2))
    if not directed:
        w = np.triu(w, 1) + np.triu(w, 1).T
    return w, directed, ("absolute", "raw")[int(rng.integers(2))]


def step_forest(joined, ends, ww):
    """One graph's forest edges (i, j, w), i < j, from its Prim step columns."""
    edge = ww != -np.inf
    i, j = joined[edge], ends[edge]
    return np.minimum(i, j), np.maximum(i, j), ww[edge]


def test_forest_matches_all_pairs_kruskal_on_ties(rng):
    for _ in range(300):
        w, directed, _ = tied_graph(rng, int(rng.integers(2, 13)))
        for weight_transform in ("absolute", "raw"):
            assert_matches_kruskal(w, directed, weight_transform)
    # G graphs of one size in one lockstep pass: each graph's forest and
    # curves are its own, whatever the other graphs in the stack do
    for G in (1, 2, 7, 13):
        for _ in range(40):
            p = int(rng.integers(2, 13))
            graphs = [tied_graph(rng, p) for _ in range(G)]
            stack = np.stack([filtration._pair_weights(w, t, w.T if d else None)
                              for w, d, t in graphs])
            steps = filtration._prim_steps(stack.reshape(G * p, p).__getitem__, G, p)
            for g, (w, d, t) in enumerate(graphs):
                columns = [a[:, g] for a in steps]
                curves = filtration._step_curves(p, *columns)
                assert_curves_match_kruskal(w, d, t, curves, step_forest(*columns))
    # the core never reads a row's entries of nodes that have joined (the row's
    # own node included), which the streamed row source leaves stale
    for _ in range(100):
        p = int(rng.integers(2, 13))
        w, d, t = tied_graph(rng, p)
        pw, joined = filtration._pair_weights(w, t, w.T if d else None), []

        def rows(at):
            joined.append(at)
            r = pw[at].copy()
            r[joined] = np.inf
            return r

        steps = filtration._prim_steps(rows, 1, p)
        assert len(set(joined)) == len(joined) == p - 1  # each row requested once
        assert_curves_match_kruskal(w, d, t, filtration._step_curves(p, *steps),
                                    step_forest(*(a[:, 0] for a in steps)))


def test_forest_choice_among_equal_weights_sets_merged_sizes():
    # component {0, 3, 4} and singletons 1, 2, joined by three 0.5 edges; the
    # forest {(1, 2), (1, 3)} merges the singletons first (sizes 3, 5), while
    # {(1, 3), (2, 4)}, the same weights, would give sizes 4, 5
    g = WeightedGraph.from_edges(
        5, [(0, 3, 0.9), (3, 4, 0.9), (1, 2, 0.5), (1, 3, 0.5), (2, 4, 0.5)]
    )
    _, _, events = filtration_curves(g)
    assert events.thresholds.tolist() == [0.9, 0.9, 0.5, 0.5]
    assert events.merged_sizes.tolist() == [2, 3, 3, 5]
    assert_matches_kruskal(g.weights, False, "absolute")


def replicate_graph(rng, p):
    """Undirected pair weights of a tied graph (``tied_graph``), a continuous
    one of random density, or one split into two halves with no edge between
    them, so the forest restarts."""
    kind = int(rng.integers(3))
    if kind == 0:
        w, d, t = tied_graph(rng, p)
        return filtration._pair_weights(w, t, w.T if d else None)
    w = rng.standard_normal((p, p)) * (rng.random((p, p)) < rng.uniform(0.05, 1.0))
    if kind == 2:
        half = int(rng.integers(p + 1))
        w[:half, half:] = w[half:, :half] = 0.0
    return filtration._pair_weights(w, "absolute", w.T)


def test_step_sups_match_merge_log_curves(rng):
    # the replicate driver's sups, read from Prim's step weights, against
    # sup_distance of the curves of an all-pairs Kruskal merge log of the same
    # graphs, in the pair layouts of permutations (0, 1) and of study
    # repetitions (0, 1), (0, 2)
    for G in range(2, 27):
        for _ in range(6):
            p = int(rng.integers(2, 17))
            stack = np.stack([replicate_graph(rng, p) for _ in range(G)])
            steps = filtration._prim_steps(stack.reshape(G * p, p).__getitem__, G, p)
            curves = [kruskal_curves(p, *kruskal_merge_log(w)) for w in stack]
            for gap in (1, 2):
                first = np.arange(max(G - gap, 0))
                sups = filtration._step_sups(steps[2].T, first, first + gap)
                assert sups.shape == (first.size, 2)
                for a, got in zip(first, sups):
                    want = [sup_distance(c1, c2) for c1, c2 in zip(curves[a], curves[a + gap])]
                    assert got.tolist() == want
            every = np.arange(G)
            assert not filtration._step_sups(steps[2].T, every, every).any()


def test_prim_components_are_runs_of_join_order(rng):
    # at every distinct forest weight v, each component of the graph's edges of
    # weight >= v holds consecutive nodes of Prim's join order, so the step
    # weights alone give the largest-component curve
    for _ in range(150):
        G, p = int(rng.integers(1, 5)), int(rng.integers(2, 14))
        stack = np.stack([replicate_graph(rng, p) for _ in range(G)])
        joined, _, ww = filtration._prim_steps(stack.reshape(G * p, p).__getitem__, G, p)
        for g, pw in enumerate(stack):
            position = np.empty(p, dtype=int)
            position[np.r_[0, joined[:, g]]] = np.arange(p)  # node 0 starts every graph
            for v in np.unique(ww[:, g][ww[:, g] != -np.inf]):
                parent = list(range(p))

                def root(a):
                    while parent[a] != a:
                        a = parent[a]
                    return a

                for i, j in zip(*np.nonzero(np.triu(pw >= v, 1))):
                    parent[root(i)] = root(j)
                members = {}
                for node in range(p):
                    members.setdefault(root(node), []).append(position[node])
                for at in members.values():
                    assert max(at) - min(at) + 1 == len(at)


@pytest.mark.parametrize("symmetrize", [True, False])
@pytest.mark.parametrize("weight_transform", ["absolute", "raw"])
def test_streamed_steps_are_the_dense_prim_steps(rng, symmetrize, weight_transform):
    # the streamed pass, with its state in outside-slot order and absolute
    # weights on a zero floor, against the lockstep core over the dense pair
    # weights of cross_correlate: the same steps bitwise, the forest ends of
    # the steps that start a new tree included
    datasets = [normalize_arrays(*tied_zero_inputs(kind)) for kind in ("mixed", "signs", "split")]
    datasets += [random_dataset(rng, int(rng.integers(3, 12)), int(rng.integers(2, 40)))
                 for _ in range(6)]
    for ds in datasets:
        rho = cross_correlate(ds, symmetrize=symmetrize).rho
        w = filtration._pair_weights(rho, weight_transform, None if symmetrize else rho.T)
        want = filtration._prim_steps(w.__getitem__, 1, ds.n_nodes)
        got = filtration._streamed_steps(ds, symmetrize, weight_transform)
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


def test_exact_memory_stays_below_three_dense_matrices(rng):
    p = 1500
    w = rng.uniform(-1, 1, (p, p))
    g = WeightedGraph((w + w.T) / 2)
    tracemalloc.start()
    try:
        filtration_curves(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one dense p x p float64 matrix is 8 * p**2 bytes = 17 MiB
    assert peak < 3 * 8 * p**2


# ---------------------------------------------------------------- graph sum


def test_graph_sum_identity(rng):
    w = rng.uniform(-1, 1, (5, 5))
    g = WeightedGraph(w)
    z = WeightedGraph(np.zeros((5, 5)))
    np.testing.assert_array_equal(graph_sum(g, z).weights, w)


def test_graph_sum_two_directions_equals_twice_zeta(rng):
    ds = random_dataset(rng, 8, 7)
    b = cross_correlate(ds, symmetrize=False)
    zeta = cross_correlate(ds, symmetrize=True)
    g1 = WeightedGraph(b.rho, directed=True)
    g2 = WeightedGraph(b.rho.T, directed=True)
    total = graph_sum(g1, g2)
    np.testing.assert_allclose(total.weights, 2.0 * zeta.rho, atol=1e-12)


def test_graph_sum_of_filtrations_is_filtration(rng):
    # thresholded sums remain nested for increasing thresholds
    for _ in range(5):
        w1 = rng.uniform(0, 1, (6, 6))
        w2 = rng.uniform(0, 1, (6, 6))
        w1, w2 = (w1 + w1.T) / 2, (w2 + w2.T) / 2
        np.fill_diagonal(w1, 0.0)
        np.fill_diagonal(w2, 0.0)
        total = graph_sum(WeightedGraph(w1), WeightedGraph(w2))
        lams = np.sort(rng.uniform(0, 2, 4))
        prev = None
        for lam in lams:
            edges = binarize(total, float(lam)).edges
            if prev is not None:
                assert edges.issubset(prev)
            prev = edges


def test_graph_sum_mismatch():
    with pytest.raises(NodeSetMismatch):
        graph_sum(WeightedGraph(np.zeros((3, 3))), WeightedGraph(np.zeros((4, 4))))


# -------------------------------------------------------------- binned mode


def test_binned_agrees_with_exact_at_boundaries(rng):
    x = rng.standard_normal((15, 200))
    y = x + 0.05 * rng.standard_normal((15, 200))
    ds = normalize_arrays(x, y)
    cc = cross_correlate(ds, symmetrize=True)
    exact_count, exact_largest, _ = filtration_curves(WeightedGraph.from_crosscorr(cc))
    for n_bins in (50, 1000):
        stream = AbsWeightBlocks(ds, block_size=64, symmetrize=True)
        binned_count, binned_largest = filtration_curves_binned(stream, n_bins=n_bins)
        grid = np.arange(n_bins + 1) / n_bins
        np.testing.assert_array_equal(binned_count.value_at(grid), exact_count.value_at(grid))
        np.testing.assert_array_equal(
            binned_largest.value_at(grid), exact_largest.value_at(grid)
        )


def test_binned_breakpoints_near_exact(rng):
    ds = random_dataset(rng, 10, 40)
    cc = cross_correlate(ds, symmetrize=True)
    exact_count, _, _ = filtration_curves(WeightedGraph.from_crosscorr(cc))
    n_bins = 64
    stream = AbsWeightBlocks(ds, block_size=16, symmetrize=True)
    binned_count, _ = filtration_curves_binned(stream, n_bins=n_bins)
    for bp in binned_count.breakpoints:
        assert np.min(np.abs(exact_count.breakpoints - bp)) <= 1.0 / n_bins + 1e-12


class DenseRows:
    """A weight stream that serves ``row(u)`` from a dense symmetric matrix."""

    def __init__(self, w):
        self.w = np.maximum(w, w.T)
        self.n_nodes = w.shape[0]

    def row(self, u):
        return self.w[u].copy()


def test_binned_exact_when_weights_on_boundaries():
    w = np.zeros((5, 5))
    w[0, 1], w[1, 2], w[2, 3], w[3, 4] = 0.25, 0.5, 0.5, 0.75
    count_curve, largest_curve = filtration_curves_binned(DenseRows(w), n_bins=4)
    g = WeightedGraph.from_edges(5, [(0, 1, 0.25), (1, 2, 0.5), (2, 3, 0.5), (3, 4, 0.75)])
    exact_count, exact_largest, _ = filtration_curves(g)
    np.testing.assert_array_equal(count_curve.breakpoints, exact_count.breakpoints)
    np.testing.assert_array_equal(count_curve.values, exact_count.values)
    np.testing.assert_array_equal(largest_curve.values, exact_largest.values)


def test_binned_single_bucket():
    w = np.zeros((4, 4))
    w[0, 1], w[0, 2], w[0, 3] = 0.42, 0.43, 0.44
    count_curve, largest_curve = filtration_curves_binned(DenseRows(w), n_bins=10)
    assert list(count_curve.breakpoints) == [0.5]
    assert list(count_curve.values) == [1, 4]
    assert list(largest_curve.values) == [4, 1]


def test_binned_requires_two_bins(worked_ds):
    stream = AbsWeightBlocks(worked_ds, block_size=2)
    with pytest.raises(ValueError):
        filtration_curves_binned(stream, n_bins=1)


def test_binned_chunking_matches_single_chunk(rng):
    ds = random_dataset(rng, 9, 60)
    stream = AbsWeightBlocks(ds, block_size=25, symmetrize=True)
    big = filtration_curves_binned(stream, n_bins=200)
    small = filtration_curves_binned(stream, n_bins=200, max_chunk_edges=37)
    np.testing.assert_array_equal(big[0].breakpoints, small[0].breakpoints)
    np.testing.assert_array_equal(big[0].values, small[0].values)
    np.testing.assert_array_equal(big[1].values, small[1].values)


def test_binned_thread_invariance(rng):
    ds = random_dataset(rng, 8, 50)
    stream = AbsWeightBlocks(ds, block_size=16, symmetrize=True)
    results = [filtration_curves_binned(stream, n_bins=128, threads=t) for t in (1, 2, 8)]
    for r in results[1:]:
        np.testing.assert_array_equal(r[0].breakpoints, results[0][0].breakpoints)
        np.testing.assert_array_equal(r[0].values, results[0][0].values)
        np.testing.assert_array_equal(r[1].values, results[0][1].values)


def hadamard_dataset(rng, p):
    """Columns of a 16 x 16 Sylvester-Hadamard matrix: one for each x, and a
    signed sum of 1 or 4 of them for each y, or of all 15 for about a fifth of
    the ys. The sums of 1 or 4 normalize to a power of two, so their products
    are exact: many pairs weigh exactly 0, and many tie at multiples of 1/8.
    The 15-term sums add weights that differ in their last bits."""
    h = np.ones((1, 1))
    for _ in range(4):
        h = np.block([[h, h], [h, -h]])
    h = h[:, 1:]  # the all-ones column is constant
    x = h[:, rng.integers(15, size=p)] * rng.choice((-1.0, 1.0), p)
    y = np.empty_like(x)
    for j in range(p):
        terms = rng.choice(15, int(rng.choice((1, 4))), replace=False)
        y[:, j] = (h[:, terms] * rng.choice((-1.0, 1.0), terms.size)).sum(axis=1)
    y[:, rng.random(p) < 0.2] = (h * rng.choice((-1.0, 1.0), 15)).sum(axis=1, keepdims=True)
    return normalize_arrays(x, y)


def assert_binned_equals_snapped(binned, w, n_bins):
    """``binned`` curves are the exact ones of the weights ``w`` (in [0, 1], 0
    where absent) snapped up to the grid, breakpoints and values alike."""
    snapped = np.ceil(np.clip(w, 0.0, 1.0) * n_bins) / n_bins
    for b, e in zip(binned, filtration_curves(WeightedGraph(snapped))):
        np.testing.assert_array_equal(b.breakpoints, e.breakpoints)
        np.testing.assert_array_equal(b.values, e.values)


@pytest.mark.parametrize("symmetrize", [True, False])
def test_binned_equals_exact_curves_of_snapped_weights(rng, symmetrize):
    x = rng.standard_normal((15, 120))
    y = x + 0.3 * rng.standard_normal((15, 120))
    hadamard = [hadamard_dataset(rng, int(rng.integers(10, 40))) for _ in range(3)]
    for ds in (normalize_arrays(x, y), *hadamard):
        w = np.abs(cross_correlate(ds, symmetrize=symmetrize).rho)
        w = np.maximum(w, w.T)  # weak connectivity when directed
        np.fill_diagonal(w, 0.0)
        for n_bins in (2, 3, 7, 50, 100, 10_000):
            stream = AbsWeightBlocks(ds, block_size=32, symmetrize=symmetrize)
            assert_binned_equals_snapped(filtration_curves_binned(stream, n_bins=n_bins), w, n_bins)
    assert all((cross_correlate(ds).rho == 0.0).any() for ds in hadamard)


def test_binned_rows_with_zeros_equal_exact_curves_of_snapped_weights(rng):
    # weights on and between the bin boundaries, zeros (absent pairs) among
    # them, and graphs often disconnected, so zero-weight steps are dropped
    for n_bins in (2, 3, 7, 50):
        for _ in range(4):
            p = int(rng.integers(2, 30))
            w = rng.integers(0, 2 * n_bins + 1, (p, p)) / (2 * n_bins)
            w *= rng.random((p, p)) < rng.uniform(0.0, 0.4)
            rows = DenseRows(w)
            np.fill_diagonal(rows.w, 0.0)
            assert_binned_equals_snapped(filtration_curves_binned(rows, n_bins=n_bins), rows.w,
                                         n_bins)


def test_binned_computes_each_weight_row_once(rng, monkeypatch):
    calls = entries = 0
    product = crosscorr._product_blocks

    def counted(x, y):
        nonlocal calls, entries
        calls += 1
        entries += x.shape[1] * y.shape[1]
        return product(x, y)

    monkeypatch.setattr(crosscorr, "_product_blocks", counted)
    p = 200
    ds = random_dataset(rng, 8, p)
    # each joining node's two directed products run against the nodes still
    # outside the forest only, so every pair is computed once in each direction
    filtration_curves_binned(AbsWeightBlocks(ds, block_size=8), n_bins=1000)
    assert (calls, entries) == (2 * (p - 1), p * (p - 1))
    calls = entries = 0
    filtration._streamed_curves(ds, symmetrize=False)
    assert (calls, entries) == (2 * (p - 1), p * (p - 1))


def test_binned_memory_stays_linear_in_nodes(rng):
    p = 3000
    ds = random_dataset(rng, 10, p)
    stream = AbsWeightBlocks(ds, symmetrize=True)
    tracemalloc.start()
    try:
        filtration_curves_binned(stream, n_bins=10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one dense p x p float64 matrix would be 8 * p**2 bytes = 69 MiB
    assert peak < 8 * 2**20
