"""Graph filtrations and their monotone descriptors.

Thresholding a weighted graph at every level at once yields a nested family
of binary graphs. Two integer step functions summarize it: the number of
connected components (non-decreasing in the threshold) and the size of the
largest component (non-increasing). Both change only at the weights of a
maximum spanning forest, so a single sorted union-find pass computes the
curves exactly.

Conventions, fixed throughout:
  - an edge is present at level lam iff its weight strictly exceeds lam;
  - zero-weight pairs are not edges at any level (the support is the set of
    nonzero weights);
  - directed weights are reduced to undirected ones by taking the larger
    magnitude of the two directions (weak connectivity);
  - equal-weight edges are processed in lexicographic (i, j) order, which
    never changes curve values, only the merge-event listing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crosscorr import CrossCorrMatrix, SparseCrossCorr, sparse_network
from .errors import CurveMismatch, NodeSetMismatch

KIND_COMPONENTS = "component_count"
KIND_LARGEST = "largest_component_size"
KINDS = (KIND_COMPONENTS, KIND_LARGEST)


@dataclass(eq=False)
class WeightedGraph:
    """Node set plus dense edge weights; zero entries mean "no edge"."""

    weights: np.ndarray
    directed: bool = False
    node_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        p = self.weights.shape[0]
        if self.weights.shape != (p, p):
            raise NodeSetMismatch(f"weights must be square, got {self.weights.shape}")
        if self.node_ids is not None and len(self.node_ids) != p:
            raise NodeSetMismatch("node_ids length does not match weight matrix")

    @property
    def n_nodes(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def from_edges(cls, n_nodes: int, edges, directed: bool = False) -> "WeightedGraph":
        w = np.zeros((n_nodes, n_nodes))
        for i, j, wt in edges:
            w[i, j] = wt
            if not directed:
                w[j, i] = wt
        return cls(w, directed=directed)

    @classmethod
    def from_crosscorr(cls, cc: CrossCorrMatrix) -> "WeightedGraph":
        w = cc.rho.copy()
        np.fill_diagonal(w, 0.0)
        return cls(w, directed=not cc.symmetrized, node_ids=cc.node_ids)


@dataclass(eq=False)
class BinaryGraph:
    """Unweighted graph; undirected edges are stored as (i, j) with i < j."""

    n_nodes: int
    edges: frozenset
    directed: bool = False

    def __post_init__(self):
        for i, j in self.edges:
            if i == j:
                raise ValueError("self-loops are not allowed")
            if not self.directed and i > j:
                raise ValueError("undirected edges must be stored as (i, j) with i < j")


@dataclass(eq=False)
class FiltrationCurve:
    """Piecewise-constant integer step function of the threshold level.

    ``values`` has one more entry than ``breakpoints``: values[k] holds on
    [breakpoints[k-1], breakpoints[k]), values[0] below all breakpoints and
    values[-1] at and above the last one. The half-open bracket follows the
    strict ``weight > lam`` rule: at a merge weight the edge is already gone.
    """

    kind: str
    n_nodes: int
    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.breakpoints = np.asarray(self.breakpoints, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.int64)
        if self.kind not in KINDS:
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if self.values.size != self.breakpoints.size + 1:
            raise ValueError("need exactly len(breakpoints) + 1 values")
        if self.breakpoints.size and (np.diff(self.breakpoints) <= 0).any():
            raise ValueError("breakpoints must be strictly increasing")
        diffs = np.diff(self.values)
        if self.kind == KIND_COMPONENTS and (diffs < 0).any():
            raise ValueError("component counts must be non-decreasing in the threshold")
        if self.kind == KIND_LARGEST and (diffs > 0).any():
            raise ValueError("largest-component sizes must be non-increasing in the threshold")

    def value_at(self, lam) -> np.ndarray | int:
        """Curve value at threshold lam (limit from above at breakpoints)."""
        idx = np.searchsorted(self.breakpoints, lam, side="right")
        out = self.values[idx]
        return int(out) if np.isscalar(lam) else out

    def left_limit(self, lam) -> np.ndarray | int:
        """Curve value just below threshold lam."""
        idx = np.searchsorted(self.breakpoints, lam, side="left")
        out = self.values[idx]
        return int(out) if np.isscalar(lam) else out

    def write_csv(self, path) -> None:
        """Rows "threshold,value": one per breakpoint, plus the two sentinel
        rows for the unbounded intervals below and above."""
        with open(path, "w") as fh:
            fh.write("threshold,value\n")
            fh.write(f"-inf,{int(self.values[0])}\n")
            for bp, v in zip(self.breakpoints, self.values[1:]):
                fh.write(f"{repr(float(bp))},{int(v)}\n")
            fh.write(f"inf,{int(self.values[-1])}\n")


@dataclass(eq=False)
class MergeEvents:
    """Weights at which two components merge, one entry per union.

    ``thresholds`` is sorted descending (the order in which merges happen as
    the level drops); ``merged_sizes[k]`` is the largest component size right
    after merge k. At most n_nodes - 1 events: these are the weights of a
    maximum spanning forest.
    """

    thresholds: np.ndarray
    merged_sizes: np.ndarray

    def __post_init__(self):
        self.thresholds = np.asarray(self.thresholds, dtype=np.float64)
        self.merged_sizes = np.asarray(self.merged_sizes, dtype=np.int64)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("threshold,new_size\n")
            for t, s in zip(self.thresholds, self.merged_sizes):
                fh.write(f"{repr(float(t))},{int(s)}\n")


class _UnionFind:
    __slots__ = ("parent", "size", "count", "largest")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.count = n
        self.largest = 1

    def find(self, a: int) -> int:
        parent = self.parent
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        size = self.size
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        size[ra] += size[rb]
        if size[ra] > self.largest:
            self.largest = size[ra]
        self.count -= 1
        return True


def _transform(w: np.ndarray, weight_transform: str) -> np.ndarray:
    if weight_transform == "absolute":
        return np.abs(w)
    if weight_transform == "raw":
        return w
    raise ValueError(f"unknown weight_transform {weight_transform!r}")


def _undirected_weights(g: WeightedGraph, weight_transform: str) -> np.ndarray:
    """Effective undirected weight matrix; -inf marks absent pairs."""
    a = _transform(g.weights, weight_transform)
    b = np.where(a != 0.0, a, -np.inf)
    if g.directed:
        b = np.maximum(b, b.T)
    return b


def binarize(g: WeightedGraph, lam: float, mode: str = "above") -> BinaryGraph:
    """Threshold operator: ``above`` keeps weight > lam, ``nonzero`` keeps
    weight != 0. Use ``lam=-np.inf`` to keep the whole weighted support."""
    if mode == "above":
        keep = (g.weights != 0.0) & (g.weights > lam)
    elif mode == "nonzero":
        keep = g.weights != 0.0
    else:
        raise ValueError(f"unknown mode {mode!r}")
    np.fill_diagonal(keep, False)
    if g.directed:
        edges = frozenset((int(i), int(j)) for i, j in zip(*np.nonzero(keep)))
    else:
        keep = np.triu(keep | keep.T, k=1)
        edges = frozenset((int(i), int(j)) for i, j in zip(*np.nonzero(keep)))
    return BinaryGraph(g.n_nodes, edges, directed=g.directed)


def support_graph(sparse: SparseCrossCorr) -> BinaryGraph:
    """The nonzero-support binary graph of a sparse estimate."""
    return BinaryGraph(
        sparse.n_nodes,
        frozenset(sparse.entries),
        directed=not sparse.symmetric,
    )


def soft_threshold_equivalence_check(cc: CrossCorrMatrix, lam: float) -> bool:
    """True iff the sparse estimate's support equals thresholding |rho| at lam.

    This holds identically (it is the fast path the rest of the package relies
    on); the check exists as a permanently runnable cross-validation.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    left = support_graph(sparse_network(cc, lam))
    absg = WeightedGraph(np.abs(cc.rho) - np.diag(np.diag(np.abs(cc.rho))),
                         directed=not cc.symmetrized, node_ids=cc.node_ids)
    right = binarize(absg, lam, mode="above")
    return left.edges == right.edges


def filtration_curves(
    g: WeightedGraph, weight_transform: str = "absolute"
) -> tuple[FiltrationCurve, FiltrationCurve, MergeEvents]:
    """Component-count and largest-size curves over all thresholds at once.

    One union-find pass over the edges sorted by descending weight.
    """
    p = g.n_nodes
    w = _undirected_weights(g, weight_transform)
    iu, ju = np.triu_indices(p, k=1)
    wu = w[iu, ju]
    present = wu != -np.inf
    iu, ju, wu = iu[present], ju[present], wu[present]
    return _merge_log_curves(p, iu, ju, wu)


def _merge_log_curves(
    p: int, iu: np.ndarray, ju: np.ndarray, wu: np.ndarray
) -> tuple[FiltrationCurve, FiltrationCurve, MergeEvents]:
    """Both curves and the merge log of the undirected edges (iu, ju, wu).

    One union-find pass in (-w, i, j) order, stopping once the graph is fully
    merged: later edges cannot change either curve.
    """
    order = np.lexsort((ju, iu, -wu))
    uf = _UnionFind(p)
    merge_w, merge_count, merge_largest = [], [], []
    for k in order:
        if uf.union(int(iu[k]), int(ju[k])):
            merge_w.append(float(wu[k]))
            merge_count.append(uf.count)
            merge_largest.append(uf.largest)
            if uf.count == 1:
                break

    events = MergeEvents(np.array(merge_w), np.array(merge_largest))
    count_curve, largest_curve = _curves_from_merges(p, merge_w, merge_count, merge_largest)
    return count_curve, largest_curve, events


def _curves_from_merges(
    p: int, merge_w, merge_count, merge_largest
) -> tuple[FiltrationCurve, FiltrationCurve]:
    """Assemble both step curves from the descending merge log."""
    if not merge_w:
        return (
            FiltrationCurve(KIND_COMPONENTS, p, np.array([]), np.array([p])),
            FiltrationCurve(KIND_LARGEST, p, np.array([]), np.array([1])),
        )
    w_asc = np.array(merge_w)[::-1]
    cnt_asc = np.array(merge_count)[::-1]
    lrg_asc = np.array(merge_largest)[::-1]
    bps, first = np.unique(w_asc, return_index=True)
    m = bps.size
    cvals = np.empty(m + 1, dtype=np.int64)
    lvals = np.empty(m + 1, dtype=np.int64)
    # value on [bps[k-1], bps[k]) is the state after every merge at weight
    # >= bps[k]; first[k] indexes the last-processed merge at weight bps[k]
    cvals[:m] = cnt_asc[first]
    lvals[:m] = lrg_asc[first]
    cvals[m], lvals[m] = p, 1
    return (
        FiltrationCurve(KIND_COMPONENTS, p, bps, cvals),
        FiltrationCurve(KIND_LARGEST, p, bps, lvals),
    )


def graph_sum(g1: WeightedGraph, g2: WeightedGraph) -> WeightedGraph:
    """Entrywise weight sum over an identical node set."""
    if g1.n_nodes != g2.n_nodes:
        raise NodeSetMismatch(f"node counts differ: {g1.n_nodes} vs {g2.n_nodes}")
    if g1.node_ids is not None and g2.node_ids is not None and g1.node_ids != g2.node_ids:
        raise NodeSetMismatch("node ids differ")
    return WeightedGraph(
        g1.weights + g2.weights,
        directed=g1.directed or g2.directed,
        node_ids=g1.node_ids or g2.node_ids,
    )


def filtration_curves_binned(
    cc_stream,
    n_bins: int,
    max_chunk_edges: int = 20_000_000,
    threads: int | None = None,
) -> tuple[FiltrationCurve, FiltrationCurve]:
    """Quantized curves for graphs too large to hold as dense matrices.

    ``cc_stream`` supplies undirected weights in [0, 1] for ``n_nodes`` nodes,
    normally as an :class:`~sparsecc.crosscorr.AbsWeightBlocks`. Each weight
    is snapped up to the next multiple of 1/n_bins, so the result equals the
    exact curves of the snapped graph: both agree with the exact curves of the
    raw graph at every bin boundary, and every reported breakpoint sits within
    one bin width above an exact one.

    Both curves are set by a maximum spanning forest alone, and snapping up is
    monotone, so a maximum spanning tree of the raw weights is one of the
    snapped graph too. The tree comes from one Prim pass over weight rows
    (``cc_stream.row(u)``, each computed once as its node joins the tree); its
    p - 1 edges are snapped, the zero-weight ones (absent pairs) dropped, and
    the rest run through the same merge-log core as :func:`filtration_curves`.
    Memory is O(p) on top of the n x p observations the stream holds, so
    O(p * n) in all; the p x p weights are never stored.

    A stream without ``row`` is read block by block (``(i0, j0, w)`` as
    ``AbsWeightBlocks`` yields them), and every nonzero upper-triangle weight
    goes through the same snap and merge-log core.

    ``max_chunk_edges`` and ``threads`` are accepted for compatibility and
    unused: the Prim pass is sequential and holds no edge chunks.
    """
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    p = cc_stream.n_nodes
    if hasattr(cc_stream, "row"):
        ii, jj, w = _prim_tree(cc_stream.row, p)
    else:
        ii, jj, w = _block_edges(cc_stream)
    q = np.ceil(np.clip(w, 0.0, 1.0) * n_bins).astype(np.int64) - 1
    keep = q >= 0
    count_curve, largest_curve, _ = _merge_log_curves(
        p, ii[keep], jj[keep], (q[keep] + 1) / n_bins
    )
    return count_curve, largest_curve


def _prim_tree(row, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximum spanning tree (Prim, 1957) of the complete graph whose finite
    weights from node u ``row(u)`` returns; edges as (i, j, w) with i < j.

    Requests each row once, in the order nodes join the tree, and keeps O(p)
    state. Ties go to the lowest node index.
    """
    best = np.full(p, -np.inf)  # heaviest weight from each outside node to the tree
    src = np.zeros(p, dtype=np.int64)
    outside = np.ones(p, dtype=bool)
    closer = np.empty(p, dtype=bool)
    ii, jj, ww = [], [], []
    u = 0
    for _ in range(p - 1):
        outside[u] = False
        best[u] = -np.inf
        r = row(u)
        np.greater(r, best, out=closer)
        closer &= outside
        np.copyto(best, r, where=closer)
        np.copyto(src, u, where=closer)
        u = int(np.argmax(best))
        ii.append(min(u, int(src[u])))
        jj.append(max(u, int(src[u])))
        ww.append(best[u])
    return np.array(ii, dtype=np.int64), np.array(jj, dtype=np.int64), np.array(ww)


def _block_edges(cc_stream) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every nonzero upper-triangle weight of a stream of (i0, j0, w) blocks."""
    iis, jjs, wws = [], [], []
    for i0, j0, w in cc_stream:
        a, b = np.nonzero(np.triu(w, k=1) if i0 == j0 else w)
        iis.append(a + i0)
        jjs.append(b + j0)
        wws.append(w[a, b])
    return np.concatenate(iis), np.concatenate(jjs), np.concatenate(wws)
