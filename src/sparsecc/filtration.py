"""Graph filtrations and their monotone descriptors.

Thresholding a weighted graph at every level at once yields a nested family
of binary graphs. Two integer step functions summarize it: the number of
connected components (non-decreasing in the threshold) and the size of the
largest component (non-increasing). Both change only at the weights of a
maximum spanning forest, so the exact and the streamed (binned) filtration
both build that forest by one Prim pass over weight rows (``_prim_forest``)
and get both curves by replaying its at most p - 1 edges through a union-find.

Conventions, fixed throughout:
  - an edge is present at level lam iff its weight strictly exceeds lam;
  - zero-weight pairs are not edges at any level (the support is the set of
    nonzero weights);
  - directed weights are reduced to undirected ones by taking the larger
    magnitude of the two directions (weak connectivity);
  - edges are ranked by weight, then equal weights by lexicographic (i, j)
    order; that strict order picks the one forest and orders its merge
    events, and never changes curve values, only the merge-event listing.
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


def _undirected_weights(g: WeightedGraph, weight_transform: str) -> np.ndarray:
    """Effective undirected weight matrix; -inf marks absent pairs."""
    if weight_transform == "absolute":
        b = np.abs(g.weights)
    elif weight_transform == "raw":
        b = g.weights.copy()
    else:
        raise ValueError(f"unknown weight_transform {weight_transform!r}")
    b[b == 0.0] = -np.inf
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

    One Prim pass (``_prim_forest``) over the rows of the undirected weight
    matrix builds the maximum spanning forest, and its at most p - 1 edges are
    replayed through the union-find merge log. Diagonal entries are ignored.
    Memory is the weight matrix plus O(p).
    """
    w = _undirected_weights(g, weight_transform)
    return _merge_log_curves(g.n_nodes, *_prim_forest(lambda u: w[u], g.n_nodes))


def _merge_log_curves(
    p: int, iu: np.ndarray, ju: np.ndarray, wu: np.ndarray
) -> tuple[FiltrationCurve, FiltrationCurve, MergeEvents]:
    """Both curves and the merge log of the spanning-forest edges (iu, ju, wu).

    A union-find replays them in (-w, i, j) order. Each one merges two
    different components, so m merges leave p - m of them.
    """
    order = np.lexsort((ju, iu, -wu))
    parent, size, top, largest = list(range(p)), [1] * p, 1, []
    for a, b in zip(iu[order].tolist(), ju[order].tolist()):
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if size[a] < size[b]:  # union by size keeps every root path O(log p)
            a, b = b, a
        parent[b] = a
        size[a] += size[b]
        top = max(top, size[a])
        largest.append(top)
    events = MergeEvents(wu[order], largest)
    # in ascending order first[k] is the last merge at weight bps[k], and the
    # value on [bps[k-1], bps[k]) is the state after it
    bps, first = np.unique(events.thresholds[::-1], return_index=True)
    count = np.append(p - len(largest) + first, p)
    largest_size = np.append(events.merged_sizes[::-1][first], 1)
    return (
        FiltrationCurve(KIND_COMPONENTS, p, bps, count),
        FiltrationCurve(KIND_LARGEST, p, bps, largest_size),
        events,
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

    ``cc_stream`` supplies ``n_nodes`` and ``row(u)``, node u's undirected
    weights in [0, 1] to every node, normally as an
    :class:`~sparsecc.crosscorr.AbsWeightBlocks`. Each weight is snapped up to
    the next multiple of 1/n_bins, so the result equals the exact curves of the
    snapped graph: both agree with the exact curves of the raw graph at every
    bin boundary, and every reported breakpoint sits within one bin width above
    an exact one.

    Both curves are set by a maximum spanning forest alone, and snapping up is
    monotone, so a maximum spanning tree of the raw weights is one of the
    snapped graph too. The tree comes from the Prim pass that
    :func:`filtration_curves` runs (each row computed once, as its node joins
    the tree); its p - 1 edges are snapped, the zero-weight ones (absent pairs)
    dropped, and the rest replayed through the same merge log. Memory is O(p)
    on top of the n x p observations the stream holds, so O(p * n) in all; the
    p x p weights are never stored.

    ``max_chunk_edges`` and ``threads`` are accepted for compatibility and
    unused: the Prim pass is sequential and holds no edge chunks.
    """
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    ii, jj, w = _prim_forest(cc_stream.row, cc_stream.n_nodes)
    q = np.ceil(np.clip(w, 0.0, 1.0) * n_bins).astype(np.int64) - 1
    keep = q >= 0
    return _merge_log_curves(
        cc_stream.n_nodes, ii[keep], jj[keep], (q[keep] + 1) / n_bins
    )[:2]


def _prim_forest(row, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximum spanning forest (Prim, 1957) of the graph on p nodes whose
    weights from node u ``row(u)`` returns; -inf marks an absent pair and
    entry u is ignored. Edges come back as (i, j, w) with i < j.

    Edges are ranked by the strict total order of a sorted Kruskal pass:
    higher weight first, then the smaller (i, j) pair. It decides both whether
    an equal weight replaces a node's best edge to the forest and which of
    several equally heavy outside nodes joins next, so the forest is the unique
    maximum one under that order, Kruskal's edge for edge. When no finite
    weight reaches the forest, a new tree starts at the lowest outside node.
    Requests each row once, in the order nodes join, and keeps O(p) state.
    """
    best = np.full(p, -np.inf)  # heaviest weight from each outside node to the forest
    src = np.zeros(p, dtype=np.int32)  # the forest end of that edge
    outside = np.ones(p, dtype=bool)
    closer = np.empty(p, dtype=bool)
    joined, ww = [], []
    u = 0
    for _ in range(p - 1):
        outside[u] = False
        r = row(u)
        np.greater_equal(r, best, out=closer)
        closer &= outside
        k = closer.nonzero()[0]
        rk = r[k]
        tied = rk == best[k]
        if np.count_nonzero(tied):  # {u, v} precedes {src[v], v} iff u < src[v]
            keep = ~tied | (src[k] > u)
            k, rk = k[keep], rk[keep]
        best[k] = rk
        src[k] = u
        u = int(best.argmax())
        w = best[u]
        best[u] = -np.inf
        if w == -np.inf:  # nothing finite reaches the forest
            u = int(outside.argmax())
            continue
        if best[best.argmax()] == w:  # equally heavy: the smallest (i, j) pair joins
            best[u] = w
            tied = np.flatnonzero(best == w)
            lo, hi = np.minimum(tied, src[tied]), np.maximum(tied, src[tied])
            u = int(tied[(lo * p + hi).argmin()])
            best[u] = -np.inf
        joined.append(u)
        ww.append(w)
    joined = np.array(joined, dtype=np.int64)
    ends = src[joined]  # fixed once a node has joined
    return np.minimum(joined, ends), np.maximum(joined, ends), np.array(ww)
