"""Graph filtrations and their monotone descriptors.

Thresholding a weighted graph at every level at once yields a nested family
of binary graphs. Two integer step functions summarize it: the number of
connected components (non-decreasing in the threshold) and the size of the
largest component (non-increasing). Both change only at the weights of a
maximum spanning forest, so every filtration builds that forest by one Prim
pass over weight rows, in one of two loops with the same rules.
``_prim_steps`` runs G graphs in lockstep over dense rows
(``filtration_curves``, replicate batches). ``_streamed_steps`` screens each
joining node's row from the observations against the nodes still outside the
forest only, the only entries Prim reads, and computes exactly the few that
can change the forest, so it holds no p x p matrix and screens every pair
once. Every CLI pass over one group is streamed:
``build``, ``filtrate``, ``compare`` and ``hgi``.
Prim finishes each single-linkage component before it leaves it, so every
component size is read from the steps alone, by one routine (``_run_sizes``).
Two groups' sup distances, for the observed pair of ``compare`` and ``hgi``
and every replicate alike, come straight from the step weights
(``_step_sups``), with no curve or merge log. Curves and merge events are
built only where they are written out or returned (``filtrate``, ``build``
and the public curve functions), from the steps ranked in merge order
(``_step_curves``).

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

import math
from dataclasses import dataclass

import numpy as np

from .crosscorr import (
    _ROW_BLOCK_BYTES,
    AbsWeightBlocks,
    CrossCorrMatrix,
    SparseCrossCorr,
    _kept_pairs,
    _row_weights,
    _screen_row,
    _signed_row,
    sparse_network,
)
from .dataset import _write_rows
from .errors import NodeSetMismatch

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
        thresholds = np.concatenate(([-np.inf], self.breakpoints, [np.inf]))
        values = np.append(self.values, self.values[-1])
        _write_rows(path, "threshold,value", "{!r},{}", [(thresholds, values)])


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
        _write_rows(path, "threshold,new_size", "{!r},{}", [(self.thresholds, self.merged_sizes)])


def _pair_weights(w: np.ndarray, weight_transform: str, w_rev=None, out=None) -> np.ndarray:
    """Undirected filtration weights of the pairs in ``w``; -inf marks absent ones.

    Weights are absolute or raw, and a zero weight is no edge. ``w_rev``, when
    given, holds the same pairs in the other direction, and each pair takes the
    larger of its two directions (weak connectivity). ``w`` may be a whole
    matrix (with ``w_rev`` its transpose) or one node's row (with ``w_rev``
    the matching column); each array is transformed once, vectorised, and
    ``w_rev is w`` (an already symmetric row) is read once. The weights are
    written to ``out`` when given (one graph of a stack), else to a new array.
    """
    if weight_transform == "absolute":
        b = np.abs(w, out=out)
    elif weight_transform == "raw":
        b = np.positive(w, out=out)  # a copy
    else:
        raise ValueError(f"unknown weight_transform {weight_transform!r}")
    b[b == 0.0] = -np.inf
    if w_rev is not None and w_rev is not w:
        np.maximum(b, _pair_weights(w_rev, weight_transform), out=b)
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
    rows, cols = _kept_pairs(keep if g.directed else keep | keep.T, upper=not g.directed)
    return BinaryGraph(g.n_nodes, frozenset(zip(rows.tolist(), cols.tolist())), g.directed)


def support_graph(sparse: SparseCrossCorr) -> BinaryGraph:
    """The nonzero-support binary graph of a sparse estimate."""
    edges = frozenset(zip(sparse.rows.tolist(), sparse.cols.tolist()))
    return BinaryGraph(sparse.n_nodes, edges, directed=not sparse.symmetric)


def soft_threshold_equivalence_check(cc: CrossCorrMatrix, lam: float) -> bool:
    """True iff the sparse estimate's support equals thresholding |rho| at lam.

    This holds identically (it is the fast path the rest of the package relies
    on); the check exists as a permanently runnable cross-validation.
    """
    left = support_graph(sparse_network(cc, lam))
    absg = WeightedGraph(np.abs(cc.rho) - np.diag(np.diag(np.abs(cc.rho))),
                         directed=not cc.symmetrized, node_ids=cc.node_ids)
    right = binarize(absg, lam, mode="above")
    return left.edges == right.edges


def filtration_curves(
    g: WeightedGraph, weight_transform: str = "absolute"
) -> tuple[FiltrationCurve, FiltrationCurve, MergeEvents]:
    """Component-count and largest-size curves over all thresholds at once.

    One Prim pass (``_prim_steps`` at G = 1) over the rows of the undirected
    weight matrix builds the maximum spanning forest, and both curves and the
    merge events are read from its steps (``_step_curves``). Diagonal entries
    are ignored. Memory is the weight matrix plus O(p).
    """
    w = _pair_weights(g.weights, weight_transform, g.weights.T if g.directed else None)
    return _step_curves(len(w), *_prim_steps(w.__getitem__, 1, len(w)))


def _streamed_curves(
    ds, symmetrize: bool, weight_transform: str = "absolute"
) -> tuple[FiltrationCurve, FiltrationCurve, MergeEvents]:
    """:func:`filtration_curves` of a dataset's cross-correlation graph, with no
    p x p matrix: the curves of the steps of :func:`_streamed_steps`."""
    return _step_curves(ds.n_nodes, *_streamed_steps(ds, symmetrize, weight_transform))


# float32's unit roundoff and its smallest normal number: a float32 result
# that underflows, gradually or flushed to zero, is off by at most the latter
_U32, _TINY32, _MAX32 = 2.0**-24, 2.0**-126, float(np.finfo(np.float32).max)


def _screen_slack(ds) -> float:
    """The ε of :func:`_streamed_steps`' float32 screen on ``ds``, or inf where
    the bound derived there does not hold."""
    n = ds.n_obs
    # the largest column norms, rounded up; squares that underflow (entries
    # below 2**-537) take at most sqrt(n) * 2**-537 off a norm
    nx, ny = (math.sqrt(np.einsum("ij,ij->j", a, a).max()) * (1 + 2.0**-20)
              + math.sqrt(n) * 2.0**-537 for a in (ds.x, ds.y))
    t, r = nx * ny, math.sqrt(n) * (nx + ny)
    if not (8 * n * _U32 <= 1 and 4 * (t + nx + ny) < _MAX32):  # NaN fails too
        return math.inf
    return 2 * ((3 + 3 * n) * _U32 * t + 6 * _TINY32 * r + 10 * n * _TINY32)


def _streamed_steps(ds, symmetrize: bool, weight_transform: str = "absolute"):
    """:func:`_prim_steps` (G = 1) of the graph of
    ``cross_correlate(ds, symmetrize=symmetrize)``, in a loop of its own over
    streamed rows, each screened against the nodes still outside the forest.

    The outside nodes' y and x columns sit compacted in slots [0, m) of one
    float32 copy of the observations, stacked as ``(2, n, p)``, and Prim's
    state (best weight, its level, its forest end, node) sits in the same
    slots. A joining node's columns are read out of its slot, the last
    outside slot moves in, in O(n), and slot m drops out. Its row is then
    screened, by one float32 BLAS product against the m slots left
    (``crosscorr._screen_row``). Only the candidates, the slots whose
    screened weight reaches their level, get exact weights: the einsum
    kernel on their columns gathered from the node-ordered ``ds.x`` and
    ``ds.y``, ``_ROW_BLOCK_BYTES`` of columns at a time, bitwise the entries
    of :func:`~sparsecc.crosscorr.cross_correlate`, and a step with no
    candidate computes none. So every pair is screened once, no step touches
    a p-long array, and memory is one float32 n x 2p copy and O(p).

    A slot's level is a float32 number at or below its best weight minus ε,
    and ε bounds how far a screened weight can sit from the exact one,
    whatever order BLAS sums in. So every slot whose exact weight reaches its
    best weight is a candidate. The other slots weigh less than their best
    weights, and Prim would pass them over. The rules are those of
    :func:`_prim_steps`, so the steps are bitwise those of the dense graph on
    any CPU, BLAS build and thread count.

    ε (``_screen_slack``) follows the order-independent bounds of Higham
    (2002), *Accuracy and Stability of Numerical Algorithms*, §3.1. Let
    u = 2**-24 (float32's unit roundoff), η = 2**-126 (its smallest normal
    number), X and Y the largest x and y column norms, T = X Y and
    R = sqrt(n) (X + Y). A weight's product, or symmetrized the average of
    two, has at most 2n terms, and |x_i . y_j| <= T. Then:
      - rounding the inputs to float32, and halving the joining node's
        columns, moves the sum by at most 2.1 u T + 2.6 η R;
      - the float32 products and sums, in any order, fused or not, add at
        most γ_2n (1.1 T + 2.6 η R), where γ_2n = 2nu / (1 - 2nu) <= 2.7 nu
        while 8 nu <= 1;
      - each float32 product or sum that underflows, gradually or flushed to
        zero, is off by at most η, and a later rounding at most doubles
        that: 8 n η in all;
      - the float64 kernel, with its add and halve under ``symmetrize``, is
        within γ_2n(2**-53) T + 2**-53 T + 4 n 2**-1022 of the exact value,
        below u T + n η;
      - |.| and the larger of two directions move no weight further than
        their arguments.
    So a screened weight is within e = (3 + 3n) u T + 6 η R + 10 n η of the
    exact one, and ε = 2e: the second e covers rounding best - ε to float64
    and then to float32. Where the bound cannot be guaranteed (8 nu > 1, a
    non-finite norm, or a float32 product or sum that could overflow,
    4 (T + X + Y) not below float32's largest value), ε = inf: every level is
    -inf, the float32 copy holds zeros so that the screen reads no NaN, and
    every slot is a candidate.

    Absolute weights start from a floor of 0.0, not -inf: a zero weight (no
    edge) ties with it as -inf ties with -inf, so no row is masked, and zero
    step weights become -inf at the end. Raw weights, whose negative weights
    are edges, keep -inf and the mask. The screen masks no zero weight.
    """
    p, n = ds.n_nodes, ds.n_obs
    eps = _screen_slack(ds)
    screens = eps < math.inf
    yx = np.zeros((2, n, p), dtype=np.float32)  # slot -> its node's y and x columns
    if screens:
        yx[0], yx[1] = ds.y, ds.x
    v = np.empty((2, n), dtype=np.float32)  # the joining node's x and y columns
    half = 0.5 if symmetrize else 1.0
    absolute = weight_transform == "absolute"
    floor = 0.0 if absolute else -np.inf
    best = np.full(p, floor)  # slot -> heaviest weight from its node to the forest
    level = np.full(p, floor - eps, dtype=np.float32)  # slot -> its screen's level
    end = np.zeros(p, dtype=np.intp)  # slot -> that edge's forest end
    node = np.arange(p)  # slot -> node
    screened = np.empty(p, dtype=bool)
    chunk = max(1, _ROW_BLOCK_BYTES // (8 * n))  # candidate columns gathered at a time
    joined, ends = np.empty((2, max(p - 1, 0)), dtype=np.intp)
    ww = np.empty(max(p - 1, 0))
    s = 0  # node 0 starts the forest
    for step in range(p - 1):
        m = p - 1 - step  # u leaves slot s to the node of slot m, which then drops out
        u = node[s]
        np.multiply(yx[::-1, :, s], half, out=v)
        yx[..., s] = yx[..., m]
        best[s], level[s], end[s], node[s] = best[m], level[m], end[m], node[m]
        r = _row_weights(*_screen_row(v, yx, m, symmetrize), absolute)
        k = np.greater_equal(r, level[:m], out=screened[:m]).nonzero()[0]
        bm = best[:m]
        for i in range(0, k.size, chunk):
            kc = k[i : i + chunk]
            # fresh kernel rows, so transformed in place
            b, c = _signed_row(ds.x, ds.y, u, node[kc], symmetrize)
            rk = (_row_weights(b, c, True) if absolute
                  else _pair_weights(b, weight_transform, c, out=b))
            bk = bm[kc]
            keep = rk >= bk
            tied = rk == bk
            if np.count_nonzero(tied):  # {u, v} precedes v's best edge iff u < its forest end
                keep &= ~tied | (end[kc] > u)
            kc, rk = kc[keep], rk[keep]
            bm[kc] = rk
            end[kc] = u
            if screens:  # else every level stays -inf (an infinite weight would make it NaN)
                level[kc] = rk - eps
        s = bm.argmax()
        w = bm[s]
        bm[s] = floor  # s joins next, and its best weight is read no more
        if w == floor:  # nothing above the floor reaches the forest
            s = node[:m].argmin()  # a new tree starts at the lowest outside node
        elif bm[bm.argmax()] == w:  # equally heavy: the smallest (i, j) pair joins
            bm[s] = w
            tie = (bm == w).nonzero()[0]
            i, j = node[tie], end[tie]
            s = tie[(np.minimum(i, j) * p + np.maximum(i, j)).argmin()]
        joined[step], ends[step], ww[step] = node[s], end[s], w
    if absolute:
        ww[ww == 0.0] = -np.inf
    return joined[:, None], ends[:, None], ww[:, None]


def _step_curves(
    p: int, joined: np.ndarray, ends: np.ndarray, w: np.ndarray
) -> tuple[FiltrationCurve, FiltrationCurve, MergeEvents]:
    """Both curves and the merge events of one graph's :func:`_prim_steps`
    columns: the node each step adds, the forest node it joins and the weight.

    The forest edges merge in the strict (-w, i, j) order of a sorted Kruskal
    pass, the order Prim's ties follow. Ranked in that order, the edges of rank
    <= r are a threshold set of a graph with distinct weights, so each of its
    components is a run of Prim steps (``_run_sizes``): when Prim enters a new
    component, every one it has touched is complete. A merge makes a component
    of its edge's run size, the largest after it is the running maximum of
    those, and each merge leaves one component fewer.
    """
    edge = w != -np.inf
    i, j, w = joined[edge], ends[edge], w[edge]
    order = np.lexsort((np.maximum(i, j), np.minimum(i, j), -w))
    at = edge.ravel().nonzero()[0][order]  # the steps in merge order
    ranks = np.full((1, edge.size), -np.inf)  # negated merge ranks; tree starts end every run
    ranks[0, at] = -np.arange(at.size)
    events = MergeEvents(w[order], np.maximum.accumulate(_run_sizes(ranks)[0, at]))
    # in ascending order first[k] is the last merge at weight bps[k], and the
    # value on [bps[k-1], bps[k]) is the state after it
    bps, first = np.unique(events.thresholds[::-1], return_index=True)
    count = np.append(p - order.size + first, p)
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
    snapped graph too. The tree comes from the streamed pass the exact curves
    run (``_streamed_steps`` on an ``AbsWeightBlocks``' dataset, screening
    every pair once); any other stream's ``row(u)`` is read in full by
    ``_prim_steps``. The step weights are snapped, the zero ones and the tree
    starts (-inf) dropped, and the curves read from the steps as the
    exact ones are (``_step_curves``). They are read only after the last merge
    at each snapped weight, where the merged edges are those of the raw tree
    above a threshold, so each component is a run of steps. Memory is O(p) on
    top of the n x p observations the stream holds and a float32 copy of them, so
    O(p * n) in all; the p x p weights are never stored.

    ``max_chunk_edges`` and ``threads`` are accepted for compatibility and
    unused: the Prim pass is sequential and holds no edge chunks.
    """
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    steps = (_streamed_steps(cc_stream.ds, cc_stream.symmetrize)
             if isinstance(cc_stream, AbsWeightBlocks)
             else _prim_steps(cc_stream.row, 1, cc_stream.n_nodes))
    w = np.ceil(np.clip(steps[2], 0.0, 1.0) * n_bins) / n_bins
    w[w == 0.0] = -np.inf
    return _step_curves(cc_stream.n_nodes, *steps[:2], w)[:2]


def _step_sups(ww: np.ndarray, first, second) -> np.ndarray:
    """``inference.sup_distance`` between the curves of graphs ``first[k]`` and
    ``second[k]`` of G graphs, as a ``(len(first), 2)`` integer array in
    ``KINDS`` order, read in one vectorised pass from their ``(G, p - 1)`` Prim
    step weights ``ww`` (:func:`_prim_steps`, transposed; -inf starts a tree),
    with no curve or merge log. Every two-group sup, observed or replicate, is this one.

    Below level lam the component count is p minus the steps heavier than lam.
    Prim finishes each single-linkage component before it leaves it (Gower &
    Ross, 1969), so at every level each component is a run of consecutive
    steps: at a step's own weight, its component is the step's run
    (``_run_sizes``), and the largest component below lam is the largest run
    of a step heavier than lam. Each pair's steps are merged in descending
    weight order, and both differences are read after each distinct weight:
    every value either curve takes.
    """
    n = ww.shape[1]
    # a pair's 2n steps in descending weight order; a step that starts a tree
    # counts as an edge of weight -inf: those sort last, where both graphs read
    # as one tree and both differences as 0
    wt = np.concatenate((ww[first], ww[second]), axis=1)
    order = np.argsort(-wt, axis=1)
    flat = order + np.arange(len(first))[:, None] * (2 * n)
    wt = wt.take(flat)
    size = _run_sizes(ww)
    size = np.concatenate((size[first], size[second]), axis=1).take(flat)
    of_first = order < n
    last = np.ones(wt.shape, dtype=bool)  # the last step of each distinct weight
    np.not_equal(wt[:, 1:], wt[:, :-1], out=last[:, :-1])
    count = np.cumsum(np.where(of_first, 1, -1), axis=1)
    largest = [np.maximum.accumulate(np.where(of_first == side, size, 1), axis=1)
               for side in (True, False)]
    diffs = (np.abs(count), np.abs(largest[0] - largest[1]))
    return np.stack([np.where(last, d, 0).max(axis=1, initial=0) for d in diffs], axis=1)


def _run_sizes(ww: np.ndarray) -> np.ndarray:
    """The one component-size routine: for ``(G, n)`` step weights ``ww``
    (-inf starts a tree), one node more than each step's run, the longest
    stretch of neighbouring steps around it whose weights are >= its own,
    found by doubling over a sparse table of minima."""
    G, n = ww.shape
    # table[k][g, 1 + s]: the least weight of graph g's steps s .. s + 2**k - 1,
    # NaN where that runs past the last step and on either side of the steps,
    # so that every run ends there
    width = n + 2
    table = [np.full((G, width), np.nan)]
    table[0][:, 1:-1] = ww
    while 1 << len(table) <= n:
        half = 1 << (len(table) - 1)
        t = np.full((G, width), np.nan)
        np.minimum(table[-1][:, 1 : -1 - half], table[-1][:, 1 + half : -1],
                   out=t[:, 1 : -1 - half])
        table.append(t)
    first_step = np.arange(G)[:, None] * width + 1
    lo = hi = first_step + np.arange(n)  # each step's run, steps lo .. hi, as flat table positions
    for k in reversed(range(len(table))):
        t, span = table[k].ravel(), 1 << k
        start = np.maximum(lo - span, first_step - 1)
        lo = np.where(t.take(start) >= ww, start, lo)
        hi = np.where(t.take(hi + 1) >= ww, hi + span, hi)
    return hi - lo + 2


def _prim_steps(rows, G: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximum spanning forests (Prim, 1957) of G graphs on p nodes, built in
    lockstep over dense rows, with the state in node order (compacted to the
    outside nodes, as :func:`_streamed_steps` keeps it, replicate batches run
    about 3x slower). Node v of graph g sits at flat position g * p + v.
    ``rows(at)`` returns the weights from the nodes at
    positions ``at`` to the nodes of their graphs: for G = 1 ``at`` is an int
    (the node) and the result one row, otherwise ``at`` holds G positions and
    the result is ``(G, p)``. -inf marks an absent pair. Only the entries of
    nodes still outside the forest are read: those of the nodes that have
    joined, the requested node's own included, are never read, so a row
    source may leave them stale.

    Returns three ``(p - 1, G)`` arrays: the node that step s adds to graph g,
    the forest node it joins, and the weight of that edge, -inf where the step
    starts a new tree.

    Edges are ranked by the strict total order of a sorted Kruskal pass:
    higher weight first, then the smaller (i, j) pair. It decides both whether
    an equal weight replaces a node's best edge to the forest and which of
    several equally heavy outside nodes joins next, so the forest is the unique
    maximum one under that order, Kruskal's edge for edge. When no finite
    weight reaches a forest, a new tree starts at its graph's lowest outside
    node. Every step adds one node to each graph, so all G finish together.
    A step writes only the entries whose best edge changes, and the tie rules
    run only where there is a tie. Requests each graph's rows once, in the
    order its nodes join, and keeps O(G p) state.

    Replicate batches (``inference._replicate_stats``) call it on up to
    2 MiB of weights, 26 or 24 graphs at p = 100. Each graph's forest is the
    one it gets alone, so results depend neither on G nor on thread count.
    """
    best = np.full(G * p, -np.inf)  # heaviest weight from each outside node to the forest
    src = np.zeros(G * p, dtype=np.intp)  # the step whose node is that edge's forest end
    outside = np.ones(G * p, dtype=bool)
    closer = np.empty(G * p, dtype=bool)
    per_graph = best.reshape(G, p)
    nodes, offsets = np.arange(p), np.arange(G) * p
    joins = np.empty((max(p, 1), G), dtype=np.intp)  # joins[s]: the positions step s reads
    ww = []

    def heaviest():  # the position of each graph's heaviest best edge
        return per_graph.argmax(axis=1) + offsets

    any_of, at = np.count_nonzero, offsets  # node 0 of every graph
    if G == 1:  # an int position and scalar tests: as cheap as a one-graph loop
        heaviest, any_of, at = best.argmax, bool, 0
    for step in range(p - 1):
        joins[step] = at
        outside[at] = False
        r = rows(at).ravel()
        np.greater_equal(r, best, out=closer)
        closer &= outside
        k = closer.nonzero()[0]
        rk = r[k]
        tied = rk == best[k]
        if np.count_nonzero(tied):  # {u, v} precedes v's best edge iff u < that edge's forest end
            g = k // p
            keep = ~tied | (joins[src[k], g] > joins[step, g])
            k, rk = k[keep], rk[keep]
        best[k] = rk
        src[k] = step
        at = heaviest()
        w = best[at]
        best[at] = -np.inf
        # as heavy as the next best: a tie, or no finite weight left (-inf)
        special = best[heaviest()] == w
        if any_of(special):
            at, wa, special = np.atleast_1d(at, w, special)
            restart = special & (wa == -np.inf)  # nothing finite reaches the forest
            at[restart] = outside.reshape(G, p)[restart].argmax(axis=1) + offsets[restart]
            t = (special & ~restart).nonzero()[0]  # equally heavy: the smallest (i, j) pair joins
            best[at[t]] = wa[t]
            ends = joins[src.reshape(G, p)[t], t[:, None]] - offsets[t, None]
            lo, hi = np.minimum(nodes, ends), np.maximum(nodes, ends)
            key = np.where(per_graph[t] == wa[t, None], lo * p + hi, p * p)
            at[t] = key.argmin(axis=1) + offsets[t]
            best[at[t]] = -np.inf
            at = at if G > 1 else int(at[0])
        ww.append(w)
    joins[p - 1] = at
    ends = joins[src[joins[1:]], np.arange(G)] - offsets  # fixed once a node has joined
    return joins[1:] - offsets, ends, np.array(ww).reshape(p - 1, G)
