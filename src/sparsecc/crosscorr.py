"""Sample cross-correlations and their closed-form sparse versions.

The cross-correlation between nodes i and j is the inner product of the
normalized column i of x with the normalized column j of y. The L1-penalized
estimate at sparsity ``lam`` is obtained entrywise by soft thresholding; no
iterative solver is ever needed.

Every observation product comes from one kernel entry, ``_signed_blocks``,
over one call, ``_product_blocks``: dense matrices, streamed blocks and
streamed rows alike. That call is ``np.einsum``'s C loop, which adds each
entry's terms in observation order as a rank-1 accumulation does, so results
are bit-identical regardless of block size or thread count. The order holds
because ``PairedDataset`` stores ``x`` and ``y`` C-ordered, so no kernel
operand is contiguous along the observations, the layout in which einsum sums
them in another order. BLAS gemm is faster but sums by shape-dependent
blocking, so it is not used. The two directed cross-correlations are averaged
in ``_signed_blocks``. Since no code path calls BLAS, the CLI starts no BLAS
thread pool (see ``cli``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import PairedDataset, _write_rows
from .errors import DimensionMismatch

# Header and row format of an edge file
_EDGES_CSV = ("i,j,weight", "{},{},{!r}")


@dataclass(eq=False)
class CrossCorrMatrix:
    """Dense p x p cross-correlation matrix (optionally symmetrized)."""

    rho: np.ndarray
    symmetrized: bool
    node_ids: tuple[str, ...] | None = None

    @property
    def n_nodes(self) -> int:
        return self.rho.shape[0]

    def check_invariants(self, atol: float = 1e-9) -> None:
        if np.abs(self.rho).max(initial=0.0) > 1.0 + atol:
            raise ValueError("cross-correlation entry outside [-1, 1]")
        if self.symmetrized and np.abs(self.rho - self.rho.T).max(initial=0.0) > 1e-12:
            raise ValueError("symmetrized matrix is not symmetric")


@dataclass(eq=False)
class SparseCrossCorr:
    """Nonzero entries of the soft-thresholded cross-correlation at one lam.

    Edge k is ``(rows[k], cols[k])`` (int64) with weight ``values[k]``
    (float64), in row-major order, the edge file's order. Pairs have i < j
    when built from a symmetrized matrix, i != j otherwise: networks carry no
    self-loops. ``entries`` is a dict view built from the arrays.
    """

    lam: float
    n_nodes: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    symmetric: bool

    @property
    def entries(self) -> dict[tuple[int, int], float]:
        return dict(zip(zip(self.rows.tolist(), self.cols.tolist()), self.values.tolist()))


def _product_blocks(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X.T @ Y with each entry summed over the observations one by one, in order.

    This is numpy's einsum C loop, not BLAS. When neither operand is
    contiguous along the observations, as ``PairedDataset``'s C order makes
    every column slice, it multiplies and adds each entry's terms in
    observation order, the rank-1 accumulation's order, whatever the block
    shape; ``test_product_kernel_is_the_rank1_loop`` pins this bitwise. On
    operands contiguous along the observations einsum reduces them in another
    order. So would a 1 x 1 product, which einsum reduces in chunks of its
    8192-element iterator buffer; it is computed against ``Y`` repeated to
    two columns instead, and the first kept. BLAS gemm is faster still but
    sums by its own blocking, up to 1.4e-14 away, so it is not used.
    """
    if X.shape[1] == Y.shape[1] == 1:
        return np.einsum("ki,kj->ij", X, np.repeat(Y, 2, axis=1))[:, :1]
    return np.einsum("ki,kj->ij", X, Y)


def _signed_blocks(x, y, I: slice, J: slice, symmetrize: bool, reverse: bool = True):
    """The one kernel entry: the directed blocks ``b = x_I . y_J`` and
    ``c = y_I . x_J``, or with ``symmetrize`` their average as both. A directed
    call without ``reverse`` computes ``b`` alone and gives ``c = None``.

    On a diagonal block (``I == J``) ``c`` is ``b.T`` bitwise (the products
    commute and are summed in the same order), so it is not computed again.
    """
    b = _product_blocks(x[:, I], y[:, J])
    if not (symmetrize or reverse):
        return b, None
    c = b.T if I == J else _product_blocks(y[:, I], x[:, J])
    if symmetrize:
        b = c = (b + c) / 2.0
    return b, c


def _signed_row(x, y, u: int, J: slice, symmetrize: bool, reverse: bool = True):
    """Row u of :func:`_signed_blocks` against the columns ``J`` as 1-D arrays
    ``(b, c)``: one averaged row as both (``b is c``) when symmetrized, and
    ``c = None`` for a directed row without ``reverse``."""
    b, c = _signed_blocks(x, y, slice(u, u + 1), J, symmetrize, reverse)
    return (b[0],) * 2 if b is c else (b[0], None if c is None else c[0])


def _block_pairs(p: int, bs: int) -> list[tuple[int, int]]:
    """Starts (i0, j0) of the upper-triangle blocks, cut every bs nodes."""
    return [(i0, j0) for i0 in range(0, p, bs) for j0 in range(i0, p, bs)]


def cross_correlate(
    ds: PairedDataset, block_size: int = 1024, symmetrize: bool = False
) -> CrossCorrMatrix:
    """Dense cross-correlation matrix, computed in column blocks.

    With ``symmetrize`` the result averages the two regression directions,
    ``(x_i . y_j + y_i . x_j) / 2``, and is exactly symmetric.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    rho = np.empty((ds.n_nodes, ds.n_nodes))
    for i0, j0 in _block_pairs(ds.n_nodes, block_size):
        I, J = slice(i0, i0 + block_size), slice(j0, j0 + block_size)
        b, c = _signed_blocks(ds.x, ds.y, I, J, symmetrize)
        rho[I, J], rho[J, I] = b, c.T
    return CrossCorrMatrix(rho, symmetrized=symmetrize, node_ids=ds.node_ids)


def soft_threshold(rho, lam):
    """Closed-form minimizer of the entrywise L1-penalized regression cost.

    Returns ``rho - lam`` when ``rho > lam``, ``rho + lam`` when
    ``rho < -lam``, and exactly 0 when ``|rho| <= lam``. Accepts scalars or
    arrays (broadcast together).
    """
    lam_arr = np.asarray(lam, dtype=np.float64)
    if (lam_arr < 0).any():
        raise ValueError("lam must be >= 0")
    r = np.asarray(rho, dtype=np.float64)
    out = np.sign(r) * np.maximum(np.abs(r) - lam_arr, 0.0)
    return float(out) if out.ndim == 0 else out


def _kept_pairs(keep: np.ndarray, upper: bool) -> tuple[np.ndarray, np.ndarray]:
    """Row-major ``(rows, cols)`` of the off-diagonal pairs where ``keep`` is
    true, above the diagonal only when ``upper``."""
    keep = np.triu(keep, k=1) if upper else keep & ~np.eye(len(keep), dtype=bool)
    return np.nonzero(keep)


def sparse_network(cc: CrossCorrMatrix, lam: float) -> SparseCrossCorr:
    """Entrywise soft threshold; zero entries and the diagonal are omitted."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    rows, cols = _kept_pairs(np.abs(cc.rho) > lam, upper=cc.symmetrized)
    values = soft_threshold(cc.rho[rows, cols], lam)
    return SparseCrossCorr(float(lam), cc.n_nodes, rows, cols, values, symmetric=cc.symmetrized)


def _streamed_edges(stream: AbsWeightBlocks, lam: float):
    """:func:`sparse_network` of the stream's dataset, bitwise, with no p x p
    matrix: one block ``(rows, cols, values)`` per node u, in the edge file's
    order. Row u is the stream's signed kernel row (bitwise row u of
    :func:`cross_correlate`), from column u on when symmetrized (pairs u < j)
    and from column 0 otherwise, without the directed reverse row."""
    for u in range(stream.n_nodes):
        start = u if stream.symmetrize else 0
        b = stream._signed_rows(u, start, reverse=False)[0]
        keep = np.abs(b) > lam
        keep[u - start] = False  # no self-loop
        (j,) = np.nonzero(keep)
        yield np.full(j.size, u), j + start, soft_threshold(b[j], lam)


def symmetric_sparse_network(cc: CrossCorrMatrix, lam: float) -> SparseCrossCorr:
    """Average of the two directed sparse estimates, pairs i < j.

    Applies soft thresholding to each regression direction separately and
    averages, which is not the same as thresholding the symmetrized matrix.
    """
    if cc.symmetrized:
        raise ValueError("needs the unsymmetrized (directed) cross-correlation matrix")
    eta = (soft_threshold(cc.rho, lam) + soft_threshold(cc.rho.T, lam)) / 2.0
    rows, cols = _kept_pairs(eta != 0.0, upper=True)
    return SparseCrossCorr(float(lam), cc.n_nodes, rows, cols, eta[rows, cols], symmetric=True)


def write_edge_list(sparse: SparseCrossCorr, path) -> None:
    """Rows "i,j,weight" (0-based indices) in the arrays' row-major order."""
    _write_rows(path, *_EDGES_CSV, [(sparse.rows, sparse.cols, sparse.values)])


class AbsWeightBlocks:
    """Re-iterable stream of absolute edge-weight blocks over the upper triangle.

    Yields ``(i0, j0, w)`` where ``w[a, b]`` is the undirected filtration weight
    of the node pair ``(i0 + a, j0 + b)``; for diagonal blocks only entries
    above the main diagonal are meaningful. Weights are ``|zeta|`` when
    symmetrizing, otherwise the larger of the two directed magnitudes (weak
    connectivity). The full p x p matrix is never materialized.

    ``row(u)`` gives node u's weights to every node (entry u is meaningless;
    ``block_size`` does not apply), bitwise equal to the matching block entries
    in either orientation: the same kernel, and products and sums commute. It
    combines the signed kernel rows ``b, c = _signed_rows(u)``, bitwise row u
    and column u of ``cross_correlate(ds, symmetrize=...).rho``, from which the
    exact filtration also takes its raw and directed weights. Under
    ``symmetrize`` both are the one averaged row (``b is c``), read once.

    A streamed Prim pass (``filtration._streamed_steps``, and
    ``filtration_curves_binned`` given this stream) does not read full rows:
    :class:`_OutsideRows` computes each joining node's row against the nodes
    still outside the forest only, with the same entries bitwise.
    """

    def __init__(self, ds: PairedDataset, block_size: int = 1024, symmetrize: bool = True):
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.ds = ds
        self.block_size = block_size
        self.symmetrize = symmetrize

    @property
    def n_nodes(self) -> int:
        return self.ds.n_nodes

    def block_pairs(self) -> list[tuple[int, int]]:
        return _block_pairs(self.ds.n_nodes, self.block_size)

    def compute_block(self, pair: tuple[int, int]) -> tuple[int, int, np.ndarray]:
        (i0, j0), bs = pair, self.block_size
        I, J = slice(i0, i0 + bs), slice(j0, j0 + bs)
        return i0, j0, self._combine(*_signed_blocks(self.ds.x, self.ds.y, I, J, self.symmetrize))

    def row(self, u: int) -> np.ndarray:
        return self._combine(*self._signed_rows(u))

    def _signed_rows(
        self, u: int, start: int = 0, reverse: bool = True
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """``b[v] = x_u . y_w`` and ``c[v] = y_u . x_w`` for the nodes w = start + v
        from ``start`` on, or their average as both. Without ``reverse`` a
        directed stream skips ``c`` and gives None for it."""
        return _signed_row(self.ds.x, self.ds.y, u, slice(start, None), self.symmetrize, reverse)

    def _combine(self, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        return np.abs(b) if b is c else np.maximum(np.abs(b), np.abs(c))

    def __iter__(self):
        for pair in self.block_pairs():
            yield self.compute_block(pair)


class _OutsideRows:
    """The weight rows of one Prim pass over a stream, each computed against the
    nodes still outside the forest only, so every pair is computed once.

    Called once per node u, in the order the nodes join, it returns one p-long
    buffer that every call reuses. The entries of the nodes not yet called
    hold ``combine(b, c)`` of u's signed kernel rows to them, bitwise those of
    ``stream._signed_rows(u)``. The other entries, u's own and those of the
    nodes called before, are stale; ``filtration._prim_steps`` never reads
    them.

    The outside nodes' x and y columns are kept compacted in slots [0, m) of
    one copy of the observations, stacked as ``(n, 2, p)`` so that a column
    moves in one step. A joining node's columns swap, in O(n), with those of
    the last outside slot, which then drops out, and its row is one kernel
    call against the m slots left. ``node`` maps each slot to its node,
    through which the m weights are written into the buffer. Memory is two
    n x p copies and O(p).
    """

    def __init__(self, stream: AbsWeightBlocks, combine):
        self.xy = np.stack((stream.ds.x, stream.ds.y), axis=1)
        # (n, p) views, not contiguous along the observations, as the kernel needs
        self.x, self.y = self.xy[:, 0], self.xy[:, 1]
        self.symmetrize, self.combine = stream.symmetrize, combine
        self.node = np.arange(stream.n_nodes)  # slot -> node
        self.slot = np.arange(stream.n_nodes)  # node -> slot
        self.m = stream.n_nodes  # slots [0, m) are outside
        self.out = np.full(stream.n_nodes, -np.inf)

    def __call__(self, u: int) -> np.ndarray:
        self.m -= 1
        m, s, xy, node = self.m, self.slot[u], self.xy, self.node
        v = node[m]  # u swaps with v, whose slot m then leaves the outside slots
        t = xy[..., s].copy()
        xy[..., s] = xy[..., m]
        xy[..., m] = t
        node[s], node[m], self.slot[v], self.slot[u] = v, u, s, m
        b, c = _signed_row(self.x, self.y, m, slice(0, m), self.symmetrize)
        self.out[node[:m]] = self.combine(b, c)
        return self.out
