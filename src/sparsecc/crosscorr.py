"""Sample cross-correlations and their closed-form sparse versions.

The cross-correlation between nodes i and j is the inner product of the
normalized column i of x with the normalized column j of y. The L1-penalized
estimate at sparsity ``lam`` is obtained entrywise by soft thresholding; no
iterative solver is ever needed.

All products are accumulated observation-by-observation in a fixed order, so
results are bit-identical regardless of block size or thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import PairedDataset
from .errors import DimensionMismatch


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

    Keys are (i, j) with i < j when built from a symmetrized matrix, ordered
    pairs i != j otherwise. Diagonal entries are never stored: networks carry
    no self-loops.
    """

    lam: float
    n_nodes: int
    entries: dict[tuple[int, int], float]
    symmetric: bool


def _product_blocks(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X.T @ Y with summation strictly sequential over observations.

    Rank-1 accumulation keeps the per-entry addition order independent of the
    output block shape, which BLAS gemm does not guarantee.
    """
    n = X.shape[0]
    out = np.zeros((X.shape[1], Y.shape[1]))
    tmp = np.empty_like(out)
    for k in range(n):
        np.multiply(X[k][:, None], Y[k][None, :], out=tmp)
        out += tmp
    return out


def cross_correlate(
    ds: PairedDataset, block_size: int = 1024, symmetrize: bool = False
) -> CrossCorrMatrix:
    """Dense cross-correlation matrix, computed in column blocks.

    With ``symmetrize`` the result averages the two regression directions,
    ``(x_i . y_j + y_i . x_j) / 2``, and is exactly symmetric.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    x, y, p = ds.x, ds.y, ds.n_nodes
    rho = np.empty((p, p))
    starts = range(0, p, block_size)
    if symmetrize:
        for i0 in starts:
            i1 = min(i0 + block_size, p)
            for j0 in range(i0, p, block_size):
                j1 = min(j0 + block_size, p)
                b = _product_blocks(x[:, i0:i1], y[:, j0:j1])
                c = _product_blocks(y[:, i0:i1], x[:, j0:j1])
                # on diagonal blocks c equals b.T bitwise (commutative products,
                # same accumulation order), so blk is exactly symmetric
                blk = (b + c) / 2.0
                rho[i0:i1, j0:j1] = blk
                if j0 > i0:
                    rho[j0:j1, i0:i1] = blk.T
    else:
        for i0 in starts:
            i1 = min(i0 + block_size, p)
            for j0 in starts:
                j1 = min(j0 + block_size, p)
                rho[i0:i1, j0:j1] = _product_blocks(x[:, i0:i1], y[:, j0:j1])
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


def sparse_network(cc: CrossCorrMatrix, lam: float) -> SparseCrossCorr:
    """Entrywise soft threshold; zero entries and the diagonal are omitted."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    p = cc.n_nodes
    if cc.symmetrized:
        ii, jj = np.triu_indices(p, k=1)
    else:
        ii, jj = np.nonzero(~np.eye(p, dtype=bool))
    vals = cc.rho[ii, jj]
    keep = np.abs(vals) > lam
    shrunk = soft_threshold(vals[keep], lam)
    entries = {
        (int(i), int(j)): float(v) for i, j, v in zip(ii[keep], jj[keep], np.atleast_1d(shrunk))
    }
    return SparseCrossCorr(float(lam), p, entries, symmetric=cc.symmetrized)


def symmetric_sparse_network(cc: CrossCorrMatrix, lam: float) -> SparseCrossCorr:
    """Average of the two directed sparse estimates, keyed i < j.

    Applies soft thresholding to each regression direction separately and
    averages, which is not the same as thresholding the symmetrized matrix.
    """
    if cc.symmetrized:
        raise ValueError("needs the unsymmetrized (directed) cross-correlation matrix")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    eta = (soft_threshold(cc.rho, lam) + soft_threshold(cc.rho.T, lam)) / 2.0
    ii, jj = np.triu_indices(cc.n_nodes, k=1)
    vals = eta[ii, jj]
    keep = vals != 0.0
    entries = {(int(i), int(j)): float(v) for i, j, v in zip(ii[keep], jj[keep], vals[keep])}
    return SparseCrossCorr(float(lam), cc.n_nodes, entries, symmetric=True)


def write_edge_list(sparse: SparseCrossCorr, path) -> None:
    """Export nonzero entries as "i,j,weight" rows (0-based indices)."""
    with open(path, "w") as fh:
        fh.write("i,j,weight\n")
        for (i, j), v in sorted(sparse.entries.items()):
            fh.write(f"{i},{j},{repr(v)}\n")


class AbsWeightBlocks:
    """Re-iterable stream of absolute edge-weight blocks over the upper triangle.

    Yields ``(i0, j0, w)`` where ``w[a, b]`` is the undirected filtration weight
    of the node pair ``(i0 + a, j0 + b)``; for diagonal blocks only entries
    above the main diagonal are meaningful. Weights are ``|zeta|`` when
    symmetrizing, otherwise the larger of the two directed magnitudes (weak
    connectivity). The full p x p matrix is never materialized.

    ``row(u)`` gives node u's weights to every node (entry u is meaningless;
    ``block_size`` does not apply). Its entries are bitwise equal to the
    matching block entries in either orientation: both run the same kernel
    over the same observation order, and products and sums commute. It is
    built from the two signed kernel rows ``_signed_rows(u)``, from which the
    exact filtration also takes its raw and directed weights.
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
        p, bs = self.ds.n_nodes, self.block_size
        return [(i0, j0) for i0 in range(0, p, bs) for j0 in range(i0, p, bs)]

    def compute_block(self, pair: tuple[int, int]) -> tuple[int, int, np.ndarray]:
        i0, j0 = pair
        x, y, p, bs = self.ds.x, self.ds.y, self.ds.n_nodes, self.block_size
        i1, j1 = min(i0 + bs, p), min(j0 + bs, p)
        b = _product_blocks(x[:, i0:i1], y[:, j0:j1])
        c = _product_blocks(y[:, i0:i1], x[:, j0:j1])
        return i0, j0, self._combine(b, c)

    def row(self, u: int) -> np.ndarray:
        return self._combine(*self._signed_rows(u))

    def _signed_rows(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Node u's two directed cross-correlation rows: ``b[v] = x_u . y_v``
        and ``c[v] = y_u . x_v``, bitwise the entries (u, v) and (v, u) of the
        unsymmetrized :func:`cross_correlate` matrix."""
        x, y = self.ds.x, self.ds.y
        return _product_blocks(x[:, u : u + 1], y)[0], _product_blocks(y[:, u : u + 1], x)[0]

    def _combine(self, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        if self.symmetrize:
            return np.abs(b + c) / 2.0
        return np.maximum(np.abs(b), np.abs(c))

    def __iter__(self):
        for pair in self.block_pairs():
            yield self.compute_block(pair)
