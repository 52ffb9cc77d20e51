"""Twin-study heritability indices at node and network level.

The node-level index doubles the gap between the identical-twin and
fraternal-twin correlations at that node; the network-level index applies the
same contrast to symmetrized cross-correlations between node pairs, so its
diagonal reproduces the node-level values.

The public :func:`hgi` returns the dense node-pair matrix. The CLI's ``hgi``
goes through ``_streamed_hgi`` instead, which writes the same files from rows
computed one node at a time and holds no p x p matrix. Significance, whether
from :func:`hgi_significance` or the CLI, is the two-group comparison
(``inference._compare_kinds``) of the twin groups' streamed spanning forests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crosscorr import _kept_pairs, _kernel_rows, cross_correlate
from .dataset import PairedDataset, _write_rows
from .errors import NodeSetMismatch
from .filtration import KIND_COMPONENTS
from .inference import KSResult, _compare_kinds

# Header and row format of each output file
_HI_CSV = ("node_id,hi,a,c", "{},{!r},{!r},{!r}")
_HGI_EDGES_CSV = ("i,j,hgi", "{},{},{!r}")


@dataclass(eq=False)
class HeritabilityResult:
    """Per-node and per-pair heritability estimates for one MZ/DZ contrast."""

    node_ids: tuple[str, ...]
    hi: np.ndarray
    a_factor: np.ndarray
    c_factor: np.ndarray
    rho_mz: np.ndarray
    rho_dz: np.ndarray
    hgi: np.ndarray
    symmetrized: bool

    @property
    def n_nodes(self) -> int:
        return self.hi.shape[0]


def falconer_hi(rho_mz, rho_dz):
    """Closed-form additive-genetic / common-environment split.

    Returns (hi, a, c) with hi = a = 2*(rho_mz - rho_dz) and
    c = 2*rho_dz - rho_mz. Estimates are reported raw: finite samples can
    push them below 0 or above 1, and clamping would hide that.
    """
    mz = np.asarray(rho_mz, dtype=np.float64)
    dz = np.asarray(rho_dz, dtype=np.float64)
    for name, v in (("rho_mz", mz), ("rho_dz", dz)):
        if (np.abs(v) > 1.0 + 1e-9).any():
            raise ValueError(f"{name} outside [-1, 1]")
    hi = 2.0 * (mz - dz)
    c = 2.0 * dz - mz
    if mz.ndim == 0:
        return float(hi), float(hi), float(c)
    return hi, hi.copy(), c


def hgi(
    mz: PairedDataset, dz: PairedDataset, symmetrize: bool = True, block_size: int = 1024
) -> HeritabilityResult:
    """Network-level heritability: 2 * (corr_mz - corr_dz) for every node pair.

    Computed blockwise through the cross-correlation machinery; the diagonal
    equals the node-level index applied to the per-node twin correlations.
    ``block_size`` has no effect.
    """
    _check_twins(mz, dz)
    cc_mz, cc_dz = (cross_correlate(ds, symmetrize=symmetrize) for ds in (mz, dz))
    rho_mz = np.diag(cc_mz.rho).copy()
    rho_dz = np.diag(cc_dz.rho).copy()
    hi, a, c = falconer_hi(rho_mz, rho_dz)
    return HeritabilityResult(
        node_ids=mz.node_ids, hi=hi, a_factor=a, c_factor=c, rho_mz=rho_mz, rho_dz=rho_dz,
        hgi=2.0 * (cc_mz.rho - cc_dz.rho), symmetrized=symmetrize,
    )


def _check_twins(mz: PairedDataset, dz: PairedDataset) -> None:
    if mz.node_ids != dz.node_ids:
        raise NodeSetMismatch("MZ and DZ datasets cover different node sets")


def hgi_significance(
    mz: PairedDataset,
    dz: PairedDataset,
    kind: str = KIND_COMPONENTS,
    block_size: int = 1024,
) -> KSResult:
    """Statistical significance of the MZ/DZ network contrast.

    Delegates to the two-group curve comparison, which builds each twin
    group's spanning forest once. It always uses symmetrized cross-correlations,
    whatever ``symmetrize`` :func:`hgi` got (CLI ``--symmetrize``).
    ``block_size`` has no effect.
    """
    return _compare_kinds(mz, dz, (kind,), symmetrize=True)[kind]


def _streamed_hgi(mz, dz, kinds, symmetrize, threshold, hi_path, edges_path) -> dict[str, KSResult]:
    """The CLI's ``hgi`` with no p x p matrix, in O(p * n) memory: the files
    :func:`write_hi_csv` and :func:`write_hgi_edges` write for :func:`hgi`,
    bitwise, and :func:`hgi_significance` of every kind in ``kinds``.

    The test results come from ``inference._compare_kinds``, symmetrized
    whatever ``symmetrize`` is, so from each twin group's streamed spanning
    forest. One pass over the nodes u in ascending order then reads row u of
    both groups from column u on (``crosscorr._kernel_rows``: bitwise the rows
    of :func:`~sparsecc.crosscorr.cross_correlate`, computed a few rows per
    kernel call; a directed pass skips the reverse rows it does not use).
    Entry u gives the node-level correlations, the rest the pairs u < j in the
    edge file's order, written as they are computed. The node sets must match
    (``_check_twins``).
    """
    results = _compare_kinds(mz, dz, kinds, symmetrize=True)
    p = mz.n_nodes
    rho = np.empty((2, p))  # rho_mz and rho_dz, filled as the pass goes

    def edge_rows():
        rows = zip(*(_kernel_rows(ds, symmetrize, upper=True) for ds in (mz, dz)))
        for u, (b_mz, b_dz) in enumerate(rows):
            rho[:, u] = b_mz[0], b_dz[0]
            h = 2.0 * (b_mz[1:] - b_dz[1:])
            (j,) = np.nonzero(np.abs(h) > threshold)
            yield u, j + (u + 1), h[j]

    _write_rows(edges_path, *_HGI_EDGES_CSV, edge_rows())
    _write_rows(hi_path, *_HI_CSV, [(mz.node_ids, *falconer_hi(*rho))])
    return results


def write_hi_csv(result: HeritabilityResult, path) -> None:
    """Rows "node_id,hi,a,c"."""
    _write_rows(path, *_HI_CSV,
                [(result.node_ids, result.hi, result.a_factor, result.c_factor)])


def write_hgi_edges(result: HeritabilityResult, path, threshold: float = 0.0) -> None:
    """Rows "i,j,hgi" for pairs i < j with |hgi| strictly above the threshold,
    in row-major order (the pair extraction of the sparse networks).

    The threshold keeps output size bounded for large node sets; 0 exports
    every nonzero pair.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    rows, cols = _kept_pairs(np.abs(result.hgi) > threshold, upper=True)
    _write_rows(path, *_HGI_EDGES_CSV, [(rows, cols, result.hgi[rows, cols])])
