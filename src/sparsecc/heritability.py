"""Twin-study heritability indices at node and network level.

The node-level index doubles the gap between the identical-twin and
fraternal-twin correlations at that node; the network-level index applies the
same contrast to symmetrized cross-correlations between node pairs, so its
diagonal reproduces the node-level values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crosscorr import cross_correlate
from .dataset import PairedDataset
from .errors import NodeSetMismatch
from .filtration import KIND_COMPONENTS, WeightedGraph
from .inference import KSResult, _compare_kinds, _graph_curves, _ks_results


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
    """
    return _hgi(mz, dz, symmetrize, block_size, with_curves=False)[0]


def _hgi(mz, dz, symmetrize, block_size, with_curves) -> tuple[HeritabilityResult, list]:
    """:func:`hgi`, plus with ``with_curves`` each twin group's curves
    (``group_curves``), filtrated from its matrix as soon as that exists."""
    if mz.node_ids != dz.node_ids:
        raise NodeSetMismatch("MZ and DZ datasets cover different node sets")
    ccs, curves = [], []
    for ds in (mz, dz):
        ccs.append(cross_correlate(ds, block_size=block_size, symmetrize=symmetrize))
        if with_curves:
            curves.append(_graph_curves(WeightedGraph.from_crosscorr(ccs[-1])))
    cc_mz, cc_dz = ccs
    rho_mz = np.diag(cc_mz.rho).copy()
    rho_dz = np.diag(cc_dz.rho).copy()
    hgi_matrix = 2.0 * (cc_mz.rho - cc_dz.rho)
    hi, a, c = falconer_hi(rho_mz, rho_dz)
    result = HeritabilityResult(
        node_ids=mz.node_ids,
        hi=hi,
        a_factor=a,
        c_factor=c,
        rho_mz=rho_mz,
        rho_dz=rho_dz,
        hgi=hgi_matrix,
        symmetrized=symmetrize,
    )
    return result, curves


def hgi_significance(
    mz: PairedDataset,
    dz: PairedDataset,
    kind: str = KIND_COMPONENTS,
    block_size: int = 1024,
) -> KSResult:
    """Statistical significance of the MZ/DZ network contrast.

    Delegates to the two-group curve comparison, which computes each twin
    group's curves once. It always uses symmetrized cross-correlations,
    whatever ``symmetrize`` :func:`hgi` got (CLI ``--symmetrize``).
    """
    return _compare_kinds(mz, dz, (kind,), symmetrize=True, block_size=block_size)[kind]


def _hgi_and_significance(
    mz, dz, kinds, symmetrize, block_size
) -> tuple[HeritabilityResult, dict[str, KSResult]]:
    """:func:`hgi` and the significance of every kind in ``kinds``.

    With ``symmetrize`` the significance step filtrates the two symmetrized
    matrices that :func:`hgi` computes, so each twin group is cross-correlated
    once; otherwise it cross-correlates both groups again, symmetrized.
    """
    result, curves = _hgi(mz, dz, symmetrize, block_size, with_curves=symmetrize)
    if symmetrize:
        return result, _ks_results(*curves, kinds)
    return result, _compare_kinds(mz, dz, kinds, symmetrize=True, block_size=block_size)


def write_hi_csv(result: HeritabilityResult, path) -> None:
    """Rows "node_id,hi,a,c"."""
    with open(path, "w") as fh:
        fh.write("node_id,hi,a,c\n")
        for name, h, a, c in zip(result.node_ids, result.hi, result.a_factor, result.c_factor):
            fh.write(f"{name},{repr(float(h))},{repr(float(a))},{repr(float(c))}\n")


def write_hgi_edges(result: HeritabilityResult, path, threshold: float = 0.0) -> None:
    """Rows "i,j,hgi" for pairs with |hgi| strictly above the threshold.

    The threshold keeps output size bounded for large node sets; 0 exports
    every nonzero pair.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    ii, jj = np.triu_indices(result.n_nodes, k=1)
    vals = result.hgi[ii, jj]
    keep = np.abs(vals) > threshold
    with open(path, "w") as fh:
        fh.write("i,j,hgi\n")
        for i, j, v in zip(ii[keep], jj[keep], vals[keep]):
            fh.write(f"{int(i)},{int(j)},{repr(float(v))}\n")
