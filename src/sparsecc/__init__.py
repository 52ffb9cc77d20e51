"""Sparse cross-correlation networks over all sparsity levels at once.

Closed-form soft thresholding builds the networks, spanning-forest filtration
passes summarize them with monotone component descriptors, and a KS-type
statistic compares groups, including twin-study heritability contrasts.

The namespace is lazy (PEP 562): each name below loads its module on first
use, so ``import sparsecc`` loads no numpy, and the CLI can set up the process
before numpy starts.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_SOURCE = {
    name: module
    for module, names in {
        "dataset": (
            "PairedDataset", "RawMatrix", "ingest", "normalize_arrays", "normalize_pair",
            "save_binary", "save_csv",
        ),
        "crosscorr": (
            "AbsWeightBlocks", "CrossCorrMatrix", "SparseCrossCorr", "cross_correlate",
            "soft_threshold", "sparse_network", "symmetric_sparse_network", "write_edge_list",
        ),
        "filtration": (
            "KIND_COMPONENTS", "KIND_LARGEST", "KINDS", "BinaryGraph", "FiltrationCurve",
            "MergeEvents", "WeightedGraph", "binarize", "filtration_curves",
            "filtration_curves_binned", "graph_sum", "soft_threshold_equivalence_check",
            "support_graph",
        ),
        "inference": (
            "KSResult", "compare_groups", "exact_sup_tail", "group_curves", "ks_pvalue",
            "permutation_test", "random_pairing_null", "sup_distance",
        ),
        "heritability": (
            "HeritabilityResult", "falconer_hi", "hgi", "hgi_significance", "write_hgi_edges",
            "write_hi_csv",
        ),
        "simulation": (
            "SimConfig", "generate_dependent_group", "generate_null_group",
            "generate_twin_group", "rep_rng", "run_validation", "write_summary_csv",
        ),
    }.items()
    for name in names
}
_SUBMODULES = ("errors", "dataset", "crosscorr", "filtration", "inference", "heritability",
               "simulation", "_parallel")

__all__ = [*_SOURCE, *(m for m in _SUBMODULES if not m.startswith("_"))]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SOURCE, *_SUBMODULES})
