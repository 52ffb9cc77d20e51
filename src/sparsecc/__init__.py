"""Sparse cross-correlation networks over all sparsity levels at once.

Closed-form soft thresholding builds the networks, spanning-forest filtration
passes summarize them with monotone component descriptors, and a KS-type
statistic compares groups, including twin-study heritability contrasts.
"""

from .dataset import (
    PairedDataset,
    RawMatrix,
    ingest,
    normalize_arrays,
    normalize_pair,
    save_binary,
    save_csv,
)
from .crosscorr import (
    AbsWeightBlocks,
    CrossCorrMatrix,
    SparseCrossCorr,
    cross_correlate,
    soft_threshold,
    sparse_network,
    symmetric_sparse_network,
    write_edge_list,
)
from .filtration import (
    KIND_COMPONENTS,
    KIND_LARGEST,
    KINDS,
    BinaryGraph,
    FiltrationCurve,
    MergeEvents,
    WeightedGraph,
    binarize,
    filtration_curves,
    filtration_curves_binned,
    graph_sum,
    soft_threshold_equivalence_check,
    support_graph,
)
from .inference import (
    KSResult,
    compare_groups,
    exact_sup_tail,
    group_curves,
    ks_pvalue,
    permutation_test,
    random_pairing_null,
    sup_distance,
)
from .heritability import (
    HeritabilityResult,
    falconer_hi,
    hgi,
    hgi_significance,
    write_hgi_edges,
    write_hi_csv,
)
from .simulation import (
    SimConfig,
    generate_dependent_group,
    generate_null_group,
    generate_twin_group,
    rep_rng,
    run_validation,
    write_summary_csv,
)
from . import errors

__version__ = "0.1.0"
