"""Two-group comparison of filtration curves.

The statistic is the sup over all thresholds of the absolute difference
between two integer step curves, normalized by sqrt(2(p-1)). The asymptotic
p-value is the survival function of the two-sided Kolmogorov-Smirnov law, the
alternating series 2 * sum_i (-1)^(i-1) exp(-2 i^2 d^2).

That law is the null law of the component-count curve when the two groups'
merge ladders are exchangeable, which is what ``exact_sup_tail`` counts. It
is not a valid null law for the largest-component curve, which jumps by whole
component sizes rather than by unit steps: in the three-group validation
study (n = 20, p = 100, 1000 repetitions) 88% of null-vs-null repetitions get
p <= 0.05 for that curve. ``permutation_test`` rests on neither law.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .crosscorr import AbsWeightBlocks, cross_correlate
from .dataset import PairedDataset, _normalize_groups
from .errors import CurveMismatch, NodeSetMismatch, SparseCCError
from .filtration import (
    KIND_COMPONENTS,
    KINDS,
    FiltrationCurve,
    _forest_curves,
    _pair_weights,
    _streamed_curves,
)
from ._parallel import ordered_map, resolve_threads

# The weights one replicate batch holds at most: 8 groups at p = 100, one
# replicate from p = 157 on. Each thread holds one batch, so peak memory grows
# with it: on `compare --permutations 200 --threads 2` at p = 100 this budget
# read 4-5 % above one group at a time, 1 MiB 8-9.5 % (next to the benchmark's
# 10 % bound) and 2 MiB 19 %, for 6 and 13 % less CPU.
_BATCH_BYTES = 3 << 18


@dataclass(eq=False)
class KSResult:
    """Outcome of a two-group curve comparison."""

    kind: str
    d_raw: int
    d_normalized: float
    p_asymptotic: float
    n_nodes: int
    p_permutation: float | None = None
    n_perm: int | None = None
    seed: int | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "d_raw": self.d_raw,
                "d_normalized": self.d_normalized,
                "p_asymptotic": self.p_asymptotic,
                "p_permutation": self.p_permutation,
                "n_nodes": self.n_nodes,
                "n_perm": self.n_perm,
                "seed": self.seed,
            }
        )


def sup_distance(c1: FiltrationCurve, c2: FiltrationCurve) -> int:
    """Max absolute difference between two step curves over all thresholds.

    Both one-sided limits are evaluated at every breakpoint of either curve;
    step functions cannot differ anywhere else.
    """
    if c1.kind != c2.kind:
        raise CurveMismatch(f"curve kinds differ: {c1.kind} vs {c2.kind}")
    if c1.n_nodes != c2.n_nodes:
        raise CurveMismatch(f"node counts differ: {c1.n_nodes} vs {c2.n_nodes}")
    grid = np.union1d(c1.breakpoints, c2.breakpoints)
    if grid.size == 0:
        return int(abs(int(c1.values[0]) - int(c2.values[0])))
    d_right = np.abs(c1.value_at(grid) - c2.value_at(grid)).max()
    d_left = np.abs(c1.left_limit(grid) - c2.left_limit(grid)).max()
    return int(max(d_right, d_left))


def ks_pvalue(d_normalized: float, tol: float = 1e-16) -> float:
    """Asymptotic two-sided survival probability at normalized distance d.

    Truncates the alternating series when the next term drops below ``tol``;
    the result is clipped into [0, 1].
    """
    if d_normalized < 0:
        raise ValueError("d_normalized must be >= 0")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if d_normalized == 0:
        return 1.0
    e = -2.0 * d_normalized * d_normalized
    total = 0.0
    for i in range(1, 100_000):
        term = math.exp(e * i * i)
        if term < tol:
            break
        total += term if i % 2 == 1 else -term
    return min(1.0, max(0.0, 2.0 * total))


def group_curves(ds: PairedDataset, symmetrize: bool = True, block_size: int = 1024) -> dict:
    """Every filtration curve of one group as {kind: FiltrationCurve}, all from one
    cross-correlation and one spanning forest, so each group is computed once.

    This is the replicate engine's curves stage at G = 1, so a group's curves
    are the same whether it is alone or in a batch. ``block_size`` has no
    effect: no tile shape changes a bit of the result.
    """
    return _datasets_curves([ds], symmetrize)[0]


def _datasets_curves(datasets, symmetrize: bool) -> list[dict]:
    """The batched replicate engine: :func:`group_curves` of G normalized
    groups on one node set at once, in order.

    Each group's cross-correlation weights (``_pair_weights``) go straight
    into one ``(G, p, p)`` buffer, and one lockstep Prim pass builds all G
    forests (``_forest_curves``). Every graph keeps the arithmetic it has alone.
    """
    w = np.empty((len(datasets), datasets[0].n_nodes, datasets[0].n_nodes))
    for ds, wg in zip(datasets, w):
        rho = cross_correlate(ds, symmetrize=symmetrize).rho
        _pair_weights(rho, "absolute", None if symmetrize else rho.T, out=wg)
        del rho  # released before the next matrix is computed
    return [dict(zip(KINDS, curves[:2])) for curves in _forest_curves(w)]


def _batches(n_reps: int, groups_per_rep: int, p: int):
    """Replicate ranges in order, each as many whole replicates as fit
    ``_BATCH_BYTES`` of p x p weights, and at least one."""
    size = max(1, _BATCH_BYTES // (groups_per_rep * 8 * p * p))
    return (range(a, min(a + size, n_reps)) for a in range(0, n_reps, size))


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _replicate_stats(raw_groups, statistic, n_reps, groups_per_rep, node_ids, symmetrize,
                     threads):
    """The replicate driver: ``statistic(*curves)`` of replicates 0 .. n_reps - 1
    in order, ``curves`` being the curve dicts of replicate r's raw ``(x, y)``
    groups ``raw_groups(r)``, computed in batches (:func:`_batches`) that the
    ``threads`` workers share out. Before any batch runs, it raises
    :class:`SparseCCError` if the batches in flight, the first ``threads``, do
    not fit in physical memory: each holds its groups' p x p weights plus four
    matrices of kernel temporaries (tracemalloc at p = 600 read 5.9 for one
    permutation, 6.3 for one study repetition).
    """
    p = len(node_ids)
    in_flight = islice(_batches(n_reps, groups_per_rep, p), resolve_threads(threads))
    need = sum(len(reps) * groups_per_rep + 4 for reps in in_flight) * 8 * p * p
    if need > (have := _physical_memory()):
        raise SparseCCError(f"{p} nodes need about {need / 2**30:.1f} GiB of dense p x p "
                            f"matrices, more than the {have / 2**30:.1f} GiB of physical memory")

    def one_batch(reps: range) -> list:
        groups = _normalize_groups([g for r in reps for g in raw_groups(r)], node_ids)
        curves = _datasets_curves(groups, symmetrize)
        return [statistic(*curves[k : k + groups_per_rep])
                for k in range(0, len(curves), groups_per_rep)]

    batches = ordered_map(one_batch, _batches(n_reps, groups_per_rep, p), threads)
    return (stat for batch in batches for stat in batch)


def _check_pair(ds1: PairedDataset, ds2: PairedDataset, kinds) -> None:
    if unknown := [kind for kind in kinds if kind not in KINDS]:
        raise ValueError(f"unknown curve kind {unknown[0]!r}")
    if ds1.node_ids != ds2.node_ids:
        raise NodeSetMismatch("datasets cover different node sets")


def _ks_results(curves1: dict, curves2: dict, kinds) -> dict[str, KSResult]:
    """Sup distance, its normalization and the asymptotic p-value, per kind."""
    results = {}
    for kind in kinds:
        d_raw = sup_distance(curves1[kind], curves2[kind])
        d_norm = d_raw / math.sqrt(2.0 * (curves1[kind].n_nodes - 1))
        results[kind] = KSResult(kind, d_raw, d_norm, ks_pvalue(d_norm), curves1[kind].n_nodes)
    return results


def _compare_kinds(ds1, ds2, kinds, symmetrize) -> dict[str, KSResult]:
    """:func:`compare_groups` of every kind in ``kinds``, with no p x p matrix:
    each group's curves come from its streamed spanning forest
    (``filtration._streamed_curves``), bitwise those of :func:`group_curves`."""
    _check_pair(ds1, ds2, kinds)
    streams = (AbsWeightBlocks(ds, symmetrize=symmetrize) for ds in (ds1, ds2))
    curves = [dict(zip(KINDS, _streamed_curves(stream)[:2])) for stream in streams]
    return _ks_results(*curves, kinds)


def compare_groups(
    ds1: PairedDataset,
    ds2: PairedDataset,
    kind: str = KIND_COMPONENTS,
    symmetrize: bool = True,
    block_size: int = 1024,
) -> KSResult:
    """Full pipeline: each group's curves once, from its streamed spanning forest
    (bitwise those of ``group_curves``), sup-compare, p-value.

    ``block_size`` has no effect."""
    return _compare_kinds(ds1, ds2, (kind,), symmetrize)[kind]


def _permutation_pvalues(ds1, ds2, kinds, n_perm, seed, symmetrize, threads) -> dict:
    if n_perm < 1:
        raise ValueError("n_perm must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if ds1.n_obs < 2 or ds2.n_obs < 2:
        raise ValueError("each group needs at least 2 paired observations")
    _check_pair(ds1, ds2, kinds)
    x, y = np.vstack([ds1.x, ds2.x]), np.vstack([ds1.y, ds2.y])
    n1, n_total = ds1.n_obs, ds1.n_obs + ds2.n_obs

    def split(r: int) -> list:
        """Replicate 0 is the observed split, r the permutation of stream (seed, r - 1)."""
        perm = (np.random.default_rng(np.random.SeedSequence([seed, r - 1])).permutation(n_total)
                if r else np.arange(n_total))
        return [(x[i], y[i]) for i in (perm[:n1], perm[n1:])]

    def sups(c1, c2) -> np.ndarray:
        """The sup distance of every kind between a replicate's two groups."""
        return np.array([sup_distance(c1[kind], c2[kind]) for kind in kinds])

    d = _replicate_stats(split, sups, 1 + n_perm, 2, ds1.node_ids, symmetrize, threads)
    d_obs = next(d)
    exceed = sum(d_perm >= d_obs for d_perm in d)
    return {kind: (1 + int(e)) / (1 + n_perm) for kind, e in zip(kinds, exceed)}


def permutation_test(
    ds1: PairedDataset,
    ds2: PairedDataset,
    kind: str = KIND_COMPONENTS,
    n_perm: int = 1000,
    seed: int = 0,
    symmetrize: bool = True,
    block_size: int = 1024,
    threads: int | None = None,
) -> float:
    """Group-label permutation p-value for the sup distance.

    Paired observations (rows) are pooled and reassigned to two groups of the
    original sizes; each permuted group is re-normalized and its curves are
    computed once. Replicate r draws from a stream seeded by (seed, r), so
    results depend neither on scheduling nor on the kinds asked.

    The observed split and the replicates run in batches of whole splits (4 at
    p = 100, one from p = 157 on) that normalize their groups as stacks and
    build their forests in one lockstep pass; ``threads`` share out batches,
    and every group keeps the arithmetic it has alone, so the p-values are
    identical at any thread count. A node count whose batches in flight do not
    fit in physical memory raises :class:`SparseCCError` before any runs.
    ``block_size`` has no effect.
    """
    return _permutation_pvalues(ds1, ds2, (kind,), n_perm, seed, symmetrize, threads)[kind]


def random_pairing_null(ds: PairedDataset, seed: int = 0) -> PairedDataset:
    """Break the observation pairing with a random derangement of the y rows.

    No y row keeps its original partner. Column means and norms are
    permutation-invariant, so the result is still a valid normalized dataset.
    """
    n = ds.n_obs  # at least 2, as PairedDataset guarantees
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    while True:
        perm = rng.permutation(n)
        if not (perm == np.arange(n)).any():
            break
    return PairedDataset(ds.x, ds.y[perm], ds.node_ids, ds.dropped_nodes)


def exact_sup_tail(p: int, c: int) -> float:
    """Exact P(sup |difference| >= c) for two aligned merge ladders of p-1 steps.

    Counts monotone lattice paths from (0,0) to (p-1,p-1) whose coordinate gap
    stays below c, via the two-term recursion on the grid. Exact but it holds
    O(p²) Python integers of up to ~2p bits; intended as a small-p cross-check
    of the asymptotic series, not a production path.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    if c < 0:
        raise ValueError("c must be >= 0")
    if c == 0:
        return 1.0
    m = p - 1
    # A[i][j] = number of monotone paths (0,0)->(i,j) with |i-j| < c throughout
    A = [[0] * (m + 1) for _ in range(m + 1)]
    A[0][0] = 1
    for i in range(m + 1):
        for j in range(m + 1):
            if i == 0 and j == 0:
                continue
            if abs(i - j) >= c:
                A[i][j] = 0
                continue
            A[i][j] = (A[i - 1][j] if i > 0 else 0) + (A[i][j - 1] if j > 0 else 0)
    return 1.0 - A[m][m] / math.comb(2 * m, m)
