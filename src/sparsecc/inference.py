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
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .crosscorr import cross_correlate
from .dataset import PairedDataset, _constant_when_permuted, _normalize_groups
from .errors import CurveMismatch, NodeSetMismatch, ZeroVarianceNode
from .filtration import (
    KIND_COMPONENTS,
    KINDS,
    FiltrationCurve,
    _pair_weights,
    _prim_steps,
    _step_sups,
    _streamed_curves,
    _streamed_steps,
)
from ._parallel import ordered_map, resolve_threads

# The p x p weights one replicate batch holds at most, spent on batch size
# before threads: 13 permutations (26 groups) or 8 study repetitions (24 groups)
# at p = 100, run one batch at a time. From p = 257 (permutations) or p = 210
# (repetitions) on a batch is one replicate, and below _STREAMED_FROM threads
# share the batches out. On `compare --permutations 200` at p = 100, 3 and
# 8 MiB read the same CPU as 2 MiB at 6.5 and 35 % more peak memory, and 4 MiB
# saves some CPU but raises the CLI's peak RSS by 11 % (40.5 to 45.1 MiB).
_BATCH_BYTES = 1 << 21

# From this node count on, a replicate's groups each take a streamed pass. CPU ms
# per replicate, dense batch / two float32-screened streamed passes
# (_dense_step_weights / _step_weights), one thread, n = 20, minimum of 7
# alternating rounds on a shared 2-core Xeon: p = 300: 5.5 / 12.6; 600: 18.2 /
# 26.4; 800: 31.6 / 36.2; 1000: 44.0 / 46.4; 1024: 53.4 / 47.1; 1200: 65.1 / 55.5;
# 1500: 90.8 / 72.1. The cut stays until a change to it shows a gain on a benchmark
# workload. A dense batch below it holds at most 7 x 8 x 1023^2 bytes (56 MiB),
# one per core.
_STREAMED_FROM = 1024


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

    Both curves are constant below their first breakpoint and between
    consecutive breakpoints of either curve, so the difference takes every
    value it has below all breakpoints or at one of them; a left limit equals
    the value at the previous breakpoint. At each breakpoint of one curve its
    own value is the next entry of ``values``.
    """
    if c1.kind != c2.kind:
        raise CurveMismatch(f"curve kinds differ: {c1.kind} vs {c2.kind}")
    if c1.n_nodes != c2.n_nodes:
        raise CurveMismatch(f"node counts differ: {c1.n_nodes} vs {c2.n_nodes}")
    d = abs(int(c1.values[0]) - int(c2.values[0]))
    for a, b in ((c1, c2), (c2, c1)):
        if a.breakpoints.size:
            d = max(d, int(np.abs(a.values[1:] - b.value_at(a.breakpoints)).max()))
    return d


def ks_pvalue(d_normalized: float, tol: float = 1e-16) -> float:
    """Asymptotic two-sided survival probability at normalized distance d.

    Truncates the alternating series after the first term once the next term
    drops below ``tol`` (a far tail is 2 exp(-2 d^2), not 0); clipped into
    [ulp(0), 1] for d > 0. Beyond d of about 19.3 the tail underflows a double,
    and the result, the smallest positive double, is an upper bound on it.
    """
    if not d_normalized >= 0:
        raise ValueError("d_normalized must be >= 0")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if d_normalized == 0:
        return 1.0
    e = -2.0 * d_normalized * d_normalized
    total = 0.0
    for i in range(1, 100_000):
        term = math.exp(e * i * i)
        if term < tol and i > 1:
            break
        total += term if i % 2 == 1 else -term
    return min(1.0, max(math.ulp(0.0), 2.0 * total))


def group_curves(ds: PairedDataset, symmetrize: bool = True, block_size: int = 1024) -> dict:
    """Every filtration curve of one group as {kind: FiltrationCurve}, all from one
    streamed spanning forest, bitwise that of the group's dense weights in a
    dense replicate batch (:func:`_dense_step_weights`), and no p x p matrix.
    ``block_size`` has no effect: no tile shape changes a bit of the result.
    """
    return dict(zip(KINDS, _streamed_curves(ds, symmetrize)[:2]))


def _dense_step_weights(datasets, symmetrize: bool) -> np.ndarray:
    """:func:`_step_weights` of G normalized groups on one node set, from a
    ``(G, p, p)`` stack of their absolute weights (``_pair_weights``), filled
    one matrix at a time, and one lockstep ``_prim_steps`` call: every graph
    keeps the arithmetic it has alone."""
    G, p = len(datasets), datasets[0].n_nodes
    w = np.empty((G, p, p))
    for ds, wg in zip(datasets, w):
        rho = cross_correlate(ds, symmetrize=symmetrize).rho
        _pair_weights(rho, "absolute", None if symmetrize else rho.T, out=wg)
        del rho  # released before the next matrix is computed
    return _prim_steps(w.reshape(G * p, p).__getitem__, G, p)[2].T


def _step_weights(groups, symmetrize: bool) -> np.ndarray:
    """The ``(G, p - 1)`` Prim step weights of G normalized groups, one streamed pass each."""
    return np.stack([_streamed_steps(ds, symmetrize)[2][:, 0] for ds in groups])


def _batch_size(groups_per_rep: int, p: int) -> int:
    """Whole replicates that fit ``_BATCH_BYTES`` of p x p weights, and at least one."""
    return max(1, _BATCH_BYTES // (groups_per_rep * 8 * p * p))


def _batches(n_reps: int, groups_per_rep: int, p: int):
    """Replicate ranges in order, each :func:`_batch_size` replicates but the last."""
    size = _batch_size(groups_per_rep, p)
    return (range(a, min(a + size, n_reps)) for a in range(0, n_reps, size))


def _replicate_stats(raw_groups, pairs, n_reps, groups_per_rep, node_ids, symmetrize,
                     threads):
    """The replicate driver: for replicates 0 .. n_reps - 1 in order, a
    ``(len(pairs), 2)`` integer array, the sup distances (``KINDS`` order)
    between the curves of groups a and b of each pair (a, b) in ``pairs``
    among replicate r's raw ``(x, y)`` groups ``raw_groups(r)``. Each batch
    (:func:`_batches`) normalizes its groups, builds their forests and reads
    every pair's sups from the step weights (``_step_sups``): no curve is built.

    Below ``_STREAMED_FROM`` nodes the forests come from dense weights
    (:func:`_dense_step_weights`). Batches of several replicates run one at a
    time on the calling thread: their time is interpreter overhead, which
    threads cannot overlap. Batches of one replicate (from p = 257 for two
    groups per replicate, p = 210 for three) are shared out among the
    ``threads`` workers, each holding at most 7 p x p matrices. From
    ``_STREAMED_FROM`` on each group takes a streamed pass (:func:`_step_weights`)
    on the calling thread.
    """
    p = len(node_ids)
    workers = resolve_threads(threads)  # checked also where it goes unused
    streamed = p >= _STREAMED_FROM
    if streamed or _batch_size(groups_per_rep, p) > 1:
        workers = 1
    step_weights = _step_weights if streamed else _dense_step_weights

    def one_batch(reps: range) -> np.ndarray:
        groups = _normalize_groups([g for r in reps for g in raw_groups(r)], node_ids)
        first, second = (np.add.outer(np.arange(len(reps)) * groups_per_rep, ends).ravel()
                         for ends in zip(*pairs))
        ww = step_weights(groups, symmetrize)
        return _step_sups(ww, first, second).reshape(len(reps), len(pairs), 2)

    batches = ordered_map(one_batch, _batches(n_reps, groups_per_rep, p), workers)
    return (stat for batch in batches for stat in batch)


def _ks_result(kind: str, d_raw: int, p: int) -> KSResult:
    """The sup distance ``d_raw`` between two curves on p nodes, its
    normalization and its asymptotic p-value."""
    d_norm = d_raw / math.sqrt(2.0 * (p - 1))
    return KSResult(kind, d_raw, d_norm, ks_pvalue(d_norm), p)


def _compare_kinds(ds1, ds2, kinds, symmetrize, n_perm=0, seed=0,
                   threads=None) -> dict[str, KSResult]:
    """The two-group comparison: :func:`compare_groups` of every kind in ``kinds``,
    both sups read from the two groups' streamed Prim steps (``_step_sups``, as
    every permutation reads its own), and with ``n_perm`` > 0 the
    :func:`permutation_test` p-value of each, refused before the streamed pass."""
    if unknown := [kind for kind in kinds if kind not in KINDS]:
        raise ValueError(f"unknown curve kind {unknown[0]!r}")
    if ds1.node_ids != ds2.node_ids:
        raise NodeSetMismatch("datasets cover different node sets")
    if n_perm:
        x, y = np.vstack([ds1.x, ds2.x]), np.vstack([ds1.y, ds2.y])
        n1, n_total = ds1.n_obs, ds1.n_obs + ds2.n_obs
        # refused up front, not when some permutation happens to draw such a group
        k = min(n1, ds2.n_obs)
        if (risky := _constant_when_permuted(x, k) | _constant_when_permuted(y, k)).any():
            names = ", ".join(ds1.node_ids[i] for i in np.flatnonzero(risky))
            raise ZeroVarianceNode(f"a permuted group of {k} observations could have a "
                                   f"constant signal at nodes: {names}")

        def split(r: int) -> list:
            perm = np.random.default_rng(np.random.SeedSequence([seed, r])).permutation(n_total)
            return [(x[i], y[i]) for i in (perm[:n1], perm[n1:])]

        # checks threads now; its batches start only when read, after the streamed pass
        d_perm = _replicate_stats(split, ((0, 1),), n_perm, 2, ds1.node_ids, symmetrize, threads)
    d_obs = _step_sups(_step_weights((ds1, ds2), symmetrize), [0], [1])[0]
    results = {kind: _ks_result(kind, int(d_obs[KINDS.index(kind)]), ds1.n_nodes)
               for kind in kinds}
    if n_perm:
        exceed = sum(d[0] >= d_obs for d in d_perm)
        for kind, res in results.items():
            res.p_permutation = (1 + int(exceed[KINDS.index(kind)])) / (1 + n_perm)
            res.n_perm, res.seed = n_perm, seed
    return results


def compare_groups(
    ds1: PairedDataset,
    ds2: PairedDataset,
    kind: str = KIND_COMPONENTS,
    symmetrize: bool = True,
    block_size: int = 1024,
) -> KSResult:
    """Full pipeline: each group's streamed spanning forest once, the sup distance
    of their :func:`group_curves` read from its Prim steps, p-value.

    ``block_size`` has no effect."""
    return _compare_kinds(ds1, ds2, (kind,), symmetrize)[kind]


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
    """Group-label permutation p-value for the sup distance ``d_raw`` that
    :func:`compare_groups` reports: (1 + b) / (1 + n_perm), b the permutations
    whose sup distance is at least ``d_raw``.

    Paired observations (rows) are pooled and reassigned to two groups of the
    original sizes; each permuted group is re-normalized and its spanning
    forest built once, and the sup distances of both kinds are read from the
    two forests' Prim step weights, with no curve built: they equal
    :func:`sup_distance` of the groups' :func:`group_curves`. Permutation r
    draws from a stream seeded by (seed, r), so results depend neither on
    scheduling nor on the kinds asked.

    The permutations run in batches of whole splits that normalize their
    groups as stacks and build their forests in one lockstep pass: up to 2 MiB
    of weights, 13 splits at p = 100, run one batch at a time. From p = 257 on
    a batch is one split, and ``threads`` (at most one per core) share out the
    batches. From 1024 nodes on each permuted group takes a streamed pass, as
    the observed ones do, on the calling thread. Every group keeps the
    arithmetic it has alone, so the p-values are identical at any thread count
    and on either route. A column that a permuted group could hold constant
    raises :class:`ZeroVarianceNode`, naming its nodes, before any permutation
    runs: one in which min(n1, n2) pooled values are equal, or nearly so.
    ``block_size`` has no effect.
    """
    if n_perm < 1:
        raise ValueError("n_perm must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return _compare_kinds(ds1, ds2, (kind,), symmetrize, n_perm, seed, threads)[kind].p_permutation


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
    stays below c, via the two-term recursion on the grid, one row at a time
    and only inside the band |i - j| < c. It holds 2c - 1 Python integers of
    up to ~2p bits and takes O(p c) additions. One exact-integer division
    gives the tail, so a small one does not cancel against 1.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    if c < 0:
        raise ValueError("c must be >= 0")
    if c == 0:
        return 1.0
    m = p - 1
    if c > m:  # no path's gap reaches c
        return 0.0
    # row[d] = number of monotone paths (0,0)->(i, i + d - c + 1) with |i-j| < c
    # throughout; row i is the running sum of row i - 1 shifted by one column
    row = [0] * (c - 1) + [1] * c
    for _ in range(m):
        row = list(accumulate(row[1:] + [0]))
    paths = math.comb(2 * m, m)
    return (paths - row[c - 1]) / paths
