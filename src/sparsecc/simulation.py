"""Synthetic validation studies with known ground truth.

The three-group design: two groups share no structure (pure noise pairing of
x and y per node), a third adds dependency by routing the first few y columns
through node 1's x signal. Repetitions are seeded individually, so runs are
reproducible and parallelizable without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import (
    PairedDataset,
    _write_rows,
    default_node_ids,
    normalize_arrays,
)
from .filtration import KINDS
from .inference import _ks_results, _replicate_stats


@dataclass
class SimConfig:
    n_obs: int = 20
    n_nodes: int = 100
    noise_sd: float = 0.02
    n_dependent: int = 10
    n_reps: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.n_obs < 2 or self.n_nodes < 2 or self.n_reps < 1:
            raise ValueError("n_obs and n_nodes must be >= 2, n_reps >= 1")
        if not 0 <= self.n_dependent <= self.n_nodes:
            raise ValueError("n_dependent must lie in [0, n_nodes]")
        if not self.noise_sd > 0:
            raise ValueError("noise_sd must be > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def rep_rng(seed: int, rep: int) -> np.random.Generator:
    """The deterministic RNG stream for repetition ``rep`` of a study."""
    return np.random.default_rng(np.random.SeedSequence([seed, rep]))


def _raw_group(cfg: SimConfig, rng: np.random.Generator, n_dependent: int = 0):
    """Raw (x, y): x iid standard normal, y = x + independent noise per node,
    except that the first ``n_dependent`` y columns track x[:, 0]."""
    x = rng.standard_normal((cfg.n_obs, cfg.n_nodes))
    eps = rng.standard_normal((cfg.n_obs, cfg.n_nodes))
    y = x + cfg.noise_sd * eps
    if n_dependent > 0:
        y[:, :n_dependent] = x[:, [0]] + cfg.noise_sd * eps[:, :n_dependent]
    return x, y


def _raw_triple(cfg: SimConfig, rep: int) -> list:
    """Repetition ``rep``'s raw groups: null, null, dependent, from its stream."""
    rng = rep_rng(cfg.seed, rep)
    return [_raw_group(cfg, rng), _raw_group(cfg, rng), _raw_group(cfg, rng, cfg.n_dependent)]


def generate_null_group(cfg: SimConfig, rng: np.random.Generator) -> PairedDataset:
    """x iid standard normal; y = x + independent noise, per node."""
    return normalize_arrays(*_raw_group(cfg, rng))


def generate_dependent_group(cfg: SimConfig, rng: np.random.Generator) -> PairedDataset:
    """As the null group, but the first n_dependent y columns track x[:, 0].

    Consumes the RNG stream identically to the null generator, so with
    n_dependent = 0 the two are byte-for-byte equal.
    """
    return normalize_arrays(*_raw_group(cfg, rng, cfg.n_dependent))


def generate_twin_group(
    n_obs: int,
    n_nodes: int,
    rng: np.random.Generator,
    latent_corr: float = 1.0,
    noise_scale: float = 0.1,
) -> PairedDataset:
    """Twin-like data with dense cross-correlations.

    Every node mixes one shared per-observation latent signal with local
    noise, so all node pairs cross-correlate near 1/(1 + noise_scale^2) when
    latent_corr = 1 (identical-twin-like) and proportionally lower otherwise.
    Breaking the row pairing destroys the structure entirely.
    """
    if not 0.0 <= latent_corr <= 1.0:
        raise ValueError("latent_corr must lie in [0, 1]")
    s = rng.standard_normal((n_obs, 1))
    s2 = latent_corr * s + np.sqrt(1.0 - latent_corr**2) * rng.standard_normal((n_obs, 1))
    x = s + noise_scale * rng.standard_normal((n_obs, n_nodes))
    y = s2 + noise_scale * rng.standard_normal((n_obs, n_nodes))
    return normalize_arrays(x, y)


def run_validation(
    cfg: SimConfig,
    kinds=KINDS,
    symmetrize: bool = True,
    threads: int | None = None,
) -> list[dict]:
    """Monte-Carlo study over fresh group triples per repetition.

    Emits one row per (comparison, kind) with the mean and standard deviation
    of the asymptotic p-values across repetitions. Each repetition computes
    the curves of its three groups once and compares every requested kind on
    them. Repetitions run in batches through the replicate driver of
    :func:`~sparsecc.inference.permutation_test` (at most 768 KiB of p x p
    weights, 3 repetitions at p = 100), and batches are what ``threads``
    share out; every group keeps the arithmetic it has alone, so the rows are
    identical at any thread count. Batches in flight that do not fit in
    physical memory raise ``SparseCCError`` before any data is drawn.
    """
    kinds = tuple(kinds)
    for k in kinds:
        if k not in KINDS:
            raise ValueError(f"unknown curve kind {k!r}")

    def p_values(g1, g2, g3) -> dict:
        return {(comparison, kind): res.p_asymptotic
                for comparison, other in (("null_vs_null", g2), ("null_vs_dependent", g3))
                for kind, res in _ks_results(g1, other, kinds).items()}

    reps = list(_replicate_stats(lambda rep: _raw_triple(cfg, rep), p_values, cfg.n_reps, 3,
                                 default_node_ids(cfg.n_nodes), symmetrize, threads))
    rows = []
    for comparison in ("null_vs_null", "null_vs_dependent"):
        for kind in kinds:
            ps = np.array([r[(comparison, kind)] for r in reps])
            rows.append(
                {
                    "comparison": comparison,
                    "kind": kind,
                    "mean_p": float(ps.mean()),
                    "sd_p": float(ps.std(ddof=1)) if cfg.n_reps > 1 else None,
                    "n_reps": cfg.n_reps,
                }
            )
    return rows


def write_summary_csv(rows: list[dict], path) -> None:
    """Rows "comparison,kind,mean_p,sd_p,n_reps"; an sd_p of None is left empty."""
    names = ("comparison", "kind", "mean_p", "sd_p", "n_reps")
    columns = [[r[name] for r in rows] for name in names]
    columns[3] = ["" if sd is None else repr(sd) for sd in columns[3]]
    _write_rows(path, ",".join(names), "{},{},{!r},{},{}", [columns])
