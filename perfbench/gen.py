"""Seeded input files for the benchmark workloads.

Uses plain numpy only, so the inputs do not change when the program does.
Files are written in the documented input formats: CSV with a header row of
node ids, or row-major little-endian float64 with a JSON sidecar.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def node_ids(p: int) -> list[str]:
    return [f"n{i + 1}" for i in range(p)]


def write_csv(values: np.ndarray, path: Path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(node_ids(values.shape[1])) + "\n")
        for row in values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_binary(values: np.ndarray, path: Path) -> None:
    values = np.ascontiguousarray(values, dtype="<f8")
    n, p = values.shape
    values.tofile(path)
    meta = {"n": n, "p": p, "node_ids": node_ids(p)}
    Path(str(path) + ".json").write_text(json.dumps(meta))


def paired_group(rng, n, p, noise_sd=0.02, n_dependent=0):
    """y = x + noise per node; the first n_dependent y columns track x[:, 0]."""
    x = rng.standard_normal((n, p))
    eps = rng.standard_normal((n, p))
    y = x + noise_sd * eps
    if n_dependent:
        y[:, :n_dependent] = x[:, [0]] + noise_sd * eps[:, :n_dependent]
    return x, y


def twin_group(rng, n, p, latent_corr, noise_sd=0.5):
    """One latent per twin and observation, shared by every node, plus node noise.

    The two twins' latents have sample mean 0, sample sd 1 and sample
    correlation exactly ``latent_corr``: with n = 40 a drawn correlation
    would wander by about 0.12 and shift every hgi value with it.
    """

    def standardized(v):
        v = v - v.mean()
        return v / v.std()

    zx = standardized(rng.standard_normal((n, 1)))
    u = rng.standard_normal((n, 1))
    u = standardized(u - zx * (zx * u).mean())
    zy = latent_corr * zx + np.sqrt(1.0 - latent_corr**2) * u
    x = zx + noise_sd * rng.standard_normal((n, p))
    y = zy + noise_sd * rng.standard_normal((n, p))
    return x, y


def generate(workload: str, seed: int, out: Path) -> list[Path]:
    """Write the workload's input files into ``out``; return them in CLI order."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, sum(map(ord, workload))]))
    out.mkdir(parents=True, exist_ok=True)
    if workload == "perm_small":
        groups = [paired_group(rng, 20, 100), paired_group(rng, 20, 100, n_dependent=10)]
        suffix, writer = ".csv", write_csv
    elif workload == "stream_large":
        groups = [paired_group(rng, 20, 4096)]
        suffix, writer = ".bin", write_binary
    elif workload == "twin_dense":
        groups = [twin_group(rng, 40, 1000, 1.0), twin_group(rng, 40, 1000, 0.5)]
        suffix, writer = ".bin", write_binary
    else:
        raise ValueError(f"unknown workload {workload!r}")
    paths = []
    for g, (x, y) in enumerate(groups, 1):
        for name, values in (("x", x), ("y", y)):
            path = out / f"{name}{g}{suffix}"
            writer(values, path)
            paths.append(path)
    return paths
