"""Reference checks of the CLI outputs that share no code with sparsecc.

Correlations come from numpy gemm/gemv, spanning forests from the Prim loop
below, and p-values from ``scipy.stats.kstwobign``. gemm sums in another
order than the program's rank-1 loop, so weights agree to about 1e-15, not
bitwise: a mismatch is tolerated only where a weight lies within ``TOL`` of
the threshold that decides it. Each check returns a list of problems; an
empty list means the outputs are correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.stats import kstwobign

from workloads import BINS, EDGE_THRESHOLD, PERMUTATIONS

TOL = 1e-12
KINDS = ("component_count", "largest_component_size")


def load(path: Path) -> np.ndarray:
    if path.suffix == ".csv":
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    meta = json.loads(Path(str(path) + ".json").read_text())
    return np.fromfile(path, dtype="<f8").reshape(meta["n"], meta["p"])


def load_pair(x_path: Path, y_path: Path) -> tuple[np.ndarray, np.ndarray]:
    def normalized(values):
        centered = values - values.mean(axis=0)
        return centered / np.sqrt((centered * centered).sum(axis=0))

    return normalized(load(x_path)), normalized(load(y_path))


def sym_corr(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dense symmetrized cross-correlation (x_i.y_j + y_i.x_j) / 2."""
    return (x.T @ y + y.T @ x) / 2.0


def msf_edges(p: int, row) -> list[tuple[float, int, int]]:
    """Maximum-spanning-forest edges (weight, i, j) by Prim; ``row(u)`` gives
    the weights from node u to every node, where 0 means no edge."""
    in_tree = np.zeros(p, dtype=bool)
    best = np.full(p, -np.inf)
    src = np.zeros(p, dtype=np.int64)
    edges = []
    u = 0
    for _ in range(p - 1):
        in_tree[u] = True
        r = row(u)
        better = r > best
        best[better] = r[better]
        src[better] = u
        best[in_tree] = -np.inf
        u = int(np.argmax(best))
        if best[u] > 0.0:
            edges.append((float(best[u]), int(src[u]), u))
        # otherwise no edge reaches u and it starts a new tree
    return edges


class Curves:
    """Component count and largest size after each merge, in descending
    weight order (Kruskal over the spanning-forest edges)."""

    def __init__(self, p: int, edges):
        edges = sorted(edges, key=lambda e: -e[0])
        parent = list(range(p))
        size = [1] * p

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        count, largest, big = [p], [1], 1
        for _, a, b in edges:
            ra, rb = find(a), find(b)
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            size[ra] += size[rb]
            big = max(big, size[ra])
            count.append(count[-1] - 1)
            largest.append(big)
        self.p = p
        self.w_asc = np.array([e[0] for e in edges])[::-1].copy()
        # index k holds the state after the k heaviest merges
        self.state = {KINDS[0]: np.array(count), KINDS[1]: np.array(largest)}

    def at(self, kind: str, lam, left: bool = False) -> np.ndarray:
        """Value with edges ``w > lam`` present, or ``w >= lam`` if ``left``."""
        side = "left" if left else "right"
        merged = self.w_asc.size - np.searchsorted(self.w_asc, lam, side=side)
        return self.state[kind][merged]

    def near(self, lam) -> np.ndarray:
        """True where some merge weight lies within TOL of ``lam``."""
        lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
        w = np.concatenate([[-np.inf], self.w_asc, [np.inf]])
        k = np.searchsorted(w, lam)
        gap = np.minimum(np.abs(w[k - 1] - lam), np.abs(w[k] - lam))
        return gap <= TOL


def dense_curves(x: np.ndarray, y: np.ndarray) -> Curves:
    w = np.abs(sym_corr(x, y))
    np.fill_diagonal(w, 0.0)
    return Curves(w.shape[0], msf_edges(w.shape[0], lambda u: w[u]))


def sup_distance(c1: Curves, c2: Curves, kind: str) -> tuple[int, bool]:
    """Sup of |c1 - c2| over both one-sided limits at every merge weight, and
    whether two weights of different groups lie within TOL of each other."""
    grid = np.union1d(c1.w_asc, c2.w_asc)
    if grid.size == 0:
        return abs(int(c1.state[kind][0]) - int(c2.state[kind][0])), False
    d = max(
        int(np.abs(c1.at(kind, grid, left) - c2.at(kind, grid, left)).max())
        for left in (False, True)
    )
    return d, bool(c1.near(c2.w_asc).any())


def check_result_json(path: Path, c1: Curves, c2: Curves, kind: str, extra: dict) -> list[str]:
    res = json.loads(path.read_text())
    p = c1.p
    d_raw, tie = sup_distance(c1, c2, kind)
    problems = []
    if res.get("kind") != kind or res.get("n_nodes") != p:
        problems.append(f"{path.name}: kind/n_nodes {res.get('kind')}/{res.get('n_nodes')}")
    if res.get("d_raw") != d_raw and not tie:
        problems.append(f"{path.name}: d_raw {res.get('d_raw')} != {d_raw}")
    d_norm = res.get("d_raw", -1) / math.sqrt(2.0 * (p - 1))
    if abs(res.get("d_normalized", math.inf) - d_norm) > TOL:
        problems.append(f"{path.name}: d_normalized {res.get('d_normalized')} != {d_norm}")
    p_asym = float(kstwobign.sf(d_norm))
    if abs(res.get("p_asymptotic", math.inf) - p_asym) > TOL:
        problems.append(f"{path.name}: p_asymptotic {res.get('p_asymptotic')} != {p_asym}")
    for key, want in extra.items():
        if key == "p_permutation" and want is not None:
            got = res.get(key)
            lo, scale = 1.0 / (1 + want), 1 + want
            if not isinstance(got, float) or not lo <= got <= 1.0 or (
                abs(got * scale - round(got * scale)) > 1e-6
            ):
                problems.append(f"{path.name}: p_permutation {got} is not k/{scale} in [{lo}, 1]")
        elif res.get(key) != want:
            problems.append(f"{path.name}: {key} {res.get(key)} != {want}")
    return problems


def check_perm_small(inputs: list[Path], out: Path, n_perm: int, seed: int) -> list[str]:
    c1 = dense_curves(*load_pair(inputs[0], inputs[1]))
    c2 = dense_curves(*load_pair(inputs[2], inputs[3]))
    extra = {"p_permutation": n_perm, "n_perm": n_perm, "seed": seed}
    problems = []
    for kind in KINDS:
        problems += check_result_json(out / f"result_{kind}.json", c1, c2, kind, extra)
    return problems


def read_curve_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    lines = path.read_text().splitlines()
    if lines[0] != "threshold,value" or not lines[1].startswith("-inf,") or not (
        lines[-1].startswith("inf,")
    ):
        raise ValueError(f"{path.name}: missing header or sentinel rows")
    rows = [line.split(",") for line in lines[1:]]
    bps = np.array([float(t) for t, _ in rows[1:-1]])
    values = np.array([int(v) for _, v in rows])
    return bps, values


def check_stream_large(inputs: list[Path], out: Path, bins: int) -> list[str]:
    x, y = load_pair(inputs[0], inputs[1])
    p = x.shape[1]
    curves = Curves(p, msf_edges(p, lambda u: np.abs(x[:, u] @ y + y[:, u] @ x) / 2.0))
    grid = np.arange(bins + 1) / bins
    near = curves.near(grid)
    problems = []
    for kind in KINDS:
        path = out / f"curve_{kind}.csv"
        try:
            bps, values = read_curve_csv(path)
        except (OSError, ValueError) as exc:
            problems.append(str(exc))
            continue
        k = np.rint(bps * bins)
        if (k / bins != bps).any():
            problems.append(f"{path.name}: breakpoint off the 1/{bins} grid")
        got = values[np.searchsorted(bps, grid, side="right")]
        bad = (got != curves.at(kind, grid)) & ~near
        if bad.any():
            first = grid[np.flatnonzero(bad)[0]]
            problems.append(
                f"{path.name}: {int(bad.sum())} bin boundaries differ, first at {first}"
            )
    return problems


def check_twin_dense(inputs: list[Path], out: Path, threshold: float) -> list[str]:
    mz, dz = load_pair(inputs[0], inputs[1]), load_pair(inputs[2], inputs[3])
    problems = []

    rho_mz, rho_dz = (np.einsum("ij,ij->j", x, y) for x, y in (mz, dz))
    hi, c = 2.0 * (rho_mz - rho_dz), 2.0 * rho_dz - rho_mz
    lines = (out / "hi.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    p = hi.size
    if lines[0] != "node_id,hi,a,c" or [r[0] for r in rows] != [f"n{i + 1}" for i in range(p)]:
        problems.append("hi.csv: header or node ids differ")
    else:
        got = np.array([[float(v) for v in r[1:]] for r in rows])
        err = np.abs(got - np.column_stack([hi, hi, c])).max()
        if err > TOL:
            problems.append(f"hi.csv: max deviation {err:.3g}")

    h = 2.0 * (sym_corr(*mz) - sym_corr(*dz))
    iu = np.triu_indices(p, k=1)
    mag = np.abs(h[iu])
    lo, hi_count = int((mag > threshold + TOL).sum()), int((mag > threshold - TOL).sum())
    with open(out / "hgi_edges.csv", "rb") as fh:
        header = fh.readline()
        body = fh.read()
    n_rows = body.count(b"\n")
    if header != b"i,j,hgi\n" or not lo <= n_rows <= hi_count:
        problems.append(f"hgi_edges.csv: {n_rows} rows, expected {lo}..{hi_count}")
    # spot-check every 997th row's value against the gemm reference
    for line in body.splitlines()[::997]:
        i, j, v = line.split(b",")
        i, j, v = int(i), int(j), float(v)
        if not i < j or abs(v - h[i, j]) > TOL or abs(v) <= threshold - TOL:
            problems.append(f"hgi_edges.csv: row {i},{j},{v} differs from {h[i, j]}")
            break

    c_mz, c_dz = dense_curves(*mz), dense_curves(*dz)
    extra = {"p_permutation": None, "n_perm": None, "seed": None}
    for kind in KINDS:
        problems += check_result_json(out / f"result_{kind}.json", c_mz, c_dz, kind, extra)
    return problems


def check(workload: str, inputs: list[Path], out: Path, seed: int) -> list[str]:
    if workload == "perm_small":
        return check_perm_small(inputs, out, PERMUTATIONS, seed)
    if workload == "stream_large":
        return check_stream_large(inputs, out, BINS)
    return check_twin_dense(inputs, out, EDGE_THRESHOLD)
