"""Ingestion and normalization of paired observation matrices.

Matrices are oriented rows = observations, columns = nodes. Normalization
centers every column to mean zero and scales it to unit Euclidean norm, the
precondition for all cross-correlation computations downstream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import starmap
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, MalformedFile, NonFiniteEntry, ZeroVarianceNode

# A column is considered constant when its centered norm is this small
# relative to the raw column magnitude.
_ZERO_VAR_RTOL = 1e-12

# Rows that ``_write_rows`` turns into Python objects at a time (a few MiB).
_ROWS_PER_CHUNK = 1 << 16


@dataclass(eq=False)
class RawMatrix:
    """An observations x nodes matrix as read from disk, before normalization."""

    values: np.ndarray
    node_ids: tuple[str, ...]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DimensionMismatch(f"expected a 2-D matrix, got shape {self.values.shape}")
        n, p = self.values.shape
        if n < 2 or p < 2:
            raise DimensionMismatch(f"need at least 2 observations and 2 nodes, got {n}x{p}")
        self.node_ids = tuple(str(v) for v in self.node_ids)
        if len(self.node_ids) != p:
            raise DimensionMismatch(f"{len(self.node_ids)} node ids for {p} columns")
        if not np.isfinite(self.values).all():
            raise NonFiniteEntry("matrix contains NaN or infinite entries")

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.values.shape[1]


@dataclass(eq=False)
class PairedDataset:
    """Two normalized observation matrices over a shared node set."""

    x: np.ndarray
    y: np.ndarray
    node_ids: tuple[str, ...]
    dropped_nodes: tuple[str, ...] = field(default=())

    @property
    def n_obs(self) -> int:
        return self.x.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.x.shape[1]

    def check_normalized(self, atol: float = 1e-10) -> None:
        """Raise if any column violates the centering/unit-norm contract."""
        for name, m in (("x", self.x), ("y", self.y)):
            if np.abs(m.sum(axis=0)).max(initial=0.0) > atol:
                raise ZeroVarianceNode(f"{name} has a non-centered column")
            if np.abs((m * m).sum(axis=0) - 1.0).max(initial=0.0) > atol:
                raise ZeroVarianceNode(f"{name} has a non-unit-norm column")


def default_node_ids(p: int) -> tuple[str, ...]:
    return tuple(f"v{i + 1}" for i in range(p))


def _looks_like_header(line: str) -> bool:
    for tok in line.split(","):
        try:
            float(tok)
        except ValueError:
            return True
    return False


def _read_csv(path: Path) -> RawMatrix:
    with open(path, "r") as fh:
        first = fh.readline()
        if not first.strip():
            raise MalformedFile(f"{path}: empty file")
        has_header = _looks_like_header(first)
        try:
            values = np.loadtxt(
                fh if has_header else [first] + fh.readlines(),
                delimiter=",",
                ndmin=2,
                dtype=np.float64,
            )
        except ValueError as exc:
            raise MalformedFile(f"{path}: {exc}") from exc
    if has_header:
        node_ids = tuple(tok.strip() for tok in first.strip().split(","))
    else:
        node_ids = default_node_ids(values.shape[1])
    return RawMatrix(values, node_ids)


def _read_binary(path: Path) -> RawMatrix:
    sidecar = Path(str(path) + ".json")
    try:
        meta = json.loads(sidecar.read_text())
        n, p = int(meta["n"]), int(meta["p"])
    except (OSError, ValueError, KeyError) as exc:
        raise MalformedFile(f"{sidecar}: unreadable sidecar ({exc})") from exc
    payload = np.fromfile(path, dtype="<f8")
    if payload.size != n * p:
        raise DimensionMismatch(
            f"{path}: sidecar declares {n}x{p} = {n * p} values, payload has {payload.size}"
        )
    node_ids = meta.get("node_ids") or default_node_ids(p)
    if len(node_ids) != p:
        raise DimensionMismatch(f"{path}: sidecar has {len(node_ids)} node ids for p={p}")
    return RawMatrix(payload.reshape(n, p), tuple(node_ids))


def ingest(path, format: str = "auto") -> RawMatrix:
    """Read an observations x nodes matrix from a CSV or raw binary file.

    CSV files may carry an optional header row of node ids. Binary files are
    row-major little-endian float64 with a JSON sidecar at ``<path>.json``
    declaring ``{"n": ..., "p": ..., "node_ids": [...]}``.
    """
    path = Path(path)
    if not path.is_file():
        raise MalformedFile(f"{path}: no such file")
    if format == "auto":
        format = "csv" if path.suffix.lower() == ".csv" else "binary"
    if format == "csv":
        return _read_csv(path)
    if format == "binary":
        return _read_binary(path)
    raise ValueError(f"unknown format {format!r}")


def save_csv(values: np.ndarray, path, node_ids=None) -> None:
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    header = None if node_ids is None else ",".join(node_ids)
    _write_rows(path, header, ",".join(["{!r}"] * values.shape[1]), *values.T)


def _write_rows(path, header: str | None, row_format: str, *columns) -> None:
    """Every CSV output: ``header`` (unless None), then ``row_format.format(*row)``
    for each row of the equal-length ``columns``, converted ``_ROWS_PER_CHUNK``
    rows at a time by ``tolist()``, so ``{!r}`` writes a float64 as
    ``repr(float(v))``.
    """
    line = row_format + "\n"

    def chunk(k):  # dropped as soon as its rows are written
        return [np.asarray(c[k : k + _ROWS_PER_CHUNK]).tolist() for c in columns]

    with open(path, "w") as fh:
        fh.write("" if header is None else header + "\n")
        for k in range(0, len(columns[0]), _ROWS_PER_CHUNK):
            fh.writelines(starmap(line.format, zip(*chunk(k), strict=True)))


def save_binary(values: np.ndarray, path, node_ids=None) -> None:
    values = np.ascontiguousarray(np.atleast_2d(values), dtype="<f8")
    n, p = values.shape
    values.tofile(path)
    meta = {"n": n, "p": p, "node_ids": list(node_ids) if node_ids else list(default_node_ids(p))}
    Path(str(path) + ".json").write_text(json.dumps(meta))


def _normalize_columns(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Center and unit-scale columns; return (normalized, zero-variance mask).

    ``values`` is one (n, p) matrix or a (G, n, p) stack of them. Each column
    is reduced over its own n entries in order, so a stack is normalized
    bitwise as each of its matrices alone.
    """
    centered = values - values.mean(axis=-2, keepdims=True)
    norms = np.sqrt((centered * centered).sum(axis=-2))
    scale = np.maximum(np.abs(values).max(axis=-2), 1.0)
    degenerate = norms <= _ZERO_VAR_RTOL * scale
    centered /= np.where(degenerate, 1.0, norms)[..., None, :]
    return centered, degenerate


def _constant_signal(node_ids, bad: np.ndarray) -> ZeroVarianceNode:
    names = ", ".join(node_ids[i] for i in np.flatnonzero(bad))
    return ZeroVarianceNode(f"constant signal at nodes: {names}")


def _normalize_groups(groups, node_ids: tuple[str, ...]) -> list[PairedDataset]:
    """:func:`normalize_arrays` of each raw ``(x, y)`` pair in ``groups``, over
    the shared ``node_ids``. Groups with equal observation counts are
    normalized as one stack, bitwise as each alone. The first group in order
    with a constant column raises :class:`ZeroVarianceNode`.
    """
    datasets, constant = [None] * len(groups), [None] * len(groups)
    for n in {x.shape[0] for x, _ in groups}:
        ks = [k for k, (x, _) in enumerate(groups) if x.shape[0] == n]
        xs, bad_x = _normalize_columns(np.stack([groups[k][0] for k in ks]))
        ys, bad_y = _normalize_columns(np.stack([groups[k][1] for k in ks]))
        for k, x, y, bad in zip(ks, xs, ys, bad_x | bad_y):
            datasets[k], constant[k] = PairedDataset(x, y, node_ids), bad
    for bad in constant:
        if bad.any():
            raise _constant_signal(node_ids, bad)
    return datasets


def normalize_pair(
    x_raw: RawMatrix, y_raw: RawMatrix, zero_variance_policy: str = "error"
) -> PairedDataset:
    """Center and scale both matrices column-wise.

    With ``zero_variance_policy="drop"``, any node whose column is constant in
    either matrix is removed from both and recorded in ``dropped_nodes``; with
    ``"error"`` such a node raises :class:`ZeroVarianceNode`.
    """
    if zero_variance_policy not in ("error", "drop"):
        raise ValueError(f"unknown zero_variance_policy {zero_variance_policy!r}")
    if x_raw.values.shape != y_raw.values.shape:
        raise DimensionMismatch(
            f"shape mismatch: x is {x_raw.values.shape}, y is {y_raw.values.shape}"
        )
    if x_raw.node_ids != y_raw.node_ids:
        raise DimensionMismatch("x and y carry different node ids")

    x, bad_x = _normalize_columns(x_raw.values)
    y, bad_y = _normalize_columns(y_raw.values)
    bad = bad_x | bad_y
    if bad.any():
        if zero_variance_policy == "error":
            raise _constant_signal(x_raw.node_ids, bad)
        names = [x_raw.node_ids[i] for i in np.flatnonzero(bad)]
        keep = ~bad
        kept_ids = tuple(v for v, k in zip(x_raw.node_ids, keep) if k)
        if keep.sum() < 2:
            raise ZeroVarianceNode("fewer than 2 nodes left after dropping constant signals")
        return PairedDataset(x[:, keep], y[:, keep], kept_ids, tuple(names))
    return PairedDataset(x, y, x_raw.node_ids)


def normalize_arrays(x: np.ndarray, y: np.ndarray, node_ids=None) -> PairedDataset:
    """Normalize a pair of plain arrays (convenience wrapper over RawMatrix)."""
    ids = tuple(node_ids) if node_ids is not None else default_node_ids(x.shape[1])
    return normalize_pair(RawMatrix(x, ids), RawMatrix(y, ids))
