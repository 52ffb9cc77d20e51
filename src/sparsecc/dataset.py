"""Ingestion and normalization of paired observation matrices.

Matrices are oriented rows = observations, columns = nodes. Normalization
centers every column to mean zero and scales it to unit Euclidean norm, the
precondition for all cross-correlation computations downstream.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    MalformedFile,
    NonFiniteEntry,
    SparseCCError,
    ZeroVarianceNode,
)

# A column is considered constant when its centered norm is this small
# relative to the raw column magnitude.
_ZERO_VAR_RTOL = 1e-12

# Values that ``_write_rows`` turns into Python objects at a time (a few MiB).
_VALUES_PER_CHUNK = 1 << 17


@dataclass(eq=False)
class RawMatrix:
    """An observations x nodes matrix as read from disk, before normalization."""

    values: np.ndarray
    node_ids: tuple[str, ...]

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DimensionMismatch(f"expected a 2-D matrix, got shape {self.values.shape}")
        n, p = self.values.shape
        if n < 2 or p < 2:
            raise DimensionMismatch(f"need at least 2 observations and 2 nodes, got {n}x{p}")
        self.node_ids = tuple(str(v) for v in self.node_ids)
        if len(self.node_ids) != p:
            raise DimensionMismatch(f"{len(self.node_ids)} node ids for {p} columns")
        counts = Counter(self.node_ids)
        if len(counts) != p:
            repeated = ", ".join(v for v, k in counts.items() if k > 1)
            raise MalformedFile(f"repeated node ids: {repeated}")
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
    """Two normalized observation matrices over a shared node set.

    ``x`` and ``y`` are stored as C-ordered float64 (no copy when they already
    are), the layout on which the product kernel sums in observation order.
    """

    x: np.ndarray
    y: np.ndarray
    node_ids: tuple[str, ...]
    dropped_nodes: tuple[str, ...] = field(default=())

    def __post_init__(self):
        self.x = np.ascontiguousarray(self.x, dtype=np.float64)
        self.y = np.ascontiguousarray(self.y, dtype=np.float64)
        if self.x.ndim != 2 or self.x.shape != self.y.shape:
            raise DimensionMismatch(f"need equal 2-D shapes, got {self.x.shape} and {self.y.shape}")
        n, p = self.x.shape
        if n < 2 or p < 2:
            raise DimensionMismatch(f"need at least 2 observations and 2 nodes, got {n}x{p}")

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
        try:
            first = fh.readline()
            if not first.strip():
                raise MalformedFile(f"{path}: empty file")
            has_header = _looks_like_header(first)
            values = np.loadtxt(
                fh if has_header else [first] + fh.readlines(),
                delimiter=",",
                ndmin=2,
                dtype=np.float64,
            )
        except ValueError as exc:  # also a UnicodeDecodeError, on a line or ahead of it
            raise MalformedFile(f"{path}: {exc}") from exc
    if has_header:
        node_ids = tuple(tok.strip() for tok in first.strip().split(","))
    else:
        node_ids = default_node_ids(values.shape[1])
    return _raw_matrix(path, values, node_ids)


def _read_binary(path: Path) -> RawMatrix:
    sidecar = Path(str(path) + ".json")
    try:
        meta = json.loads(sidecar.read_text())
    except (OSError, ValueError) as exc:
        raise MalformedFile(f"{sidecar}: unreadable sidecar ({exc})") from exc
    if not isinstance(meta, dict):
        raise MalformedFile(f"{sidecar}: sidecar is not a JSON object")
    n, p = meta.get("n"), meta.get("p")
    if not all(type(v) is int and v >= 0 for v in (n, p)):
        raise MalformedFile(f"{sidecar}: sidecar needs integers n >= 0 and p >= 0, "
                            f"got n={n!r}, p={p!r}")
    if not isinstance(meta.get("node_ids", []), list):
        raise MalformedFile(f"{sidecar}: sidecar node_ids is not a list")
    payload = np.fromfile(path, dtype="<f8")
    if payload.size != n * p:
        raise DimensionMismatch(
            f"{path}: sidecar declares {n}x{p} = {n * p} values, payload has {payload.size}"
        )
    node_ids = meta.get("node_ids") or default_node_ids(p)
    if len(node_ids) != p:
        raise DimensionMismatch(f"{path}: sidecar has {len(node_ids)} node ids for p={p}")
    return _raw_matrix(path, payload.reshape(n, p), tuple(node_ids))


def _raw_matrix(path: Path, values, node_ids) -> RawMatrix:
    """``RawMatrix(values, node_ids)`` read from ``path``: its errors name the file."""
    try:
        return RawMatrix(values, node_ids)
    except SparseCCError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


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
    _write_rows(path, header, ",".join(["{!r}"] * values.shape[1]), [values.T])


def _write_rows(path, header: str | None, row_format: str, blocks):
    """Every CSV output: ``header`` (unless None), then ``row_format.format(*row)``
    for each row of each block in ``blocks``, an iterable of tuples of
    equal-length columns; whole-array writers pass one block, streamed ones
    one block per node as they compute it. Returns the number of rows
    written, the header not counted. With a list of paths, each item of
    ``blocks`` holds one block per file, the files are written in one pass
    and the counts come back as a list.

    A streamed block ``(u, j, w)`` holds node u's rows of an edge file
    (``row_format`` ``"{},{},{!r}"``): u is one int, j an int array of node
    indices and w a float64 array. :func:`_node_rows` renders it with one
    orjson call over its ``(j, w)`` pairs, cut at the few weights that
    ``float.__repr__`` renders alone.

    A whole-array block is rendered in chunks of at most ``_VALUES_PER_CHUNK``
    values (one row at least), so a chunk's Python objects and text stay near
    10 MiB whatever the width. ``tolist()`` turns the columns into Python
    objects, so ``{!r}`` writes a float64 as ``repr(float(v))``, and one
    ``str.format`` call renders the whole chunk from ``row_format`` repeated
    once per row, byte-identical to one call per row as long as its fields
    are auto-numbered (``{}``, ``{!r}``, ``{:g}``).
    """
    many = isinstance(path, list)
    paths, line = path if many else [path], row_format + "\n"
    counts = [0] * len(paths)
    with ExitStack() as files:
        fhs = [files.enter_context(open(p, "w")) for p in paths]
        for fh in fhs:
            fh.write("" if header is None else header + "\n")
        for item in blocks:
            for f, block in enumerate(item if many else [item]):
                counts[f] += _write_block(fhs[f], line, block)
    return counts if many else counts[0]


def _write_block(fh, line: str, block) -> int:
    """One block of :func:`_write_rows`; returns its number of rows."""
    if isinstance(block[0], int):  # one node's rows
        fh.write(_node_rows(*block))
        return len(block[1])
    step = max(1, _VALUES_PER_CHUNK // len(block))
    for k in range(0, len(block[0]), step):
        chunk = [np.asarray(c[k : k + step]).tolist() for c in block]
        # one flat argument list, row by row; dropped once its rows are written
        values = list(chain.from_iterable(zip(*chunk, strict=True)))
        fh.write((line * len(chunk[0])).format(*values))
    return len(block[0])


def _node_rows(u: int, j: np.ndarray, w: np.ndarray) -> str:
    """Node u's edge rows, ``"u,j,w"`` with ``float.__repr__`` of each weight
    w, one line each, in order.

    One ``orjson.dumps`` call renders the ``(j, w)`` pairs as ``[[j,w],...]``:
    with the outer brackets cut, each ``"],["`` between two pairs becomes the
    row break plus ``"u,"``. orjson writes an int as ``str`` does and a float
    in ``repr``'s shortest round-trip digits, in ``repr``'s notation only for
    1e-4 <= |x| < 1e16 and x == 0 (it writes ``1e-5`` for ``1e-05``, ``1e16``
    for ``1e+16`` and ``null`` for inf and NaN). So the rows whose weight is
    outside that range are rendered alone by ``float.__repr__``, and each run
    of rows between them by one orjson call.
    """
    import orjson  # only the edge-file writer of hgi and build renders node blocks

    size = np.abs(w)
    alone = np.flatnonzero(~(((size >= 1e-4) & (size < 1e16)) | (w == 0))).tolist()
    js, ws, prefix = j.tolist(), w.tolist(), f"{u},"
    parts, a = [], 0
    for k in alone + [len(js)]:
        if a < k:
            pairs = orjson.dumps(list(zip(js[a:k], ws[a:k]))).decode()
            parts.append(prefix + pairs[2:-2].replace("],[", "\n" + prefix) + "\n")
        if k < len(js):
            parts.append(f"{prefix}{js[k]},{float.__repr__(ws[k])}\n")
        a = k + 1
    return "".join(parts)


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


def _constant_when_permuted(values: np.ndarray, k: int) -> np.ndarray:
    """Mask of the columns of ``values`` that some k of its rows or more could
    hold constant, by :func:`_normalize_columns`' rule: those in which some k
    consecutive sorted values span at most sqrt(2) * ``_ZERO_VAR_RTOL`` *
    max(max |column|, 1). A group's centered norm is at least its spread over
    sqrt(2), so every column that such a group can make constant is flagged.
    """
    s = np.sort(values, axis=0)
    span = (s[k - 1 :] - s[: len(s) - k + 1]).min(axis=0)
    return span <= np.sqrt(2.0) * _ZERO_VAR_RTOL * np.maximum(np.abs(values).max(axis=0), 1.0)


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
