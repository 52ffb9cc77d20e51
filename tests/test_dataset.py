import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsecc import dataset
from sparsecc.errors import (
    DimensionMismatch,
    MalformedFile,
    NonFiniteEntry,
    ZeroVarianceNode,
)


def test_ingest_csv_basic(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,4\n2,5\n3,6\n")
    raw = dataset.ingest(p)
    assert raw.n_obs == 3 and raw.n_nodes == 2
    assert np.array_equal(raw.values, [[1, 4], [2, 5], [3, 6]])
    assert raw.node_ids == ("v1", "v2")


def test_ingest_csv_header(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("a,b\n1,4\n2,5\n")
    raw = dataset.ingest(p)
    assert raw.node_ids == ("a", "b")
    assert raw.n_obs == 2


def test_ingest_csv_nan_rejected(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,NaN\n2,5\n")
    with pytest.raises(NonFiniteEntry):
        dataset.ingest(p)


def test_ingest_errors_name_the_file(tmp_path):
    # a matrix that reads but is refused names its file, keeping the error's type
    nan_csv, one_row, nan_bin = tmp_path / "nan.csv", tmp_path / "row.csv", tmp_path / "nan.bin"
    nan_csv.write_text("1,NaN\n2,5\n")
    one_row.write_text("a,b,c\n1,2,3\n")
    dataset.save_binary(np.array([[1.0, np.inf], [2.0, 5.0]]), nan_bin)
    for path, error, message in (
        (nan_csv, NonFiniteEntry, "matrix contains NaN or infinite entries"),
        (one_row, DimensionMismatch, "need at least 2 observations and 2 nodes, got 1x3"),
        (nan_bin, NonFiniteEntry, "matrix contains NaN or infinite entries"),
    ):
        with pytest.raises(error, match=f"^{path}: {message}$"):
            dataset.ingest(path)


def test_ingest_csv_malformed(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\nfoo,bar,baz\n")
    with pytest.raises(MalformedFile):
        dataset.ingest(p)


def test_ingest_missing_file(tmp_path):
    with pytest.raises(MalformedFile):
        dataset.ingest(tmp_path / "nope.csv")


@pytest.mark.parametrize("text", [b"a,\xffb\n1,4\n2,5\n", b"a,b\n1,4\n2,\xff5\n"],
                         ids=["header", "data-row"])
def test_ingest_csv_not_utf8_names_the_file(tmp_path, text):
    p = tmp_path / "m.csv"
    p.write_bytes(text)
    with pytest.raises(MalformedFile, match=f"^{p}: 'utf-8' codec can't decode byte 0xff"):
        dataset.ingest(p)


@pytest.mark.parametrize("header", [False, True])
def test_ingest_csv_after_a_byte_order_mark(tmp_path, header):
    # a UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports write it, is
    # not part of the first field: a numeric first row stays an observation and
    # a header's first id reads without it
    values = np.random.default_rng(3).standard_normal((6, 4))
    lines = [",".join(map(repr, row)) for row in values.tolist()]
    p = tmp_path / "m.csv"
    p.write_bytes(b"\xef\xbb\xbf" + "\n".join(["a,b,c,d"] * header + lines + [""]).encode())
    raw = dataset.ingest(p)
    assert raw.node_ids == (("a", "b", "c", "d") if header else ("v1", "v2", "v3", "v4"))
    assert np.array_equal(raw.values, values)


def test_repeated_node_ids_rejected(tmp_path):
    # from a CSV header, a binary sidecar and plain arrays, each naming every repeated id
    # (and the file it was read from)
    values = np.arange(15, dtype=float).reshape(3, 5) ** 2
    ids = ["a", "b", "a", "c", "b"]
    csv, binary = tmp_path / "m.csv", tmp_path / "m.bin"
    dataset.save_csv(values, csv, node_ids=ids)
    dataset.save_binary(values, binary, node_ids=ids)
    for path in (csv, binary):
        with pytest.raises(MalformedFile, match=f"^{path}: repeated node ids: a, b$"):
            dataset.ingest(path)
    with pytest.raises(MalformedFile, match="^repeated node ids: a, b$"):
        dataset.normalize_arrays(values, values + 1.0, node_ids=ids)


def test_binary_roundtrip(tmp_path):
    values = np.arange(12, dtype=float).reshape(3, 4) / 7.0
    p = tmp_path / "m.bin"
    dataset.save_binary(values, p, node_ids=["a", "b", "c", "d"])
    raw = dataset.ingest(p)
    assert raw.node_ids == ("a", "b", "c", "d")
    assert np.array_equal(raw.values, values)


def test_binary_sidecar_mismatch(tmp_path):
    p = tmp_path / "m.bin"
    np.zeros(19 * 100).tofile(p)
    (tmp_path / "m.bin.json").write_text(json.dumps({"n": 20, "p": 100}))
    with pytest.raises(DimensionMismatch):
        dataset.ingest(p)


def test_csv_roundtrip(tmp_path):
    values = np.array([[0.1, -2.5], [3.25, 4.0], [1e-17, 9.9]])
    p = tmp_path / "m.csv"
    dataset.save_csv(values, p, node_ids=["n0", "n1"])
    raw = dataset.ingest(p)
    assert np.array_equal(raw.values, values)


def test_too_small_rejected():
    with pytest.raises(DimensionMismatch):
        dataset.RawMatrix(np.ones((1, 5)), tuple("abcde"))
    with pytest.raises(DimensionMismatch):
        dataset.RawMatrix(np.ones((5, 1)), ("a",))


def test_normalize_hand_value():
    # column (1,2,3) centers to (-1, 0, 1), norm sqrt(2)
    raw = dataset.RawMatrix(np.array([[1.0, 5.0], [2.0, 6.0], [3.0, 9.0]]), ("a", "b"))
    ds = dataset.normalize_pair(raw, raw)
    expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0)
    np.testing.assert_allclose(ds.x[:, 0], expected, atol=1e-15)
    ds.check_normalized()


def test_normalize_ignores_memory_layout(rng):
    x, y = rng.standard_normal((2, 50, 30))
    c = dataset.normalize_arrays(x, y)
    f = dataset.normalize_arrays(np.asfortranarray(x), np.asfortranarray(y))
    assert np.array_equal(c.x, f.x) and np.array_equal(c.y, f.y)


def test_normalize_zero_variance_error():
    raw_x = dataset.RawMatrix(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 4.0]]), ("a", "b"))
    raw_y = dataset.RawMatrix(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 4.0]]), ("a", "b"))
    with pytest.raises(ZeroVarianceNode):
        dataset.normalize_pair(raw_x, raw_y)


def test_normalize_zero_variance_drop():
    x = np.array([[5.0, 1.0, 2.0], [5.0, 2.0, 1.0], [5.0, 4.0, 5.0]])
    y = np.array([[1.0, 1.0, 3.0], [2.0, 2.0, 2.0], [3.0, 4.0, 7.0]])
    raw_x = dataset.RawMatrix(x, ("a", "b", "c"))
    raw_y = dataset.RawMatrix(y, ("a", "b", "c"))
    ds = dataset.normalize_pair(raw_x, raw_y, zero_variance_policy="drop")
    assert ds.node_ids == ("b", "c")
    assert ds.dropped_nodes == ("a",)
    assert ds.x.shape == (3, 2)
    ds.check_normalized()


def test_normalize_shape_mismatch():
    a = dataset.RawMatrix(np.ones((3, 2)) + np.arange(6).reshape(3, 2), ("a", "b"))
    b = dataset.RawMatrix(np.arange(8, dtype=float).reshape(4, 2), ("a", "b"))
    with pytest.raises(DimensionMismatch):
        dataset.normalize_pair(a, b)


def test_normalize_preserves_node_order(rng):
    x = rng.standard_normal((6, 5))
    x[:, 2] = 7.0  # constant -> dropped
    y = rng.standard_normal((6, 5))
    ids = ("n1", "n2", "n3", "n4", "n5")
    ds = dataset.normalize_pair(
        dataset.RawMatrix(x, ids), dataset.RawMatrix(y, ids), zero_variance_policy="drop"
    )
    assert ds.node_ids == ("n1", "n2", "n4", "n5")


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=2, max_value=8),
)
def test_normalize_idempotent_and_contracts(seed, n_obs, n_nodes):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_obs, n_nodes)) * 10.0
    y = rng.standard_normal((n_obs, n_nodes)) + 3.0
    ids = dataset.default_node_ids(n_nodes)
    once = dataset.normalize_pair(dataset.RawMatrix(x, ids), dataset.RawMatrix(y, ids))
    once.check_normalized(atol=1e-10)
    twice = dataset.normalize_pair(
        dataset.RawMatrix(once.x, ids), dataset.RawMatrix(once.y, ids)
    )
    np.testing.assert_allclose(twice.x, once.x, atol=1e-10)
    np.testing.assert_allclose(twice.y, once.y, atol=1e-10)


def test_normalize_groups_stacks_bitwise_as_each_alone(rng):
    # groups of two observation counts, normalized as two stacks
    for _ in range(100):
        p = int(rng.integers(2, 30))
        scale = 10.0 ** rng.integers(-3, 4)
        groups = [(rng.standard_normal((n, p)) * scale + rng.uniform(-5, 5),
                   rng.standard_normal((n, p)) * scale)
                  for n in rng.choice([int(rng.integers(2, 40)), int(rng.integers(2, 40))], 5)]
        ids = dataset.default_node_ids(p)
        for ds, (x, y) in zip(dataset._normalize_groups(groups, ids), groups):
            alone = dataset.normalize_arrays(x, y)
            assert ds.node_ids == alone.node_ids
            assert ds.x.tobytes() == alone.x.tobytes() and ds.y.tobytes() == alone.y.tobytes()


def test_normalize_groups_raises_for_first_constant_group(rng):
    ids = ("a", "b", "c")
    groups = [(rng.standard_normal((n, 3)), rng.standard_normal((n, 3))) for n in (4, 5, 4, 5)]
    groups[1][1][:, 2] = 1.0  # the first constant group in order: node c of y
    groups[2][0][:, 0] = 2.0  # a later one, in the stack normalized first
    with pytest.raises(ZeroVarianceNode) as alone:
        dataset.normalize_arrays(*groups[1], node_ids=ids)
    with pytest.raises(ZeroVarianceNode) as batched:
        dataset._normalize_groups(groups, ids)
    assert str(batched.value) == str(alone.value) == "constant signal at nodes: c"


def test_write_rows_renders_each_row_of_every_block(tmp_path, monkeypatch):
    # 12 values a chunk, 4 rows of 3 columns: the 9-row block straddles two
    # chunk boundaries
    monkeypatch.setattr(dataset, "_VALUES_PER_CHUNK", 12)
    values = [-0.0, 5e-324, 1e-05, 1e16, np.inf, -np.inf, 0.1]
    rows = [(i, f"v{i}", values[i % len(values)]) for i in range(17)]
    cuts = [0, 0, 3, 3, 12, 17]  # empty blocks first and in between

    def block(part):
        return (np.array([r[0] for r in part], dtype=np.int64), tuple(r[1] for r in part),
                np.array([r[2] for r in part], dtype=np.float64))

    blocks = (block(rows[a:b]) for a, b in zip(cuts, cuts[1:]))
    path = tmp_path / "rows.csv"
    dataset._write_rows(path, "i,id,w", "{},{},{!r}", blocks)
    assert path.read_text() == "i,id,w\n" + "".join("{},{},{!r}\n".format(*r) for r in rows)


def test_write_rows_caps_wide_chunks_by_values(tmp_path, monkeypatch):
    # 10 values a chunk: 2 rows of 5 columns, and one row of 11, wider than the cap
    monkeypatch.setattr(dataset, "_VALUES_PER_CHUNK", 10)
    rng = np.random.default_rng(5)
    for width in (5, 11):
        values = rng.standard_normal((7, width))
        path = tmp_path / f"w{width}.csv"
        dataset.save_csv(values, path)
        assert path.read_text() == "".join(",".join(map(repr, row)) + "\n"
                                           for row in values.tolist())


_EDGE_FLOATS = (-0.0, 5e-324, 1e-05, 1e16, np.inf, -np.inf, 2.0)


@st.composite
def edge_blocks(draw):
    """Blocks of "i,j,w" rows over p nodes: a node's rows with its first
    column as one int, or whole-array blocks, empty and one-row ones among them.
    Each block's indices are below p, or six-digit ones from 10^5 on, so that
    blocks of small indices follow blocks of large ones."""
    p = draw(st.integers(min_value=1, max_value=40))
    weight = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False)
    blocks = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        low = draw(st.sampled_from([0, 10**5]))
        index = (st.sampled_from([low, low + p - 1])
                 | st.integers(min_value=low, max_value=low + p - 1))
        u, rows = draw(index), draw(st.lists(st.tuples(index, weight), max_size=4))
        j = np.array([r[0] for r in rows], dtype=np.int64)
        w = np.array([r[1] for r in rows], dtype=np.float64)
        blocks.append((u, j, w) if draw(st.booleans()) else (np.full(j.size, u), j, w))
    return blocks


# p = 41 nodes, then six-digit indices from 10^5 on. A weight that
# float.__repr__ renders alone (outside 1e-4 <= |x| < 1e16, and nonzero) sits
# at a node block's first row, its last, two adjacent rows and every row of a
# block. After the large indices come blocks whose indices are all smaller
_EVERY_EDGE_CASE = [
    (7, np.array([0]), np.array([1e-05])),
    (40, np.array([], dtype=np.int64), np.array([])),
    (0, np.array([40, 0]), np.array(_EDGE_FLOATS[:2])),
    (100_040, np.array([100_000, 123_456, 100_039]), np.array([0.5, 1e-05, -0.25])),
    (123_456, np.array([100_000, 99_999]), np.array([0.125, 3.0])),
    (np.full(4, 40), np.array([40, 0, 1, 40]), np.array(_EDGE_FLOATS[3:])),
    (np.array([], dtype=np.int64), np.array([], dtype=np.int64), np.array([])),
    (40, np.array([40, 39, 0]), np.array(_EDGE_FLOATS[:3])),
    (3, np.array([1, 2, 5]), np.array([1e16, 0.5, -2.0])),
    (3, np.array([1, 2, 5]), np.array([0.5, -2.0, -5e-324])),
    (3, np.array([0, 1, 2, 5, 9]), np.array([0.5, 1e-05, -np.inf, 0.0, 0.25])),
    (3, np.array([0, 1, 2, 39]), np.array([np.nan, 1e-300, -1e300, 9.999999999999999e-05])),
]


@settings(max_examples=100, deadline=None)
@given(edge_blocks())
@example(_EVERY_EDGE_CASE)
def test_write_rows_matches_per_row_format(tmp_path_factory, blocks):
    # node rows, their index table and whole-array chunks against one
    # str.format call per row, in one file and in two written in one pass
    path = tmp_path_factory.mktemp("rows") / "edges.csv"
    assert dataset._write_rows(path, "i,j,w", "{},{},{!r}", blocks) == sum(
        len(b[1]) for b in blocks)
    expected = "i,j,w\n" + "".join(
        "{},{},{!r}\n".format(u, i, w)
        for b in blocks for u, i, w in zip(np.broadcast_to(b[0], len(b[1])).tolist(),
                                           b[1].tolist(), b[2].tolist()))
    assert path.read_text() == expected
    paths = [path.with_name("a.csv"), path.with_name("b.csv")]
    counts = dataset._write_rows(paths, "i,j,w", "{},{},{!r}", ([b, b] for b in blocks))
    assert counts == [sum(len(b[1]) for b in blocks)] * 2
    assert [f.read_text() for f in paths] == [expected] * 2


def _per_row_bytes(blocks) -> bytes:
    return b"i,j,w\n" + "".join(
        "{},{},{!r}\n".format(u, i, w)
        for b in blocks for u, i, w in zip(np.broadcast_to(b[0], len(b[1])).tolist(),
                                           b[1].tolist(), b[2].tolist())).encode()


@settings(max_examples=50, deadline=None)
@given(st.lists(edge_blocks(), min_size=1, max_size=3))
@example([_EVERY_EDGE_CASE, _EVERY_EDGE_CASE[::-1], _EVERY_EDGE_CASE[3:5]])
def test_write_rows_to_several_paths_shares_the_index_tokens(tmp_path_factory, files):
    # build's route: one pass hands each file its own block, so one file's small
    # indices follow another's large ones in the index tokens the files share
    paths = [tmp_path_factory.mktemp("rows") / f"{f}.csv" for f in range(len(files))]
    empty = (0, np.array([], dtype=np.int64), np.array([]))
    items = zip(*(blocks + [empty] * (max(map(len, files)) - len(blocks)) for blocks in files))
    counts = dataset._write_rows(paths, "i,j,w", "{},{},{!r}", items)
    assert counts == [sum(len(b[1]) for b in blocks) for blocks in files]
    assert [path.read_bytes() for path in paths] == [_per_row_bytes(blocks) for blocks in files]


# each side of both ends of the range whose digits come from orjson, and the
# values at its limits or far outside it
_REPR_EDGES = [float(x) for e in (1e-4, -1e-4, 1e16, -1e16)
               for x in (np.nextafter(e, 0.0), e, np.nextafter(e, 2 * e))] + [
    5e-324, -0.0, 0.0, 1.7976931348623157e308, 2.0, 1e15]


def _reprs_match(path, w):
    # w as the weights of one node block, each rendered as float.__repr__ renders it
    j = np.arange(w.size)
    assert dataset._write_rows(path, None, "{},{},{!r}", [(5, j, w)]) == w.size
    assert path.read_text() == "".join(f"5,{k},{float.__repr__(x)}\n"
                                       for k, x in enumerate(w.tolist()))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats()), st.lists(st.integers(min_value=0, max_value=2**64 - 1)))
@example(_REPR_EDGES, [])
def test_float_reprs_match_float_repr(tmp_path_factory, values, bits):
    # any double, NaN and +-inf among them, and any 64-bit pattern viewed as one
    path = tmp_path_factory.mktemp("reprs") / "edges.csv"
    _reprs_match(path, np.array(values, dtype=np.float64))
    _reprs_match(path, np.array(bits, dtype=np.uint64).view(np.float64))


def test_float_reprs_match_float_repr_across_the_orjson_range(tmp_path):
    # 17 significant digits at every decimal exponent of the range and beyond it
    rng = np.random.default_rng(8)
    exponents = rng.uniform(-6, 18, 200_000)
    w = rng.choice([-1.0, 1.0], exponents.size) * 10.0 ** exponents
    _reprs_match(tmp_path / "edges.csv", w)
    _reprs_match(tmp_path / "edges.csv", np.array([], dtype=np.float64))


def test_save_csv_memory_stays_bounded_for_wide_matrices(tmp_path):
    # rendered in one chunk, a 20 x 20000 matrix held about 32 MiB of objects and text
    values = np.random.default_rng(6).standard_normal((20, 20000))
    tracemalloc.start()
    try:
        dataset.save_csv(values, tmp_path / "wide.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * 2**20
