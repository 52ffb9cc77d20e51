import json

import numpy as np
import pytest
from hypothesis import given, settings
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


def test_ingest_csv_malformed(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\nfoo,bar,baz\n")
    with pytest.raises(MalformedFile):
        dataset.ingest(p)


def test_ingest_missing_file(tmp_path):
    with pytest.raises(MalformedFile):
        dataset.ingest(tmp_path / "nope.csv")


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
