import os

import pytest

from sparsecc._parallel import ordered_map, resolve_threads


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_ordered_map_draws_items_lazily(threads):
    drawn = 0

    def items():
        nonlocal drawn
        for k in range(100):
            drawn += 1
            yield k

    results = ordered_map(lambda k: k * k, items(), threads)
    assert next(results) == 0
    assert drawn <= 2 * threads + 1
    assert list(results) == [k * k for k in range(1, 100)]
    assert drawn == 100


@pytest.mark.parametrize("n_items", [0, 1, 5])
def test_ordered_map_short_inputs(n_items):
    assert list(ordered_map(str, iter(range(n_items)), 4)) == [str(k) for k in range(n_items)]


def test_thread_count_is_clamped_to_the_cores(monkeypatch):
    # the count a pool would get, read without starting one
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.delenv("NET_THREADS", raising=False)
    assert [resolve_threads(t) for t in (1, 2, 3, 4, 5000, None)] == [1, 2, 3, 3, 3, 3]
    monkeypatch.setenv("NET_THREADS", "5000")
    assert resolve_threads() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one core
    assert resolve_threads(5000) == 1
    with pytest.raises(ValueError, match="thread count must be >= 1"):
        resolve_threads(0)
