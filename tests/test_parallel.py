import pytest

from sparsecc._parallel import ordered_map


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
