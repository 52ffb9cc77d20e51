"""Every golden CLI case rerun and compared byte for byte with its expected
files in ``tests/golden/expected/`` (see ``tests/golden/regenerate.py``)."""

import pytest

from golden.regenerate import HERE, cases, run_case

CASES = cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(tmp_path, name):
    run_case(CASES[name], tmp_path)
    expected = HERE / "expected" / name
    names = sorted(p.name for p in expected.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    differ = [f for f in names if (tmp_path / f).read_bytes() != (expected / f).read_bytes()]
    assert not differ, f"{name}: {differ} differ from {expected.relative_to(HERE)}"
