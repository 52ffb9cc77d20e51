"""Every golden CLI case rerun and compared byte for byte with its expected
files in ``tests/golden/expected/`` (see ``tests/golden/regenerate.py``)."""

import pytest

from golden.regenerate import cases, differences, run_case

CASES = cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(tmp_path, name):
    run_case(CASES[name], tmp_path)
    assert not differences(name, tmp_path), f"{name}: differs from expected/{name}"
