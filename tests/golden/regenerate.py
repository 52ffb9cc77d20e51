"""Rewrite the expected outputs of the golden CLI cases.

Each case in ``cases.json`` is a ``sparsecc`` argument list whose ``{mz_x}``,
``{mz_y}``, ``{dz_x}`` and ``{dz_y}`` name the files in ``inputs/``. Its
output directory becomes ``expected/<case>/``. ``tests/test_golden.py``
reruns every case and compares the files byte for byte.

Regenerating is a deliberate step: run it only for a change that is meant to
move output bytes, and say which files changed and why. Run from the
repository root:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

import json
import shutil
from pathlib import Path

from sparsecc.cli import main

HERE = Path(__file__).resolve().parent
INPUTS = {f"{g}_{s}": str(HERE / "inputs" / f"{g}_{s}.csv") for g in ("mz", "dz") for s in "xy"}


def cases() -> dict[str, list[str]]:
    """Each case's CLI arguments with the input paths filled in, ``--out`` not yet."""
    spec = json.loads((HERE / "cases.json").read_text())
    return {name: [arg.format(**INPUTS) for arg in argv] for name, argv in spec.items()}


def run_case(argv: list[str], out: Path) -> None:
    if main([*argv, "--out", str(out)]) != 0:
        raise RuntimeError(f"sparsecc {' '.join(argv)} failed")


def regenerate() -> None:
    expected = HERE / "expected"
    shutil.rmtree(expected, ignore_errors=True)
    for name, argv in cases().items():
        run_case(argv, expected / name)


if __name__ == "__main__":
    regenerate()
