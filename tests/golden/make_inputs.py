"""Write the seeded inputs of the golden CLI cases.

Two paired groups of n = 16 observations over p = 60 nodes, as CSV with
three decimals, so every value is read back exactly as written:

- ``mz_x.csv`` / ``mz_y.csv``: a three-factor signal with y close to x;
- ``dz_x.csv`` / ``dz_y.csv``: the same design with y half as close.

``compare`` runs mz against dz, and ``hgi`` takes them as the MZ and DZ twin
groups. The inputs are fixed once written; regenerating the expected outputs
(``regenerate.py``) does not touch them. Run from the repository root:

    python tests/golden/make_inputs.py
"""

from pathlib import Path

import numpy as np

N_OBS, N_NODES, N_FACTORS = 16, 60, 3
HERE = Path(__file__).resolve().parent / "inputs"


def group(rng: np.random.Generator, coupling: float) -> tuple[np.ndarray, np.ndarray]:
    loadings = rng.standard_normal((N_FACTORS, N_NODES))
    x = rng.standard_normal((N_OBS, N_FACTORS)) @ loadings + rng.standard_normal((N_OBS, N_NODES))
    y = coupling * x + rng.standard_normal((N_OBS, N_NODES))
    return x, y


def main() -> None:
    rng = np.random.default_rng(20261018)
    HERE.mkdir(exist_ok=True)
    for name, coupling in (("mz", 1.0), ("dz", 0.5)):
        for side, values in zip("xy", group(rng, coupling)):
            np.savetxt(HERE / f"{name}_{side}.csv", values, fmt="%.3f", delimiter=",")


if __name__ == "__main__":
    main()
