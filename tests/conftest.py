import numpy as np
import pytest

from sparsecc import KINDS, compare_groups, group_curves, normalize_arrays, sup_distance

import worked_example


@pytest.fixture(scope="session")
def worked_raw():
    return worked_example.raw_matrices()


@pytest.fixture(scope="session")
def worked_ds(worked_raw):
    x, y = worked_raw
    return normalize_arrays(x, y, node_ids=("v1", "v2", "v3", "v4"))


@pytest.fixture()
def map_threads(monkeypatch):
    """The ``threads`` argument of each ``ordered_map`` call the replicate
    driver makes, in call order."""
    from sparsecc import inference

    seen = []
    original = inference.ordered_map

    def recording(fn, items, threads=None):
        seen.append(threads)
        return original(fn, items, threads)

    monkeypatch.setattr(inference, "ordered_map", recording)
    return seen


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def random_dataset(rng, n_obs=12, n_nodes=10):
    x = rng.standard_normal((n_obs, n_nodes))
    y = rng.standard_normal((n_obs, n_nodes))
    return normalize_arrays(x, y)


def tied_raw_groups():
    """Two groups of 6 paired integer observations on 12 nodes, as raw
    ``(x, y)`` pairs. Their ties make re-normalizing a group's pooled rows
    change bits: the two observed groups rebuilt that way read sup distances
    2 and 4 unsymmetrized, where their own curves read 3 and 5."""
    v = np.random.default_rng(582).integers(-3, 4, size=(2, 2, 6, 12)).astype(float)
    return [(v[g, 0], v[g, 1]) for g in range(2)]


def permutation_oracle(ds1, ds2, n_perm, seed, symmetrize):
    """{kind: (d_raw, p)} with d_raw from ``compare_groups`` and p = (1 + #{r :
    d_r >= d_raw}) / (1 + n_perm), d_r computed one permutation at a time from
    stream (seed, r) of the pooled rows."""
    x, y = np.vstack([ds1.x, ds2.x]), np.vstack([ds1.y, ds2.y])
    n1, n_total = ds1.n_obs, ds1.n_obs + ds2.n_obs
    d_raw = {kind: compare_groups(ds1, ds2, kind, symmetrize).d_raw for kind in KINDS}
    exceed = dict.fromkeys(KINDS, 0)
    for r in range(n_perm):
        perm = np.random.default_rng(np.random.SeedSequence([seed, r])).permutation(n_total)
        c1, c2 = (group_curves(normalize_arrays(x[i], y[i]), symmetrize)
                  for i in (perm[:n1], perm[n1:]))
        for kind in KINDS:
            exceed[kind] += sup_distance(c1[kind], c2[kind]) >= d_raw[kind]
    return {kind: (d_raw[kind], (1 + exceed[kind]) / (1 + n_perm)) for kind in KINDS}


def tied_zero_inputs(kind):
    """Inputs whose cross-correlations hold exact zeros and tied weights.

    Centred +-1 columns in orthogonal sign patterns have products that sum to
    exactly 0. ``signs`` builds every node from them, so weights take a few
    values only and some nodes link to the rest only through pairs whose one
    direction is 0 and the other negative; ``mixed`` adds random nodes and
    duplicates five of them. ``split`` puts each node's x and y columns on one
    pattern, so pairs on different patterns weigh exactly 0 both ways and the
    graph falls apart into one component per pattern.
    """
    h = np.array([[1.0]])
    for _ in range(3):
        h = np.block([[h, h], [h, -h]])
    signs = h[:, 1:]
    rng = np.random.default_rng(0)
    if kind == "signs":
        a, b = rng.integers(7, size=(2, 16))
        flip = rng.choice([-1.0, 1.0], size=(2, 16))
        return signs[:, a] * flip[0], signs[:, b] * flip[1]
    if kind == "split":
        a = rng.integers(7, size=16)
        flip = rng.choice([-1.0, 1.0], size=(2, 16))
        return signs[:, a] * flip[0], signs[:, a] * flip[1]
    x0 = rng.standard_normal((8, 10))
    y0 = x0 + 0.5 * rng.standard_normal((8, 10))
    return (np.hstack([signs, x0, x0[:, :5]]),
            np.hstack([signs[:, 3::-1], y0[:, 7:], y0, y0[:, :5]]))
