"""Model parameter sets and helpers shared by the test modules.

Test modules import them from here rather than from conftest.py: with more
than one test directory collected, `conftest` names a different module in
each.
"""

from dataclasses import replace

import numpy as np

# canonical model parameter sets used across the suite
DIS_PARAMS = {"gap": 2.0, "w": 0.5}
DIS_SEED = 7
TRIVIAL_PARAMS = {"t1": 1.0, "t2": 0.0, "phi": 0.0, "m": 3.0}
TOPO_PARAMS = {"t1": 1.0, "t2": 1.0 / 3.0, "phi": np.pi / 2.0, "m": 0.2}
MARKER_TRIVIAL_PARAMS = {"t1": 1.0, "t2": 1.0 / 3.0, "phi": np.pi / 2.0, "m": 3.0}
SSH_PARAMS = {"t1": 1.0, "t2": 0.45}


def commutator(A, B):
    return A @ B - B @ A


def centroid(psi, grid):
    dens = np.abs(psi) ** 2
    return np.array([dens @ grid.x, dens @ grid.y]) / dens.sum()


def gauge_phases(dimension, seed=3):
    return np.exp(2j * np.pi * np.random.default_rng(seed).random(dimension))


def gauge_twin(model, seed=3):
    """H' = D H D* with a random diagonal phase D: same spectrum, complex H."""
    d = gauge_phases(model.grid.dimension, seed)
    return replace(model, H=d[:, None] * model.H * d.conj()[None, :])
