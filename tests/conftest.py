"""Shared fixtures: one circle cross-section, spec, and grid per session."""

import os

import numpy as np
import pytest
import scipy.sparse as sp

import conelab
from conelab import ConeGrid, build_extension, default_weight, make_circle


def lil_derivative_matrix(grid):
    """The d/dt matrix built as a LIL matrix and stored as CSR: the
    reference whose products ConeGrid.radial_derivative gives bit for bit."""
    m = grid.n_nodes
    h = grid.dt
    D = sp.lil_matrix((m, m))
    idx = np.arange(1, m - 1)
    D[idx, idx - 1] = -0.5 / h
    D[idx, idx + 1] = 0.5 / h
    D[0, :3] = np.array([-1.5, 2.0, -0.5]) / h
    D[-1, -3:] = np.array([0.5, -2.0, 1.5]) / h
    return D.tocsr()


@pytest.fixture(scope="session")
def src_env():
    """Environment of a child Python that imports this conelab, on one BLAS thread."""
    src = os.path.dirname(os.path.dirname(conelab.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=src + os.pathsep + path if path else src)


@pytest.fixture(scope="session")
def cs8():
    return make_circle(2.0 * np.pi, max_mode=8)


@pytest.fixture(scope="session")
def spec8(cs8):
    return build_extension(cs8, default_weight(cs8), 2.0)


@pytest.fixture(scope="session")
def grid8(cs8):
    # t_max = 3 keeps the e^(2t) dynamic range mild for stepping tests
    return ConeGrid(cs8, 3.0, 150, j_max=8)


@pytest.fixture(scope="session")
def cs64():
    return make_circle(2.0 * np.pi, max_mode=64)


@pytest.fixture(scope="session")
def spec64(cs64):
    return build_extension(cs64, default_weight(cs64), 2.0)


@pytest.fixture(scope="session")
def grid64(cs64):
    # the smallest truncation on which TransformPlan takes its FFT path
    return ConeGrid(cs64, 3.0, 150, j_max=64)


@pytest.fixture(scope="session")
def grid_tall(cs8):
    # tall enough for the default near-tip fit window (4 ln 10)
    return ConeGrid(cs8, 10.0, 500, j_max=8)
