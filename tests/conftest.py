"""Shared fixtures: one circle cross-section, spec, and grid per session."""

import os

import numpy as np
import pytest

import conelab
from conelab import ConeGrid, build_extension, default_weight, make_circle


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
