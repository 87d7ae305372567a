from fractions import Fraction

import numpy as np
import pytest

from conelab import ConeGrid, CrossSection, from_spectrum, make_circle, make_sphere
from conelab.cross_section import circle_basis


def test_circle_spectrum_unit():
    cs = make_circle(2.0 * np.pi, max_mode=5)
    assert cs.n == 1
    assert cs.n_modes == 6
    assert cs.eigenvalues == [-(j * j) for j in range(6)]
    assert cs.multiplicities == [1, 2, 2, 2, 2, 2]
    assert cs.exact_eigenvalues == [Fraction(-j * j) for j in range(6)]


def test_circle_spectrum_general_length():
    L = 3.7
    cs = make_circle(L, max_mode=4)
    base = (2.0 * np.pi / L) ** 2
    assert cs.eigenvalues[2] == pytest.approx(-4.0 * base)
    # irrational frequency ratio: no exact channel
    assert cs.exact_eigenvalues is None


def test_circle_orthonormality():
    cs = make_circle(2.0 * np.pi, max_mode=6)
    S = circle_basis(cs.circumference, 6, cs.nodes)
    assert S.shape[1] == sum(cs.multiplicities)
    gram = S.T @ (cs.weights[:, None] * S)
    assert np.max(np.abs(gram - np.eye(S.shape[1]))) < 1e-12


def test_circle_area_is_circumference():
    for L in (2.0 * np.pi, 1.0, 5.3):
        assert make_circle(L, max_mode=2).area() == pytest.approx(L)


def test_sphere_spectrum_and_multiplicities():
    cs = make_sphere(2, max_degree=5)
    assert cs.eigenvalues == [float(-k * (k + 1)) for k in range(6)]
    assert cs.multiplicities == [2 * k + 1 for k in range(6)]
    # S^3: dimension of degree-k harmonics is (k+1)^2
    cs3 = make_sphere(3, max_degree=4)
    assert cs3.eigenvalues == [float(-k * (k + 2)) for k in range(5)]
    assert cs3.multiplicities == [(k + 1) ** 2 for k in range(5)]


def test_sphere_higher_dim_is_spectrum_only():
    # every S^n, S^2 included, is spectrum-only
    for n in (2, 4):
        cs = make_sphere(n, max_degree=3)
        assert cs.nodes is None and cs.weights is None
        with pytest.raises(ValueError):
            cs.area()
        with pytest.raises(ValueError):
            ConeGrid(cs, 3.0, 20).synthesis_matrix()


def test_from_spectrum_and_validation():
    cs = from_spectrum(2, [0.0, -3.5, -9.0], [1, 2, 4])
    assert cs.n_modes == 3
    assert cs.geometry == "spectrum"
    with pytest.raises(ValueError):
        from_spectrum(2, [0.0, -1.0, -0.5], [1, 1, 1])  # not decreasing
    with pytest.raises(ValueError):
        from_spectrum(2, [1.0, -1.0], [1, 1])            # lam_0 != 0
    with pytest.raises(ValueError):
        CrossSection(n=0, eigenvalues=[0.0], multiplicities=[1])
