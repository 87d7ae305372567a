import numpy as np
import pytest

from conelab import (ConeGrid, SpectrumInSectorError, bip_estimate,
                     imaginary_power_integral, lab_report,
                     matrix_power_spd, perturbation_conditions,
                     sector_resolvent_bound, symmetrized_laplacian,
                     verify_square_identity)


@pytest.fixture(scope="module")
def spd6():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(6, 6))
    return M @ M.T + 3.0 * np.eye(6)


def test_scalar_closed_forms():
    A = np.array([[2.0]])
    assert matrix_power_spd(A, 0.5)[0, 0] == pytest.approx(np.sqrt(2.0))
    assert matrix_power_spd(A, -1.0)[0, 0] == pytest.approx(0.5)
    got = matrix_power_spd(A, 1j)[0, 0]
    assert got == pytest.approx(np.exp(1j * np.log(2.0)))
    assert abs(got) == pytest.approx(1.0)


def test_spd_guards():
    with pytest.raises(ValueError):
        matrix_power_spd(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5)
    with pytest.raises(ValueError):
        matrix_power_spd(-np.eye(2), 0.5)


def test_imaginary_power_group_law(spd6):
    for s, t in ((0.3, 0.9), (-1.2, 0.4)):
        lhs = matrix_power_spd(spd6, 1j * s) @ matrix_power_spd(spd6, 1j * t)
        rhs = matrix_power_spd(spd6, 1j * (s + t))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_square_identity_and_power_consistency(spd6):
    assert verify_square_identity(spd6) < 1e-12
    # (A^{1/2})^2 recovers A
    root = matrix_power_spd(spd6, 0.5)
    assert np.max(np.abs(root @ root - spd6)) < 1e-10


def test_integral_representation_matches_eigh(spd6):
    for z in (0.25, 0.5, 0.75):
        via_int = imaginary_power_integral(spd6, z)
        via_eig = matrix_power_spd(spd6, -z)
        assert np.max(np.abs(via_int - via_eig)) < 1e-10
    for bad in (0.0, 1.0, 1.3, -0.2):
        with pytest.raises(ValueError):
            imaginary_power_integral(spd6, bad)


def test_sector_resolvent_bound(spd6):
    K = sector_resolvent_bound(spd6, 0.5 * np.pi)
    assert np.isfinite(K) and K >= 1.0
    with pytest.raises(SpectrumInSectorError):
        sector_resolvent_bound(-np.eye(3), 0.75 * np.pi)


def test_bip_estimate_symmetric_is_one(spd6):
    # A^{it} is unitary for symmetric A, so the weighted sup over the t
    # grid is attained at t = 0 for every angle phi
    assert bip_estimate(spd6, 0.0) == pytest.approx(1.0)
    assert bip_estimate(spd6, 0.5) == pytest.approx(1.0)


def test_perturbation_conditions_commuting(spd6):
    # B = A^2 commutes with A: the resolvent-difference decay follows the
    # mu^{-2} reference slope exactly
    out = perturbation_conditions(spd6, spd6 @ spd6, 1e4)
    assert out["decay_slope"] == pytest.approx(-2.0, abs=0.05)
    assert out["decay_pass"] and out["condition_i_pass"]
    assert out["contour_radius"] > 0 and out["samples"] == 200
    small = perturbation_conditions(spd6, spd6 @ spd6, 10.0)
    assert not small["condition_i_pass"]


def test_symmetrized_laplacian_spd_after_shift(cs8, spec8):
    grid = ConeGrid(cs8, 1.0, 20, j_max=1)
    S = symmetrized_laplacian(grid, spec8, mode=0)
    assert S.shape == (grid.n_nodes - 2, grid.n_nodes - 2)
    assert np.max(np.abs(S - S.T)) == 0.0
    eigs = np.linalg.eigvalsh(10.0 * np.eye(S.shape[0]) + S)
    assert np.min(eigs) > 0.0
    for mode in (-1, 2):
        with pytest.raises(ValueError, match="outside the grid truncation"):
            symmetrized_laplacian(grid, spec8, mode)


def test_lab_report_defaults(cs8, spec8):
    grid = ConeGrid(cs8, 1.0, 20, j_max=1)
    rep = lab_report(grid, spec8)
    assert rep.square_identity_dev < 1e-8
    assert rep.integral_vs_eigh_dev < 1e-6
    assert rep.M_estimate >= 1.0 and np.isfinite(rep.K_estimate)
    mus = [p["mu"] for p in rep.perturbation]
    assert mus == [10.0, 100.0, 1000.0]
    assert rep.perturbation[-1]["condition_i_pass"]
    assert all(p["decay_pass"] for p in rep.perturbation)
    d = rep.to_json_dict()
    assert d["beta"] == 0.5 and len(d["perturbation"]) == 3
