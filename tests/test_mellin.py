import tracemalloc

import numpy as np
import pytest

from conelab import (ConeGrid, FieldState, constant_state, cutoff, make_circle,
                     mellin_norm, membership_test, monomial_state,
                     pointwise_bound_check)
from conelab.mellin import _trapezoid, mellin_norms


def test_cutoff_plateaus_and_smoothness():
    x = np.linspace(0.0, 1.0, 2001)
    om = cutoff(x)
    assert np.all(om[x <= 0.5] == 1.0)
    assert np.all(om[x >= 0.75] == 0.0)
    assert np.all(np.diff(om) <= 1e-12)
    assert cutoff(0.4) == 1.0 and cutoff(0.9) == 0.0


def test_grid_basic_layout(cs8):
    grid = ConeGrid(cs8, 2.0, 16, j_max=3)
    assert grid.n_nodes == 17
    assert grid.dt == pytest.approx(0.125)
    assert grid.x_min == pytest.approx(np.exp(-2.0))
    assert grid.n_channels == 1 + 2 * 3
    assert grid.channels[0] == (0, 0)
    assert grid.channel_index(2, 1) == 4
    with pytest.raises(ValueError):
        ConeGrid(cs8, 2.0, 4)
    with pytest.raises(ValueError):
        ConeGrid(cs8, 2.0, 16, j_max=99)


def test_radial_derivative_matrix_is_sparse_and_exact_on_constants(grid8):
    import scipy.sparse as sp
    D = grid8.radial_derivative_matrix()
    assert sp.issparse(D)
    v = D @ np.ones(grid8.n_nodes)
    # interior rows cancel bitwise; one-sided end rows too (1.5 - 2 + 0.5)
    assert np.all(v == 0.0)
    # second-order accuracy on a smooth profile
    f = np.sin(grid8.t)
    err = np.max(np.abs((D @ f)[1:-1] - np.cos(grid8.t)[1:-1]))
    assert err < grid8.dt ** 2


def test_field_state_shape_and_finiteness(grid8):
    with pytest.raises(ValueError):
        FieldState(grid8, np.zeros((3, 3)))
    bad = np.zeros((grid8.n_nodes, grid8.n_channels))
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        FieldState(grid8, bad)


def test_constant_state_physical_value(grid8):
    u = constant_state(grid8, 2.5)
    vals = u.physical_values()
    assert np.max(np.abs(vals - 2.5)) < 1e-12
    assert u.sup_norm() == pytest.approx(2.5)


def test_norms_and_sup_norm_peak_allocation():
    # a deterministic bound in place of a timing: the peak traced
    # allocation, in coefficient-field arrays, on a CLI-default state
    grid = ConeGrid(make_circle(2.0 * np.pi, max_mode=32), 12.0, 600, j_max=32)
    rng = np.random.default_rng(4)
    u = FieldState(grid, rng.normal(size=(grid.n_nodes, grid.n_channels)))

    def peak(fn):
        fn()                                    # fill the grid's caches
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / u.coeffs.nbytes
        finally:
            tracemalloc.stop()

    assert peak(lambda: mellin_norms(u, 2, -0.5)) <= 6.0
    assert peak(u.sup_norm) <= 3.0


def test_monomial_state_profile(grid8):
    u = monomial_state(grid8, 1.5, mode=2, branch=1, amplitude=0.7)
    col = u.channel(2, 1)
    assert col == pytest.approx(0.7 * grid8.x ** 1.5)
    assert np.all(u.channel(2, 0) == 0.0)
    v = monomial_state(grid8, 1.0, log_power=1)
    assert v.channel(0) == pytest.approx(grid8.x * np.log(grid8.x))


def test_norm_homogeneity_and_monotonicity(grid8, spec8):
    rng = np.random.default_rng(5)
    co = rng.normal(size=(grid8.n_nodes, grid8.n_channels)) * grid8.x[:, None]
    u = FieldState(grid8, co, gamma=spec8.gamma)
    n0 = mellin_norm(u, 0)
    assert mellin_norm(u.like(3.0 * co), 0) == pytest.approx(3.0 * n0, rel=1e-12)
    norms = [mellin_norm(u, k) for k in range(5)]
    assert all(norms[k + 1] >= norms[k] for k in range(4))


def test_norm_against_independent_quadrature(cs8):
    # mode-0 field x^a: tip part integrates omega^2 e^(-2(a+sigma-?)t) ...
    # compute the same weighted trapezoid directly from the definition
    grid = ConeGrid(cs8, 6.0, 300, j_max=2)
    a, gamma = 1.2, -0.5
    u = monomial_state(grid, a, mode=0)
    n = cs8.n
    sigma = 0.5 * (n + 1) - gamma
    prof = np.exp(-a * grid.t) * np.sqrt(1.0)  # single channel coefficient
    om = grid.omega
    tip = _trapezoid(np.exp(-2.0 * sigma * grid.t) * (om * prof) ** 2, grid.t)
    outer = _trapezoid(np.exp(-(n + 1) * grid.t) * ((1 - om) * prof) ** 2, grid.t)
    assert mellin_norm(u, 0, gamma) == pytest.approx(np.sqrt(tip + outer), rel=1e-12)


def test_norm_p_quadrature_matches_p2(cs8):
    grid = ConeGrid(cs8, 3.0, 100, j_max=3)
    rng = np.random.default_rng(9)
    co = rng.normal(size=(grid.n_nodes, grid.n_channels)) * grid.x[:, None]
    u = FieldState(grid, co, gamma=-0.5)
    # p = 2 through coefficients equals p = 2 through quadrature
    direct = mellin_norm(u, 1, -0.5, 2.0)
    via_quad = mellin_norm(u, 1, -0.5, 2.0 + 1e-14)
    assert via_quad == pytest.approx(direct, rel=1e-7)


def test_membership_threshold_exact():
    # x^a in the weight-gamma space iff a > gamma - (n+1)/2, any l, p
    assert membership_test(-1.49, 0, -0.5, 2.0, 1)
    assert not membership_test(-1.5, 0, -0.5, 2.0, 1)
    assert not membership_test(-1.5, 1, -0.5, 4.0, 1)
    assert membership_test(0.51, 0, 2.0, 2.0, 2)
    assert not membership_test(0.5, 1, 2.0, 7.0, 2)


def test_membership_matches_norm_growth(cs8):
    # bounded tip norm under taller grids iff the exponent is admissible
    gamma = -0.5
    for a, member in ((-1.8, False), (-0.8, True)):
        norms = []
        for tm in (5.0, 10.0, 15.0):
            grid = ConeGrid(cs8, tm, int(round(tm / 0.01)), j_max=1)
            norms.append(mellin_norm(monomial_state(grid, a), 0, gamma))
        growing = norms[2] / norms[1] > 1.3
        assert membership_test(a, 0, gamma, 2.0, 1) == (not growing)
        assert member == (not growing)


def test_pointwise_bound_constant_under_refinement(cs8):
    # the sup bound constant stabilizes as the grid refines (the order-2
    # norm converges slowly where the cutoff transition lives, so the
    # check is a stabilization band, not a tight ratio)
    vals = []
    for nr in (300, 600):
        grid = ConeGrid(cs8, 6.0, nr, j_max=2)
        u = monomial_state(grid, 0.7, mode=1, gamma=-0.5)
        vals.append(pointwise_bound_check(u, 2.0))
    assert vals[0] == pytest.approx(vals[1], rel=0.1)
    grid = ConeGrid(cs8, 6.0, 300, j_max=2)
    u = monomial_state(grid, 0.7, mode=1, gamma=-0.5)
    with pytest.raises(ValueError):
        pointwise_bound_check(u, 0.5)  # s below the embedding line


def test_norm_requires_weight(grid8):
    u = FieldState.zeros(grid8)
    with pytest.raises(ValueError):
        mellin_norm(u, 0)
    with pytest.raises(ValueError):
        mellin_norm(u, 5, -0.5)
