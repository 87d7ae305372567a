import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as strat

from conelab import (ConeGrid, FieldState, TransformPlan, constant_state,
                     cubic_field, flux_divergence, laplacian_suite, make_circle,
                     monomial_state, nonlinearity, transform_plan)
from conelab.assembly import FieldOperator
from conftest import lil_derivative_matrix


def interior(arr, margin=2):
    return arr[margin:-margin]


def _gradient_pairing(u, v):
    """Mode coefficients of e^(2t) (u_t v_t + u_theta v_theta), formed on
    the padded physical grid and projected back: the reference of
    test_flux_divergence_matches_expanded_form."""
    grid = u.grid
    plan = transform_plan(grid)
    D = lil_derivative_matrix(grid)
    rad = plan.to_physical(D @ u.coeffs) * plan.to_physical(D @ v.coeffs)
    ang = (plan.to_physical(plan.dtheta(u.coeffs))
           * plan.to_physical(plan.dtheta(v.coeffs)))
    return plan.to_modes(rad + ang) * np.exp(2.0 * grid.t)[:, np.newaxis]


def _smooth_bump(t):
    s = np.clip((t - 0.5) / 2.0, 0.0, 1.0)
    out = np.zeros_like(t)
    inside = (s > 0) & (s < 1)
    si = s[inside]
    out[inside] = np.exp(4.0 - 1.0 / (si * (1.0 - si)))
    return out


def _const_coeffs(grid, value):
    co = np.zeros((grid.n_nodes, grid.n_channels))
    co[:, grid.channel_index(0, 0)] = value * np.sqrt(float(grid.cs.area()))
    return co


def _mode_residual(grid, spec, j, prof):
    """The whole-field Laplacian of prof on channel (j, 0), read off that channel."""
    c = grid.channel_index(j, 0)
    co = np.zeros((grid.n_nodes, grid.n_channels))
    co[:, c] = prof
    return FieldOperator(laplacian_suite(grid, spec)).apply(co)[:, c]


def test_laplacian_annihilates_harmonic_profiles(grid8, spec8):
    # x^j on mode j is an exact kernel element of the mode symbol; the
    # discrete residual is pure stencil error, O(h^2) against the local
    # operator magnitude e^(2t) u
    for j in (0, 1, 2):
        prof = np.exp(-j * grid8.t)
        res = _mode_residual(grid8, spec8, j, prof)
        scale = np.exp(2.0 * grid8.t) * prof
        rel = np.abs(interior(res)) / interior(scale)
        assert np.max(rel) < 5.0 * grid8.dt ** 2


def test_laplacian_order_two_richardson(cs8, spec8):
    # residual on a non-harmonic profile shrinks by 4 per refinement
    errs = []
    for nr in (100, 200, 400):
        grid = ConeGrid(cs8, 3.0, nr, j_max=3)
        u = np.exp(-2.0 * grid.t)
        # e^(2t)(d_tt + lam) e^(-2t) = (4 - 1) at lam_1 = -1
        exact = 3.0 * np.ones(grid.n_nodes)
        res = _mode_residual(grid, spec8, 1, u) - exact
        errs.append(np.max(np.abs(interior(res, 3))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.9)


@pytest.mark.parametrize("grid_name", ["grid8", "grid64"])
def test_transform_roundtrip_and_dealiasing(grid_name, request):
    grid = request.getfixturevalue(grid_name)
    plan = transform_plan(grid)
    assert plan.m >= 4 * grid.j_max + 5
    rng = np.random.default_rng(7)
    co = rng.normal(size=(grid.n_nodes, grid.n_channels))
    back = plan.to_modes(plan.to_physical(co))
    assert np.max(np.abs(back - co)) < 1e-12
    # cubic products project back alias-free: a doubly oversampled plan
    # must give the same retained-band coefficients
    plan2 = TransformPlan(grid, n_phys=4 * plan.m)
    u = FieldState(grid, co)
    cub = cubic_field(u).coeffs
    ref = plan2.to_modes(plan2.to_physical(co) ** 3)
    assert np.max(np.abs(cub - ref)) < 1e-10 * max(1.0, np.max(np.abs(ref)))


def test_transform_paths_switch_at_j_max_64(cs64, grid64):
    # the dense product on 4 j_max + 5 angles below the switch, the real
    # FFT on the least 5-smooth grid of at least that many from it on
    assert transform_plan(ConeGrid(cs64, 3.0, 8, j_max=32)).m == 133
    plan = transform_plan(grid64)
    assert plan.m == 270 and not hasattr(plan, "_analysis")
    # the FFTs agree with the dense reference products
    rng = np.random.default_rng(8)
    co = rng.normal(size=(grid64.n_nodes, grid64.n_channels))
    ref = co @ plan.S.T
    assert np.max(np.abs(plan.to_physical(co) - ref)) < 1e-13 * np.max(np.abs(ref))
    values = rng.normal(size=(grid64.n_nodes, plan.m))
    L = float(grid64.cs.circumference)
    ref = values @ ((L / plan.m) * plan.S)
    assert np.max(np.abs(plan.to_modes(values) - ref)) < 1e-13 * np.max(np.abs(ref))


@settings(max_examples=25, deadline=None)
@given(j_max=strat.integers(1, 130), seed=strat.integers(0, 2 ** 32 - 1))
@example(j_max=63, seed=0)
@example(j_max=64, seed=0)
def test_transform_exact_on_both_paths(j_max, seed):
    cs = make_circle(2.0 * np.pi, max_mode=j_max)
    grid = ConeGrid(cs, 1.0, 8, j_max=j_max)
    plan = TransformPlan(grid)
    rng = np.random.default_rng(seed)
    co = rng.normal(size=(grid.n_nodes, grid.n_channels))
    assert np.max(np.abs(plan.to_modes(plan.to_physical(co)) - co)) < 1e-12
    # no aliasing in the cubic term: a 4x oversampled plan agrees
    fine = TransformPlan(grid, n_phys=4 * plan.m)
    cub = plan.to_modes(plan.to_physical(co) ** 3)
    ref = fine.to_modes(fine.to_physical(co) ** 3)
    assert np.max(np.abs(cub - ref)) < 1e-10 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("n_phys", [10, 16])
def test_transform_rejects_unresolving_angle_counts(grid8, n_phys):
    # at most 2 j_max angles alias the top modes onto each other
    with pytest.raises(ValueError, match="n_phys"):
        TransformPlan(grid8, n_phys=n_phys)
    assert TransformPlan(grid8, n_phys=17).m == 17


def test_dtheta_matches_analytic_derivative(grid8):
    plan = transform_plan(grid8)
    co = np.zeros((grid8.n_nodes, grid8.n_channels))
    co[:, grid8.channel_index(3, 0)] = 1.0
    out = plan.dtheta(co)
    # d_theta cos(3 theta) = -3 sin(3 theta)
    s_idx = grid8.channel_index(3, 1)
    assert out[:, s_idx] == pytest.approx(-3.0 * np.ones(grid8.n_nodes))
    assert np.max(np.abs(np.delete(out, s_idx, axis=1))) == 0.0
    # mode 0 neither feeds nor receives the derivative
    co[:, grid8.channel_index(0, 0)] = -1.0
    assert plan.dtheta(co).tobytes() == out.tobytes()


def test_gradient_pairing_analytic_constant(cs8):
    # checks the pairing reference above.  u = e_1 x: the normalized eigenfunction is cos(theta)/sqrt(pi), so
    # |grad u|^2 = (cos^2 + sin^2)/pi = 1/pi everywhere
    grid = ConeGrid(cs8, 6.0, 300, j_max=4)
    u = monomial_state(grid, 1.0, mode=1, branch=0)
    phys = transform_plan(grid).to_physical(_gradient_pairing(u, u))
    assert np.max(np.abs(interior(phys, 3) - 1.0 / np.pi)) < 1e-3


def test_cubic_field_on_constant(grid8):
    u = constant_state(grid8, -2.0)
    vals = cubic_field(u).physical_values()
    assert np.max(np.abs(vals - (-8.0))) < 1e-12


def test_flux_divergence_vanishes_bitwise_on_constants(grid8):
    u = constant_state(grid8, 1.0)
    plan = transform_plan(grid8)
    s = 3.0 * plan.to_physical(u.coeffs) ** 2
    out = flux_divergence(s, u.coeffs, grid8)
    assert np.all(out == 0.0)


def test_flux_divergence_telescopes_in_weighted_sum(grid8):
    # the e^(-2t)-weighted radial sum of the mode-0 output telescopes to
    # the two boundary fluxes (which the zero boundary rows drop)
    rng = np.random.default_rng(12)
    z = rng.normal(size=(grid8.n_nodes, grid8.n_channels)) * grid8.x[:, None]
    plan = transform_plan(grid8)
    s = 1.0 + plan.to_physical(z) ** 2
    out = flux_divergence(s, z, grid8)
    col0 = out[:, grid8.channel_index(0, 0)]
    total = float(np.sum(np.exp(-2.0 * grid8.t) * col0))
    h = grid8.dt
    phys = plan.to_physical(z)
    smid = 0.5 * (s[:-1] + s[1:])
    fr = smid * (phys[1:] - phys[:-1]) / h
    L = float(grid8.cs.circumference)
    boundary = float((fr[-1] - fr[0]).sum()) * (L / plan.m) / np.sqrt(L) / h
    assert total == pytest.approx(boundary, abs=1e-9 * max(1.0, abs(boundary)))


def test_flux_divergence_matches_expanded_form(cs8, spec8):
    # div(s grad z) = s Lap z + (grad s, grad z) on smooth interior data
    grid = ConeGrid(cs8, 3.0, 300, j_max=3)
    plan = transform_plan(grid)
    z = np.zeros((grid.n_nodes, grid.n_channels))
    z[:, grid.channel_index(1, 0)] = np.exp(-grid.t) * _smooth_bump(grid.t)
    s_state = FieldState(grid, 0.1 * z + _const_coeffs(grid, 1.0))
    s = plan.to_physical(s_state.coeffs)
    out = flux_divergence(s, z, grid)
    lap = FieldOperator(laplacian_suite(grid, spec8))
    term1 = plan.to_modes(s * plan.to_physical(lap.apply(z)))
    pair = _gradient_pairing(s_state, FieldState(grid, z))
    ref = term1 + pair
    err = np.max(np.abs(interior(out - ref, 3)))
    assert err < 2e-2 * max(1.0, np.max(np.abs(interior(ref, 3))))


def test_nonlinearity_reduces_at_special_states(grid8, spec8):
    lap = FieldOperator(laplacian_suite(grid8, spec8))
    rng = np.random.default_rng(4)
    w = FieldState(grid8, rng.normal(size=(grid8.n_nodes, grid8.n_channels)))
    lw = lap.apply(w.coeffs)
    # u = 0: operator is Lap^2 + Lap, F = 0
    a0, F0 = nonlinearity(FieldState.zeros(grid8), spec8)
    want = lap.apply(lw) + lw
    assert np.max(np.abs(a0(w).coeffs - want)) < 1e-9 * np.max(np.abs(want))
    assert np.all(F0.coeffs == 0.0)
    # u = 1: operator is Lap^2 - 2 Lap, F = 0
    a1, F1 = nonlinearity(constant_state(grid8, 1.0), spec8)
    want1 = lap.apply(lw) - 2.0 * lw
    assert np.max(np.abs(a1(w).coeffs - want1)) < 1e-9 * np.max(np.abs(want1))
    assert np.max(np.abs(F1.coeffs)) < 1e-10
