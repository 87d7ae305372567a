"""Fast paths against the plain forms they replace, bit for bit.

The references below are the straightforward constructions: LIL-built
matrices and their per-mode CSR products (whose bits the whole-field
stencil must give), the lab's symmetrized matrix folded from a LIL-built
one, scipy.linalg.solve_banded and banded_lu on bands built by sparse
algebra, the dense angular-derivative matrix, the diagnostics
functionals called on each state, the weighted norms formed
full-height from fresh temporaries, the energy's well and the sup norm
formed on the padded angular grid and its gradient pairing summed over
the channels, all from fresh temporaries, a relaxational run stepped
outside run, a snapshot CSV formatted one
value at a time, the angular FFTs as scipy.fftpack transforms, and the
exponent scan as one least-squares fit per rate.  Every array comparison
is on tobytes(), so a flipped sign of zero fails as well.
"""

import dataclasses
import functools
import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as strat
from numpy.linalg import LinAlgError
from scipy import fftpack
from scipy.linalg import solve_banded

from conelab import (ConeGrid, Config, FieldState, Stepper, ZeroModeError,
                     asymptotics, build_extension, default_weight,
                     double_well, energy_functional, fit_exponents,
                     flux_divergence, initial_state, laplacian_suite,
                     make_circle, make_sphere, mellin_norm, monomial_state,
                     symmetrized_laplacian, transform_plan)
from conelab import assembly
from conelab.assembly import FieldOperator, RadialOperator
from conelab.cli import _fmt, _ser, _snapshot_text
from conelab.evolve import (EQUATIONS, _diagnostics_row, _transport, banded_lu,
                            banded_solve, implicit_bands, run)
from conelab.mellin import _trapezoid, mellin_norms
from conftest import lil_derivative_matrix


def to_banded(mat: sp.spmatrix, kl: int, ku: int) -> np.ndarray:
    """Diagonal-ordered form consumed by scipy.linalg.solve_banded."""
    mat = mat.tocsr()
    m = mat.shape[0]
    ab = np.zeros((kl + ku + 1, m))
    for k in range(-kl, ku + 1):
        d = mat.diagonal(k)
        if k >= 0:
            ab[ku - k, k:] = d
        else:
            ab[ku - k, :m + k] = d
    return ab


def _lil_laplacian(j, grid, spec):
    a_j, b_j = spec.inner_bc[j]
    lam = float(grid.cs.eigenvalues[j])
    n, h, N = grid.cs.n, grid.dt, grid.n_radial
    e2t = np.exp(2.0 * grid.t)
    i = np.arange(1, N)
    M = sp.lil_matrix((N + 1, N + 1))
    M[i, i - 1] = e2t[i] * (1.0 / h ** 2 + 0.5 * (n - 1) / h)
    M[i, i] = e2t[i] * (-2.0 / h ** 2 + lam)
    M[i, i + 1] = e2t[i] * (1.0 / h ** 2 - 0.5 * (n - 1) / h)
    M[0, 0], M[0, 1], M[0, 2] = M[1, 0], M[1, 1], M[1, 2]
    ratio = np.exp(-b_j * h)
    M[N, N - 2] = ratio * M[N - 1, N - 2]
    M[N, N - 1] = ratio * M[N - 1, N - 1]
    M[N, N] = ratio * M[N - 1, N]
    return M.tocsr()


def _lil_product(grid, spec, co):
    """Each mode's LIL-built matrix times that mode's columns of co."""
    out = np.empty_like(co)
    for j in range(grid.j_max + 1):
        cols = _mode_columns(grid, j)
        out[:, cols] = _lil_laplacian(j, grid, spec) @ co[:, cols]
    return out


def _lil_bands(grid, spec, dt, order):
    """(kl, ku), solve_banded bands and row scale of every mode."""
    m = grid.n_nodes
    eye = sp.identity(m, format="csr")
    out = []
    for j in range(grid.j_max + 1):
        P = _lil_laplacian(j, grid, spec)
        a_j, b_j = spec.inner_bc[j]
        if order == 4:
            A = (eye + dt * (P @ P + P)).tolil()
            ratio = np.exp(-a_j * grid.dt)
            kl = 2
        else:
            A = (eye - dt * P).tolil()
            ratio = np.exp(-b_j * grid.dt)
            kl = 1
        A[0, :] = 0.0
        A[0, 0], A[0, 1] = 1.0, -1.0
        A[m - 1, :] = 0.0
        A[m - 1, m - 2], A[m - 1, m - 1] = -ratio, 1.0
        A = A.tocsr()
        rowmax = np.abs(A).max(axis=1).toarray().ravel()
        d = np.exp2(-np.round(np.log2(rowmax)))
        out.append(((kl, kl), to_banded(sp.diags(d) @ A, kl, kl), d))
    return out


def _mode_columns(grid, j):
    return np.nonzero(grid.channel_modes == j)[0]


def _lapack_bands(ab, kl):
    """A stack of one in banded_lu's band storage: solve_banded's bands below
    kl zero rows, Fortran-ordered, which banded_lu copies for kl = 1."""
    return np.asfortranarray(np.vstack([np.zeros((kl, ab.shape[1])), ab]))[np.newaxis]


@pytest.fixture(scope="module")
def tall(cs8, spec8):
    # the default grid's t_max, where the rows span ~e^(4t) and pivots move
    return ConeGrid(cs8, 12.0, 300, j_max=8), spec8


@functools.lru_cache(maxsize=None)
def _circle_spec(j_max):
    cs = make_circle(2.0 * np.pi, max_mode=j_max)
    return cs, build_extension(cs, default_weight(cs), 2.0)


@pytest.fixture(scope="module")
def wide():
    # the benchmark's large grid: 129 modes, 1201 nodes
    cs, spec = _circle_spec(128)
    return ConeGrid(cs, 12.0, 1200, j_max=128), spec


def _assert_stepper_matches_lil_bands(st, order):
    """Tip ratios, row scales and every LU factor of st against the sparse route."""
    grid, spec = st.grid, st.spec
    exps = np.array([spec.inner_bc[j][0 if order == 4 else 1]
                     for j in grid.channel_modes.tolist()])
    assert st.tip_ratio.tobytes() == np.exp(-exps * grid.dt).tobytes()
    for j, ((kl, _), ab, d) in enumerate(_lil_bands(grid, spec, st.dt, order)):
        want = banded_lu(_lapack_bands(ab, kl))
        assert [f[j].tobytes() for f in st._factors] == [f[0].tobytes() for f in want], j
        assert np.ldexp(1.0, st._row_scale[j]).tobytes() == d.tobytes(), j


def _zero_entry_case():
    # on S^2, spacing 2 makes the upper stencil weight 1/h^2 - (n-1)/(2h)
    # vanish exactly, so the LIL rows store fewer than three entries
    cs = make_sphere(2, max_degree=3)
    spec = build_extension(cs, default_weight(cs), 2.0)
    return ConeGrid(cs, 16.0, 8, j_max=3), spec


def test_laplacian_matches_lil_build(grid8, spec8, tall):
    # the stencil scattered to its columns is the LIL matrix, zeros included
    grid, spec = tall
    for g, s in ((grid8, spec8), (grid, spec), _zero_entry_case()):
        laps = RadialOperator(g, s)
        for j in range(g.j_max + 1):
            full = np.zeros((g.n_nodes, g.n_nodes))
            np.put_along_axis(full, laps.cols, laps.vals[j], axis=1)
            assert full.tobytes() == _lil_laplacian(j, g, s).toarray().tobytes()


def _lil_symmetrized(grid, spec, j):
    """symmetrized_laplacian's fold, conjugation and average of the LIL matrix."""
    full = _lil_laplacian(j, grid, spec).toarray()
    N = grid.n_radial
    T = full[1:N, 1:N].copy()
    T[0, 0] += full[1, 0]
    T[-1, -1] += np.exp(-spec.inner_bc[j][1] * grid.dt) * full[N - 1, N]
    w = np.exp(-grid.t[1:N])
    Ts = (w[:, np.newaxis] * T) / w[np.newaxis, :]
    return -0.5 * (Ts + Ts.T)


def test_symmetrized_laplacian_matches_lil_fold(grid8, spec8):
    # lab.json is computed from this matrix
    for grid, spec in ((grid8, spec8), _zero_entry_case()):
        for j in range(grid.j_max + 1):
            assert (symmetrized_laplacian(grid, spec, j).tobytes()
                    == _lil_symmetrized(grid, spec, j).tobytes()), j


@pytest.mark.parametrize("equation,order", [("cahn-hilliard", 4),
                                            ("allen-cahn", 2)])
def test_factored_solve_matches_solve_banded(grid8, spec8, tall, equation, order):
    rng = np.random.default_rng(5)
    for grid, spec in ((grid8, spec8), tall):
        st = Stepper(spec, grid, 1e-3, equation)
        rhs = rng.normal(size=(grid.n_nodes, grid.n_channels))
        rhs *= np.exp(rng.normal(size=grid.n_nodes))[:, None]
        rhs[:, -1] = 0.0
        ref = np.empty_like(rhs)
        for j, (lu, ab, d) in enumerate(_lil_bands(grid, spec, st.dt, order)):
            cols = _mode_columns(grid, j)
            ref[:, cols] = solve_banded(lu, ab, d[:, None] * rhs[:, cols])
            assert np.ldexp(1.0, st._row_scale[j]).tobytes() == d.tobytes()
        assert st._solve(rhs).tobytes() == ref.tobytes()


@pytest.mark.parametrize("equation,order", [("cahn-hilliard", 4),
                                            ("allen-cahn", 2)])
def test_lu_factors_and_row_scales_match_lil_bands(grid8, spec8, tall, wide,
                                                   equation, order):
    cs1, spec1 = _circle_spec(1)
    # t_max = 30 at delta_t = 0.1 scales rows by down to 2^-179, past int8
    longest = ConeGrid(grid8.cs, 30.0, 300, j_max=8), spec8
    for grid, spec in ((grid8, spec8), tall, wide, (ConeGrid(cs1, 3.0, 60, j_max=1), spec1),
                       longest):
        _assert_stepper_matches_lil_bands(Stepper(spec, grid, 1e-3, equation), order)


@settings(max_examples=30, deadline=None)
@given(t_max=strat.floats(1.0, 12.0), n_radial=strat.integers(8, 200),
       j_max=strat.integers(1, 16), dt=strat.sampled_from([1e-3, 1e-2]),
       flow=strat.sampled_from([("cahn-hilliard", 4), ("allen-cahn", 2)]))
def test_stepper_matches_lil_bands_on_circle_grids(t_max, n_radial, j_max, dt, flow):
    cs, spec = _circle_spec(j_max)
    grid = ConeGrid(cs, t_max, n_radial, j_max=j_max)
    equation, order = flow
    _assert_stepper_matches_lil_bands(Stepper(spec, grid, dt, equation), order)


@pytest.mark.parametrize("order", [4, 2])
def test_implicit_bands_match_lil_bands_with_zero_entries(order):
    # Stepper rejects spheres, so the band builder is called directly
    grid, spec = _zero_entry_case()
    AB, d = implicit_bands(RadialOperator(grid, spec), 1e-3, order)
    for j, ((kl, _), ab, dj) in enumerate(_lil_bands(grid, spec, 1e-3, order)):
        # dgbtrf factors Fortran-ordered bands, dgttrf the rows of C-ordered ones
        assert AB[j].flags.f_contiguous if kl == 2 else AB[j].flags.c_contiguous
        assert AB[j].tobytes() == _lapack_bands(ab, kl).tobytes()
        assert d[j].tobytes() == dj.tobytes()


@pytest.mark.parametrize("equation", EQUATIONS)
def test_stepper_names_the_mode_of_a_nonfinite_system(grid8, spec8, equation):
    inner_bc = spec8.inner_bc[:2] + ((-1e6, -1e6),) + spec8.inner_bc[3:]
    spec = dataclasses.replace(spec8, inner_bc=inner_bc)   # exp(-a dt) overflows
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="implicit system of mode 2 is not finite"):
            Stepper(spec, grid8, 1e-3, equation)


@pytest.mark.parametrize("kl", [1, 2])
def test_banded_lu_matches_solve_banded_and_rejects_singular(kl):
    rng = np.random.default_rng(kl)
    m = 9
    R = rng.normal(size=(m, 2 * kl + 1))
    ab = np.zeros((2 * kl + 1, m))
    for k in range(-kl, kl + 1):
        ab[kl - k, max(0, k):m + min(0, k)] = R[max(0, -k):m - max(0, k), kl + k]
    b = rng.normal(size=(m, 2))
    got = banded_solve(banded_lu(_lapack_bands(ab, kl)), b, [slice(0, 2)])
    assert got.tobytes() == solve_banded((kl, kl), ab, b).tobytes()
    # dgbtrf factors a Fortran-ordered float64 band array in place
    lapack_ab = _lapack_bands(ab, kl)
    assert np.shares_memory(banded_lu(lapack_ab)[0], lapack_ab) == (kl == 2)
    # right-hand sides the factors do not fit are refused before LAPACK reads them
    for rhs, blocks in ((b[:-1], [slice(0, 2)]), (b, [slice(0, 3)]), (b, [slice(-1, 2)])):
        with pytest.raises(ValueError, match="do not fit"):
            banded_solve(banded_lu(_lapack_bands(ab, kl)), rhs, blocks)
    # zero every entry of column 3: the matrix is singular
    ab[:, 3] = 0.0
    with pytest.raises(LinAlgError):
        banded_lu(_lapack_bands(ab, kl))


def test_stepper_rejects_nonfinite_rhs(grid8, spec8):
    st = Stepper(spec8, grid8, 1e-3)
    rhs = np.zeros((grid8.n_nodes, grid8.n_channels))
    rhs[4, 3] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        st._solve(rhs)


def test_dtheta_matches_dense_product(grid8):
    plan = transform_plan(grid8)
    L = float(grid8.cs.circumference)
    nc = grid8.n_channels
    D = np.zeros((nc, nc))
    for c, (j, k) in enumerate(grid8.channels):
        if j:
            w = 2.0 * np.pi * j / L
            D[grid8.channel_index(j, 1 - k), c] = -w if k == 0 else w
    rng = np.random.default_rng(2)
    co = rng.normal(size=(grid8.n_nodes, nc))
    co[:, 0] = -np.abs(co[:, 0])                    # 0 * negative is -0.0
    co[:, [grid8.channel_index(3, 0), grid8.channel_index(5, 1)]] = 0.0
    co[::7, grid8.channel_index(2, 0)] = -0.0
    ref = co @ D.T
    assert np.signbit(ref[:, 0]).sum() == 0
    assert plan.dtheta(co).tobytes() == ref.tobytes()


def _circle_column(L, j, k, y):
    """Eigenfunction (j, k) of the circle of circumference L at the angles y."""
    if j == 0:
        return np.full_like(y, 1.0 / math.sqrt(L))
    freq = 2.0 * math.pi * j / L
    if k == 0:
        return math.sqrt(2.0 / L) * np.cos(freq * y)
    return math.sqrt(2.0 / L) * np.sin(freq * y)


@pytest.mark.parametrize("j_max, L", [(32, 2.0 * np.pi), (128, 2.0 * np.pi), (32, 3.0)])
def test_transform_plan_matches_per_channel_build(j_max, L):
    # the whole-array S (at j_max = 128 the FFT path's lazily built one)
    # and the grid's synthesis matrix against one column per channel, and
    # the derivative partners and weights against a channel_index lookup
    # per channel
    cs = make_circle(L, max_mode=j_max)
    grid = ConeGrid(cs, 3.0, 20, j_max=j_max)
    plan = assembly.TransformPlan(grid)
    for y, got in ((plan.theta, plan.S), (cs.nodes, grid.synthesis_matrix())):
        ref = np.column_stack([_circle_column(L, j, k, y) for j, k in grid.channels])
        assert got.tobytes() == ref.tobytes()
    partner, weight = np.arange(grid.n_channels), np.zeros(grid.n_channels)
    for c, (j, k) in enumerate(grid.channels):
        if j:
            w = 2.0 * np.pi * j / L
            partner[grid.channel_index(j, 1 - k)] = c
            weight[grid.channel_index(j, 1 - k)] = -w if k == 0 else w
    assert plan._partner.tobytes() == partner.tobytes()
    assert plan._weight.tobytes() == weight.tobytes()


def test_field_operator_matches_per_mode_product(grid8, spec8, tall):
    # the whole-field stencil through FieldOperator and Stepper.laplace
    # against each mode's LIL-built matrix as a CSR product
    rng = np.random.default_rng(8)
    for grid, spec in ((grid8, spec8), tall, _zero_entry_case()):
        co = rng.normal(size=(grid.n_nodes, grid.n_channels))
        co[::4, 0] = -0.0
        co[:, -1] = -0.0                          # -0.0 products, summed from +0
        ref = _lil_product(grid, spec, co)
        assert np.signbit(ref[:, -1]).sum() == 0
        got = [FieldOperator(laplacian_suite(grid, spec)).apply(co)]
        if grid.cs.geometry == "circle":
            got.append(Stepper(spec, grid, 1e-3).laplace(co))
        for out in got:
            assert out.flags.c_contiguous
            assert out.tobytes() == ref.tobytes()


def _full_height_flux_divergence(s, z, grid):
    """flux_divergence's arithmetic on full-height fresh temporaries."""
    plan = transform_plan(grid)
    phys, angular = plan.synthesise(z)
    fr = phys[1:] - phys[:-1]
    fr *= 0.5 * (s[:-1] + s[1:])
    fr /= grid.dt
    divr = np.zeros(phys.shape)
    np.subtract(fr[1:], fr[:-1], out=divr[1:-1])
    divr[1:-1] /= grid.dt
    out = plan.to_modes(divr)
    out += plan.dtheta(plan.to_modes(angular * s))
    out *= np.exp(2.0 * grid.t)[:, np.newaxis]
    return out


# one-row blocks, a few blocks, and the default, on both transform paths
@pytest.mark.parametrize("block_bytes", [8, 1 << 15, assembly.BLOCK_BYTES])
@pytest.mark.parametrize("grid_name,spec_name", [("grid8", "spec8"), ("grid64", "spec64")])
def test_row_blocks_match_full_height(monkeypatch, request, block_bytes,
                                      grid_name, spec_name):
    # the fluxes and the Laplacian's products go a row block at a time;
    # any block size must give the bits of the full-height arithmetic,
    # and so must s computed from the values that the blocks overwrite
    grid, spec = request.getfixturevalue(grid_name), request.getfixturevalue(spec_name)
    monkeypatch.setattr(assembly, "BLOCK_BYTES", block_bytes)
    plan = transform_plan(grid)
    rng = np.random.default_rng(13)
    z = rng.normal(size=(grid.n_nodes, grid.n_channels))
    z[::5, 1] = -0.0
    s = rng.normal(size=(grid.n_nodes, plan.m))
    want = _full_height_flux_divergence(s, z, grid).tobytes()
    assert flux_divergence(s, z, grid).tobytes() == want
    evaluation = plan.synthesise(z)
    cubic = 3.0 * evaluation[0] ** 2
    want = _full_height_flux_divergence(cubic, z, grid).tobytes()
    got = flux_divergence(_transport(evaluation[0]), z, grid, evaluation)
    assert got.tobytes() == want and evaluation == []
    assert (FieldOperator(laplacian_suite(grid, spec)).apply(z).tobytes()
            == _lil_product(grid, spec, z).tobytes())


@pytest.mark.parametrize("grid_name,spec_name", [("grid8", "spec8"), ("grid64", "spec64")])
def test_picard_step_matches_full_height_sweeps(request, grid_name, spec_name):
    # every Picard sweep takes 3 u_n^2 from u_n's values, which the first
    # sweep's row blocks must not have overwritten
    grid, spec = request.getfixturevalue(grid_name), request.getfixturevalue(spec_name)
    st = Stepper(spec, grid, 1e-3, "cahn-hilliard", 8)
    u = initial_state(Config(j_max=grid.j_max, t_max=3.0, delta_t=0.02,
                             ic_amplitude=0.5), grid, spec)
    w = u.coeffs
    lw = st.laplace(w)
    base = -(st.laplace(lw) + lw)
    cubic = 3.0 * st.plan.to_physical(w) ** 2
    sweeps = []

    def sweep(z):
        sweeps.append(z)
        rhs = _full_height_flux_divergence(cubic, z, grid)
        rhs += base
        rhs *= st.dt
        st._constraint_rhs(rhs, w)
        return st._solve(rhs)

    delta = st._picard(sweep, w, sweep(w))
    assert len(sweeps) > 2
    assert st.step(u).coeffs.tobytes() == (w + delta).tobytes()


@pytest.mark.parametrize("equation", ["cahn-hilliard", "allen-cahn"])
def test_run_rows_match_diagnostics_functionals(grid8, spec8, equation):
    cfg = Config(j_max=8, t_max=3.0, delta_t=0.02, T=0.005, snapshot_every=1,
                 equation=equation)
    snaps, rows = run(cfg, context=(spec8, grid8))
    assert len(snaps) == len(rows) == cfg.n_steps + 1
    for snap, row in zip(snaps, rows):
        want = {"energy": energy_functional(snap),
                "norm0": mellin_norm(snap, 0, spec8.gamma, snap.p),
                "norm2": mellin_norm(snap, 2, spec8.gamma, snap.p)}
        for key, value in want.items():
            assert float(row[key]).hex() == float(value).hex(), (row["step"], key)


def _full_stack_terms(grid, coeffs, k):
    D = lil_derivative_matrix(grid)
    mult = np.sqrt(np.maximum(-grid.channel_lams, 0.0))
    radial = [coeffs]
    for _ in range(k):
        radial.append(D @ radial[-1])
    for i in range(k + 1):
        for m in range(k + 1 - i):
            yield radial[i] * mult[np.newaxis, :] ** m if m else radial[i]


def _full_p_power_radial(grid, w, p):
    if p == 2.0:
        return np.sum(w * w, axis=1)
    vals = w @ grid.synthesis_matrix().T
    return np.abs(vals) ** p @ np.asarray(grid.cs.weights)


def _full_mellin_norms(u, k, gamma, p):
    # both stacks full-height, every term in a fresh array
    grid = u.grid
    n = grid.cs.n
    om = grid.omega[:, np.newaxis]
    tip_weight = np.exp(-p * (0.5 * (n + 1) - gamma) * grid.t)
    out_weight = np.exp(-(n + 1) * grid.t)
    sums = []
    total = 0.0
    for w_tip, w_out in zip(_full_stack_terms(grid, om * u.coeffs, k),
                            _full_stack_terms(grid, (1.0 - om) * u.coeffs, k)):
        total += _trapezoid(tip_weight * _full_p_power_radial(grid, w_tip, p), grid.t)
        total += _trapezoid(out_weight * _full_p_power_radial(grid, w_out, p), grid.t)
        sums.append(total)
    return float(sums[0] ** (1.0 / p)), float(total ** (1.0 / p))


def _integrate_density(grid, dens):
    plan = transform_plan(grid)
    L = float(grid.cs.circumference)
    radial = dens.sum(axis=1) * (L / plan.m) * np.exp(-(grid.cs.n + 1) * grid.t)
    return float(_trapezoid(radial, grid.t))


def _padded_values_and_gradient(u):
    grid = u.grid
    plan = transform_plan(grid)
    phys = plan.to_physical(u.coeffs)
    ut = plan.to_physical(lil_derivative_matrix(grid) @ u.coeffs)
    uy = plan.to_physical(plan.dtheta(u.coeffs))
    return phys, ut, uy


def _plain_energy(u):
    # the well summed on the padded angular grid, the gradient pairing
    # over the orthonormal channels by Parseval
    grid = u.grid
    plan = transform_plan(grid)
    well = ((plan.to_physical(u.coeffs) ** 2 - 1.0) ** 2).sum(axis=1)
    ut = lil_derivative_matrix(grid) @ u.coeffs
    pair = (ut * ut + (u.coeffs * u.coeffs) * -grid.channel_lams).sum(axis=1)
    L = float(grid.cs.circumference)
    radial = (0.25 * L / plan.m) * well + 0.5 * np.exp(2.0 * grid.t) * pair
    radial *= np.exp(-(grid.cs.n + 1) * grid.t)
    return float(_trapezoid(radial, grid.t))


def _padded_energy(u):
    # the density 1/4 (u^2 - 1)^2 + 1/2 e^(2t) (u_t^2 + u_theta^2) formed
    # and summed on the padded angular grid
    phys, ut, uy = _padded_values_and_gradient(u)
    e2t = np.exp(2.0 * u.grid.t)[:, np.newaxis]
    dens = 0.25 * (phys ** 2 - 1.0) ** 2 + 0.5 * (e2t * (ut * ut + uy * uy))
    return _integrate_density(u.grid, dens)


def _round_trip_energy(u):
    # the earlier definition: the gradient pairing is projected to modes
    # and synthesised again before it is summed
    plan = transform_plan(u.grid)
    phys, ut, uy = _padded_values_and_gradient(u)
    pair = plan.to_modes(ut * ut + uy * uy) * np.exp(2.0 * u.grid.t)[:, np.newaxis]
    dens = 0.25 * (phys ** 2 - 1.0) ** 2 + 0.5 * plan.to_physical(pair)
    return _integrate_density(u.grid, dens)


def _plain_sup_norm(u):
    # the largest |u| on the padded angular grid, 4 j_max + 5 angles
    return float(np.max(np.abs(transform_plan(u.grid).to_physical(u.coeffs))))


def _assert_diagnostics_match(u, gamma, ks=(2,), ps=(2.0,), row=None):
    got = {"energy": energy_functional(u)}
    want = {"energy": _plain_energy(u)}
    for k in ks:
        for p in ps:
            got[k, p] = mellin_norms(u, k, gamma, p)
            want[k, p] = _full_mellin_norms(u, k, gamma, p)
    if row is not None:
        got["row"] = [row[key] for key in ("energy", "supnorm", "norm0", "norm2")]
        want["row"] = [want["energy"], _plain_sup_norm(u), *want[2, 2.0]]
    hexed = {key: [float(v).hex() for v in np.atleast_1d(val)] for key, val in got.items()}
    assert hexed == {key: [float(v).hex() for v in np.atleast_1d(val)]
                     for key, val in want.items()}


@pytest.mark.parametrize("equation", ["cahn-hilliard", "allen-cahn"])
def test_run_rows_match_full_height_references(spec8, tall, equation):
    # the tall grid is the default t_max: 18 of 301 nodes carry the outer part
    grid, spec = tall
    cfg = Config(j_max=8, t_max=12.0, delta_t=0.04, T=0.004, snapshot_every=1,
                 equation=equation)
    snaps, rows = run(cfg, context=(spec, grid))
    assert len(snaps) == len(rows) == cfg.n_steps + 1
    for snap, row in zip(snaps, rows):
        _assert_diagnostics_match(snap, spec.gamma, row=row)


def _random_states(cs8, grid8, tall, *wider):
    rng = np.random.default_rng(13)
    grids = [grid8, tall[0],
             ConeGrid(cs8, 0.5, 10, j_max=4),    # the cutoff's support covers every node
             ConeGrid(cs8, 3.0, 60, j_max=1), *wider]
    assert np.all(grids[2].omega < 1.0)
    for grid in grids:
        for scale in (1e-5, 1e-2, 1.0, 1e2, 1e5):
            co = scale * rng.normal(size=(grid.n_nodes, grid.n_channels))
            co *= np.exp(rng.uniform(-1.0, 1.0, size=grid.n_nodes))[:, None]
            co[::3, 0] = -0.0
            yield FieldState(grid, co)


def test_norms_energy_and_sup_norm_match_full_height_references(cs8, grid8, spec8, tall):
    for u in _random_states(cs8, grid8, tall):
        row = _diagnostics_row(u, 0, spec8)
        _assert_diagnostics_match(u, spec8.gamma, ks=range(5), ps=(2.0, 3.0), row=row)


def test_energy_agrees_with_round_trip_definition(cs8, grid8, tall, grid64):
    # the angular sum sees only mode 0 of the pairing, which projecting to
    # the retained modes and back keeps, and Parseval gives it from the
    # modes: the two differ by rounding alone, on both transform paths
    worst = 0.0
    for u in _random_states(cs8, grid8, tall, grid64):
        new, old = energy_functional(u), _round_trip_energy(u)
        worst = max(worst, abs(new - old) / abs(old))
    assert worst <= 1e-14


def test_default_run_energy_matches_padded_grid_density():
    # the gradient by Parseval moves a default run's energy column by
    # rounding alone against the density summed on the padded grid
    cfg = Config()
    snaps, rows = run(cfg)
    worst = 0.0
    for snap in snaps:
        row = rows[round(snap.time / cfg.dt)]
        assert row["time"] == snap.time
        want = _padded_energy(snap)
        worst = max(worst, abs(row["energy"] - want) / abs(want))
    assert worst <= 1e-14


def test_relaxational_run_matches_fresh_double_well_steps(spec8, tall):
    # the rows between the steps of a run must not change their bits
    grid, spec = tall
    cfg = Config(j_max=8, t_max=12.0, delta_t=0.04, T=0.01, snapshot_every=3,
                 equation="allen-cahn")
    snaps, _ = run(cfg, context=(spec, grid))
    stepper = Stepper(spec, grid, cfg.dt, "allen-cahn")
    u = initial_state(cfg, grid, spec)
    want = [u]
    for step in range(1, cfg.n_steps + 1):
        u = stepper.step(u, f=double_well)
        if step % cfg.snapshot_every == 0 or step == cfg.n_steps:
            want.append(u)
    assert [s.coeffs.tobytes() for s in snaps] == [s.coeffs.tobytes() for s in want]


def test_grid_with_plan_and_stepper_dies_without_cycle_collector():
    cs = make_circle(2.0 * np.pi, max_mode=4)
    spec = build_extension(cs, default_weight(cs), 2.0)
    gc.disable()
    try:
        grid = ConeGrid(cs, 3.0, 40, j_max=4)
        stepper = Stepper(spec, grid, 1e-3)
        u = stepper.step(FieldState.zeros(grid))
        assert grid._transform_plan is stepper.plan
        ref = weakref.ref(grid)
        del grid, stepper, u
        assert ref() is None
    finally:
        gc.enable()


def _per_value_snapshot_text(snap):
    grid = snap.grid
    meta = {
        "time": snap.time,
        "t_max": grid.t_max,
        "n_radial": grid.n_radial,
        "j_max": grid.j_max,
        "gamma": snap.gamma,
        "p": snap.p,
        "channels": [[j, k] for j, k in grid.channels],
    }
    lines = ["# " + _ser(meta), "t_node,mode,branch,coefficient"]
    for c, (j, k) in enumerate(grid.channels):
        col = snap.coeffs[:, c]
        for i_node in range(grid.n_nodes):
            lines.append(f"{_fmt(grid.t[i_node])},{j},{k},{_fmt(col[i_node])}")
    return "\n".join(lines) + "\n"


def test_snapshot_text_matches_per_value_format(grid8, spec8):
    cfg = Config(j_max=8, t_max=3.0, delta_t=0.02, T=0.01, snapshot_every=5)
    snaps, _ = run(cfg, context=(spec8, grid8), diagnostics=False)
    odd = FieldState.zeros(grid8, gamma=None, p=2.0)
    special = [-0.0, 5e-324, 1e16, 0.1, 1.0 / 3.0, np.inf, np.nan, -np.inf]
    odd.coeffs.ravel()[:] = np.resize(special, odd.coeffs.size)
    odd.coeffs[5] *= -1.0
    odd.time = 0.1
    assert "nan" in _per_value_snapshot_text(odd)
    for snap in snaps + [odd]:
        got = _snapshot_text(snap).encode()
        assert got == _per_value_snapshot_text(snap).encode()


def _fftpack_transforms(grid, m):
    """to_physical and to_modes as scipy.fftpack real FFTs: the packed
    spectrum [y0, Re y1, Im y1, Re y2, ...] is the channel order."""
    L = float(grid.cs.circumference)
    mode0 = grid.channel_modes == 0
    norm = np.where(mode0, 1.0 / np.sqrt(L), np.sqrt(2.0 / L))
    norm[2::2] *= -1.0
    synth = norm * np.where(mode0, m, 0.5 * m)
    analysis = norm * (L / m)

    def to_physical(coeffs):
        x = np.zeros((coeffs.shape[0], m))
        x[:, :coeffs.shape[1]] = coeffs * synth
        return fftpack.irfft(x, axis=1)

    def to_modes(values):
        return fftpack.rfft(values, axis=1)[:, :analysis.size] * analysis

    return to_physical, to_modes


@pytest.mark.parametrize("j_max, n_phys", [(64, None), (128, None), (64, 261)])
def test_fft_transforms_match_fftpack(j_max, n_phys):
    grid = ConeGrid(make_circle(2.0 * np.pi, max_mode=j_max), 3.0, 300, j_max=j_max)
    plan = assembly.TransformPlan(grid, n_phys)
    assert plan.m == (n_phys or fftpack.next_fast_len(4 * j_max + 5))
    # several row blocks of the half spectrum, the last one partial
    assert grid.n_nodes > 2 * assembly.block_rows(plan.m + 2)
    to_physical, to_modes = _fftpack_transforms(grid, plan.m)
    rng = np.random.default_rng(j_max + plan.m)
    coeffs = rng.normal(size=(grid.n_nodes, grid.n_channels))
    coeffs[::5, ::3] = -0.0
    values = rng.normal(size=(grid.n_nodes, plan.m))
    kept = values.copy()
    assert plan.to_physical(coeffs).tobytes() == to_physical(coeffs).tobytes()
    assert plan.to_modes(values).tobytes() == to_modes(kept).tobytes()
    assert values.tobytes() == kept.tobytes()


def test_smooth_length_matches_fftpack():
    assert [assembly.smooth_length(n) for n in range(1, 5000)] == \
        [fftpack.next_fast_len(n) for n in range(1, 5000)]


@pytest.fixture(scope="module")
def fit_profiles(grid_tall):
    """(state, mode): every mode of three evolved states, and the fit tests' profiles."""
    out = []
    for overrides in ({}, {"ic_amplitude": 0.9}, {"j_max": 8}):
        final = run(Config(**overrides), diagnostics=False)[0][-1]
        out += [(final, j) for j in range(final.grid.j_max + 1)]
    pair = monomial_state(grid_tall, 1.0, mode=1, amplitude=2.0)
    pair.coeffs += monomial_state(grid_tall, 1.0, mode=1, log_power=1).coeffs
    return out + [(monomial_state(grid_tall, 1.7, mode=2), 2), (pair, 1)]


def _fit_or_none(u, j):
    try:
        return fit_exponents(u, j)
    except ZeroModeError:
        return None


def test_fit_exponents_matches_per_rate_scan(monkeypatch, fit_profiles):
    # the reference scan runs fit_at's np.linalg.lstsq at every rate and
    # takes the first minimum; the one-pass residuals must stay within
    # 1e-12 of it, and every fit must come out the same
    got = [_fit_or_none(u, j) for u, j in fit_profiles]
    gaps = []

    def per_rate_scan(fit_at, t, y, t0, rates):
        resids = np.array([fit_at(a)[0] for a in rates])
        batched = asymptotics._scan_residuals(t, y, t0, rates)
        gaps.append(float(np.max(np.abs(batched - resids))))
        return int(np.argmin(resids))

    monkeypatch.setattr(asymptotics, "_scan_minimum", per_rate_scan)
    assert [_fit_or_none(u, j) for u, j in fit_profiles] == got
    assert len(gaps) == sum(fit is not None for fit in got) >= 50
    assert max(gaps) <= 1e-12
