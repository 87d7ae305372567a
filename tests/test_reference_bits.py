"""Fast paths against the plain forms they replace, bit for bit.

The references below are the straightforward constructions: LIL-built
matrices, scipy.linalg.solve_banded on freshly built bands, the dense
angular-derivative matrix, per-mode CSR products, the diagnostics
functionals called on each state and a snapshot CSV formatted one value
at a time.  Every comparison is on tobytes(), so a flipped sign of zero
fails as well.
"""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.linalg import LinAlgError
from scipy.linalg import solve_banded

from conelab import (ConeGrid, FieldState, RunConfig, Stepper,
                     assemble_laplacian, bilaplacian_suite, build_extension,
                     default_weight, energy_functional, gradient_pairing,
                     initial_state, laplacian_suite, make_circle, make_sphere,
                     mellin_norm, to_banded, transform_plan)
from conelab.assembly import apply_modewise
from conelab.cli import _fmt, _ser, _snapshot_text
from conelab.evolve import banded_lu, banded_solve, run


def _lil_laplacian(j, grid, spec):
    a_j, b_j = spec.inner_bc[j]
    lam = float(grid.cs.eigenvalue(j))
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


def _same_csr(a, b):
    return (a.shape == b.shape
            and a.data.tobytes() == b.data.tobytes()
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.indptr, b.indptr))


@pytest.fixture(scope="module")
def tall(cs8, spec8):
    # the default grid's t_max, where the rows span ~e^(4t) and pivots move
    return ConeGrid(cs8, 12.0, 300, j_max=8), spec8


def test_laplacian_matches_lil_build(grid8, spec8, tall):
    grid, spec = tall
    for g, s in ((grid8, spec8), (grid, spec)):
        for j in range(g.j_max + 1):
            P = assemble_laplacian(j, g, s).matrix
            ref = _lil_laplacian(j, g, s)
            assert _same_csr(P, ref)
            assert _same_csr((P @ P).tocsr(), (ref @ ref).tocsr())


def _zero_entry_case():
    # on S^2, spacing 2 makes the upper stencil weight 1/h^2 - (n-1)/(2h)
    # vanish exactly, so the stored rows are shorter than three entries
    cs = make_sphere(2, max_degree=3)
    spec = build_extension(cs, default_weight(cs), 2.0)
    return ConeGrid(cs, 16.0, 8, j_max=3), spec


def test_laplacian_drops_zero_entries_like_lil():
    # LIL stores no zeros and neither does the array build
    grid, spec = _zero_entry_case()
    for j in range(grid.j_max + 1):
        P = assemble_laplacian(j, grid, spec).matrix
        assert P.nnz < 3 * grid.n_nodes
        assert _same_csr(P, _lil_laplacian(j, grid, spec))


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
            scale = np.repeat(d[:, None], cols.size, axis=1)
            assert st._row_scale[:, cols].tobytes() == scale.tobytes()
        assert st._solve(rhs).tobytes() == ref.tobytes()


@pytest.mark.parametrize("kl", [1, 2])
def test_banded_lu_matches_solve_banded_and_rejects_singular(kl):
    rng = np.random.default_rng(kl)
    m = 9
    R = rng.normal(size=(m, 2 * kl + 1))
    ab = np.zeros((2 * kl + 1, m))
    for k in range(-kl, kl + 1):
        ab[kl - k, max(0, k):m + min(0, k)] = R[max(0, -k):m - max(0, k), kl + k]
    b = rng.normal(size=(m, 2))
    got = banded_solve(banded_lu(R), b)
    assert got.tobytes() == solve_banded((kl, kl), ab, b).tobytes()
    # zero every entry of column 3: the matrix is singular
    for i in range(m):
        if -kl <= 3 - i <= kl:
            R[i, kl + 3 - i] = 0.0
    with pytest.raises(LinAlgError):
        banded_lu(R)


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


def test_apply_modewise_matches_per_mode_product(grid8, spec8, tall):
    # the whole-field operator, through apply_modewise and Stepper.laplace
    rng = np.random.default_rng(8)
    for grid, spec in ((grid8, spec8), tall, _zero_entry_case()):
        co = rng.normal(size=(grid.n_nodes, grid.n_channels))
        co[::4, 0] = -0.0
        co[:, -1] = -0.0                          # -0.0 products, summed from +0
        laps = laplacian_suite(grid, spec)
        for ops in (laps, bilaplacian_suite(grid, spec, laps)):
            ref = np.empty_like(co)
            for j in range(grid.j_max + 1):
                cols = _mode_columns(grid, j)
                ref[:, cols] = ops[j].matrix @ co[:, cols]
            assert np.signbit(ref[:, -1]).sum() == 0
            got = [apply_modewise(ops, co, grid)]
            if ops is laps and grid.cs.geometry == "circle":
                got.append(Stepper(spec, grid, 1e-3).laplace(co))
            for out in got:
                assert out.flags.c_contiguous
                assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("equation", ["cahn-hilliard", "allen-cahn"])
def test_run_rows_match_diagnostics_functionals(grid8, spec8, equation):
    cfg = RunConfig(j_max=8, t_max=3.0, delta_t=0.02, T=0.005, snapshot_every=1,
                    equation=equation)
    snaps, rows = run(cfg, context=(spec8, grid8))
    assert len(snaps) == len(rows) == cfg.n_steps + 1
    for snap, row in zip(snaps, rows):
        want = {"energy": energy_functional(snap),
                "norm0": mellin_norm(snap, 0, spec8.gamma, snap.p),
                "norm2": mellin_norm(snap, 2, spec8.gamma, snap.p)}
        for key, value in want.items():
            assert float(row[key]).hex() == float(value).hex(), (row["step"], key)


def test_gradient_pairing_with_itself_matches_two_slots(grid8, spec8):
    u = initial_state(RunConfig(j_max=8, t_max=3.0, delta_t=0.02), grid8, spec8)
    u.coeffs[:, grid8.channel_index(6, 1)] = np.linspace(-1.0, 1.0, grid8.n_nodes)
    same = gradient_pairing(u, u).coeffs
    assert same.tobytes() == gradient_pairing(u, u.copy()).coeffs.tobytes()


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
    cfg = RunConfig(j_max=8, t_max=3.0, delta_t=0.02, T=0.01, snapshot_every=5)
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
