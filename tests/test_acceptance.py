"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured margin, then
asserts, so a plain ``pytest -v tests/test_acceptance.py`` doubles as the
acceptance report.  Total runtime stays well under ten minutes.
"""

from fractions import Fraction

import numpy as np
import pytest

from conelab import (ConeGrid, Config, FieldState, Stepper,
                     build_extension, constant_state, cubic_field,
                     default_weight, double_well, fit_exponents,
                     interior_smoothness_report, lab_report, laplacian_suite,
                     make_circle, matrix_power_spd, mellin_norm,
                     imaginary_power_integral, membership_test,
                     monomial_state, nonlinearity, run, symmetrized_laplacian,
                     verify_square_identity)
from conelab.assembly import FieldOperator
from conelab.cone_symbol import (apply_symbol, compute_bilaplacian_poles,
                                 compute_poles, invert_symbol)
from conelab.evolve import _bump_envelope


def report(capsys, num, passed, detail):
    with capsys.disabled():
        print(f"\ncriterion {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed


@pytest.fixture(scope="module")
def cs():
    return make_circle(2.0 * np.pi, max_mode=8)


@pytest.fixture(scope="module")
def spec(cs):
    return build_extension(cs, default_weight(cs), 2.0)


def test_criterion_1_exact_pole_catalog(cs, capsys):
    cat = compute_poles(cs)
    ok = True
    for j in range(1, 9):
        exact = sorted(e.exact for e in cat.entries if e.mode == j)
        ok = ok and exact == [Fraction(-j), Fraction(j)]
        ok = ok and all(e.order == 1 for e in cat.entries if e.mode == j)
    zero = [e for e in cat.entries if e.mode == 0]
    ok = ok and len(zero) == 1 and zero[0].exact == 0 and zero[0].order == 2
    cat4 = compute_bilaplacian_poles(cs)
    doubles = sorted(e.exact for e in cat4.entries if e.order == 2)
    ok = ok and doubles == [Fraction(-2), Fraction(-1), Fraction(0)]
    report(capsys, 1, ok,
           "symbol poles are exact rationals +/-j; fourth-order double "
           "poles are exactly {0, -1, -2} (zero tolerance)")


def test_criterion_2_symbol_inversion_roundtrip(cs, capsys):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        z = complex(rng.uniform(-5.0, 5.0), rng.uniform(0.5, 3.0))
        coeffs = rng.normal(size=cs.n_modes) + 1j * rng.normal(size=cs.n_modes)
        back = invert_symbol(z, apply_symbol(z, coeffs, cs), cs)
        worst = max(worst, float(np.max(np.abs(back - coeffs))
                                 / np.max(np.abs(coeffs))))
    report(capsys, 2, worst <= 1e-12,
           f"invert(apply(.)) residual {worst:.3e} <= 1e-12 on 100 samples")


def test_criterion_3_domain_reconciliation(cs, capsys):
    spec = build_extension(cs, -0.5, 2.0)  # InconsistentDomainError must not fire
    addons = sorted((a.mode, float(a.exponent)) for a in spec.bilaplacian_addons)
    ok = (0, 0.0) in addons and (1, 1.0) in addons
    lo, hi = spec.j_interval
    ok = ok and (lo < -2.0 < hi) and (lo < -1.0 < hi) and not (lo < 0.0 < hi)
    report(capsys, 3, ok,
           f"gamma=-1/2 domain carries the constant and mode-1 x^1 spaces; "
           f"J=({lo}, {hi}) holds the -2 and -1 doubles but not 0")


def test_criterion_4_membership_iff_norm_growth(capsys):
    cs2 = make_circle(2.0 * np.pi, max_mode=2)
    grids = {tm: ConeGrid(cs2, tm, int(tm / 0.01), j_max=2)
             for tm in (5.0, 10.0, 15.0)}
    agree = 0
    for a in (-2.0, -1.0, 0.0, 1.0):
        for gamma in (-0.9, -0.5, -0.1):
            predicted = membership_test(a, 0, gamma, 2.0, 1)
            norms = [mellin_norm(monomial_state(grids[tm], a), 0, gamma, 2.0)
                     for tm in (5.0, 10.0, 15.0)]
            diverges = norms[2] / norms[1] > 1.3
            agree += (predicted == (not diverges))
    report(capsys, 4, agree == 12,
           f"membership_test matches norm growth in {agree}/12 cases "
           "over (a, gamma) in {-2,-1,0,1} x {-0.9,-0.5,-0.1}")


def _splitting_error(cs4, spec4, n_radial, seed):
    grid = ConeGrid(cs4, 3.0, n_radial, j_max=4)
    rng = np.random.default_rng(seed)
    env = _bump_envelope(grid.t)
    co = np.zeros((grid.n_nodes, grid.n_channels))
    for c in range(grid.n_channels):
        co[:, c] = 0.05 * rng.uniform(-1.0, 1.0) * env
    u = FieldState(grid, co)
    lap = FieldOperator(laplacian_suite(grid, spec4))
    a_freeze, F = nonlinearity(u, spec4)
    lhs = a_freeze(u).coeffs - F.coeffs
    cub = cubic_field(u).coeffs
    rhs = lap.apply(lap.apply(co)) + lap.apply(co - cub)
    diff = u.like(lhs - rhs)
    return (mellin_norm(diff, 0, spec4.gamma, spec4.p)
            / mellin_norm(u, 0, spec4.gamma, spec4.p))


def test_criterion_5_splitting_identity(capsys):
    cs4 = make_circle(2.0 * np.pi, max_mode=4)
    spec4 = build_extension(cs4, default_weight(cs4), 2.0)
    coarse = [_splitting_error(cs4, spec4, 150, seed) for seed in range(5)]
    fine = [_splitting_error(cs4, spec4, 300, seed) for seed in range(5)]
    orders = [np.log2(c / f) for c, f in zip(coarse, fine)]
    ok = max(coarse) <= 1e-2 and min(orders) >= 1.9
    report(capsys, 5, ok,
           f"splitting residual at spacing 2e-2: worst {max(coarse):.3e} "
           f"<= 1e-2, refinement order {min(orders):.3f} >= 1.9 (5 fields)")


def test_criterion_6_conservation_dissipation_fixed_points(capsys):
    cfg = Config(j_max=8, t_max=3.0, delta_t=0.02, T=0.05, dt=1e-3,
                 seed=7, ic_amplitude=0.03)
    _, diags = run(cfg)
    mass = np.array([d["mass"] for d in diags])
    energy = np.array([d["energy"] for d in diags])
    drift = float(np.max(np.abs(mass - mass[0])) / abs(mass[0]))
    worst_rise = float(np.max(np.diff(energy)))
    cs8 = make_circle(2.0 * np.pi, max_mode=8)
    spec8 = build_extension(cs8, default_weight(cs8), 2.0)
    grid = ConeGrid(cs8, 3.0, 150, j_max=8)
    st = Stepper(spec8, grid, 1e-3)
    fixed = all(np.array_equal(st.step(constant_state(grid, v)).coeffs,
                               constant_state(grid, v).coeffs)
                for v in (0.0, 1.0, -1.0))
    ok = drift <= 1e-8 and worst_rise <= 1e-9 and fixed
    report(capsys, 6, ok,
           f"mass drift {drift:.3e} <= 1e-8, worst energy step "
           f"{worst_rise:.3e} <= 1e-9, u=0,+1,-1 fixed bitwise: {fixed}")


def _manufactured_orders(equation, spec4, grid, amplitude=0.05):
    rng = np.random.default_rng(0)
    env = _bump_envelope(grid.t)
    Phi = np.zeros((grid.n_nodes, grid.n_channels))
    for c in range(grid.n_channels):
        Phi[:, c] = amplitude * rng.uniform(-1.0, 1.0) * env
    psi = lambda t: 0.5 + np.exp(-4.0 * t)
    dpsi = lambda t: -4.0 * np.exp(-4.0 * t)
    T = 0.04
    f = double_well if equation == "allen-cahn" else None

    def error(dt):
        st = Stepper(spec4, grid, dt, equation=equation)

        def g(t):
            ustar = FieldState(grid, Phi * psi(t), time=t)
            return Phi * dpsi(t) - st.discrete_rhs(ustar, f=f)

        u = FieldState(grid, Phi * psi(0.0))
        for _ in range(round(T / dt)):
            u = st.step(u, f=f, forcing=g)
        exact = Phi * psi(T)
        return np.max(np.abs(u.coeffs - exact)) / np.max(np.abs(exact))

    errs = [error(dt) for dt in (4e-3, 2e-3, 1e-3)]
    return [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]


def test_criterion_7_manufactured_convergence(capsys):
    cs4 = make_circle(2.0 * np.pi, max_mode=4)
    spec4 = build_extension(cs4, default_weight(cs4), 2.0)
    grid = ConeGrid(cs4, 3.0, 150, j_max=4)
    ch = _manufactured_orders("cahn-hilliard", spec4, grid)
    ac = _manufactured_orders("allen-cahn", spec4, grid)
    ok = all(0.85 <= o <= 1.15 for o in ch + ac)
    report(capsys, 7, ok,
           f"temporal orders over dt in {{4e-3,2e-3,1e-3}}: "
           f"conserved {ch[0]:.3f}/{ch[1]:.3f}, relaxational "
           f"{ac[0]:.3f}/{ac[1]:.3f}, all within 1.0 +/- 0.15")


def test_manufactured_convergence_at_amplitude_1():
    # criterion 7's check where the cubic term is O(1), not a small
    # perturbation of the linear flow
    cs4 = make_circle(2.0 * np.pi, max_mode=4)
    spec4 = build_extension(cs4, default_weight(cs4), 2.0)
    grid = ConeGrid(cs4, 3.0, 150, j_max=4)
    orders = [_manufactured_orders(eq, spec4, grid, amplitude=1.0)
              for eq in ("cahn-hilliard", "allen-cahn")]
    assert all(0.85 <= o <= 1.15 for pair in orders for o in pair), orders


def test_criterion_8_square_identity_and_integral(cs, spec, capsys):
    rng = np.random.default_rng(42)
    worst_sq = 0.0
    for _ in range(10):
        d = int(rng.integers(2, 9))
        M = rng.normal(size=(d, d))
        A = M @ M.T + d * np.eye(d)
        worst_sq = max(worst_sq, verify_square_identity(A))
    grid = ConeGrid(cs, 1.0, 20, j_max=1)
    A_cone = 10.0 * np.eye(grid.n_nodes - 2) + symmetrized_laplacian(grid, spec)
    worst_sq = max(worst_sq, verify_square_identity(A_cone))
    worst_int = 0.0
    for z in (0.25, 0.5, 0.75):
        dev = np.max(np.abs(imaginary_power_integral(A_cone, z)
                            - matrix_power_spd(A_cone, -z)))
        worst_int = max(worst_int, float(dev))
    ok = worst_sq <= 1e-8 and worst_int <= 1e-6
    report(capsys, 8, ok,
           f"square identity dev {worst_sq:.3e} <= 1e-8 (10 random SPD + "
           f"cone operator); integral vs eigh {worst_int:.3e} <= 1e-6")


def test_criterion_9_perturbation_conditions(cs, spec, capsys):
    grid = ConeGrid(cs, 1.0, 20, j_max=1)
    rep = lab_report(grid, spec)
    hits = [p for p in rep.perturbation
            if p["condition_i_pass"] and p["decay_pass"]]
    detail = ", ".join(f"mu={p['mu']:g}: cond_i={p['condition_i']:.3f} "
                       f"slope={p['decay_slope']:.3f}"
                       for p in rep.perturbation)
    report(capsys, 9, bool(hits),
           f"a sampled mu satisfies condition (i) <= 0.5 and decay slope "
           f"<= -1.4 ({detail})")


def test_criterion_10_asymptotics_confinement(capsys):
    cfg = Config(j_max=8, t_max=10.0, delta_t=0.02, T=0.05, dt=1e-3,
                 seed=7, ic_amplitude=0.03)
    snaps, _ = run(cfg)
    final = snaps[-1]
    fit = fit_exponents(final, 0)
    rep = interior_smoothness_report(final)
    ok = abs(fit["a_hat"]) <= 0.05 and rep["max_ratio"] <= 1.2
    report(capsys, 10, ok,
           f"mode-0 tip exponent {fit['a_hat']:.4f} within 0.05 of 0; "
           f"interior fourth-difference ratio {rep['max_ratio']:.4f} <= 1.2")
