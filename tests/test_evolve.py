import numpy as np
import pytest

from conelab import (ConeGrid, FieldState, PicardDivergenceError, RunConfig,
                     Stepper, TransformPlan, ac_step, ch_step,
                     compatibility_check, constant_state, double_well,
                     energy_functional, evolve, initial_state,
                     mass_functional, run, wellposedness_smoke)
from conelab.mellin import _trapezoid

CFG = dict(j_max=8, t_max=3.0, delta_t=0.02)


def test_run_config_validation():
    cfg = RunConfig(**CFG)
    assert cfg.n_radial == 150
    assert RunConfig(T=0.05, dt=1e-3).n_steps == 50
    with pytest.raises(ValueError):
        RunConfig(delta_t=0.7).n_radial
    with pytest.raises(ValueError):
        RunConfig(T=0.05, dt=3e-4).n_steps
    with pytest.raises(ValueError):
        Stepper(None, None, 1e-3, equation="ginzburg-landau")


def test_double_well_on_constants(grid8):
    u = constant_state(grid8, 0.5)
    vals = double_well(u).physical_values()
    assert vals == pytest.approx(0.375 * np.ones_like(vals), abs=1e-12)
    for v in (-1.0, 0.0, 1.0):
        w = double_well(constant_state(grid8, v))
        assert np.max(np.abs(w.coeffs)) < 1e-14


def test_conserved_flow_fixes_constants_bitwise(grid8, spec8):
    st = Stepper(spec8, grid8, 1e-3)
    for v in (0.0, 1.0, -1.0, 0.3):
        u0 = constant_state(grid8, v)
        u1 = st.step(u0)
        assert np.array_equal(u1.coeffs, u0.coeffs)


def test_relaxational_flow_fixes_well_bottoms(grid8, spec8):
    st = Stepper(spec8, grid8, 1e-3, equation="allen-cahn")
    u1 = st.step(FieldState.zeros(grid8), f=double_well)
    assert np.all(u1.coeffs == 0.0)
    for v in (1.0, -1.0):
        u0 = constant_state(grid8, v)
        u1 = st.step(u0, f=double_well)
        assert np.max(np.abs(u1.coeffs - u0.coeffs)) < 1e-15


def test_relaxational_constant_matches_scalar_euler(grid8, spec8):
    # spatially constant data reduces the scheme to c += dt (c - c^3):
    # the implicit Laplacian annihilates constants bitwise, leaving the
    # explicit reaction
    dt = 1e-3
    st = Stepper(spec8, grid8, dt, equation="allen-cahn")
    u = constant_state(grid8, 0.3)
    c = 0.3
    for _ in range(20):
        u = st.step(u, f=double_well)
        c = c + dt * (c - c ** 3)
    got = u.physical_values()[5, 0]
    assert got == pytest.approx(c, rel=1e-12)
    assert u.time == pytest.approx(0.02)


def test_step_wrappers_match_stepper(grid8, spec8):
    u0 = initial_state(RunConfig(**CFG), grid8, spec8)
    a = ch_step(u0, 1e-3, spec8, grid8)
    b = Stepper(spec8, grid8, 1e-3).step(u0)
    assert np.array_equal(a.coeffs, b.coeffs)
    a2 = ac_step(u0, 1e-3, spec8, grid8, f=double_well)
    b2 = Stepper(spec8, grid8, 1e-3, "allen-cahn").step(u0, f=double_well)
    assert np.array_equal(a2.coeffs, b2.coeffs)


def test_initial_state_kinds(grid8, spec8):
    zero = initial_state(RunConfig(ic_kind="zero", **CFG), grid8, spec8)
    assert np.all(zero.coeffs == 0.0)
    const = initial_state(RunConfig(ic_kind="constant", ic_value=0.4, **CFG),
                          grid8, spec8)
    assert const.physical_values() == pytest.approx(0.4, abs=1e-14)
    cfg = RunConfig(ic_kind="bump", ic_modes=3, seed=11, **CFG)
    bump = initial_state(cfg, grid8, spec8)
    again = initial_state(cfg, grid8, spec8)
    assert np.array_equal(bump.coeffs, again.coeffs)
    # bump support stays away from both ends and high modes stay empty
    assert np.all(bump.coeffs[0, :] == 0.0) and np.all(bump.coeffs[-1, :] == 0.0)
    high = [c for c, (j, _) in enumerate(grid8.channels) if j > 3]
    assert np.max(np.abs(bump.coeffs[:, high])) == 0.0
    with pytest.raises(ValueError):
        initial_state(RunConfig(ic_kind="plume", **CFG), grid8, spec8)


def test_mass_and_energy_oracles(grid8):
    c = 0.4
    u = constant_state(grid8, c)
    L = float(grid8.cs.circumference)
    w = np.exp(-2.0 * grid8.t[1:-1])
    assert mass_functional(u) == pytest.approx(grid8.dt * L * c * np.sum(w))
    dens = 0.25 * (c ** 2 - 1.0) ** 2 * L * np.exp(-2.0 * grid8.t)
    assert energy_functional(u) == pytest.approx(_trapezoid(dens, grid8.t))


def test_compatibility_check(grid8, spec8):
    u = initial_state(RunConfig(**CFG), grid8, spec8)
    assert compatibility_check(u, spec8) < 1e-8
    bad = u.copy()
    bad.coeffs[-1, grid8.channel_index(3, 0)] += 1.0
    with pytest.raises(ValueError):
        compatibility_check(bad, spec8)


def test_conserved_run_mass_energy(cs8):
    cfg = RunConfig(T=0.01, dt=1e-3, seed=7, ic_amplitude=0.03, **CFG)
    snaps, diags = run(cfg)
    mass = np.array([d["mass"] for d in diags])
    energy = np.array([d["energy"] for d in diags])
    assert np.max(np.abs(mass - mass[0])) <= 1e-9
    assert np.max(np.diff(energy)) <= 1e-9
    assert [d["step"] for d in diags] == list(range(11))
    assert diags[-1]["time"] == pytest.approx(0.01)
    assert snaps[0].time == 0.0 and snaps[-1].time == pytest.approx(0.01)
    assert set(diags[0]) == {"step", "time", "mass", "energy",
                             "supnorm", "norm0", "norm2"}


def test_relaxational_run_moves_toward_well(cs8):
    cfg = RunConfig(equation="allen-cahn", ic_kind="constant", ic_value=0.3,
                    T=0.02, dt=1e-3, **CFG)
    snaps, diags = run(cfg)
    c = 0.3
    for _ in range(20):
        c = c + 1e-3 * (c - c ** 3)
    assert snaps[-1].physical_values()[3, 0] == pytest.approx(c, rel=1e-10)
    assert diags[-1]["mass"] > diags[0]["mass"]


@pytest.mark.parametrize("equation", ["cahn-hilliard", "allen-cahn"])
def test_run_without_diagnostics_keeps_snapshots(grid8, spec8, equation):
    cfg = RunConfig(equation=equation, T=0.01, dt=1e-3, snapshot_every=4, **CFG)
    snaps, diags = run(cfg, context=(spec8, grid8))
    bare, rows = run(cfg, context=(spec8, grid8), diagnostics=False)
    assert len(diags) == 11 and rows == []
    assert [s.time for s in bare] == [s.time for s in snaps]
    assert [s.coeffs.tobytes() for s in bare] == [s.coeffs.tobytes() for s in snaps]


@pytest.mark.parametrize("diagnostics", [True, False])
def test_conserved_run_synthesises_each_state_once(monkeypatch, grid8, spec8,
                                                   diagnostics):
    # a row costs 5 transforms: the values, the angular and the radial
    # derivative, and the pairing projected and synthesised again.  The
    # next step takes the row's values and angular derivative for u^2 and
    # its first sweep, which then only projects twice; a step given none
    # synthesises both itself.  Later sweeps synthesise and project 2 + 2,
    # and nothing is synthesised after the last step.
    calls = {"transform": 0, "sweep": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(TransformPlan, "to_physical",
                        counted(TransformPlan.to_physical, "transform"))
    monkeypatch.setattr(TransformPlan, "to_modes",
                        counted(TransformPlan.to_modes, "transform"))
    monkeypatch.setattr(evolve, "flux_divergence",
                        counted(evolve.flux_divergence, "sweep"))
    cfg = RunConfig(T=0.005, **CFG)
    run(cfg, context=(spec8, grid8), diagnostics=diagnostics)
    steps, sweeps = cfg.n_steps, calls["sweep"]
    assert sweeps >= steps
    rows = 5 * (steps + 1) if diagnostics else 0
    own = 0 if diagnostics else 2 * steps
    assert calls["transform"] == rows + own + 2 * steps + 4 * (sweeps - steps)


def test_run_rejects_state_from_another_grid(cs8, grid8, spec8):
    cfg = RunConfig(T=0.005, dt=1e-3, **CFG)
    u0 = initial_state(cfg, grid8, spec8)
    with pytest.raises(ValueError):
        run(cfg, initial=u0)  # same layout, but not the run's own grid
    snaps, _ = run(cfg, initial=u0, context=(spec8, grid8))
    assert snaps[-1].time == pytest.approx(0.005)


def test_picard_divergence_guard(grid8, spec8):
    cfg = RunConfig(seed=3, ic_amplitude=50.0, ic_modes=5, **CFG)
    u0 = initial_state(cfg, grid8, spec8)
    st = Stepper(spec8, grid8, 10.0)
    with pytest.raises(PicardDivergenceError):
        st.step(u0)


def test_wellposedness_smoke(cs8):
    cfg = RunConfig(T=0.01, dt=1e-3, seed=7, ic_amplitude=0.03, **CFG)
    r0 = wellposedness_smoke(cfg, 0.0)
    assert r0["identical"] and r0["final_gap"] == 0.0
    r1 = wellposedness_smoke(cfg, 1e-4)
    r2 = wellposedness_smoke(cfg, 1e-5)
    assert r1["final_gap"] == pytest.approx(1e-4 * r1["ratio"])
    assert r1["ratio"] == pytest.approx(r2["ratio"], rel=0.02)
