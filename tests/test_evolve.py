import json
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from conelab import (ConeGrid, Config, ConfigError, FieldState, Stepper, TransformPlan, assembly,
                     build_extension, compatibility_check, cone_symbol, constant_state,
                     default_weight, double_well, energy_functional, evolve,
                     initial_state, make_circle, mass_functional, mellin_norm,
                     parse_config, run, transform_plan)
from conelab.mellin import _trapezoid

CFG = dict(j_max=8, t_max=3.0, delta_t=0.02)


def test_run_config_validation():
    cfg = Config(**CFG)
    assert cfg.n_radial == 150
    assert Config(T=0.05, dt=1e-3).n_steps == 50
    with pytest.raises(ValueError):
        Config(delta_t=0.7).n_radial
    with pytest.raises(ValueError):
        Config(T=0.05, dt=3e-4).n_steps
    with pytest.raises(ValueError):
        Stepper(None, None, 1e-3, equation="ginzburg-landau")


def test_run_config_reports_schema_errors():
    # the CLI's /key: messages; circumference is no key, L is
    for kwargs, message in (
            ({"dt": 0.0}, "/dt: expected a positive number"),
            ({"L": -1.0}, "/L: expected a positive number"),
            ({"circumference": 1.0}, "/circumference: unknown key"),
            ({"j_max": 2.0, "ic_kind": "plume"},
             "/ic_kind: expected 'bump', 'zero', or 'constant'\n"
             "/j_max: expected an integer"),
            ({"dt": 0.5}, "/dt: must be smaller than the horizon T"),
            ({"gamma": 0.5}, "/gamma: 0.5 outside the admissible weight window (-1, 0)")):
        with pytest.raises(ConfigError) as exc:
            Config(**kwargs)
        assert str(exc.value) == message
    assert Config(gamma=-0.25).gamma == -0.25


def test_double_well_on_constants(grid8):
    u = constant_state(grid8, 0.5)
    vals = transform_plan(grid8).to_physical(double_well(u).coeffs)
    assert vals == pytest.approx(0.375 * np.ones_like(vals), abs=1e-12)
    for v in (-1.0, 0.0, 1.0):
        w = double_well(constant_state(grid8, v))
        assert np.max(np.abs(w.coeffs)) < 1e-14


# j_max = 8 runs the dense angular transform, j_max = 64 the FFT
ON_BOTH_TRANSFORMS = pytest.mark.parametrize("grid_name,spec_name",
                                             [("grid8", "spec8"), ("grid64", "spec64")],
                                             ids=["grid8", "grid64"])


@ON_BOTH_TRANSFORMS
def test_conserved_flow_fixes_constants_bitwise(grid_name, spec_name, request):
    grid, spec = request.getfixturevalue(grid_name), request.getfixturevalue(spec_name)
    st = Stepper(spec, grid, 1e-3)
    for v in (0.0, 1.0, -1.0, 0.3):
        u0 = constant_state(grid, v)
        u1 = st.step(u0)
        assert np.array_equal(u1.coeffs, u0.coeffs)


@ON_BOTH_TRANSFORMS
def test_relaxational_flow_fixes_well_bottoms(grid_name, spec_name, request):
    grid, spec = request.getfixturevalue(grid_name), request.getfixturevalue(spec_name)
    st = Stepper(spec, grid, 1e-3, equation="allen-cahn")
    u1 = st.step(FieldState.zeros(grid), f=double_well)
    assert np.all(u1.coeffs == 0.0)
    for v in (1.0, -1.0):
        u0 = constant_state(grid, v)
        u1 = st.step(u0, f=double_well)
        assert np.max(np.abs(u1.coeffs - u0.coeffs)) < 1e-15


@pytest.mark.parametrize("equation", ["cahn-hilliard", "allen-cahn"])
@pytest.mark.parametrize("size", ["grid8", "cli-defaults"])
def test_stepped_state_is_c_contiguous(request, size, equation):
    # the solve leaves the increment in Fortran order; an F-ordered state
    # would change the bits of the products and reductions over it.  The
    # CLI-default state, 601 x 65 floats (312 KB), is above the 256 KiB
    # from which numpy reuses a temporary operand for a sum in place
    if size == "grid8":
        cfg = Config(**CFG)
        spec, grid = request.getfixturevalue("spec8"), request.getfixturevalue("grid8")
    else:
        cfg = Config(equation=equation)
        spec, grid = cfg.context()
    u = initial_state(cfg, grid)
    st = Stepper(spec, grid, 1e-3, equation)
    f = double_well if equation == "allen-cahn" else None
    for _ in range(2):
        u = st.step(u, f=f)
        assert u.coeffs.flags.c_contiguous


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
    got = transform_plan(grid8).to_physical(u.coeffs)[5, 0]
    assert got == pytest.approx(c, rel=1e-12)
    assert u.time == pytest.approx(0.02)


def test_initial_state_kinds(grid8):
    zero = initial_state(Config(ic_kind="zero", **CFG), grid8)
    assert np.all(zero.coeffs == 0.0)
    const = initial_state(Config(ic_kind="constant", ic_value=0.4, **CFG), grid8)
    assert transform_plan(grid8).to_physical(const.coeffs) == pytest.approx(0.4, abs=1e-14)
    cfg = Config(ic_kind="bump", ic_modes=3, seed=11, **CFG)
    bump = initial_state(cfg, grid8)
    again = initial_state(cfg, grid8)
    assert np.array_equal(bump.coeffs, again.coeffs)
    # bump support stays away from both ends and high modes stay empty
    assert np.all(bump.coeffs[0, :] == 0.0) and np.all(bump.coeffs[-1, :] == 0.0)
    high = [c for c, (j, _) in enumerate(grid8.channels) if j > 3]
    assert np.max(np.abs(bump.coeffs[:, high])) == 0.0
    with pytest.raises(ValueError):
        initial_state(Config(ic_kind="plume", **CFG), grid8)


def test_mass_and_energy_oracles(grid8):
    c = 0.4
    u = constant_state(grid8, c)
    L = float(grid8.cs.circumference)
    w = np.exp(-2.0 * grid8.t[1:-1])
    assert mass_functional(u) == pytest.approx(grid8.dt * L * c * np.sum(w))
    dens = 0.25 * (c ** 2 - 1.0) ** 2 * L * np.exp(-2.0 * grid8.t)
    assert energy_functional(u) == pytest.approx(_trapezoid(dens, grid8.t))


def test_compatibility_check(grid8, spec8):
    u = initial_state(Config(**CFG), grid8)
    ratio = Stepper(spec8, grid8, 1e-3).tip_ratio
    assert compatibility_check(u, spec8, ratio) < 1e-8
    bad = u.copy()
    bad.coeffs[-1, grid8.channel_index(3, 0)] += 1.0
    with pytest.raises(ValueError):
        compatibility_check(bad, spec8, ratio)


def test_conserved_run_mass_energy(cs8):
    cfg = Config(T=0.01, dt=1e-3, seed=7, ic_amplitude=0.03, **CFG)
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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="mode 0's conserved solve leaks mass at the default "
                   "t_max: the LU residual of its pentadiagonal rows near the "
                   "tip, where they reach dt e^(4t)/h^4")
def test_conserved_run_keeps_mass_at_default_t_max():
    # the default geometry (t_max = 12) rather than the short t_max = 3
    # grid; the drift does not depend on j_max, so j_max = 8 stands for
    # the default 32
    drifts = {}
    for overrides in ({}, {"delta_t": 0.01}, {"dt": 1e-2, "T": 0.1}):
        _, diags = run(Config(j_max=8, **overrides))
        mass = np.array([d["mass"] for d in diags])
        drifts[str(overrides)] = float(np.max(np.abs(mass - mass[0])) / abs(mass[0]))
    assert max(drifts.values()) <= 1e-8, drifts


def test_relaxational_run_moves_toward_well(cs8):
    cfg = Config(equation="allen-cahn", ic_kind="constant", ic_value=0.3,
                 T=0.02, dt=1e-3, **CFG)
    snaps, diags = run(cfg)
    c = 0.3
    for _ in range(20):
        c = c + 1e-3 * (c - c ** 3)
    values = transform_plan(snaps[-1].grid).to_physical(snaps[-1].coeffs)
    assert values[3, 0] == pytest.approx(c, rel=1e-10)
    assert diags[-1]["mass"] > diags[0]["mass"]


@pytest.mark.parametrize("equation", ["cahn-hilliard", "allen-cahn"])
def test_run_without_diagnostics_keeps_snapshots(grid8, spec8, equation):
    cfg = Config(equation=equation, T=0.01, dt=1e-3, snapshot_every=4, **CFG)
    snaps, diags = run(cfg, context=(spec8, grid8))
    bare, rows = run(cfg, context=(spec8, grid8), diagnostics=False)
    assert len(diags) == 11 and rows == []
    assert [s.time for s in bare] == [s.time for s in snaps]
    assert [s.coeffs.tobytes() for s in bare] == [s.coeffs.tobytes() for s in snaps]


def _counted(calls, fn, key):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("diagnostics", [True, False])
def test_conserved_run_synthesises_each_state_once(monkeypatch, grid8, spec8,
                                                   diagnostics):
    # a row costs 1 transform, the values on the padded grid.  A step
    # synthesises its values and angular derivative for u^2 and its first
    # sweep, which then projects twice; later sweeps synthesise and
    # project 2 + 2, and nothing is synthesised after the last step.
    calls = {"transform": 0, "sweep": 0}
    monkeypatch.setattr(TransformPlan, "to_physical",
                        _counted(calls, TransformPlan.to_physical, "transform"))
    monkeypatch.setattr(TransformPlan, "to_modes",
                        _counted(calls, TransformPlan.to_modes, "transform"))
    monkeypatch.setattr(evolve, "flux_divergence",
                        _counted(calls, evolve.flux_divergence, "sweep"))
    cfg = Config(T=0.005, **CFG)
    run(cfg, context=(spec8, grid8), diagnostics=diagnostics)
    steps, sweeps = cfg.n_steps, calls["sweep"]
    assert sweeps >= steps
    rows = steps + 1 if diagnostics else 0
    assert calls["transform"] == rows + 4 * steps + 4 * (sweeps - steps)


@pytest.mark.parametrize("equation", ["cahn-hilliard", "allen-cahn"])
def test_rows_use_one_angular_grid(monkeypatch, grid8, spec8, equation):
    # each row synthesises its state's values on the padded grid and takes
    # the well and the sup norm from there, the gradient from the modes:
    # nothing goes back to modes, and nothing is sampled on the
    # cross-section's quadrature nodes.  A conserved step synthesises and
    # projects twice each, a relaxational one u and u^3 once each.
    calls = {"transform": 0, "quadrature": 0}
    per_row, per_step = [], []

    def tallied(fn, out):
        def wrapper(*args, **kwargs):
            before = dict(calls)
            result = fn(*args, **kwargs)
            out.append({k: calls[k] - before[k] for k in calls})
            return result
        return wrapper

    monkeypatch.setattr(TransformPlan, "to_physical",
                        _counted(calls, TransformPlan.to_physical, "transform"))
    monkeypatch.setattr(TransformPlan, "to_modes",
                        _counted(calls, TransformPlan.to_modes, "transform"))
    monkeypatch.setattr(ConeGrid, "synthesis_matrix",
                        _counted(calls, ConeGrid.synthesis_matrix, "quadrature"))
    monkeypatch.setattr(evolve, "_diagnostics_row",
                        tallied(evolve._diagnostics_row, per_row))
    monkeypatch.setattr(Stepper, "step", tallied(Stepper.step, per_step))
    cfg = Config(T=0.005, equation=equation, **CFG)
    run(cfg, context=(spec8, grid8))
    assert per_row == [{"transform": 1, "quadrature": 0}] * (cfg.n_steps + 1)
    per_transform = 4 if equation == "cahn-hilliard" else 2
    assert per_step == [{"transform": per_transform, "quadrature": 0}] * cfg.n_steps


@pytest.fixture(scope="module")
def default_context():
    cs = make_circle(2.0 * np.pi, max_mode=32)
    spec = build_extension(cs, default_weight(cs), 2.0)
    return spec, ConeGrid(cs, 12.0, 600, j_max=32)


def _traced_fields(fn, grid):
    """(kept, peak) traced allocations of fn(), in coefficient-field arrays of grid.

    kept is what is still allocated while fn's result is alive.
    """
    fn()                                        # fill the grid's caches
    tracemalloc.start()
    try:
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    field = 8 * grid.n_nodes * grid.n_channels
    return kept / field, peak / field


def _peak_fields(fn, grid):
    """Peak traced allocation of fn(), in coefficient-field arrays of grid."""
    return _traced_fields(fn, grid)[1]


def test_stepper_build_peak_allocation(default_context):
    # a deterministic bound in place of a timing, on the CLI-default grid:
    # every mode's band rows are alive at once, so a full-size temporary
    # on top of them would show
    spec, grid = default_context
    assert _peak_fields(lambda: Stepper(spec, grid, 1e-3), grid) <= 11.0


def test_stepper_live_size(default_context):
    # a built Stepper keeps its LU factors (about 3.5 fields here), one
    # diagonal per channel, two stencil columns and per-mode row scales;
    # the per-channel copies of the stencil and row scales took 7.85
    spec, grid = default_context
    assert _traced_fields(lambda: Stepper(spec, grid, 1e-3), grid)[0] <= 6.5


def test_stepper_live_size_on_a_fresh_wide_grid():
    # on the benchmark's large grid a Stepper also builds the grid's
    # transform plan; its FFT path keeps no synthesis matrix, which took
    # 0.45 fields of the 5.77 kept
    cs = make_circle(2.0 * np.pi, max_mode=128)
    spec = build_extension(cs, default_weight(cs), 2.0)
    grid = ConeGrid(cs, 12.0, 1200, j_max=128)
    kept, _ = _traced_fields(
        lambda: Stepper(spec, ConeGrid(cs, 12.0, 1200, j_max=128), 1e-3), grid)
    assert kept <= 5.4


def test_conserved_step_peak_allocation(default_context):
    # a step synthesises its values and angular derivative (two padded-grid
    # arrays), then forms 3 u_n^2, the radial midpoints and the fluxes a
    # row block at a time and writes the divergence over the values; their
    # full-height arrays took 10.3 fields beyond the two synthesised ones
    spec, grid = default_context
    stepper = Stepper(spec, grid, 1e-3)
    u = initial_state(Config(), grid)
    synthesised = 2 * stepper.plan.m / grid.n_channels
    assert _peak_fields(lambda: stepper.step(u), grid) <= 8.0 + synthesised


def test_laplace_peak_allocation(default_context):
    # the stencil's three products go into the result and one scratch
    # array: a call allocates about two fields
    spec, grid = default_context
    stepper = Stepper(spec, grid, 1e-3)
    co = np.random.default_rng(6).normal(size=(grid.n_nodes, grid.n_channels))
    assert _peak_fields(lambda: stepper.laplace(co), grid) <= 2.1


def test_diagnostics_row_peak_allocation(default_context):
    # the row holds u's padded-grid values (about 2 fields at j_max = 32)
    # and two fields for the gradient pairing; projecting the pairing to
    # modes and back took 8.2 fields, and this must not grow
    spec, grid = default_context
    rng = np.random.default_rng(4)
    u = FieldState(grid, rng.normal(size=(grid.n_nodes, grid.n_channels)))
    assert _peak_fields(lambda: evolve._diagnostics_row(u, 0, spec), grid) <= 7.5


# conelab raises glibc's mmap and trim thresholds at import, so a warm run
# reuses the heap blocks its freed temporaries left behind.  A fresh
# process measures it: the allocator state the other tests leave behind
# would hide a regression.  At glibc's default thresholds the second run
# took about 5 340 minor faults; with the raised ones it takes 13 to 16,
# so the bound sits about 18x from either
FAULTS_MAX = 300
_FAULTS_SCRIPT = """
import resource
from conelab import Config, run
cfg = Config(T=0.01)
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run(cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc",
                    reason="the allocator thresholds are set on glibc only")
def test_warm_run_takes_few_page_faults(src_env):
    done = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT], env=src_env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) <= FAULTS_MAX


def test_run_rejects_state_from_another_grid(cs8, grid8, spec8):
    cfg = Config(T=0.005, dt=1e-3, **CFG)
    u0 = initial_state(cfg, grid8)
    with pytest.raises(ValueError):
        run(cfg, initial=u0)  # same layout, but not the run's own grid
    snaps, _ = run(cfg, initial=u0, context=(spec8, grid8))
    assert snaps[-1].time == pytest.approx(0.005)


def test_run_measures_any_initial_state_with_its_spec():
    # a state carries no weight: a plain FieldState holding initial_state's
    # coefficients gives the same run, and every snapshot is measured with
    # the spec's gamma and p
    cfg = Config(p=3.0, j_max=8, t_max=3.0, T=0.003)
    spec, grid = cfg.context()
    seeded = initial_state(cfg, grid)
    runs = [run(cfg, initial=u, context=(spec, grid))
            for u in (seeded, FieldState(grid, seeded.coeffs.copy()))]
    (snaps, rows), (plain_snaps, plain_rows) = runs
    assert [{k: float(v).hex() for k, v in r.items()} for r in rows] == \
        [{k: float(v).hex() for k, v in r.items()} for r in plain_rows]
    assert [(s.time, s.coeffs.tobytes()) for s in snaps] == \
        [(s.time, s.coeffs.tobytes()) for s in plain_snaps]
    row_at = {row["time"]: row for row in rows}
    for snap in snaps + plain_snaps:
        assert mellin_norm(snap, 2, spec.gamma, spec.p) == row_at[snap.time]["norm2"]


@pytest.mark.parametrize("equation", ["cahn-hilliard", "allen-cahn"])
def test_default_step_is_one_solve_per_mode(monkeypatch, grid8, spec8, equation):
    # the linearly implicit step: one flux_divergence in the conserved
    # flow, none in the relaxational one, and one LAPACK solve per mode,
    # counted where banded_solve calls the binding
    routine = "_dgbtrs" if equation == "cahn-hilliard" else "_dgttrs"
    calls = {"flux_divergence": 0, routine: 0}

    def counted(name):
        fn = getattr(evolve, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(evolve, name, wrapper)

    counted("flux_divergence")
    counted(routine)
    u0 = initial_state(Config(equation=equation, **CFG), grid8)
    Stepper(spec8, grid8, 1e-3, equation).step(u0, f=double_well)
    assert calls == {"flux_divergence": int(equation == "cahn-hilliard"),
                     routine: grid8.j_max + 1}


@pytest.mark.parametrize("diagnostics", [True, False])
@pytest.mark.parametrize("dt", [0.1, 1.0, 10.0])
def test_one_sweep_blow_up_raises(grid8, spec8, dt, diagnostics):
    # from amplitude-50 data a step may return a huge but finite field;
    # its diagnostics row or a later step must then raise, without a
    # NumPy warning, rather than the run return a field
    cfg = Config(seed=3, ic_amplitude=50.0, ic_modes=5, dt=dt, T=10 * dt, **CFG)
    with pytest.raises(LinAlgError):
        run(cfg, context=(spec8, grid8), diagnostics=diagnostics)


def test_wellposedness_smoke(grid8, spec8):
    # continuous dependence: perturbing the data by delta moves the end
    # state by a gap linear in delta, and delta = 0 changes no bit
    cfg = Config(T=0.01, dt=1e-3, seed=7, ic_amplitude=0.03, **CFG)
    u0 = initial_state(cfg, grid8)
    bump = evolve._bump_envelope(grid8.t)

    def end_gap(delta):
        pert = u0.copy()
        pert.coeffs[:, grid8.channel_index(0, 0)] += delta * bump
        pair = [run(cfg, initial=v, context=(spec8, grid8), diagnostics=False)[0][-1]
                for v in (u0, pert)]
        return float(np.max(np.abs(pair[1].coeffs - pair[0].coeffs)))

    assert end_gap(0.0) == 0.0
    assert end_gap(1e-4) / 1e-4 == pytest.approx(end_gap(1e-5) / 1e-5, rel=0.02)


def test_a_run_builds_one_stencil(monkeypatch):
    # the compatibility check reads the tip ratios of the run's Stepper
    built = []
    init = assembly.RadialOperator.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(assembly.RadialOperator, "__init__", counted)
    run(Config(j_max=8, t_max=3.0, T=0.005))
    assert len(built) == 1


def test_a_config_builds_one_cross_section(monkeypatch):
    # coupled_errors checks a given gamma on the cross-section that
    # context() builds the extension on, so its poles are computed once
    calls = []
    roots = cone_symbol._mode_roots

    def counted(cs, j):
        calls.append(j)
        return roots(cs, j)

    monkeypatch.setattr(cone_symbol, "_mode_roots", counted)
    cfg = Config(gamma=-0.5)
    spec, grid = cfg.context()
    assert len(calls) == 33
    assert spec.cs is grid.cs is cfg.cross_section()


def _run_bits(result):
    snaps, rows = result
    return ([(s.time, s.coeffs.tobytes()) for s in snaps],
            [np.array(list(row.values()), dtype=float).tobytes() for row in rows])


def test_run_refuses_a_sphere_before_any_step(monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("run built a Stepper for a sphere")

    monkeypatch.setattr(evolve, "Stepper", built)
    cfg = Config(geometry="sphere", n=2, j_max=4, t_max=3.0, T=0.005)
    with pytest.raises(ValueError, match="circle cross-sections only"):
        run(cfg)


@pytest.mark.parametrize("source", ["run-config", "parsed-with-gamma"])
def test_run_builds_the_context_of_config_context(source, tmp_path):
    if source == "run-config":
        cfg = Config(j_max=8, t_max=3.0, T=0.005)
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"j_max": 8, "t_max": 3.0, "T": 0.005,
                                    "gamma": -0.25}))
        cfg = parse_config(str(path))
        assert cfg.gamma == -0.25
    assert _run_bits(run(cfg)) == _run_bits(run(cfg, context=cfg.context()))
