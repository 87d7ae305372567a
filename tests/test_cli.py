import json
import subprocess
import sys

import numpy as np
import pytest

from conelab import Config, config, constant_state, evolve
from conelab.cli import ConfigError, dispatch, main, parse_config

FAST = {"t_max": 3.0, "j_max": 8, "T": 0.02}


def _write_cfg(tmp_path, name="cfg.json", **overrides):
    body = dict(FAST)
    body.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def test_parse_config_defaults():
    cfg = parse_config(None)
    assert cfg.gamma is None and cfg.p == 2.0
    assert cfg.lab_mu == (10.0, 100.0, 1000.0)
    assert cfg.geometry == "circle" and cfg.j_max == 32
    assert isinstance(cfg, Config)


# the CLI contract: every key with its default, and one bad value per key
# with its exact message (integer keys: a type case and a range case)
SCHEMA_DEFAULTS = {
    "geometry": "circle", "L": 2.0 * np.pi, "n": 2, "gamma": None, "p": 2.0,
    "j_max": 32, "t_max": 12.0, "delta_t": 0.02, "equation": "cahn-hilliard",
    "dt": 1e-3, "T": 0.05, "seed": 7,
    "ic_kind": "bump", "ic_amplitude": 0.03, "ic_modes": 3, "ic_value": 0.0,
    "snapshot_every": 10, "norms_k_max": 2, "fit_tol": 0.05, "lab_mode": 0,
    "lab_t_max": 1.0, "lab_n_radial": 20, "lab_shift": 10.0,
    "lab_theta": 0.5 * np.pi, "lab_contour_theta": 0.75 * np.pi,
    "lab_beta": 0.5, "lab_phi": 0.0, "lab_samples": 200,
    "lab_mu": (10.0, 100.0, 1000.0),
}

SCHEMA_ERRORS = [
    ("geometry", "torus", "expected 'circle' or 'sphere'"),
    ("L", 0, "expected a positive number"),
    ("n", 2.5, "expected an integer"),
    ("n", 1, "sphere dimension must be >= 2"),
    ("gamma", "x", "expected a number or null"),
    ("p", 0.5, "expected a number >= 1"),
    ("j_max", "8", "expected an integer"),
    ("j_max", 0, "need at least one nonzero mode"),
    ("t_max", -1, "expected a positive number"),
    ("delta_t", 0, "expected a positive number"),
    ("equation", "ginzburg-landau", "expected 'cahn-hilliard' or 'allen-cahn'"),
    ("dt", -1e-3, "expected a positive number"),
    ("T", 0, "expected a positive number"),
    ("seed", True, "expected an integer"),
    ("seed", -1, "must be >= 0"),
    ("ic_kind", "plume", "expected 'bump', 'zero', or 'constant'"),
    ("ic_amplitude", "big", "expected a number"),
    ("ic_modes", None, "expected an integer"),
    ("ic_modes", -1, "must be >= 0"),
    ("ic_value", True, "expected a number"),
    ("snapshot_every", 2.0, "expected an integer"),
    ("snapshot_every", 0, "must be >= 1"),
    ("norms_k_max", [], "expected an integer"),
    ("norms_k_max", 5, "derivative order must lie in 0..4"),
    ("fit_tol", -0.1, "expected a positive number"),
    ("lab_mode", "0", "expected an integer"),
    ("lab_mode", -1, "must be >= 0"),
    ("lab_t_max", 0, "expected a positive number"),
    ("lab_n_radial", 20.5, "expected an integer"),
    ("lab_n_radial", 7, "need at least 8 radial intervals"),
    ("lab_shift", -10, "expected a positive number"),
    ("lab_theta", 3.2, "expected an angle in [0, pi)"),
    ("lab_contour_theta", -0.1, "expected an angle in [0, pi)"),
    ("lab_beta", 1, "expected a number in (0, 1)"),
    ("lab_phi", None, "expected a number"),
    ("lab_samples", 1e3, "expected an integer"),
    ("lab_samples", 0, "must be >= 1"),
    ("lab_mu", [10, -1], "expected a nonempty list of positive numbers"),
]


@pytest.mark.parametrize("key", sorted(SCHEMA_DEFAULTS))
def test_schema_default(key):
    cfg = parse_config(None)
    assert sorted(vars(cfg)) == sorted(SCHEMA_DEFAULTS)
    assert getattr(cfg, key) == SCHEMA_DEFAULTS[key]
    assert type(getattr(cfg, key)) is type(SCHEMA_DEFAULTS[key])


@pytest.mark.parametrize("key,value,message", SCHEMA_ERRORS)
def test_schema_error(tmp_path, key, value, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value}))
    with pytest.raises(ConfigError) as exc:
        parse_config(str(path))
    assert str(exc.value) == f"/{key}: {message}"


def test_schema_covers_every_key():
    assert sorted({key for key, _, _ in SCHEMA_ERRORS}) == sorted(SCHEMA_DEFAULTS)


def test_schema_file_errors(tmp_path):
    with pytest.raises(ConfigError, match=r"^/: cannot read config file \("):
        parse_config(str(tmp_path / "missing.json"))
    for text, message in (("{bad", r"^/: config is not valid JSON \("),
                          ("[1, 2]", "^/: config must be a JSON object$"),
                          ("null", "^/: config must be a JSON object$")):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            parse_config(str(path))


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_bytes(b'{"t_max": "\xff"}')
    with pytest.raises(ConfigError, match=r"^/: config file is not UTF-8 \("):
        parse_config(str(path))
    assert main(["poles", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error:\n/: config file is not UTF-8 (")


def test_schema_matches_library_defaults():
    assert vars(parse_config(None)) == vars(Config()) == config.DEFAULTS


def test_schema_serves_the_benchmark_calls(tmp_path):
    # bench/workloads.py constructs evolve.RunConfig and reads circumference
    # and to_run_config(); the three names are the one Config
    assert evolve.RunConfig is Config
    cfg = parse_config(_write_cfg(tmp_path, gamma=-0.25))
    assert cfg.to_run_config() is cfg
    cfg = parse_config(None)
    assert (cfg.equation, cfg.L, cfg.fit_tol) == ("cahn-hilliard", 2.0 * np.pi, 0.05)
    run_cfg = evolve.RunConfig(seed=7, j_max=128, delta_t=0.01, T=0.01)
    assert (run_cfg.circumference, run_cfg.gamma, run_cfg.p) == (2.0 * np.pi, None, 2.0)
    assert (run_cfg.n_radial, run_cfg.n_steps) == (1200, 10)
    # and passes picard_iters and picard_tol on to Stepper: fixed values,
    # which no config sets and Stepper refuses to take otherwise
    assert (run_cfg.picard_iters, run_cfg.picard_tol) == (1, 1e-10)
    assert not {"picard_iters", "picard_tol"} & (set(vars(run_cfg)) | set(config.KEYS))
    with pytest.raises(AttributeError):
        run_cfg.picard_iters = 8
    with pytest.raises(ConfigError, match="^/picard_iters: unknown key$"):
        Config(picard_iters=8)
    spec, grid = Config(j_max=4, t_max=3.0, delta_t=0.1).context()
    st = evolve.Stepper(spec, grid, 1e-3, "cahn-hilliard", 1, 1e-10)
    assert not hasattr(st, "picard_iters")
    for extra in [(8, 1e-10), (1, 1e-30), (1,), (1, 1e-10, 0)]:
        with pytest.raises(ValueError, match="at most the values"):
            evolve.Stepper(spec, grid, 1e-3, "cahn-hilliard", *extra)
    # and passes the run's gamma and p to constant_state, which no state
    # carries: they change nothing, and no other keyword is taken
    for v in (0.0, 1.0, -1.0):
        assert (constant_state(grid, v, gamma=spec.gamma, p=spec.p).coeffs.tobytes()
                == constant_state(grid, v).coeffs.tobytes())
    with pytest.raises(TypeError):
        constant_state(grid, 1.0, seed=1)


def test_parse_config_reads_overrides(tmp_path):
    cfg = parse_config(_write_cfg(tmp_path, gamma=-0.25, seed=3))
    assert cfg.t_max == 3.0 and cfg.j_max == 8
    assert cfg.gamma == -0.25 and cfg.seed == 3


def test_parse_config_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match=r"/gamma_weight: unknown key"):
        parse_config(_write_cfg(tmp_path, gamma_weight=0.5))


def test_parse_config_type_errors_sorted(tmp_path):
    path = _write_cfg(tmp_path, t_max="tall", seed=2.5, ic_kind=7)
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    lines = str(exc.value).splitlines()
    assert lines == sorted(lines) and len(lines) == 3
    assert any(line.startswith("/t_max:") for line in lines)
    assert any(line.startswith("/seed:") for line in lines)


def test_parse_config_gamma_window(tmp_path):
    with pytest.raises(ConfigError, match=r"/gamma: 0\.5 outside the admissible"):
        parse_config(_write_cfg(tmp_path, gamma=0.5))
    # endpoints excluded: the edge weight is as bad as an outside one
    with pytest.raises(ConfigError, match="/gamma"):
        parse_config(_write_cfg(tmp_path, gamma=0.0))


def test_parse_config_coupled_checks(tmp_path):
    with pytest.raises(ConfigError, match="/dt"):
        parse_config(_write_cfg(tmp_path, dt=0.5, T=0.05))
    with pytest.raises(ConfigError, match="^/dt: must divide the horizon T$"):
        parse_config(_write_cfg(tmp_path, dt=0.003, T=0.05))
    assert parse_config(_write_cfg(tmp_path, dt=0.0025, T=0.05)).dt == 0.0025
    with pytest.raises(ConfigError, match="/delta_t"):
        parse_config(_write_cfg(tmp_path, delta_t=0.7))
    # quotients that overflow to inf divide nothing, from a file or keywords
    for overflow, message in (({"t_max": 1e308, "delta_t": 1e-10},
                               "/delta_t: must divide t_max into >= 8 intervals"),
                              ({"T": 1e300, "dt": 1e-300},
                               "/dt: must divide the horizon T")):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(_write_cfg(tmp_path, **overflow))
        with pytest.raises(ConfigError, match=f"^{message}$"):
            Config(**overflow)
    with pytest.raises(ConfigError, match="/: config must be a JSON object"):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        parse_config(str(path))


def test_poles_and_domain_outputs(tmp_path):
    cfg = parse_config(_write_cfg(tmp_path))
    out = tmp_path / "o1"
    assert dispatch("poles", cfg, str(out)) == 0
    poles = json.loads((out / "poles.json").read_text())
    mode1 = sorted(e["rho"] for e in poles["laplacian"] if e["mode"] == 1)
    assert mode1 == [-1.0, 1.0]
    assert all(e["order"] == 1 for e in poles["laplacian"] if e["mode"] > 0)
    assert dispatch("domain", cfg, str(out)) == 0
    dom = json.loads((out / "domain.json").read_text())
    assert dom["gamma"] == -0.5
    assert len(dom["fourth_order_addons"]) == 4
    assert dom["J"] == [-2.5, -0.5]


def test_simulate_outputs_and_determinism(tmp_path):
    cfg = parse_config(_write_cfg(tmp_path))
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert dispatch("simulate", cfg, str(out1)) == 0
    assert dispatch("simulate", cfg, str(out2)) == 0
    diag = (out1 / "diagnostics.csv").read_text()
    header = diag.splitlines()[0]
    assert header == "step,time,mass,energy,supnorm,norm0,norm2"
    assert len(diag.splitlines()) == 22  # header + 21 steps
    snap = (out1 / "snapshots" / "snap_0000.csv").read_text()
    assert snap.startswith("# ")
    meta = json.loads(snap.splitlines()[0][2:])
    assert meta["time"] == 0.0
    assert snap.splitlines()[1] == "t_node,mode,branch,coefficient"
    # reruns are byte-identical
    assert diag == (out2 / "diagnostics.csv").read_text()
    names = sorted(p.name for p in (out1 / "snapshots").iterdir())
    assert names[0] == "snap_0000.csv"
    for name in names:
        a = (out1 / "snapshots" / name).read_bytes()
        b = (out2 / "snapshots" / name).read_bytes()
        assert a == b


def test_norms_lab_asympt_outputs(tmp_path):
    cfg = parse_config(_write_cfg(tmp_path))
    out = tmp_path / "o2"
    assert dispatch("norms", cfg, str(out)) == 0
    norms = (out / "norms.csv").read_text().splitlines()
    assert norms[0] == "time,k,gamma,p,value"
    assert dispatch("lab", cfg, str(out)) == 0
    lab = json.loads((out / "lab.json").read_text())
    assert lab["square_identity_dev"] < 1e-8
    assert dispatch("asympt", cfg, str(out)) == 0
    rows = (out / "asympt.csv").read_text().splitlines()
    assert rows[0].startswith("mode,")
    assert len(rows) == cfg.j_max + 2


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_norms_csv_takes_the_runs_p(tmp_path, p):
    # norms.csv and diagnostics.csv evaluate the order-0 and order-2 norms
    # of the same states at the run's p, so their text agrees
    cfg = parse_config(_write_cfg(tmp_path, p=p))
    assert dispatch("simulate", cfg, str(tmp_path)) == 0
    assert dispatch("norms", cfg, str(tmp_path)) == 0
    diag = {}
    for line in (tmp_path / "diagnostics.csv").read_text().splitlines()[1:]:
        row = line.split(",")
        diag[row[1]] = {"0": row[5], "2": row[6]}
    checked = 0
    for line in (tmp_path / "norms.csv").read_text().splitlines()[1:]:
        time, k, _, p_text, value = line.split(",")
        assert float(p_text) == p
        if k in ("0", "2"):
            assert value == diag[time][k], (time, k)
            checked += 1
    assert checked == 2 * len(list((tmp_path / "snapshots").iterdir()))


def test_sphere_commands_and_circle_guard(tmp_path):
    cfg = parse_config(_write_cfg(tmp_path, geometry="sphere", n=2))
    out = tmp_path / "o3"
    assert dispatch("poles", cfg, str(out)) == 0
    poles = json.loads((out / "poles.json").read_text())
    assert poles["geometry"] == "sphere"
    # dynamics (and the other radial commands) require the circle section
    assert dispatch("simulate", cfg, str(out)) == 1


def test_sphere_poles_follow_j_max(tmp_path):
    cfg = parse_config(_write_cfg(tmp_path, geometry="sphere", n=2, j_max=20))
    out = tmp_path / "o5"
    assert dispatch("poles", cfg, str(out)) == 0
    poles = json.loads((out / "poles.json").read_text())
    for catalog in ("laplacian", "bilaplacian"):
        assert max(e["mode"] for e in poles[catalog]) == 20


def test_python_m_conelab_runs_without_warnings(tmp_path, src_env):
    done = subprocess.run([sys.executable, "-W", "error", "-m", "conelab", "poles",
                           "--out", str(tmp_path)], env=src_env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stderr == ""
    assert (tmp_path / "poles.json").is_file()


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"t_max": -1.0}))
    assert main(["poles", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:\n/t_max:")
    # caught at parse time, so commands that never step refuse it too
    uneven = _write_cfg(tmp_path, "uneven.json", dt=0.003)
    assert main(["poles", "--config", uneven]) == 1
    assert capsys.readouterr().err == "config error:\n/dt: must divide the horizon T\n"
    ok = _write_cfg(tmp_path)
    assert main(["poles", "--config", ok, "--out", str(tmp_path / "o4")]) == 0
    # a numerical failure is exit 2, not a config error
    huge = _write_cfg(tmp_path, "huge.json", j_max=4, T=0.002, ic_amplitude=1e60)
    assert main(["simulate", "--config", huge, "--out", str(tmp_path / "o8")]) == 2
    assert capsys.readouterr().err == "error: diagnostics row of step 1 is not finite\n"
    # a config that sets a removed key is a config error
    old = _write_cfg(tmp_path, "old.json", picard_iters=2)
    assert main(["simulate", "--config", old, "--out", str(tmp_path / "o9")]) == 1
    assert capsys.readouterr().err == "config error:\n/picard_iters: unknown key\n"
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_a_grid_that_cuts_the_bump_is_a_t_max_error(tmp_path, capsys, monkeypatch):
    # the bump lives on 1 < t < 3; a shorter grid is refused before any
    # stepper is built, and a run without the bump still runs on it
    built = []
    stepper = evolve.Stepper

    def counted(*args, **kwargs):
        built.append(args)
        return stepper(*args, **kwargs)

    monkeypatch.setattr(evolve, "Stepper", counted)
    cut = tmp_path / "cut.json"
    cut.write_text(json.dumps({"t_max": 2.0}))
    assert main(["simulate", "--config", str(cut), "--out", str(tmp_path / "o1")]) == 1
    assert capsys.readouterr().err == (
        "error: /t_max: the bump initial data lives on 1 < t < 3, "
        "so it needs t_max >= 3, not 2\n")
    assert built == []
    for i, body in enumerate([{"t_max": 2.0, "ic_kind": "zero"}, {"t_max": 3.0}]):
        path = tmp_path / f"runs{i}.json"
        path.write_text(json.dumps(body))
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / f"o{i + 2}")]) == 0
    assert len(built) == 2


def test_weight_on_a_pole_line_is_a_config_error(tmp_path, capsys):
    # L = 5 pi / 2: gamma = -0.6 puts q_2^+ = 1.6 on the upper line of I_gamma
    given = tmp_path / "given.json"
    given.write_text(json.dumps({"L": 7.853981633974483, "gamma": -0.6}))
    message = r"^/gamma: pole at 1\.6\d* \(mode 2\) collides .* for gamma = -0\.6$"
    with pytest.raises(ConfigError, match=message):
        parse_config(str(given))
    assert main(["poles", "--config", str(given), "--out", str(tmp_path / "o1")]) == 1
    assert capsys.readouterr().err.startswith("config error:\n/gamma: pole at 1.6")
    # the window's midpoint -1/3 of L = 3 pi / 2 is such a weight, but the
    # default steps off it
    default = tmp_path / "default.json"
    default.write_text(json.dumps({"L": 4.71238898038469}))
    assert main(["domain", "--config", str(default), "--out", str(tmp_path / "o2")]) == 0
    assert json.loads((tmp_path / "o2" / "domain.json").read_text())["gamma"] == -2 / 3


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_default_weight_off_a_pole_line_runs(tmp_path, k):
    # L = (2k+1) pi / 2 with no gamma given: domain and a short simulate exit 0
    path = _write_cfg(tmp_path, L=(2 * k + 1) * np.pi / 2, j_max=4, T=0.002)
    for command in ("domain", "simulate"):
        assert main([command, "--config", path, "--out", str(tmp_path / command)]) == 0


def test_default_weight_off_j_lower_line_runs(tmp_path):
    # L = 2 pi / 3: the window's midpoint 0 puts q_1^- = -3 on J's lower
    # line (n+1)/2 - gamma - 4, which used to end in exit 2
    path = _write_cfg(tmp_path, L=2.0943951023931953, j_max=4, T=0.002)
    for command in ("domain", "simulate"):
        assert main([command, "--config", path, "--out", str(tmp_path / command)]) == 0
    assert json.loads((tmp_path / "domain" / "domain.json").read_text())["gamma"] == -0.5


@pytest.mark.parametrize("command", ["norms", "asympt"])
def test_relaxational_overflow_is_a_numerical_failure(tmp_path, capsys, command):
    # with no diagnostics rows the step itself meets the overflowing cube
    path = _write_cfg(tmp_path, equation="allen-cahn", ic_amplitude=1e150)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: time step 1: field coefficients must be finite\n"


def test_lab_mode_must_not_exceed_j_max(tmp_path, capsys):
    at_default = tmp_path / "default.json"
    at_default.write_text(json.dumps({"lab_mode": 40}))     # j_max = 32
    for path in (_write_cfg(tmp_path, lab_mode=9), str(at_default)):
        with pytest.raises(ConfigError, match="^/lab_mode: must not exceed j_max$"):
            parse_config(path)
        assert main(["lab", "--config", path, "--out", str(tmp_path / "o6")]) == 1
        assert capsys.readouterr().err == "config error:\n/lab_mode: must not exceed j_max\n"
    edge = _write_cfg(tmp_path, "edge.json", lab_mode=8)
    assert main(["lab", "--config", edge, "--out", str(tmp_path / "o7")]) == 0
    assert json.loads((tmp_path / "o7" / "lab.json").read_text())["samples"]["mode"] == 8


@pytest.mark.parametrize("key,value", [("t_max", float("nan")),
                                       ("T", float("inf")),
                                       ("gamma", float("-inf")),
                                       ("ic_amplitude", float("nan"))])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, key, value):
    # json writes and reads NaN and Infinity; they must not reach round()
    # or the stepping as floats that pass every range test
    path = _write_cfg(tmp_path, **{key: value})
    with pytest.raises(ConfigError, match=f"^/{key}: expected a finite number$"):
        parse_config(path)
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"config error:\n/{key}: expected a finite number\n"


@pytest.mark.parametrize("command", ["simulate", "norms", "asympt"])
def test_an_invocation_builds_its_circle_once(tmp_path, monkeypatch, command):
    # the parsed config is the run's config, so a given weight's check and
    # the run share one cross-section, and the run and its files one
    # extension spec
    calls = {"make_circle": 0, "build_extension": 0}
    for name in calls:
        original = getattr(config, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("conelab")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counted)
    path = _write_cfg(tmp_path, gamma=-0.25)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert calls == {"make_circle": 1, "build_extension": 1}


def test_an_unwritable_output_directory_is_an_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    for out in (taken, taken / "below"):
        assert main(["poles", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and str(taken) in err
        assert "Traceback" not in err and err.count("\n") == 1
    assert taken.read_text() == "a file, not a directory"
