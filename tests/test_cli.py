import json

import numpy as np
import pytest

from conelab.cli import CliConfig, ConfigError, dispatch, main, parse_config

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
    assert isinstance(cfg, CliConfig)


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
    with pytest.raises(SystemExit):
        main(["frobnicate"])
