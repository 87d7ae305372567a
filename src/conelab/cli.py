"""Command line front end: config ingestion, dispatch, deterministic files.

One flat JSON config drives every subcommand.  Its keys, with their
defaults and checks, are the table config.KEYS; parse_config reads a
file against it into a config.Config, which the simulating subcommands
pass to evolve.run as it is.  All emitted files are deterministic for a
fixed config (the simulation seed is part of the config): CSV with '.'
decimals, '\\n' line endings, a header row, and floats printed with 17
significant digits; JSON rendered by a fixed serializer with the same
float format.  Exit codes: 0 on success, 1 for a bad config or an
output directory that cannot be written, 2 for a numerical failure.
"""

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np
from numpy.linalg import LinAlgError

from .asymptotics import ZeroModeError, fit_exponents, match_catalog
from .cone_symbol import compute_bilaplacian_poles, compute_poles
from .config import Config, ConfigError
from .evolve import PicardDivergenceError, run
from .extensions import InconsistentDomainError
from .mellin import ConeGrid, mellin_norm
from .spectral_lab import lab_report


def parse_config(path: Optional[str]) -> Config:
    """Load, default, and validate a flat JSON config.

    Raises ConfigError listing every violation as /key: message.
    """
    data = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as f:
                raw = f.read()
        except OSError as e:
            raise ConfigError(f"/: cannot read config file ({e})")
        except UnicodeDecodeError as e:
            raise ConfigError(f"/: config file is not UTF-8 ({e})")
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as e:
            raise ConfigError(f"/: config is not valid JSON ({e})")
        if not isinstance(data, dict):
            raise ConfigError("/: config must be a JSON object")
    return Config(**data)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    if v is None:
        return ""
    return str(v)


def _ser(obj) -> str:
    """Fixed-format JSON: floats at 17 significant digits."""
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_ser(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_ser(v) for v in obj) + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            return json.dumps(x if np.isnan(x) else None)
        return "%.17g" % x
    if obj is None:
        return "null"
    return json.dumps(obj)


def _write_text(path: str, text: str):
    with open(path, "w", newline="\n") as f:
        f.write(text)


def _write_csv(path: str, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def _cmd_poles(cfg: Config, out: str) -> int:
    cs = cfg.cross_section()
    payload = {
        "geometry": cfg.geometry,
        "n": cs.n,
        "laplacian": compute_poles(cs).to_json_dict(),
        "bilaplacian": compute_bilaplacian_poles(cs).to_json_dict(),
    }
    if cfg.geometry == "circle":
        payload["circumference"] = cfg.L
    _write_text(os.path.join(out, "poles.json"), _ser(payload) + "\n")
    return 0


def _cmd_domain(cfg: Config, out: str) -> int:
    payload = {"geometry": cfg.geometry}
    payload.update(cfg.extension().to_json_dict())
    _write_text(os.path.join(out, "domain.json"), _ser(payload) + "\n")
    return 0


def _cmd_simulate(cfg: Config, out: str) -> int:
    snaps, diag = run(cfg)
    header = ("step", "time", "mass", "energy", "supnorm", "norm0", "norm2")
    rows = [[d[k] for k in header] for d in diag]
    _write_csv(os.path.join(out, "diagnostics.csv"), header, rows)
    snap_dir = os.path.join(out, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)
    template = _snapshot_template(snaps[0].grid)
    for i, snap in enumerate(snaps):
        _write_text(os.path.join(snap_dir, f"snap_{i:04d}.csv"),
                    _snapshot_text(snap, template))
    return 0


def _snapshot_template(grid) -> str:
    """The '%'-template of a snapshot's rows on grid, one per node and channel.

    The node and channel prefixes are filled in; each row leaves one
    "%.17g" for its coefficient, channel by channel.
    """
    t_nodes = ["%.17g" % t for t in grid.t.tolist()]
    return "".join(f"{t},{j},{k},%.17g\n" for j, k in grid.channels for t in t_nodes)


def _snapshot_text(snap, template: Optional[str] = None) -> str:
    """The snapshot CSV: a '# {meta}' line, a header, one row per node and channel.

    Floats use _fmt's "%.17g", so the bytes match the per-value format.
    template is _snapshot_template(snap.grid), built here when not given.
    """
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
    if template is None:
        template = _snapshot_template(grid)
    rows = template % tuple(snap.coeffs.T.ravel().tolist())
    return "# " + _ser(meta) + "\nt_node,mode,branch,coefficient\n" + rows


def _cmd_norms(cfg: Config, out: str) -> int:
    snaps, _ = run(cfg, diagnostics=False)
    rows = []
    for snap in snaps:
        for k in range(cfg.norms_k_max + 1):
            val = mellin_norm(snap, k)
            rows.append([snap.time, k, snap.gamma, snap.p, val])
    _write_csv(os.path.join(out, "norms.csv"),
               ("time", "k", "gamma", "p", "value"), rows)
    return 0


def _cmd_lab(cfg: Config, out: str) -> int:
    spec = cfg.extension()
    grid = ConeGrid(spec.cs, cfg.lab_t_max, cfg.lab_n_radial, j_max=max(cfg.lab_mode, 1))
    report = lab_report(grid, spec, mode=cfg.lab_mode, shift=cfg.lab_shift,
                        theta=cfg.lab_theta, contour_theta=cfg.lab_contour_theta,
                        beta=cfg.lab_beta, phi=cfg.lab_phi,
                        samples=cfg.lab_samples, mus=cfg.lab_mu)
    payload = {"geometry": cfg.geometry, "lab_t_max": cfg.lab_t_max,
               "lab_n_radial": cfg.lab_n_radial}
    payload.update(report.to_json_dict())
    _write_text(os.path.join(out, "lab.json"), _ser(payload) + "\n")
    return 0


def _cmd_asympt(cfg: Config, out: str) -> int:
    spec, grid = cfg.context()
    snaps, _ = run(cfg, context=(spec, grid), diagnostics=False)
    final = snaps[-1]
    rows = []
    for j in range(final.grid.j_max + 1):
        try:
            fit = fit_exponents(final, j)
        except ZeroModeError:
            rows.append([j, float("nan"), float("nan"), float("nan"),
                         float("nan"), float("nan"), "no-signal"])
            continue
        match = match_catalog(fit["a_hat"], spec, tol=cfg.fit_tol, mode=j)
        rows.append([j, fit["a_hat"], fit["log_coeff"], fit["residual"],
                     match["matched_exponent"], match["distance"],
                     match["verdict"]])
    _write_csv(os.path.join(out, "asympt.csv"),
               ("mode", "a_hat", "log_coeff", "residual",
                "matched_exponent", "distance", "verdict"), rows)
    return 0


_COMMANDS = {
    "poles": _cmd_poles,
    "domain": _cmd_domain,
    "norms": _cmd_norms,
    "simulate": _cmd_simulate,
    "lab": _cmd_lab,
    "asympt": _cmd_asympt,
}
# the radial dynamics need the circle's angular transform
_CIRCLE_ONLY = ("norms", "simulate", "lab", "asympt")


def dispatch(command: str, cfg: Config, out: str = ".") -> int:
    """Run one subcommand; 0 on success, 1 validation or output, 2 numerical."""
    try:
        os.makedirs(out, exist_ok=True)
        if command in _CIRCLE_ONLY and cfg.geometry != "circle":
            raise ConfigError(f"/geometry: '{command}' runs on circle "
                              "cross-sections only")
        return _COMMANDS[command](cfg, out)
    except (PicardDivergenceError, InconsistentDomainError, LinAlgError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:     # OSError: out cannot be written
        print(f"error: {e}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="conelab",
        description="Cone-singularity phase-field toolbox")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None,
                        help="flat JSON config file (defaults apply)")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except ConfigError as e:
        print(f"config error:\n{e}", file=sys.stderr)
        return 1
    return dispatch(args.command, cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())
