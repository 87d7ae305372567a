"""Command line front end: config ingestion, dispatch, deterministic files.

One flat JSON config drives every subcommand.  All emitted files are
deterministic for a fixed config (the simulation seed is part of the
config): CSV with '.' decimals, '\\n' line endings, a header row, and
floats printed with 17 significant digits; JSON rendered by a fixed
serializer with the same float format.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

import numpy as np

from .asymptotics import ZeroModeError, fit_exponents, match_catalog
from .cone_symbol import compute_bilaplacian_poles, compute_poles
from .cross_section import make_circle, make_sphere
from .evolve import (PicardDivergenceError, RunConfig, radial_intervals, run,
                     time_steps)
from .extensions import (InconsistentDomainError, admissible_window,
                         build_extension, default_weight)
from .mellin import ConeGrid, mellin_norm
from .spectral_lab import lab_report


class ConfigError(ValueError):
    """Schema violation; the message lists JSON-pointer style paths."""


_DEFAULTS = {
    "geometry": "circle",
    "L": 2.0 * np.pi,
    "n": 2,
    "gamma": None,
    "p": 2.0,
    "j_max": 32,
    "t_max": 12.0,
    "delta_t": 0.02,
    "equation": "cahn-hilliard",
    "dt": 1e-3,
    "T": 0.05,
    "picard_iters": 8,
    "picard_tol": 1e-10,
    "seed": 7,
    "ic_kind": "bump",
    "ic_amplitude": 0.03,
    "ic_modes": 3,
    "ic_value": 0.0,
    "snapshot_every": 10,
    "norms_k_max": 2,
    "fit_tol": 0.05,
    "lab_mode": 0,
    "lab_t_max": 1.0,
    "lab_n_radial": 20,
    "lab_shift": 10.0,
    "lab_theta": 0.5 * np.pi,
    "lab_contour_theta": 0.75 * np.pi,
    "lab_beta": 0.5,
    "lab_phi": 0.0,
    "lab_samples": 200,
    "lab_mu": (10.0, 100.0, 1000.0),
}


@dataclass
class CliConfig:
    """Fully defaulted, validated configuration (the parse-time echo)."""

    geometry: str
    L: float
    n: int
    gamma: Optional[float]
    p: float
    j_max: int
    t_max: float
    delta_t: float
    equation: str
    dt: float
    T: float
    picard_iters: int
    picard_tol: float
    seed: int
    ic_kind: str
    ic_amplitude: float
    ic_modes: int
    ic_value: float
    snapshot_every: int
    norms_k_max: int
    fit_tol: float
    lab_mode: int
    lab_t_max: float
    lab_n_radial: int
    lab_shift: float
    lab_theta: float
    lab_contour_theta: float
    lab_beta: float
    lab_phi: float
    lab_samples: int
    lab_mu: tuple

    def to_run_config(self) -> RunConfig:
        return RunConfig(
            circumference=self.L, j_max=self.j_max, t_max=self.t_max,
            delta_t=self.delta_t, gamma=self.gamma, p=self.p,
            equation=self.equation, dt=self.dt, T=self.T,
            picard_iters=self.picard_iters, picard_tol=self.picard_tol,
            seed=self.seed, ic_kind=self.ic_kind,
            ic_amplitude=self.ic_amplitude, ic_modes=self.ic_modes,
            ic_value=self.ic_value, snapshot_every=self.snapshot_every)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _validate(key: str, v, errors: list):
    if key == "geometry":
        if v not in ("circle", "sphere"):
            errors.append(f"/{key}: expected 'circle' or 'sphere'")
    elif key == "equation":
        if v not in ("cahn-hilliard", "allen-cahn"):
            errors.append(f"/{key}: expected 'cahn-hilliard' or 'allen-cahn'")
    elif key == "ic_kind":
        if v not in ("bump", "zero", "constant"):
            errors.append(f"/{key}: expected 'bump', 'zero', or 'constant'")
    elif key == "gamma":
        if v is not None and not _is_number(v):
            errors.append(f"/{key}: expected a number or null")
    elif key == "lab_mu":
        if (not isinstance(v, (list, tuple)) or not v
                or not all(_is_number(x) and x > 0 for x in v)):
            errors.append(f"/{key}: expected a nonempty list of positive numbers")
    elif key in ("n", "j_max", "picard_iters", "seed", "ic_modes",
                 "snapshot_every", "norms_k_max", "lab_mode",
                 "lab_n_radial", "lab_samples"):
        if not _is_int(v):
            errors.append(f"/{key}: expected an integer")
        elif key == "n" and v < 2:
            errors.append(f"/{key}: sphere dimension must be >= 2")
        elif key == "j_max" and v < 1:
            errors.append(f"/{key}: need at least one nonzero mode")
        elif key == "norms_k_max" and not 0 <= v <= 4:
            errors.append(f"/{key}: derivative order must lie in 0..4")
        elif key in ("picard_iters", "snapshot_every", "lab_samples") and v < 1:
            errors.append(f"/{key}: must be >= 1")
        elif key in ("ic_modes", "lab_mode", "seed") and v < 0:
            errors.append(f"/{key}: must be >= 0")
        elif key == "lab_n_radial" and v < 8:
            errors.append(f"/{key}: need at least 8 radial intervals")
    elif key in ("ic_amplitude", "ic_value", "lab_phi"):
        if not _is_number(v):
            errors.append(f"/{key}: expected a number")
    elif key == "fit_tol":
        if not _is_number(v) or v <= 0:
            errors.append(f"/{key}: expected a positive number")
    elif key in ("lab_theta", "lab_contour_theta"):
        if not _is_number(v) or not 0 <= v < np.pi:
            errors.append(f"/{key}: expected an angle in [0, pi)")
    elif key == "lab_beta":
        if not _is_number(v) or not 0 < v < 1:
            errors.append(f"/{key}: expected a number in (0, 1)")
    elif key == "p":
        if not _is_number(v) or v < 1:
            errors.append(f"/{key}: expected a number >= 1")
    else:
        if not _is_number(v) or v <= 0:
            errors.append(f"/{key}: expected a positive number")


def parse_config(path: Optional[str]) -> CliConfig:
    """Load, default, and validate a flat JSON config.

    Raises ConfigError listing every violation as /key: message.
    """
    data = {}
    if path is not None:
        try:
            with open(path, "r") as f:
                raw = f.read()
        except OSError as e:
            raise ConfigError(f"/: cannot read config file ({e})")
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as e:
            raise ConfigError(f"/: config is not valid JSON ({e})")
        if not isinstance(data, dict):
            raise ConfigError("/: config must be a JSON object")
    errors = []
    for key in data:
        if key not in _DEFAULTS:
            errors.append(f"/{key}: unknown key")
    merged = dict(_DEFAULTS)
    for key, v in data.items():
        if key in _DEFAULTS:
            merged[key] = v
    for key, v in merged.items():
        _validate(key, v, errors)
    if errors:
        raise ConfigError("\n".join(sorted(errors)))
    if isinstance(merged["lab_mu"], list):
        merged["lab_mu"] = tuple(float(x) for x in merged["lab_mu"])
    cfg = CliConfig(**merged)
    if not cfg.dt < cfg.T:
        errors.append("/dt: must be smaller than the horizon T")
    elif time_steps(cfg.T, cfg.dt) < 1:
        errors.append("/dt: must divide the horizon T")
    if radial_intervals(cfg.t_max, cfg.delta_t) < 8:
        errors.append("/delta_t: must divide t_max into >= 8 intervals")
    if cfg.gamma is not None:
        cs = _cross_section(cfg)
        lo, hi = admissible_window(cs)
        if not lo < cfg.gamma < hi:
            errors.append(f"/gamma: {cfg.gamma} outside the admissible "
                          f"weight window ({lo:.6g}, {hi:.6g})")
    if errors:
        raise ConfigError("\n".join(sorted(errors)))
    return cfg


def _cross_section(cfg: CliConfig):
    if cfg.geometry == "circle":
        return make_circle(cfg.L, max_mode=cfg.j_max)
    return make_sphere(cfg.n, max_degree=cfg.j_max)


def _require_circle(cfg: CliConfig, command: str):
    if cfg.geometry != "circle":
        raise ConfigError(f"/geometry: '{command}' runs on circle "
                          "cross-sections only")


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
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
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


def _cmd_poles(cfg: CliConfig, out: str) -> int:
    cs = _cross_section(cfg)
    catalog = compute_poles(cs)
    cat4 = compute_bilaplacian_poles(catalog, cs)
    payload = {
        "geometry": cfg.geometry,
        "n": cs.n,
        "laplacian": catalog.to_json_dict(),
        "bilaplacian": cat4.to_json_dict(),
    }
    if cfg.geometry == "circle":
        payload["circumference"] = cfg.L
    _write_text(os.path.join(out, "poles.json"), _ser(payload) + "\n")
    return 0


def _build_spec(cfg: CliConfig):
    cs = _cross_section(cfg)
    gamma = cfg.gamma if cfg.gamma is not None else default_weight(cs)
    return cs, build_extension(cs, gamma, cfg.p)


def _cmd_domain(cfg: CliConfig, out: str) -> int:
    _, spec = _build_spec(cfg)
    payload = {"geometry": cfg.geometry}
    payload.update(spec.to_json_dict())
    _write_text(os.path.join(out, "domain.json"), _ser(payload) + "\n")
    return 0


def _cmd_simulate(cfg: CliConfig, out: str) -> int:
    _require_circle(cfg, "simulate")
    snaps, diag = run(cfg.to_run_config())
    header = ("step", "time", "mass", "energy", "supnorm", "norm0", "norm2")
    rows = [[d[k] for k in header] for d in diag]
    _write_csv(os.path.join(out, "diagnostics.csv"), header, rows)
    snap_dir = os.path.join(out, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)
    for i, snap in enumerate(snaps):
        _write_text(os.path.join(snap_dir, f"snap_{i:04d}.csv"),
                    _snapshot_text(snap))
    return 0


def _snapshot_text(snap) -> str:
    """The snapshot CSV: a '# {meta}' line, a header, one row per node and channel.

    Floats use _fmt's "%.17g", so the bytes match the per-value format.
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
    lines = ["# " + _ser(meta), "t_node,mode,branch,coefficient"]
    t_nodes = ["%.17g" % t for t in grid.t.tolist()]
    for c, (j, k) in enumerate(grid.channels):
        mid = f",{j},{k},"
        lines += [t + mid + "%.17g" % v
                  for t, v in zip(t_nodes, snap.coeffs[:, c].tolist())]
    return "\n".join(lines) + "\n"


def _cmd_norms(cfg: CliConfig, out: str) -> int:
    _require_circle(cfg, "norms")
    snaps, _ = run(cfg.to_run_config(), diagnostics=False)
    rows = []
    for snap in snaps:
        for k in range(cfg.norms_k_max + 1):
            val = mellin_norm(snap, k)
            rows.append([snap.time, k, snap.gamma, snap.p, val])
    _write_csv(os.path.join(out, "norms.csv"),
               ("time", "k", "gamma", "p", "value"), rows)
    return 0


def _cmd_lab(cfg: CliConfig, out: str) -> int:
    _require_circle(cfg, "lab")
    cs, spec = _build_spec(cfg)
    grid = ConeGrid(cs, cfg.lab_t_max, cfg.lab_n_radial, j_max=max(cfg.lab_mode, 1))
    report = lab_report(grid, spec, mode=cfg.lab_mode, shift=cfg.lab_shift,
                        theta=cfg.lab_theta, contour_theta=cfg.lab_contour_theta,
                        beta=cfg.lab_beta, phi=cfg.lab_phi,
                        samples=cfg.lab_samples, mus=cfg.lab_mu)
    payload = {"geometry": cfg.geometry, "lab_t_max": cfg.lab_t_max,
               "lab_n_radial": cfg.lab_n_radial}
    payload.update(report.to_json_dict())
    _write_text(os.path.join(out, "lab.json"), _ser(payload) + "\n")
    return 0


def _cmd_asympt(cfg: CliConfig, out: str) -> int:
    _require_circle(cfg, "asympt")
    snaps, _ = run(cfg.to_run_config(), diagnostics=False)
    final = snaps[-1]
    _, spec = _build_spec(cfg)
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


def dispatch(command: str, cfg: CliConfig, out: str = ".") -> int:
    """Run one subcommand; 0 on success, 1 validation, 2 numerical."""
    os.makedirs(out, exist_ok=True)
    try:
        return _COMMANDS[command](cfg, out)
    except (PicardDivergenceError, InconsistentDomainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
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
