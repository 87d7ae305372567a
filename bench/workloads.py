"""The benchmark's three workloads and the output checks each one runs.

A workload builds run contexts (`setup`) and executes named operations
(`execute`); `content_errors` and `audits` turn an operation's outputs
into check errors and audit verdicts.  Every operation starts from the seeded
initial state of a fixed config (`seed=7`), so all operations of one
kind yield the same bytes; the full content checks run on the first
operation of each kind and later ones must match its digest.
"""

import json
import os
import shutil
import tempfile
import time

import numpy as np

from conelab import cli, evolve
from conelab.cross_section import make_circle
from conelab.evolve import RunConfig, Stepper, double_well
from conelab.extensions import build_extension, default_weight
from conelab.mellin import ConeGrid, constant_state

import checks

CONFIG_SEED = 7

# small enough for a warm-up pass and the self-tests: a few seconds at most
SMALL = {"t_max": 3.0, "delta_t": 0.05, "dt": 1e-3, "T": 0.005,
         "snapshot_every": 5}


def build_context(config: RunConfig, tracer):
    """One run context from the public constructors."""
    cs = make_circle(config.circumference, max_mode=config.j_max)
    gamma = config.gamma if config.gamma is not None else default_weight(cs)
    with tracer.span("extension.build"):
        spec = build_extension(cs, gamma, config.p)
    grid = ConeGrid(cs, config.t_max, config.n_radial, j_max=config.j_max)
    stepper = Stepper(spec, grid, config.dt, config.equation,
                      config.picard_iters, config.picard_tol)
    return spec, grid, stepper


def read_tree(root: str) -> dict:
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, root).replace(os.sep, "/")] = f.read()
    return files


def fixed_point_errors(context, equation: str) -> list:
    """One step from u = 0, +1, -1 must leave the state unchanged."""
    spec, grid, stepper = context
    f = double_well if equation == "allen-cahn" else None
    errors = []
    for value in (0.0, 1.0, -1.0):
        u = constant_state(grid, value, gamma=spec.gamma, p=spec.p)
        after = stepper.step(u, f=f)
        errors += [f"{e} (u = {value:g})" for e in checks.check_fixed_point(
            u.coeffs, after.coeffs, exact=(equation == "cahn-hilliard"))]
    return errors


class CliDefaults:
    """conelab simulate, norms, asympt and lab, in process, at the defaults."""

    name = "cli-defaults"
    ops = ("simulate", "norms", "asympt", "lab")
    setups_per_round = 3

    def __init__(self, scratch: str, overrides: dict = None):
        self.scratch = scratch
        self.config_path = None
        if overrides:
            self.config_path = os.path.join(scratch, f"{self.name}.json")
            with open(self.config_path, "w") as f:
                json.dump(dict(overrides, seed=CONFIG_SEED), f)
        self.cfg = cli.parse_config(self.config_path)
        self.equation = self.cfg.equation

    def setup(self, tracer):
        cfg = cli.parse_config(self.config_path)
        return build_context(cfg.to_run_config(), tracer)

    def execute(self, op: str, tracer):
        out = tempfile.mkdtemp(prefix=op + "-", dir=self.scratch)
        argv = [op, "--out", out]
        if self.config_path:
            argv += ["--config", self.config_path]
        try:
            start = time.perf_counter()
            with tracer.span("cli." + op):
                code = cli.main(argv)
            elapsed = time.perf_counter() - start
            files = read_tree(out)
        finally:
            shutil.rmtree(out)
        if op == "simulate":
            tracer.count("snapshot.bytes", sum(
                len(b) for rel, b in files.items() if rel.startswith("snapshots/")))
        return elapsed, {"code": code, "files": files}

    def digest(self, result) -> str:
        return checks.digest_files(result["files"])

    def failed(self, result) -> bool:
        return result["code"] != 0

    def content_errors(self, op: str, result) -> list:
        files = result["files"]
        L = self.cfg.L
        if op == "simulate":
            diag = checks.parse_diagnostics(files["diagnostics.csv"].decode())
            snaps = [checks.parse_snapshot(files[rel].decode())
                     for rel in sorted(files) if rel.startswith("snapshots/")]
            if len(snaps) < 2:
                return ["simulate wrote fewer than two snapshots"]
            return (checks.check_mass_column(diag, snaps, L)
                    + checks.check_outer_row(snaps)
                    + checks.check_energy(diag["energy"]))
        if op == "norms":
            return checks.check_norms(files["norms.csv"].decode())
        if op == "asympt":
            return checks.check_asympt(files["asympt.csv"].decode(),
                                       self.cfg.fit_tol, L)
        return checks.check_lab(files["lab.json"].decode())

    def audits(self, op: str, result) -> list:
        """(name, passed) for each audit tied to this operation."""
        if op != "simulate":
            return []
        diag = checks.parse_diagnostics(result["files"]["diagnostics.csv"].decode())
        return [("mass", checks.mass_drift(diag["mass"]) <= checks.MASS_DRIFT_MAX)]


class EvolveRun:
    """conelab.evolve.run(config) with no files."""

    ops = ("run",)

    def __init__(self, name: str, config: dict, setups_per_round: int,
                 audit_energy: bool):
        self.name = name
        self.config = RunConfig(seed=CONFIG_SEED, **config)
        self.equation = self.config.equation
        self.setups_per_round = setups_per_round
        self.audit_energy = audit_energy

    def setup(self, tracer):
        return build_context(self.config, tracer)

    def execute(self, op: str, tracer):
        start = time.perf_counter()
        with tracer.span("evolve.run"):
            snaps, diag = evolve.run(self.config)
        return time.perf_counter() - start, {"snaps": snaps, "diag": diag}

    def digest(self, result) -> str:
        return checks.digest_run(result["snaps"], result["diag"])

    def failed(self, result) -> bool:
        return False

    def _columns(self, result) -> dict:
        diag = result["diag"]
        return {k: np.array([row[k] for row in diag], dtype=float)
                for k in ("time", "mass", "energy")}

    def content_errors(self, op: str, result) -> list:
        cols = self._columns(result)
        snaps = [checks.state_snapshot(s) for s in result["snaps"]]
        errors = (checks.check_mass_column(cols, snaps, self.config.circumference)
                  + checks.check_outer_row(snaps))
        if self.equation == "allen-cahn":
            errors += checks.check_energy(cols["energy"])
        return errors

    def audits(self, op: str, result) -> list:
        if self.equation != "cahn-hilliard":
            return []
        cols = self._columns(result)
        out = [("mass", checks.mass_drift(cols["mass"]) <= checks.MASS_DRIFT_MAX)]
        if self.audit_energy:
            out.append(("energy",
                        checks.max_energy_rise(cols["energy"]) <= checks.ENERGY_RISE_MAX))
        return out


NAMES = ("cli-defaults", "wide", "allen-cahn")


def make(name: str, scratch: str, small: bool = False):
    if name == "cli-defaults":
        return CliDefaults(scratch, dict(SMALL, j_max=4) if small else None)
    if name == "wide":
        config = dict(SMALL, j_max=6) if small else {
            "j_max": 128, "delta_t": 0.01, "T": 0.01}
        return EvolveRun(name, config, setups_per_round=1, audit_energy=True)
    if name == "allen-cahn":
        config = dict(SMALL, j_max=4) if small else {}
        return EvolveRun(name, dict(config, equation="allen-cahn"),
                         setups_per_round=3, audit_energy=False)
    raise ValueError(f"unknown workload {name!r}")
