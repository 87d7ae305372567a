"""The configuration schema: every settable key once, with its default and check.

KEYS is the one table.  Config checks keyword values against it and is
the one configuration class, from the command line to evolve.run.
"""

import math
from types import SimpleNamespace
from typing import Optional

from .cross_section import make_circle, make_sphere
from .extensions import (EndpointCollisionError, admissible_window, build_extension,
                         default_weight, interval_I)
from .mellin import ConeGrid

EQUATIONS = ("cahn-hilliard", "allen-cahn")


class ConfigError(ValueError):
    """Schema violation; the message lists JSON-pointer style paths."""


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_POSITIVE = (lambda v: v > 0, "expected a positive number")
_ANGLE = (lambda v: 0 <= v < math.pi, "expected an angle in [0, pi)")

# key: (default, kind, test, message).  kind is "int", "number", "null"
# (a number or null), "list" (of numbers) or "choice", whose test is the
# tuple of allowed values.  A value of kind "int" that is no integer gets
# "expected an integer"; otherwise a value of the wrong kind, or one
# failing test, gets message.
KEYS = {
    "geometry": ("circle", "choice", ("circle", "sphere"), "expected 'circle' or 'sphere'"),
    "L": (2.0 * math.pi, "number", *_POSITIVE),
    "n": (2, "int", lambda v: v >= 2, "sphere dimension must be >= 2"),
    "gamma": (None, "null", None, "expected a number or null"),
    "p": (2.0, "number", lambda v: v >= 1, "expected a number >= 1"),
    "j_max": (32, "int", lambda v: v >= 1, "need at least one nonzero mode"),
    "t_max": (12.0, "number", *_POSITIVE),
    "delta_t": (0.02, "number", *_POSITIVE),
    "equation": ("cahn-hilliard", "choice", EQUATIONS,
                 "expected 'cahn-hilliard' or 'allen-cahn'"),
    "dt": (1e-3, "number", *_POSITIVE),
    "T": (0.05, "number", *_POSITIVE),
    "picard_iters": (1, "int", lambda v: v >= 1, "must be >= 1"),
    "picard_tol": (1e-10, "number", *_POSITIVE),
    "seed": (7, "int", lambda v: v >= 0, "must be >= 0"),
    "ic_kind": ("bump", "choice", ("bump", "zero", "constant"),
                "expected 'bump', 'zero', or 'constant'"),
    "ic_amplitude": (0.03, "number", None, "expected a number"),
    "ic_modes": (3, "int", lambda v: v >= 0, "must be >= 0"),
    "ic_value": (0.0, "number", None, "expected a number"),
    "snapshot_every": (10, "int", lambda v: v >= 1, "must be >= 1"),
    "norms_k_max": (2, "int", lambda v: 0 <= v <= 4, "derivative order must lie in 0..4"),
    "fit_tol": (0.05, "number", *_POSITIVE),
    "lab_mode": (0, "int", lambda v: v >= 0, "must be >= 0"),
    "lab_t_max": (1.0, "number", *_POSITIVE),
    "lab_n_radial": (20, "int", lambda v: v >= 8, "need at least 8 radial intervals"),
    "lab_shift": (10.0, "number", *_POSITIVE),
    "lab_theta": (0.5 * math.pi, "number", *_ANGLE),
    "lab_contour_theta": (0.75 * math.pi, "number", *_ANGLE),
    "lab_beta": (0.5, "number", lambda v: 0 < v < 1, "expected a number in (0, 1)"),
    "lab_phi": (0.0, "number", None, "expected a number"),
    "lab_samples": (200, "int", lambda v: v >= 1, "must be >= 1"),
    "lab_mu": ((10.0, 100.0, 1000.0), "list", lambda v: v and all(x > 0 for x in v),
               "expected a nonempty list of positive numbers"),
}

DEFAULTS = {key: row[0] for key, row in KEYS.items()}


def _violation(key: str, v) -> Optional[str]:
    _, kind, test, message = KEYS[key]
    # JSON NaN and Infinity parse to floats that pass every range test
    if any(isinstance(x, float) and not math.isfinite(x)
           for x in (v if isinstance(v, (list, tuple)) else [v])):
        return "expected a finite number"
    if kind == "int" and not (isinstance(v, int) and not isinstance(v, bool)):
        return "expected an integer"
    if kind == "choice":
        return None if v in test else message
    if kind == "null" and v is None:
        return None
    if kind == "list":
        ok = isinstance(v, (list, tuple)) and all(_is_number(x) for x in v)
    else:
        ok = _is_number(v)
    return None if ok and (test is None or test(v)) else message


def _divisions(total: float, step: float, rel_tol: float) -> int:
    """Number of steps step cuts total into, 0 if it does not divide it."""
    m = total / step
    if not math.isfinite(m):        # round() would raise OverflowError
        return 0
    m = round(m)
    return m if abs(m * step - total) <= rel_tol * total else 0


class Config(SimpleNamespace):
    """Checked values of every key of KEYS, each under its own JSON name.

    Keys not given take their defaults.  Raises ConfigError listing every
    violation as /key: message, sorted; the checks that tie keys
    together run once each key passed its own.  delta_t is the radial
    grid spacing (t_max / delta_t intervals); dt is the time step.
    gamma = None selects extensions.default_weight.  The cross-section is
    built at most once per config, by the first call of cross_section(),
    and held in a slot, which vars() and == do not see.
    """

    __slots__ = ("_cross_section",)

    def __init__(self, **values):
        errors = [f"/{key}: unknown key" for key in values if key not in KEYS]
        merged = {key: values.get(key, default) for key, default in DEFAULTS.items()}
        for key, v in merged.items():
            message = _violation(key, v)
            if message:
                errors.append(f"/{key}: {message}")
        if not errors:
            for key, v in merged.items():
                if isinstance(v, list):
                    merged[key] = tuple(float(x) for x in v)
            super().__init__(**merged)
            errors = self.coupled_errors()
        if errors:
            raise ConfigError("\n".join(sorted(errors)))

    # the benchmark's calls: bench/workloads.py reads these two names
    @property
    def circumference(self) -> float:
        return self.L

    def to_run_config(self) -> "Config":
        return self

    @property
    def n_radial(self) -> int:
        """Radial intervals of the grid, t_max / delta_t."""
        return _divisions(self.t_max, self.delta_t, 1e-9)

    @property
    def n_steps(self) -> int:
        """Time steps to the horizon, T / dt."""
        return _divisions(self.T, self.dt, 1e-6)

    def coupled_errors(self) -> list:
        errors = []
        if not self.dt < self.T:
            errors.append("/dt: must be smaller than the horizon T")
        elif self.n_steps < 1:
            errors.append("/dt: must divide the horizon T")
        if self.n_radial < 8:
            errors.append("/delta_t: must divide t_max into >= 8 intervals")
        if self.lab_mode > self.j_max:
            errors.append("/lab_mode: must not exceed j_max")
        # only a given weight builds the cross-section
        if self.gamma is not None:
            cs = self.cross_section()
            lo, hi = admissible_window(cs)
            if not lo < self.gamma < hi:
                errors.append(f"/gamma: {self.gamma} outside the admissible "
                              f"weight window ({lo:.6g}, {hi:.6g})")
            else:
                try:
                    interval_I(self.gamma, cs)
                except EndpointCollisionError as e:
                    errors.append(f"/gamma: {e}")
        return errors

    def cross_section(self):
        """The run's cross-section: one object for every call on this config."""
        try:
            return self._cross_section
        except AttributeError:
            self._cross_section = self.make_cross_section()
            return self._cross_section

    def make_cross_section(self):
        if self.geometry == "circle":
            return make_circle(self.L, max_mode=self.j_max)
        return make_sphere(self.n, max_degree=self.j_max)

    def extension(self):
        """The extension spec; gamma = None takes extensions.default_weight."""
        cs = self.cross_section()
        gamma = self.gamma if self.gamma is not None else default_weight(cs)
        return build_extension(cs, gamma, self.p)

    def context(self):
        """(spec, grid) of a run: the extension and the radial grid on spec.cs."""
        spec = self.extension()
        return spec, ConeGrid(spec.cs, self.t_max, self.n_radial, j_max=self.j_max)
