"""Output checks and conservation audits, computed apart from conelab.

Every function here reads the program's outputs (file bytes or arrays)
and returns a list of error strings, empty when the output passes.  The
formulas are written out again from their definitions rather than
taken from conelab, so a bug in the program's own diagnostics cannot
hide itself.
"""

import hashlib
import json
import math

import numpy as np

ENERGY_RISE_MAX = 1e-9      # acceptance criterion 6: energy may not rise per step
MASS_DRIFT_MAX = 1e-8       # ROADMAP item 1 target for relative mass drift
LAB_BOUNDS = {"square_identity_dev": 1e-8,      # acceptance criterion 8
              "integral_vs_eigh_dev": 1e-6}
FIXED_POINT_TOL_AC = 1e-15  # relaxational flow: constants kept to rounding


def digest_files(files: dict) -> str:
    h = hashlib.sha256()
    for rel in sorted(files):
        h.update(rel.encode() + b"\0" + files[rel] + b"\0")
    return h.hexdigest()


def digest_run(snaps, diag) -> str:
    h = hashlib.sha256()
    for s in snaps:
        h.update(np.float64(s.time).tobytes())
        h.update(np.ascontiguousarray(s.coeffs).tobytes())
    for row in diag:
        h.update(repr(sorted(row.items())).encode())
    return h.hexdigest()


def parse_csv(text: str):
    lines = text.rstrip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def parse_diagnostics(text: str) -> dict:
    header, rows = parse_csv(text)
    cols = list(zip(*rows))
    return {name: np.array(col, dtype=float) for name, col in zip(header, cols)}


def parse_snapshot(text: str) -> dict:
    """Snapshot CSV -> time, radial nodes, spacing, (nodes, channels) array."""
    first, rest = text.split("\n", 1)
    if not first.startswith("# "):
        raise ValueError("snapshot lacks its metadata line")
    meta = json.loads(first[2:])
    header, rows = parse_csv(rest)
    if header != ["t_node", "mode", "branch", "coefficient"]:
        raise ValueError(f"unexpected snapshot header {header}")
    n_nodes = meta["n_radial"] + 1
    n_channels = len(meta["channels"])
    data = np.array(rows, dtype=float)
    if data.shape != (n_nodes * n_channels, 4):
        raise ValueError("snapshot row count does not match its metadata")
    return {"time": float(meta["time"]),
            "t": data[:n_nodes, 0],
            "h": meta["t_max"] / meta["n_radial"],
            "channels": [tuple(c) for c in meta["channels"]],
            "coeffs": data[:, 3].reshape(n_channels, n_nodes).T}


def state_snapshot(state) -> dict:
    """The same record as parse_snapshot, from an in-memory FieldState."""
    grid = state.grid
    return {"time": float(state.time), "t": grid.t,
            "h": grid.t_max / grid.n_radial,
            "channels": list(grid.channels), "coeffs": state.coeffs}


def rectangle_mass(snap: dict, circumference: float):
    """Interior rectangle rule for the volume integral on a circle cone.

    The constant eigenfunction is 1/sqrt(L) and the cone's volume form is
    e^(-2t) dt dy in the log variable, so the mass is
    h sqrt(L) sum_i e^(-2 t_i) c_i over the interior nodes.  Also returns
    the sum of the terms' magnitudes, which bounds the rounding error.
    """
    col = snap["coeffs"][:, snap["channels"].index((0, 0))]
    terms = np.exp(-2.0 * snap["t"][1:-1]) * col[1:-1]
    scale = snap["h"] * math.sqrt(circumference)
    return scale * float(np.sum(terms)), scale * float(np.sum(np.abs(terms)))


def check_mass_column(diag: dict, snaps: list, circumference: float) -> list:
    errors = []
    for snap in snaps:
        hit = np.nonzero(diag["time"] == snap["time"])[0]
        if hit.size != 1:
            errors.append(f"no single diagnostics row at snapshot time {snap['time']!r}")
            continue
        want, size = rectangle_mass(snap, circumference)
        got = float(diag["mass"][hit[0]])
        if abs(got - want) > 1e-12 * size:
            errors.append(f"mass column {got!r} != recomputed {want!r} "
                          f"at time {snap['time']!r}")
    return errors


def check_outer_row(snaps: list) -> list:
    return [f"outer row u_0 != u_1 in the snapshot at time {s['time']!r}"
            for s in snaps if not np.array_equal(s["coeffs"][0], s["coeffs"][1])]


def max_energy_rise(energy) -> float:
    return float(np.max(np.diff(np.asarray(energy, dtype=float))))


def check_energy(energy) -> list:
    rise = max_energy_rise(energy)
    if rise > ENERGY_RISE_MAX:
        return [f"energy rose by {rise:.3e} in one step (bound {ENERGY_RISE_MAX:g})"]
    return []


def mass_drift(mass) -> float:
    mass = np.asarray(mass, dtype=float)
    return abs(float(mass[-1] - mass[0])) / abs(float(mass[0]))


def check_norms(text: str) -> list:
    header, rows = parse_csv(text)
    if header != ["time", "k", "gamma", "p", "value"]:
        return [f"unexpected norms header {header}"]
    by_time = {}
    for time, k, _, _, value in rows:
        by_time.setdefault(float(time), []).append((int(k), float(value)))
    errors = []
    for time, pairs in by_time.items():
        values = [v for _, v in sorted(pairs)]
        if any(b < a for a, b in zip(values, values[1:])):
            errors.append(f"norms decrease in k at time {time!r}: {values}")
    if not by_time:
        errors.append("norms.csv holds no rows")
    return errors


def check_asympt(text: str, fit_tol: float, circumference: float) -> list:
    """Modes 0 and 1 decay at the indicial roots of z^2 - (2 pi j / L)^2."""
    header, rows = parse_csv(text)
    if header[:2] != ["mode", "a_hat"]:
        return [f"unexpected asympt header {header}"]
    a_hat = {int(r[0]): float(r[1]) for r in rows}
    errors = []
    for j in (0, 1):
        root = 2.0 * math.pi * j / circumference
        if j not in a_hat or not abs(a_hat[j] - root) <= fit_tol:
            errors.append(f"mode {j} exponent {a_hat.get(j)!r} is not within "
                          f"{fit_tol} of the indicial root {root:g}")
    return errors


def check_lab(text: str) -> list:
    payload = json.loads(text)
    return [f"{key} = {payload.get(key)!r} exceeds {bound:g}"
            for key, bound in LAB_BOUNDS.items()
            if not payload.get(key, math.inf) <= bound]


def check_fixed_point(before, after, exact: bool) -> list:
    if exact:
        ok = np.array_equal(before, after)
    else:
        ok = float(np.max(np.abs(after - before))) <= FIXED_POINT_TOL_AC
    return [] if ok else ["one step moved a constant state"]
