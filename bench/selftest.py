#!/usr/bin/env python3
"""Self-tests of the benchmark's output checks.

Each case runs a workload operation on a small config, confirms that
its real outputs pass, then plants one corruption and confirms that the
matching check rejects it.  The asympt case runs at the CLI defaults,
whose grid resolves the tip; the whole file takes a few seconds.  Run
from the root of a source checkout:

    python3 bench/selftest.py

Exits 0 when every check accepts the real output and rejects its
corruption, 1 otherwise.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402


def _replace_csv_field(text: str, line_no: int, field: int, value: str) -> str:
    lines = text.split("\n")
    parts = lines[line_no].split(",")
    parts[field] = value
    lines[line_no] = ",".join(parts)
    return "\n".join(lines)


def _bump(v: str, by: float) -> str:
    return "%.17g" % (float(v) + by)


def cases(scratch: str):
    """Yield (name, errors on real output, errors on corrupted output)."""
    tracer = NullTracer()
    wl = workloads.make("cli-defaults", scratch, small=True)
    outs = {op: wl.execute(op, tracer)[1] for op in wl.ops}
    for op, result in outs.items():
        assert result["code"] == 0, f"{op} exited {result['code']}"

    sim = dict(outs["simulate"]["files"])
    diag_text = sim["diagnostics.csv"].decode()
    snap_rel = sorted(r for r in sim if r.startswith("snapshots/"))[-1]
    snap_text = sim[snap_rel].decode()
    n_nodes = json.loads(snap_text.split("\n", 1)[0][2:])["n_radial"] + 1

    def simulate_errors(files):
        return wl.content_errors("simulate", {"code": 0, "files": files})

    # a changed interior coefficient of the mean mode breaks the mass column
    row = 2 + n_nodes // 2
    old = snap_text.split("\n")[row].split(",")[3]
    bad = dict(sim, **{snap_rel: _replace_csv_field(
        snap_text, row, 3, _bump(old, 1e-3)).encode()})
    yield "snapshot coefficient vs mass column", simulate_errors(sim), simulate_errors(bad)

    # a changed outer-node coefficient breaks u_0 = u_1
    old = snap_text.split("\n")[2 + n_nodes].split(",")[3]
    bad = dict(sim, **{snap_rel: _replace_csv_field(
        snap_text, 2 + n_nodes, 3, _bump(old, 1e-12)).encode()})
    yield "outer row u_0 = u_1", checks.check_outer_row(
        [checks.parse_snapshot(snap_text)]), simulate_errors(bad)

    # any changed byte changes the digest that later operations must match
    yield ("byte-identical outputs",
           [] if checks.digest_files(sim) == checks.digest_files(dict(sim)) else ["differs"],
           [] if checks.digest_files(sim) == checks.digest_files(bad) else ["digest differs"])

    # an energy rise above 1e-9 in one step
    lines = diag_text.split("\n")
    header = lines[0].split(",")
    e = header.index("energy")
    bad_diag = _replace_csv_field(diag_text, 3, e, _bump(lines[2].split(",")[e], 2e-9))
    bad = dict(sim, **{"diagnostics.csv": bad_diag.encode()})
    yield "energy rise per step", simulate_errors(sim), simulate_errors(bad)

    # a norms row that decreases in k
    norms = outs["norms"]["files"]["norms.csv"].decode()
    nl = norms.split("\n")
    bad_norms = _replace_csv_field(norms, 2, 4, "%.17g" % (0.5 * float(nl[1].split(",")[4])))
    yield ("norms nondecreasing in k", checks.check_norms(norms),
           checks.check_norms(bad_norms))

    # a mode-1 exponent moved off the indicial root; the fit needs the
    # default grid to resolve the tip (about two seconds)
    full = workloads.make("cli-defaults", scratch)
    result = full.execute("asympt", tracer)[1]
    asym = result["files"]["asympt.csv"].decode()
    al = asym.split("\n")
    bad_asym = _replace_csv_field(asym, 2, 1, _bump(al[2].split(",")[1], 2 * full.cfg.fit_tol))
    yield ("asympt modes 0 and 1 at the indicial roots",
           full.content_errors("asympt", result),
           checks.check_asympt(bad_asym, full.cfg.fit_tol, full.cfg.L))

    # a lab deviation above criterion 8's bound
    lab = json.loads(outs["lab"]["files"]["lab.json"].decode())
    lab_bad = dict(lab, square_identity_dev=1e-6)
    yield ("lab deviations", checks.check_lab(json.dumps(lab)),
           checks.check_lab(json.dumps(lab_bad)))

    # the conservation audit: passes on this short grid, fails on a leak
    diag = checks.parse_diagnostics(diag_text)
    leaked = diag["mass"].copy()
    leaked[-1] *= 1.0 + 1e-6
    drift = checks.mass_drift(diag["mass"])
    yield ("mass audit", [] if drift <= checks.MASS_DRIFT_MAX else [f"drift {drift:.3e}"],
           [] if checks.mass_drift(leaked) <= checks.MASS_DRIFT_MAX else ["leak"])

    # fixed points: a constant state stepped by one flow, then moved
    for name in ("wide", "allen-cahn"):
        ev = workloads.make(name, scratch, small=True)
        context = ev.setup(tracer)
        real = workloads.fixed_point_errors(context, ev.equation)
        spec, grid, _ = context
        u = np.zeros((grid.n_nodes, grid.n_channels))
        moved = u.copy()
        moved[3, 0] = 1e-12
        yield (f"fixed points ({ev.equation})", real,
               checks.check_fixed_point(u, moved, exact=ev.equation == "cahn-hilliard"))

        result = ev.execute("run", tracer)[1]
        errors = ev.content_errors("run", result)
        snap = result["snaps"][-1]
        snap.coeffs[5, 0] += 1e-3
        yield (f"in-memory snapshot vs mass column ({ev.equation})", errors,
               ev.content_errors("run", result))


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".bench_out"))
    ok = True
    try:
        for name, real, corrupted in cases(scratch):
            passed = not real and bool(corrupted)
            ok &= passed
            print(f"{'ok  ' if passed else 'FAIL'} {name}: real output "
                  f"{'passes' if not real else real}; corruption "
                  f"{'rejected: ' + corrupted[0] if corrupted else 'NOT rejected'}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
