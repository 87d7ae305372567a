"""In-memory span recorder and the wrappers that feed it.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span or -1, and `op` is the benchmark operation the span
belongs to, so the spans of one operation share an identifier.  A
layer's self time is its span's duration minus the durations of its
direct children; spans nest strictly because everything runs in one
thread.

Spans come from two places, both in the benchmark's own files: the
benchmark's call sites (`Tracer.span`) and wrappers that `instrument`
installs on the names conelab's modules call each other through.  The
wrappers are installed only for a traced run and removed afterwards;
while `Tracer.enabled` is false they add one attribute test per call.
"""

import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = ""
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.stack = []
        self.counters = Counter()

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name: str, n: int = 1):
        if self.enabled:
            self.counters[name] += n

    def summary(self) -> dict:
        """Per span name: count, durations and self times (seconds)."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = defaultdict(lambda: {"count": 0, "durations": [], "self": [],
                                   "parents": Counter()})
        for i, name in enumerate(self.names):
            d = self.ends[i] - self.starts[i]
            rec = out[name]
            rec["count"] += 1
            rec["durations"].append(d)
            rec["self"].append(d - child[i])
            p = self.parents[i]
            rec["parents"][self.names[p] if p >= 0 else ""] += 1
        return dict(out)

    def dump(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "op"],
                "spans": [[n, s, e, p, o] for n, s, e, p, o in
                          zip(self.names, self.starts, self.ends,
                              self.parents, self.ops)],
                "counters": dict(self.counters)}


class NullTracer:
    """Stands in for Tracer in untraced runs: records nothing."""

    enabled = False
    op = ""

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, n: int = 1):
        pass


def _wrap(tracer: Tracer, fn, name: str, on_call=None):
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if on_call is not None:
            on_call(*args, **kwargs)
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
    return traced


def _transform_bytes(tracer: Tracer):
    # computed from array shapes, not measured: operand, matrix and result
    # of one dense float64 product
    def to_physical(plan, coeffs):
        n, nc = coeffs.shape
        tracer.count("transform.bytes_computed", 8 * (n * nc + nc * plan.m + n * plan.m))

    def to_modes(plan, values):
        n, m = values.shape
        nc = plan.S.shape[1]
        tracer.count("transform.bytes_computed", 8 * (n * m + m * nc + n * nc))
    return to_physical, to_modes


def instrument(tracer: Tracer):
    """Wrap conelab's layer boundaries; returns a function undoing it.

    Module-level names are patched in the module that calls them (for
    example `conelab.evolve.solve_banded`), so only calls made through
    that module are traced.  A boundary that a refactor removes simply
    records no span, and the report marks it absent.
    """
    from conelab import assembly, cli, evolve

    to_phys_bytes, to_modes_bytes = _transform_bytes(tracer)
    targets = [
        (evolve.Stepper, "__init__", "stepper.build", None),
        (evolve.Stepper, "step", "stepper.step", None),
        (evolve.Stepper, "laplace", "laplace", None),
        (evolve, "solve_banded", "solve", None),
        (evolve, "flux_divergence", "flux_divergence", None),
        (evolve, "laplacian_suite", "operators.build", None),
        (evolve, "build_extension", "extension.build", None),
        (evolve, "_diagnostics_row", "diagnostics.row", None),
        (assembly.TransformPlan, "to_physical", "transform", to_phys_bytes),
        (assembly.TransformPlan, "to_modes", "transform", to_modes_bytes),
        (cli, "run", "cli.run", None),
        (cli, "build_extension", "extension.build", None),
        (cli, "mellin_norm", "norms.eval", None),
        (cli, "fit_exponents", "fit", None),
        (cli, "match_catalog", "fit", None),
        (cli, "lab_report", "lab.report", None),
    ]
    saved = []
    for owner, attr, name, on_call in targets:
        fn = owner.__dict__.get(attr)
        if fn is None:
            continue
        saved.append((owner, attr, fn))
        setattr(owner, attr, _wrap(tracer, fn, name, on_call))

    def undo():
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
    return undo
