"""The benchmark's tracer and workloads must still run against conelab.

bench/tracing.instrument patches names by attribute and skips a name it
does not find, so a renamed boundary would read as an absent span rather
than fail.  A small traced conserved run on either transform path must
fire every span below.  bench/workloads builds its run contexts from
conelab's public constructors; each workload's own calls run here on
its small config, and its set-up, which the benchmark's setup_s times,
must build the context that Config.context() and Stepper build.
"""

import importlib.util
import os

from conelab import Config, Stepper, evolve, run

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

SPANS = {"operators.build", "stepper.build", "stepper.step", "laplace",
         "flux_divergence", "diagnostics.row", "transform"}


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(
        "bench_" + name, os.path.join(BENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_traced_run_fires_every_layer_span(j_max: int):
    tracing = _bench_module("tracing")
    tracer = tracing.Tracer()
    flux_divergence = evolve.flux_divergence
    undo = tracing.instrument(tracer)
    tracer.enabled = True
    try:
        run(Config(j_max=j_max, t_max=3.0, delta_t=0.05, T=0.002))
    finally:
        tracer.enabled = False
        undo()
    assert SPANS <= set(tracer.names)
    assert tracer.names.count("flux_divergence") == tracer.names.count("stepper.step") == 2
    assert tracer.counters["transform.bytes_computed"] > 0
    assert evolve.flux_divergence is flux_divergence


def test_traced_conserved_run_fires_every_layer_span():
    _assert_traced_run_fires_every_layer_span(4)


def test_traced_fft_run_fires_every_layer_span():
    # the FFT transforms build their synthesis matrix only when the
    # tracer's byte counter reads it
    _assert_traced_run_fires_every_layer_span(64)


def test_bench_workloads_run_their_own_calls(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)          # workloads imports checks
    workloads = _bench_module("workloads")
    tracer = _bench_module("tracing").NullTracer()
    for name in workloads.NAMES:
        wl = workloads.make(name, str(tmp_path), small=True)
        context = wl.setup(tracer)
        assert workloads.fixed_point_errors(context, wl.equation) == []
        for op in wl.ops:
            _, result = wl.execute(op, tracer)
            assert not wl.failed(result), (name, op)


def test_bench_setup_builds_the_program_context(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    workloads = _bench_module("workloads")
    tracer = _bench_module("tracing").NullTracer()
    for name in workloads.NAMES:
        wl = workloads.make(name, str(tmp_path))
        config = wl.cfg if name == "cli-defaults" else wl.config
        bench_spec, bench_grid, bench_stepper = wl.setup(tracer)
        spec, grid = config.context()
        stepper = Stepper(spec, grid, config.dt, config.equation)
        assert bench_spec.inner_bc == spec.inner_bc, name
        assert bench_grid.t.tobytes() == grid.t.tobytes(), name
        assert bench_stepper.tip_ratio.tobytes() == stepper.tip_ratio.tobytes(), name
        assert len(bench_stepper._factors[1]) == len(stepper._factors[1]) == grid.j_max + 1
        for ours, theirs in zip(bench_stepper._factors, stepper._factors):
            assert ours.tobytes() == theirs.tobytes(), name
