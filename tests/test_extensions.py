import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as strat

from conelab import (Config, ConfigError, EndpointCollisionError, InconsistentDomainError,
                     admissible_window, build_extension, compute_poles,
                     default_weight, from_spectrum, interval_I, make_circle,
                     make_sphere, weight_window)
from conelab.cli import _ser


def test_weight_window_closed_forms():
    assert weight_window(1, 1.0) == (-1.0, 0.0)
    assert weight_window(1, 0.25) == (-1.0, -0.75)
    assert weight_window(1, 5.0) == (-1.0, 1.0)
    assert weight_window(2, 0.5) == (-0.5, 0.0)
    assert weight_window(2, 9.0) == (-0.5, 1.5)
    assert weight_window(3, 1.0) == (0.0, 1.0)
    assert weight_window(4, 9.0) == (0.5, 2.5)
    with pytest.raises(ValueError):
        weight_window(0, 1.0)
    with pytest.raises(ValueError):
        weight_window(1, 0.0)


def test_admissible_window_from_spectra():
    # unit circle: q_1^- = -1, eb = 1
    assert admissible_window(make_circle(2.0 * np.pi, max_mode=4)) == (-1.0, 0.0)
    # S^2: lam_1 = -2, roots of z^2 - z - 2 are 2, -1, eb = 1
    assert admissible_window(make_sphere(2, max_degree=3)) == (-0.5, 0.5)
    # S^3: lam_1 = -3, roots of z^2 - 2z - 3 are 3, -1, eb = 1
    assert admissible_window(make_sphere(3, max_degree=3)) == (0.0, 1.0)
    # S^4: lam_1 = -4, roots of z^2 - 3z - 4 are 4, -1, eb = 1
    assert admissible_window(make_sphere(4, max_degree=3)) == (0.5, 1.5)


def test_default_weight_is_window_midpoint(cs8):
    assert default_weight(cs8) == pytest.approx(-0.5)


def test_interval_I_contents_and_collision():
    cs = make_circle(2.0 * np.pi, max_mode=5)
    inside = interval_I(-0.5, cs)
    assert sorted((e.exact, e.mode) for e in inside) == [(Fraction(0), 0), (Fraction(1), 1)]
    assert all(e in compute_poles(cs) for e in inside)
    # pole at 0 sits exactly on the lower line for gamma = -1
    with pytest.raises(EndpointCollisionError, match=r"Re z = 0\.0 for gamma = -1\.0$"):
        interval_I(-1.0, cs)


def test_default_weight_collision_names_the_weight():
    # L = 3 pi / 2: the window is (-1, 1/3); its midpoint puts q_1^+ = 4/3
    # on the upper line of I_gamma (no pole sits on the lower line -2/3),
    # and the error names the weight in use
    cs = make_circle(1.5 * np.pi, max_mode=8)
    lo, hi = admissible_window(cs)
    with pytest.raises(EndpointCollisionError, match=r"Re z = 1\.333\d* for gamma = -0\.333"):
        build_extension(cs, 0.5 * (lo + hi), 2.0)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_default_weight_steps_off_a_pole_line(k):
    # L = (2k+1) pi / 2 puts q_k^+ on the upper line at the window's
    # midpoint; the default is then the midpoint of the widest piece of
    # the window between the weights at which poles collide
    cs = make_circle((2 * k + 1) * np.pi / 2, max_mode=8)
    gamma = {1: -2 / 3, 2: -0.4, 3: -6 / 7, 4: -8 / 9}[k]
    assert default_weight(cs) == pytest.approx(gamma, abs=1e-12)
    build_extension(cs, default_weight(cs), 2.0)
    for L in (2.0 * np.pi, 3.0, 7.0):           # no collision: the midpoint
        cs = make_circle(L, max_mode=8)
        assert default_weight(cs) == 0.5 * sum(admissible_window(cs))


def test_selected_choices_at_default_weight(cs8):
    spec = build_extension(cs8, -0.5, 2.0)
    by_mode = {s["pole"]["mode"]: s for s in spec.to_json_dict()["selected"]}
    assert by_mode[0]["choice"] == "E_00"
    assert by_mode[1]["choice"] == "zero"
    assert [(a.mode, float(a.exponent)) for a in spec.laplacian_addons] == [(0, 0.0)]


@settings(max_examples=60, deadline=None)
@given(L=strat.floats(0.5, 20.0), j_max=strat.integers(1, 16),
       position=strat.floats(0.01, 0.99))
@example(L=2.0 * np.pi, j_max=8, position=0.5)      # exact roots, double root at 0
@example(L=3.0, j_max=4, position=0.75)             # float roots, gamma > 0
def test_one_selection_rule_pairs_every_pole(L, j_max, position):
    cs = make_circle(L, max_mode=j_max)
    lo, hi = admissible_window(cs)
    gamma = lo + position * (hi - lo)
    try:
        spec = build_extension(cs, gamma, 2.0)
    except EndpointCollisionError:
        reject()
    n = cs.n
    dual_lo, dual_hi = 0.5 * (n + 1) + gamma - 2.0, 0.5 * (n + 1) + gamma
    for s in spec.selected:
        e = s.entry
        roots = compute_poles(cs).for_mode(e.mode)
        if e.order == 2:
            assert s.choice == "E_00"
        else:
            assert s.choice == ("full" if e.location == min(r.location for r in roots)
                                else "zero")
        # the dual pole (n-1) - q is a pole of the same mode inside I_{-gamma}
        dual = (n - 1) - e.location
        assert dual_lo < dual < dual_hi
        assert any(abs(r.location - dual) <= 1e-9 for r in roots)
        # and, when it lies in I_gamma too, its choice is the complement
        for t in spec.selected:
            if t.entry.mode == e.mode and abs(t.entry.location - dual) <= 1e-9:
                pair = {s.choice, t.choice}
                assert pair == ({"E_00"} if t is s else {"full", "zero"})
    assert all(set(s) == {"pole", "choice"} for s in spec.to_json_dict()["selected"])
    assert [(a.mode, a.source_location, float(a.exponent), len(a.terms), a.has_log)
            for a in spec.laplacian_addons] == [
        (s.entry.mode, s.entry.location, -s.entry.location, 1, False)
        for s in spec.selected if s.choice != "zero"]


def _sweep_cross_sections():
    """Config keys of the 91 circles L = 2 pi k / m (k, m <= 12 coprime),
    S^2 to S^4, and 200 random circles with L in [0.5, 20]."""
    for m in range(1, 13):
        for k in range(1, 13):
            if math.gcd(k, m) == 1:
                yield {"L": 2.0 * math.pi * k / m, "j_max": 8}
    for n in (2, 3, 4):
        yield {"geometry": "sphere", "n": n, "j_max": 6}
    for L in np.random.default_rng(0).uniform(0.5, 20.0, 200):
        yield {"L": float(L), "j_max": 8}


def test_every_weight_builds_or_is_a_gamma_error():
    # every collision weight of I_gamma's two lines and of J's lower line
    # in the window, and 39 evenly spaced ones.  A pole on J's lower line
    # used to escape as InconsistentDomainError (252 weights here)
    collisions = 0
    for keys in _sweep_cross_sections():
        cs = Config(**keys).cross_section()
        build_extension(cs, default_weight(cs), 2.0)
        lo, hi = admissible_window(cs)
        lines = {0.5 * (cs.n + 1) - e.location - s
                 for e in compute_poles(cs) for s in (0, 2, 4)}
        weights = sorted(w for w in lines if lo < w < hi)
        for gamma in weights + [lo + i * (hi - lo) / 40 for i in range(1, 40)]:
            try:
                build_extension(cs, gamma, 2.0)
            except EndpointCollisionError:
                collisions += 1
                with pytest.raises(ConfigError, match=r"^/gamma: pole at "):
                    Config(gamma=gamma, **keys)
    assert collisions > 0


def _without_exact(obj):
    if isinstance(obj, dict):
        return {k: _without_exact(v) for k, v in obj.items() if k != "exact"}
    if isinstance(obj, list):
        return [_without_exact(v) for v in obj]
    return obj


def _domain_text(cs, gamma):
    """domain.json's text without the catalog's exact strings, or the error's name."""
    try:
        spec = build_extension(cs, gamma, 2.0)
    except (EndpointCollisionError, InconsistentDomainError) as e:
        return type(e).__name__
    return _ser(_without_exact(spec.to_json_dict()))


@settings(max_examples=80, deadline=None)
@given(b=strat.integers(1, 9), n=strat.sampled_from([1, 2, 3]),
       position=strat.floats(0.01, 0.99))
@example(b=1, n=1, position=0.5)                    # the unit circle's default weight
@example(b=4, n=1, position=0.25)                   # the half circle
@example(b=1, n=2, position=0.5)
def test_one_domain_per_spectrum(b, n, position):
    # an integer spectrum builds the same domain with and without its exact
    # eigenvalues: the circle-like -b j^2 for n = 1, the sphere's for n = 2, 3
    if n == 1:
        exact = [-b * j * j for j in range(9)]
        values, mult = [float(v) for v in exact], [1] + [2] * 8
    else:
        sphere = make_sphere(n, max_degree=6)
        exact, values, mult = sphere.exact_eigenvalues, sphere.eigenvalues, sphere.multiplicities
    with_exact = from_spectrum(n, values, mult, exact_eigenvalues=exact)
    float_only = from_spectrum(n, values, mult)
    lo, hi = admissible_window(with_exact)
    gamma = lo + position * (hi - lo)
    assert _domain_text(with_exact, gamma) == _domain_text(float_only, gamma)


def test_gamma_outside_window_rejected(cs8):
    for g in (-1.5, 0.0, 0.3, -1.0):
        with pytest.raises(ValueError):
            build_extension(cs8, g, 2.0)
    with pytest.raises(ValueError):
        build_extension(cs8, -0.5, 0.5)  # p < 1


def test_bilaplacian_domain_default_weight(cs8):
    spec = build_extension(cs8, -0.5, 2.0)
    assert spec.j_interval == pytest.approx((-2.5, -0.5))
    addons = [(a.mode, float(a.exponent), a.origin, a.has_log)
              for a in spec.bilaplacian_addons]
    assert (0, 0.0, "second-order", False) in addons
    assert (1, 1.0, "fourth-order-interval", False) in addons
    assert (0, 2.0, "fourth-order-interval", False) in addons
    assert (2, 2.0, "fourth-order-interval", False) in addons
    assert len(addons) == 4
    # no log partner anywhere at this weight
    assert not any(h for (_, _, _, h) in addons)


def test_domains_vary_with_weight(cs8):
    # closer to the left edge J shifts right and picks up other poles
    spec = build_extension(cs8, -0.9, 2.0)
    assert spec.j_interval == pytest.approx((-2.1, -0.1))
    exps = {(a.mode, float(a.exponent)) for a in spec.bilaplacian_addons}
    assert (0, 0.0) in exps
    for _, e in exps:
        assert e >= 0.0


def test_inner_bc_exponents_are_mode_indices(cs8):
    spec = build_extension(cs8, -0.5, 2.0)
    pairs = spec.inner_bc
    # Robin rates grow like the mode index on the unit circle
    for j in range(6):
        a, b = pairs[j]
        assert a == pytest.approx(float(j))
        assert b == pytest.approx(float(j))


def test_spectrum_only_cross_section_round_trip():
    cs = from_spectrum(3, [0.0, -3.0, -8.0], [1, 4, 9],
                       exact_eigenvalues=[0, -3, -8])
    spec = build_extension(cs, 0.5, 2.0)
    assert spec.window == (0.0, 1.0)
    assert len(spec.inner_bc) == cs.n_modes
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.inner_bc = ()


def test_json_dict_is_serializable(cs8):
    import json
    spec = build_extension(cs8, -0.5, 2.0)
    d = spec.to_json_dict()
    text = json.dumps(d)
    assert "fourth_order_addons" in d and "inner_bc" in d
    assert json.loads(text)["gamma"] == -0.5


def test_reconciliation_guard_is_wired(cs8, monkeypatch):
    # force a fake survivor outside J and watch the cross-check fire
    import conelab.extensions as ext
    real = ext._surviving_functions

    def tampered(cs, entry, *rest):
        out = real(cs, entry, *rest)
        if entry.location > -0.5 and entry.mode == 3 and not out:
            return [(ext.AsymptoticTerm(-entry.location, 0, entry.mode, 1),)]
        return out

    monkeypatch.setattr(ext, "_surviving_functions", tampered)
    with pytest.raises(InconsistentDomainError):
        build_extension(cs8, -0.5, 2.0)


@pytest.mark.parametrize("j_max", [8, 128])
def test_extension_is_the_same_on_a_shared_cross_section(j_max):
    # default_weight and build_extension share the one catalog stored on
    # cs, which holds only tuples, so no use of it changes the next
    fresh = make_circle(2.0 * np.pi, max_mode=j_max)
    want = build_extension(fresh, default_weight(fresh), 2.0).to_json_dict()
    shared = make_circle(2.0 * np.pi, max_mode=j_max)
    catalog = compute_poles(shared)
    for _ in range(2):
        assert build_extension(shared, default_weight(shared), 2.0).to_json_dict() == want
        assert compute_poles(shared) is catalog
        assert isinstance(catalog.entries, tuple) and isinstance(catalog.for_mode(1), tuple)
