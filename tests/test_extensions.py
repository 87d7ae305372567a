import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from conelab import (EndpointCollisionError, InconsistentDomainError,
                     admissible_window, build_extension, compute_poles,
                     default_weight, from_spectrum, interval_I, make_circle,
                     make_sphere, weight_window)


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
    with pytest.raises(EndpointCollisionError):
        interval_I(-1.0, cs)


def test_selected_choices_at_default_weight(cs8):
    spec = build_extension(cs8, -0.5, 2.0)
    by_mode = {s.entry.mode: s for s in spec.selected}
    assert by_mode[0].choice == "E_00" and by_mode[0].rule == "i"
    assert by_mode[1].choice == "zero" and by_mode[1].rule == "i"
    assert [(a.mode, float(a.exponent)) for a in spec.laplacian_addons] == [(0, 0.0)]


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
