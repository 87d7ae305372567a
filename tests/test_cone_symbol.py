from fractions import Fraction

import numpy as np
import pytest

from conelab import (AsymptoticTerm, PoleProximityError, apply_symbol,
                     compute_bilaplacian_poles, compute_poles, from_spectrum,
                     invert_symbol, make_circle, make_sphere,
                     symbolic_laplacian)
from conelab.cone_symbol import bilaplacian_poles_in, indicial_polynomial


def _root_oracle(n, lam):
    # roots of z^2 - (n-1) z + lam via the generic polynomial solver
    return sorted(np.roots([1.0, -(n - 1), lam]).real)


def test_circle_pole_locations_match_root_oracle():
    cs = make_circle(2.0 * np.pi, max_mode=6)
    cat = compute_poles(cs)
    for j in range(cs.n_modes):
        got = sorted(e.location for e in cat.for_mode(j) for _ in range(e.order))
        want = _root_oracle(cs.n, cs.eigenvalues[j])
        assert got == pytest.approx(want, abs=1e-12)


def test_circle_poles_exact_rational():
    cat = compute_poles(make_circle(2.0 * np.pi, max_mode=5))
    for j in range(6):
        exact = sorted(e.exact for e in cat.for_mode(j))
        assert exact == sorted({Fraction(-j), Fraction(j)})
    # mode 0 carries one order-2 entry at 0, not two simple ones
    zero = cat.for_mode(0)
    assert len(zero) == 1 and zero[0].order == 2 and zero[0].exact == 0


def test_sphere_poles_exact():
    cs = make_sphere(2, max_degree=4)
    cat = compute_poles(cs)
    for j in range(5):
        # z^2 - z - k(k+1) factors as (z - (k+1))(z + k)
        exact = sorted(e.exact for e in cat.for_mode(j))
        assert exact == sorted({Fraction(j + 1), Fraction(-j)})


def test_irrational_spectrum_falls_back_to_floats():
    cs = from_spectrum(1, [0.0, -2.5], [1, 2])
    cat = compute_poles(cs)
    entries = cat.for_mode(1)
    assert all(e.exact is None for e in entries)
    got = sorted(e.location for e in entries)
    assert got == pytest.approx(_root_oracle(1, -2.5), abs=1e-12)


def test_bilaplacian_double_poles_unit_circle():
    cs = make_circle(2.0 * np.pi, max_mode=6)
    cat4 = compute_bilaplacian_poles(cs)
    doubles = sorted(e.exact for e in cat4 if e.order == 2)
    assert doubles == [Fraction(-2), Fraction(-1), Fraction(0)]
    merged = [e for e in cat4 if e.origin == "merged"]
    assert {(e.exact, e.mode) for e in merged} == {(Fraction(-1), 1)}
    # simple poles of mode j >= 2 sit at +-j and +-j - 2
    for j in (2, 5):
        locs = sorted(e.exact for e in cat4.for_mode(j))
        assert locs == sorted({Fraction(j), Fraction(-j), Fraction(j - 2), Fraction(-j - 2)})


def test_symbol_roundtrip_random():
    cs = make_circle(2.0 * np.pi, max_mode=8)
    cat = compute_poles(cs)
    rng = np.random.default_rng(11)
    done = 0
    while done < 50:
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if cat.min_distance(z) < 1e-3:
            continue
        c = rng.normal(size=cs.n_modes) + 1j * rng.normal(size=cs.n_modes)
        back = invert_symbol(z, apply_symbol(z, c, cs), cs)
        assert np.max(np.abs(back - c)) < 1e-12 * np.max(np.abs(c))
        done += 1


def test_invert_refuses_near_pole():
    cs = make_circle(2.0 * np.pi, max_mode=4)
    with pytest.raises(PoleProximityError):
        invert_symbol(2.0 + 1e-12j, np.ones(cs.n_modes), cs)


def test_apply_symbol_is_indicial_mirror():
    # Q_j(-z) = P_j(z): the symbol at z equals the indicial coefficient at -z
    cs = make_sphere(2, max_degree=3)
    z = 1.37 - 0.4j
    vals = apply_symbol(z, np.ones(cs.n_modes), cs)
    for j in range(cs.n_modes):
        assert vals[j] == pytest.approx(
            complex(indicial_polynomial(-z, cs.eigenvalues[j], cs.n)), abs=1e-12)


def test_symbolic_laplacian_harmonic_monomials():
    cs = make_circle(2.0 * np.pi, max_mode=4)
    # x^j and x^-j on mode j are annihilated: Q_j(+/-j) is 0.0 in floats
    for j in (1, 3):
        for a in (j, -j):
            assert symbolic_laplacian(AsymptoticTerm(float(a), 0, j), cs) == []
    out = symbolic_laplacian(AsymptoticTerm(1.0, 0, 0, 2.0), cs)
    assert len(out) == 1
    t = out[0]
    assert (t.exponent, t.log_power, t.mode, t.coefficient) == (-1.0, 0, 0, 2.0)
    assert type(t.exponent) is float and type(t.coefficient) is float


def test_symbolic_laplacian_log_branch():
    cs = make_circle(2.0 * np.pi, max_mode=2)
    # Lap(x^a log x e_j) = x^(a-2) (Q log x + Q'), in floats
    a, j = 3.0, 1
    out = symbolic_laplacian(AsymptoticTerm(a, 1, j), cs)
    by_log = {t.log_power: t for t in out}
    assert by_log[1].coefficient == a * a - 1    # Q_1(3) = 9 - 1
    assert by_log[0].coefficient == 2 * a        # Q'(3) = 6 (n = 1)
    assert all(t.exponent == a - 2 for t in out)
    # resonant log monomial: log term dies, derivative term survives
    out0 = symbolic_laplacian(AsymptoticTerm(1.0, 1, 1), cs)
    assert len(out0) == 1 and out0[0].log_power == 0 and out0[0].coefficient == 2


def test_asymptotic_term_rejects_high_log_powers():
    with pytest.raises(ValueError):
        AsymptoticTerm(1, 2, 0)


@pytest.mark.parametrize("geometry", ["circle", "sphere"])
def test_for_mode_matches_an_entry_scan(geometry):
    # for_mode reads the index built with the catalog
    if geometry == "circle":
        cs = make_circle(2.0 * np.pi, max_mode=128)
    else:
        cs = make_sphere(2, max_degree=8)
    cat = compute_poles(cs)
    for catalog in (cat, compute_bilaplacian_poles(cs)):
        for j in range(cs.n_modes + 1):         # the last mode has no entries
            assert catalog.for_mode(j) == tuple(e for e in catalog.entries if e.mode == j)


@pytest.mark.parametrize("cs", [make_circle(2.0 * np.pi, max_mode=32),
                                make_circle(3.0, max_mode=8), make_sphere(2, max_degree=6),
                                from_spectrum(3, [0.0, -3.0, -5.0, -6.0], [1, 4, 3, 2],
                                              exact_eigenvalues=[0, -3, -5, -6])],
                         ids=["circle", "float-circle", "sphere", "mixed"])
def test_bilaplacian_poles_in_filters_the_full_catalog(cs):
    # the strip of the extension at each weight, an empty interval, and
    # intervals whose ends sit on poles
    full = compute_bilaplacian_poles(cs).entries
    bounds = [(-2.5, 1.5), (-3.25, 0.75), (-1.0, 1.0), (-2.0, 0.0), (0.3, 0.3), (-50.0, 50.0)]
    for lo, hi in bounds:
        assert bilaplacian_poles_in(cs, lo, hi).entries == tuple(
            e for e in full if lo <= e.location < hi)


def test_compute_poles_shares_one_unchangeable_catalog():
    # the catalog is computed once per cross-section and shared: it holds
    # tuples of frozen entries, so no caller can change it for another
    cs = make_circle(2.0 * np.pi, max_mode=8)
    cat = compute_poles(cs)
    assert compute_poles(cs) is cat
    assert cat == compute_poles(make_circle(2.0 * np.pi, max_mode=8))
    assert isinstance(cat.entries, tuple) and len(cat) == 17
    for j in range(cs.n_modes):
        assert isinstance(cat.for_mode(j), tuple)
    assert len(cat.for_mode(1)) == 2
