import numpy as np
import pytest

from conelab import (FieldState, FitOverflowError, ZeroModeError, cli,
                     fit_exponents, interior_smoothness_report, match_catalog,
                     monomial_state, parse_config, select_extension)


def test_fit_recovers_pure_power(grid_tall):
    u = monomial_state(grid_tall, 1.7, mode=2)
    fit = fit_exponents(u, 2)
    assert fit["a_hat"] == pytest.approx(1.7, abs=1e-6)
    assert abs(fit["log_coeff"]) < 1e-6
    assert fit["residual"] < 1e-10
    assert fit["mode"] == 2 and fit["channel"] == grid_tall.channel_index(2, 0)
    lo, hi = fit["window"]
    assert 0.0 <= lo < hi <= grid_tall.t_max


def test_fit_recovers_log_pair(grid_tall):
    # 2 x + x log x: the two-term basis splits the pair, and the
    # log-to-power ratio lands at 1/2
    u = monomial_state(grid_tall, 1.0, mode=1, amplitude=2.0)
    u.coeffs += monomial_state(grid_tall, 1.0, mode=1, log_power=1).coeffs
    fit = fit_exponents(u, 1)
    assert fit["a_hat"] == pytest.approx(1.0, abs=1e-6)
    assert fit["log_coeff"] == pytest.approx(0.5, abs=1e-6)


def test_fit_survives_small_noise(grid_tall):
    rng = np.random.default_rng(2)
    u = monomial_state(grid_tall, 1.7, mode=2)
    col = grid_tall.channel_index(2, 0)
    u.coeffs[:, col] += 1e-6 * rng.normal(size=grid_tall.n_nodes)
    fit = fit_exponents(u, 2)
    assert fit["a_hat"] == pytest.approx(1.7, abs=0.02)


def test_fit_zero_mode_and_window_validation(grid_tall):
    u = monomial_state(grid_tall, 1.7, mode=2)
    with pytest.raises(ZeroModeError):
        fit_exponents(u, 3)
    for bad in ((-1.0, 5.0), (5.0, 20.0), (6.0, 6.0)):
        with pytest.raises(ValueError):
            fit_exponents(u, 2, window=bad)
    fit = fit_exponents(u, 2, window=(2.0, 6.0))
    assert fit["a_hat"] == pytest.approx(1.7, abs=1e-6)


def _steep_profile(grid, drop=1.001e-3):
    """Mode 0 holding 1 and drop on two adjacent window nodes.

    The log-slope between them, ln(1/drop)/h, is the scan's centre: 345
    on a 500-interval grid at the default drop.  exp(-a (t - t0))
    overflows on the default window past a = 205, and its squared norm
    past about 103.
    """
    u = FieldState.zeros(grid)
    i = int(np.searchsorted(grid.t, grid.t_max - 4.0 * np.log(10.0))) + 20
    u.coeffs[i:i + 2, grid.channel_index(0, 0)] = (1.0, drop)
    return u


def test_fit_overflow_raises_before_lapack(grid_tall, capfd):
    with pytest.raises(FitOverflowError, match="^mode 0: the fit basis at rates near 345"):
        fit_exponents(_steep_profile(grid_tall), 0)
    # LAPACK's DLASCL complaints went to the process's stderr
    assert capfd.readouterr().err == ""
    # at rates near 150 the basis stays finite: the fit runs, and the
    # one-pass scan's overflowing norms raise no warning
    with np.errstate(over="raise", invalid="raise"):
        assert fit_exponents(_steep_profile(grid_tall, 0.05), 0)["a_hat"] > 103.0


def test_asympt_overflow_is_a_numerical_failure(monkeypatch, tmp_path, capfd):
    path = tmp_path / "cfg.json"
    path.write_text('{"t_max": 10.0, "j_max": 8}')

    def steep_run(config, context, diagnostics):
        return [_steep_profile(context[1])], []

    monkeypatch.setattr(cli, "run", steep_run)
    assert cli.dispatch("asympt", parse_config(str(path)), str(tmp_path)) == 2
    err = capfd.readouterr().err
    assert err.startswith("error: mode 0: the fit basis at rates near 345")
    assert err.count("\n") == 1


def test_match_catalog_verdicts(spec8):
    hit = match_catalog(1.0, spec8, mode=1)
    assert hit["verdict"] == "pass" and hit["distance"] == 0.0
    assert hit["admissible"] == [1.0, 2.5]
    near = match_catalog(1.02, spec8, mode=1)
    assert near["verdict"] == "pass" and near["matched_exponent"] == 1.0
    assert match_catalog(0.7, spec8, mode=1)["verdict"] == "fail"
    allm = match_catalog(3.5, spec8)
    assert allm["admissible"] == [0.0, 1.0, 2.0, 2.5]
    assert allm["matched_exponent"] == 2.5 and allm["verdict"] == "fail"


def test_match_catalog_needs_full_domain(cs8):
    partial = select_extension(-0.5, 2.0, cs8)
    with pytest.raises(ValueError):
        match_catalog(1.0, partial)


def test_interior_smoothness_smooth_vs_kinked(grid_tall):
    smooth = monomial_state(grid_tall, 2.0, mode=0)
    rep = interior_smoothness_report(smooth)
    assert rep["region"] == (0.1, 1.0)
    assert [r["stride"] for r in rep["rows"]] == [1, 2, 4]
    assert rep["max_ratio"] < 1.2
    # an interior kink loses fourth differences: fine grids see it harder
    kinked = FieldState.zeros(grid_tall)
    kinked.coeffs[:, 0] = np.abs(grid_tall.x - 0.5) ** 1.5
    assert interior_smoothness_report(kinked)["max_ratio"] > 2.0


def test_interior_smoothness_region_validation(grid_tall):
    u = monomial_state(grid_tall, 2.0, mode=0)
    with pytest.raises(ValueError):
        interior_smoothness_report(u, region=(0.01, 1.0))
    with pytest.raises(ValueError):
        interior_smoothness_report(u, region=(0.4, 0.45))
