"""Near-tip exponent extraction and interior smoothness diagnostics.

A mode profile that behaves like x^a (c0 + c1 log x) near the tip is, in
the log variable, e^(-a t)(c0 - c1 t).  fit_exponents scans the rate a
against a least-squares fit in the two-function basis
{e^(-a t), -t e^(-a t)} over a near-tip window, refines the best rate by
golden-section search, and reports the rate, the log-to-plain
coefficient ratio, and the relative residual.  The coarse scan takes
every rate's residual in one whole-array pass and confirms its minimum
with the same least-squares fit the refinement uses.  The window keeps one
decade of x clear of the grid end to avoid boundary-row pollution.  A
profile so steep that the basis overflows on the window at the scanned
rates is no power law there; fit_exponents raises FitOverflowError for
it before any least-squares fit.
"""

from typing import Optional, Tuple

import numpy as np
from numpy.linalg import LinAlgError

from .config import DEFAULTS
from .extensions import ExtensionSpec
from .mellin import FieldState

_LN10 = float(np.log(10.0))
_GOLD = 0.5 * (np.sqrt(5.0) - 1.0)


class ZeroModeError(ValueError):
    """The requested mode carries no signal on the fit window."""


class FitOverflowError(LinAlgError):
    """The fit basis overflows on the window at the rates the profile asks for."""


def _fitter(t: np.ndarray, y: np.ndarray, t0: float):
    """fit_at(a) -> (relative residual, coefficients) of y in the basis at rate a.

    The parts that do not depend on a are computed once, here.
    """
    shifted = t - t0
    neg_t = -t
    y_norm = np.linalg.norm(y)
    X = np.empty((t.size, 2))

    def fit_at(a: float):
        b0 = np.exp(-a * shifted)
        X[:, 0] = b0
        np.multiply(neg_t, b0, out=X[:, 1])
        coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
        return float(np.linalg.norm(y - X @ coef) / y_norm), coef
    return fit_at


# scan rates whose one-pass residual lies this close to the smallest are
# refitted by fit_at.  The two residuals agree to about 1e-15; while they
# agree to half this, fit_at's first minimum is on the shortlist
_SHORTLIST_TOL = 1e-9


def _scan_residuals(t: np.ndarray, y: np.ndarray, t0: float,
                    rates: np.ndarray) -> np.ndarray:
    """Relative residual of y in the basis at every rate, in one pass.

    Row r of B0 and B1 holds the two basis columns at rates[r]; two-pass
    Gram-Schmidt makes each pair orthonormal, and y minus its projection
    is the least-squares residual.
    """
    B0 = np.exp(-rates[:, np.newaxis] * (t - t0))
    B1 = -t * B0
    B0 /= np.linalg.norm(B0, axis=1)[:, np.newaxis]
    for _ in range(2):
        B1 -= np.einsum("rn,rn->r", B0, B1)[:, np.newaxis] * B0
    B1 /= np.linalg.norm(B1, axis=1)[:, np.newaxis]
    resid = y - (B0 @ y)[:, np.newaxis] * B0
    resid -= (B1 @ y)[:, np.newaxis] * B1
    return np.linalg.norm(resid, axis=1) / np.linalg.norm(y)


def _scan_minimum(fit_at, t: np.ndarray, y: np.ndarray, t0: float,
                  rates: np.ndarray) -> int:
    """Index of the first rate of least fit_at residual.

    fit_at runs only on the shortlist of rates whose one-pass residual is
    near the smallest.  A NaN there (an overflowing basis) lists every
    rate, so fit_at meets it as it would in a per-rate scan.
    """
    # a basis past about 1e154 overflows the norms into the NaN above
    with np.errstate(over="ignore", invalid="ignore"):
        batched = _scan_residuals(t, y, t0, rates)
    shortlist = np.flatnonzero(~(batched > np.min(batched) + _SHORTLIST_TOL))
    return int(shortlist[np.argmin([fit_at(a)[0] for a in rates[shortlist]])])


def fit_exponents(u: FieldState, j: int,
                  window: Optional[Tuple[float, float]] = None) -> dict:
    """Fit the near-tip decay rate and log content of mode j.

    Parameters
    ----------
    u : FieldState
    j : int
        Mode index; the branch with the most window energy is fitted.
    window : (float, float), optional
        t-interval; defaults to [t_max - 4 ln 10, t_max - ln 10], i.e.
        three decades of x ending one decade short of the tip, clamped
        to [0, t_max] on short grids.

    Returns
    -------
    dict
        a_hat, log_coeff = c1/c0, residual (relative), window, channel.
    """
    grid = u.grid
    if window is None:
        window = (max(0.0, grid.t_max - 4.0 * _LN10), grid.t_max - _LN10)
    lo, hi = float(window[0]), float(window[1])
    if not 0.0 <= lo < hi <= grid.t_max:
        raise ValueError("fit window must sit inside [0, t_max]")
    mask = (grid.t >= lo - 1e-12) & (grid.t <= hi + 1e-12)
    if int(mask.sum()) < 8:
        raise ValueError("fit window holds fewer than 8 radial nodes")
    cols = [c for c, (jj, _) in enumerate(grid.channels) if jj == j]
    if not cols:
        raise ValueError("mode beyond the grid truncation")
    energy = [float(np.sum(u.coeffs[mask, c] ** 2)) for c in cols]
    best = cols[int(np.argmax(energy))]
    t = grid.t[mask]
    y = u.coeffs[mask, best]
    peak = float(np.max(np.abs(y)))
    if peak == 0.0 or peak < 1e-280:
        raise ZeroModeError(f"mode {j} vanishes on the fit window")
    t0 = float(t.mean())
    nz = np.nonzero(np.abs(y) > 1e-3 * peak)[0]
    a_rough = (np.log(abs(y[nz[0]])) - np.log(abs(y[nz[-1]]))) / (t[nz[-1]] - t[nz[0]])
    scan = np.linspace(a_rough - 4.0, a_rough + 4.0, 161)
    # every rate fitted below lies in the scan, and on each node the basis
    # is largest at one of its ends: past those LAPACK meets infinities
    with np.errstate(over="ignore", invalid="ignore"):
        edges = t * np.exp(-scan[[0, -1], np.newaxis] * (t - t0))
    if not np.all(np.isfinite(edges)):
        raise FitOverflowError(
            f"mode {j}: the fit basis at rates near {a_rough:.4g} overflows on "
            f"the window [{lo:g}, {hi:g}]; the profile is no power law there")
    fit_at = _fitter(t, y, t0)
    k = _scan_minimum(fit_at, t, y, t0, scan)
    a_lo = scan[max(0, k - 1)]
    a_hi = scan[min(len(scan) - 1, k + 1)]
    # golden-section refinement of the residual minimum
    c = a_hi - _GOLD * (a_hi - a_lo)
    d = a_lo + _GOLD * (a_hi - a_lo)
    fc = fit_at(c)[0]
    fd = fit_at(d)[0]
    for _ in range(70):
        if fc < fd:
            a_hi, d, fd = d, c, fc
            c = a_hi - _GOLD * (a_hi - a_lo)
            fc = fit_at(c)[0]
        else:
            a_lo, c, fc = c, d, fd
            d = a_lo + _GOLD * (a_hi - a_lo)
            fd = fit_at(d)[0]
    a_hat = 0.5 * (a_lo + a_hi)
    resid, coef = fit_at(a_hat)
    # centering the exponential rescales both coefficients alike, so the
    # ratio is the log-to-plain content of x^a (c0 + c1 log x)
    log_coeff = float(coef[1] / coef[0]) if coef[0] != 0.0 else float("inf")
    return {
        "mode": int(j),
        "channel": int(best),
        "a_hat": float(a_hat),
        "log_coeff": log_coeff,
        "residual": resid,
        "window": (lo, hi),
    }


def match_catalog(a_hat: float, spec: ExtensionSpec, tol: float = DEFAULTS["fit_tol"],
                  mode: Optional[int] = None) -> dict:
    """Nearest admissible tip exponent and a pass/fail verdict.

    Admissible rates are the fourth-order addon exponents (restricted to
    one mode when given) together with the minimal-domain threshold.
    """
    exps = set()
    for addon in spec.bilaplacian_addons:
        if mode is None or addon.mode == mode:
            exps.add(float(addon.exponent))
    exps.add(spec.minimal_threshold(4))
    admissible = sorted(exps)
    dists = [abs(a_hat - e) for e in admissible]
    k = int(np.argmin(dists))
    return {
        "a_hat": float(a_hat),
        "matched_exponent": admissible[k],
        "distance": float(dists[k]),
        "verdict": "pass" if dists[k] <= tol else "fail",
        "admissible": admissible,
        "tol": float(tol),
    }


def interior_smoothness_report(u: FieldState,
                               region: Tuple[float, float] = (0.1, 1.0)) -> dict:
    """Fourth-order difference-quotient norms away from the tip.

    Computes the full stack sum_{i+m<=4} of i-th forward differences
    scaled by h^(-i) times the modal multiplier Lam^m, at strides
    1, 2, 4, over the x-region (the region must stay within [0.1, 1]).
    Stable fine-over-coarse ratios (near 1) certify that the field keeps
    its interior regularity; growth flags a singularity inside the
    region.
    """
    x_a, x_b = float(region[0]), float(region[1])
    if not (0.1 - 1e-12 <= x_a < x_b <= 1.0 + 1e-12):
        raise ValueError("region must satisfy 0.1 <= x_a < x_b <= 1")
    grid = u.grid
    t_lo, t_hi = -np.log(x_b), -np.log(x_a)
    mask = (grid.t >= t_lo - 1e-12) & (grid.t <= t_hi + 1e-12)
    sub_all = u.coeffs[mask, :]
    mult = np.sqrt(np.maximum(-grid.channel_lams, 0.0))
    rows = []
    for stride in (1, 2, 4):
        sub = sub_all[::stride, :]
        if sub.shape[0] < 9:
            raise ValueError("region too narrow for a stride-4 fourth difference")
        h = stride * grid.dt
        total = 0.0
        for i in range(5):
            diff = sub
            for _ in range(i):
                diff = np.diff(diff, axis=0)
            quot = diff / h ** i
            for m in range(5 - i):
                w = quot * mult[np.newaxis, :] ** m if m else quot
                total += h * float(np.sum(w * w))
        rows.append({"stride": stride, "h": h, "value": float(np.sqrt(total))})
    vals = [r["value"] for r in rows]
    ratios = []
    for fine, coarse in ((0, 1), (1, 2)):
        if vals[coarse] == 0.0:
            ratios.append(1.0 if vals[fine] == 0.0 else float("inf"))
        else:
            ratios.append(vals[fine] / vals[coarse])
    return {
        "region": (x_a, x_b),
        "rows": rows,
        "ratios": ratios,
        "max_ratio": float(max(ratios)),
    }
