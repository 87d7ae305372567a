"""Matrix-scale checks of sectoriality, imaginary powers, and perturbations.

Everything here runs on small dense matrices: random SPD samples and the
symmetrized mode-0 radial Laplacian on a coarse grid.  The symmetrization
conjugates the interior block by the volume half-weight e^(-t) (exact for
a one dimensional cross-section) and averages away the remaining floating
point skew, which gives exact eigendecomposition oracles while keeping
the operator's scale structure.
"""

from dataclasses import asdict, dataclass, field
from typing import Iterable

import numpy as np

from .assembly import RadialOperator
from .config import DEFAULTS
from .extensions import ExtensionSpec
from .mellin import ConeGrid


# the t grid of verify_square_identity and bip_estimate
_T_GRID = np.linspace(-2.0, 2.0, 17)


class SpectrumInSectorError(ValueError):
    """The matrix has spectrum inside the forbidden sector -S_theta."""


def _as_square(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("a square matrix is required")
    return A


def _spd_eigh(A: np.ndarray):
    A = _as_square(A)
    scale = np.max(np.abs(A)) or 1.0
    if np.max(np.abs(A - A.T)) > 1e-12 * scale:
        raise ValueError("symmetric input required")
    w, Q = np.linalg.eigh(A)
    if w[0] <= 0:
        raise ValueError("positive definite input required")
    return w, Q


def matrix_power_spd(A: np.ndarray, z: complex) -> np.ndarray:
    """A^z for SPD A via eigendecomposition; z may be complex."""
    w, Q = _spd_eigh(A)
    return (Q * np.exp(z * np.log(w))) @ Q.T


def imaginary_power_integral(A: np.ndarray, z: complex) -> np.ndarray:
    """A^(-z) for 0 < Re z < 1 by quadrature of the resolvent integral.

    The integral (sin pi z / pi) int_0^inf u^(-z) (A+u)^(-1) du is taken
    in the substitution u = e^s with a trapezoid rule of spacing
    h = 0.25; the window extends margin/(Re z) and margin/(1 - Re z)
    beyond the spectral interval, margin = 40, making both truncation
    tails O(e^(-40)).
    """
    h, margin = 0.25, 40.0
    z = complex(z)
    x = z.real
    if not 0.0 < x < 1.0:
        raise ValueError("need 0 < Re z < 1 for the integral formula")
    w, _ = _spd_eigh(A)
    s_lo = np.log(w[0]) - margin / (1.0 - x)
    s_hi = np.log(w[-1]) + margin / x
    m = int(np.ceil((s_hi - s_lo) / h)) + 1
    s = np.linspace(s_lo, s_hi, m)
    hs = s[1] - s[0]
    n = A.shape[0]
    eye = np.eye(n)
    acc = np.zeros((n, n), dtype=complex)
    for k, sk in enumerate(s):
        weight = 0.5 if k in (0, m - 1) else 1.0
        acc += weight * np.exp((1.0 - z) * sk) * np.linalg.solve(A + np.exp(sk) * eye, eye)
    return (np.sin(np.pi * z) / np.pi) * hs * acc


def sector_resolvent_bound(A: np.ndarray, theta: float, samples: int = 200) -> float:
    """sup of (1+|z|) ||(A+z)^(-1)|| over a log-radial sweep of S_theta.

    Raises SpectrumInSectorError when an eigenvalue of A lies in the
    closed reflected sector, i.e. -lambda within angle theta of the
    positive axis (the resolvent would blow up there).
    """
    A = _as_square(A)
    eigs = np.linalg.eigvals(A)
    for lam in eigs:
        m = -lam
        if abs(m) < 1e-14 or abs(np.angle(m)) <= theta + 1e-12:
            raise SpectrumInSectorError(f"eigenvalue {lam} meets the sector")
    n_ang = 9
    angles = np.linspace(-theta, theta, n_ang) if theta > 0 else np.array([0.0])
    n_rad = max(1, samples // len(angles))
    scale = max(1.0, float(np.linalg.norm(A, 2)))
    radii = np.logspace(-8, 8, n_rad) * scale
    eye = np.eye(A.shape[0])
    best = 0.0
    for r in radii:
        for a in angles:
            zval = r * np.exp(1j * a)
            sig = np.linalg.svd(A + zval * eye, compute_uv=False)[-1]
            best = max(best, (1.0 + abs(zval)) / sig)
    return float(best)


def verify_square_identity(A: np.ndarray) -> float:
    """max_t ||(A^2)^(it) - A^(2it)|| with independent eigendecompositions.

    t runs over the 17 equally spaced points of [-2, 2].
    """
    A = _as_square(A)
    B = A @ A
    wB, QB = _spd_eigh(B)
    wA, QA = _spd_eigh(A)
    dev = 0.0
    for t in _T_GRID:
        left = (QB * np.exp(1j * t * np.log(wB))) @ QB.T
        right = (QA * np.exp(2j * t * np.log(wA))) @ QA.T
        dev = max(dev, float(np.linalg.norm(left - right, 2)))
    return dev


def bip_estimate(A: np.ndarray, phi: float) -> float:
    """M = max_t ||A^(it)|| e^(-phi |t|), t over the 17 equally spaced points of [-2, 2]."""
    w, Q = _spd_eigh(A)
    best = 0.0
    for t in _T_GRID:
        op = (Q * np.exp(1j * t * np.log(w))) @ Q.T
        best = max(best, float(np.linalg.norm(op, 2)) * np.exp(-phi * abs(t)))
    return best


def perturbation_conditions(A: np.ndarray, B: np.ndarray, mu: float,
                            theta: float = 0.75 * np.pi, beta: float = 0.5,
                            samples: int = 200) -> dict:
    """Sample the two perturbation bounds along the proof contour.

    The contour Gamma(R, theta), R = (1-beta)^(-1) K with K the
    sectoriality constant of A^2 + mu at angle theta, is an arc of
    radius R plus two log-spaced rays at angles +-theta.

    Condition (i): max over lambda in Gamma of ||B (A^2+mu+lambda)^(-1)||,
    compared against beta.  Condition (ii): least-squares slope of
    log ||(A^2+mu+lambda)^(-1) B (A^2+mu+lambda)^(-1)|| against
    log |lambda| over the top two sampled decades, where the true decay
    sits between |lambda|^(-3/2) and |lambda|^(-2).
    """
    A = _as_square(A)
    B = _as_square(B)
    A2mu = A @ A + mu * np.eye(A.shape[0])
    K = sector_resolvent_bound(A2mu, theta, samples=60)
    radius = K / (1.0 - beta)
    n_arc = max(8, samples // 10)
    n_ray = max(4, (samples - n_arc) // 2)
    eye = np.eye(A.shape[0])

    def resolvent(zval):
        return np.linalg.solve(A2mu + zval * eye, eye + 0j)

    cond_i = 0.0
    for ang in np.linspace(-theta, theta, n_arc):
        R = resolvent(radius * np.exp(1j * ang))
        cond_i = max(cond_i, float(np.linalg.norm(B @ R, 2)))
    ray_r = np.logspace(np.log10(radius), np.log10(radius) + 12.0, n_ray)
    decay = np.zeros(n_ray)
    for i, r in enumerate(ray_r):
        for sgn in (1.0, -1.0):
            R = resolvent(r * np.exp(sgn * 1j * theta))
            cond_i = max(cond_i, float(np.linalg.norm(B @ R, 2)))
            decay[i] = max(decay[i], float(np.linalg.norm(R @ B @ R, 2)))
    window = ray_r >= ray_r[-1] * 1e-2
    logs_r = np.log(ray_r[window])
    logs_d = np.log(decay[window])
    slope, intercept = np.polyfit(logs_r, logs_d, 1)
    resid = float(np.sqrt(np.mean((logs_d - (slope * logs_r + intercept)) ** 2)))
    return {
        "mu": float(mu),
        "beta": float(beta),
        "theta": float(theta),
        "condition_i": float(cond_i),
        "condition_i_pass": bool(cond_i <= beta),
        "decay_slope": float(slope),
        "decay_residual": resid,
        "decay_pass": bool(slope <= -1.4),
        "contour_radius": float(radius),
        "samples": int(n_arc + 2 * n_ray),
    }


def symmetrized_laplacian(grid: ConeGrid, spec: ExtensionSpec, mode: int = 0) -> np.ndarray:
    """PSD interior reduction of minus the mode radial Laplacian.

    Folds the image rows into the interior block (outer copy, tip decay
    ratio), conjugates by the e^(-t) half-weight, and symmetrizes.  The
    conjugation is an exact symmetrizer for n = 1; the averaging removes
    the leftover skew in other dimensions.
    """
    if not 0 <= mode <= grid.j_max:
        raise ValueError("mode index outside the grid truncation")
    lap = RadialOperator(grid, spec)
    N = grid.n_radial
    full = np.zeros((N + 1, N + 1))
    np.put_along_axis(full, lap.cols, lap.vals[mode], axis=1)
    T = full[1:N, 1:N].copy()
    T[0, 0] += full[1, 0]
    T[-1, -1] += lap.tip_ratio(2)[mode] * full[N - 1, N]
    w = np.exp(-grid.t[1:N])
    Ts = (w[:, np.newaxis] * T) / w[np.newaxis, :]
    return -0.5 * (Ts + Ts.T)


@dataclass
class LabReport:
    """Collected constants and pass flags from one lab sweep."""

    theta: float
    K_estimate: float
    phi: float
    M_estimate: float
    square_identity_dev: float
    integral_vs_eigh_dev: float
    beta: float
    perturbation: list
    samples: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """The fields by name, in field order."""
        return asdict(self)


def lab_report(grid: ConeGrid, spec: ExtensionSpec, mode: int = DEFAULTS["lab_mode"],
               shift: float = DEFAULTS["lab_shift"], theta: float = DEFAULTS["lab_theta"],
               contour_theta: float = DEFAULTS["lab_contour_theta"],
               beta: float = DEFAULTS["lab_beta"], phi: float = DEFAULTS["lab_phi"],
               samples: int = DEFAULTS["lab_samples"],
               mus: Iterable[float] = DEFAULTS["lab_mu"]) -> LabReport:
    """Run the full sweep on the shifted symmetrized mode operator."""
    S = symmetrized_laplacian(grid, spec, mode)
    A = shift * np.eye(S.shape[0]) + S
    K = sector_resolvent_bound(A, theta, samples)
    M = bip_estimate(A, phi)
    sq = verify_square_identity(A)
    direct = matrix_power_spd(A, -0.25)
    integral = imaginary_power_integral(A, 0.25)
    dev = float(np.linalg.norm(direct - integral, 2) / np.linalg.norm(direct, 2))
    Bmat = 2.0 * shift * S + shift ** 2 * np.eye(S.shape[0])
    frags = [perturbation_conditions(A, Bmat, mu, contour_theta, beta, samples)
             for mu in mus]
    return LabReport(
        theta=float(theta), K_estimate=float(K), phi=float(phi),
        M_estimate=float(M), square_identity_dev=float(sq),
        integral_vs_eigh_dev=dev, beta=float(beta), perturbation=frags,
        samples={"resolvent": int(samples), "contour": int(samples),
                 "interior_nodes": int(S.shape[0]), "shift": float(shift),
                 "mode": int(mode)},
        tolerances={"square_identity": 1e-8, "integral_vs_eigh": 1e-6,
                    "condition_i_beta": float(beta), "decay_slope": -1.4},
    )
