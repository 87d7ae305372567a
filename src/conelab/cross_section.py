"""Cross sections of the model cone.

A cross section is described by the spectrum of its Laplace-Beltrami operator:
a finite list of distinct eigenvalues 0 = lam_0 > lam_1 > ... with
multiplicities, an orthonormal family of eigenfunctions and a quadrature rule
that integrates products of the retained eigenfunctions exactly (up to
roundoff).  Two concrete geometries are built in, the flat circle of
prescribed circumference and the round unit sphere; arbitrary spectra can be
supplied directly for symbol-level work.

Eigenvalues are kept twice when possible: as floats, and as exact rationals
(`fractions.Fraction`) whenever the construction yields them exactly.  The
exact channel is what downstream pole bookkeeping uses to recognize
coincident roots without tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "CrossSection",
    "make_circle",
    "circle_basis",
    "make_sphere",
    "from_spectrum",
    "project",
]


@dataclass
class CrossSection:
    """Spectral description of the cone's cross section.

    A cross section is not changed after it is built: all of its pole
    data derives from its spectrum, and cone_symbol.compute_poles stores
    the one pole catalog that every caller shares on it.

    Attributes
    ----------
    n : int
        Dimension of the cross section (the cone has dimension n + 1).
    eigenvalues : list[float]
        Distinct eigenvalues of the cross-section Laplacian, strictly
        decreasing from 0.
    multiplicities : list[int]
        Multiplicity of each eigenvalue.
    exact_eigenvalues : list[Fraction] | None
        Exact rational values when available, parallel to `eigenvalues`.
    geometry : str
        One of "circle", "sphere", "spectrum".
    nodes, weights :
        Quadrature rule on the cross section (None for spectrum-only input).
        For the circle the nodes are angles in [0, L); for the sphere pairs
        (polar, azimuth) flattened to arrays.
    """

    n: int
    eigenvalues: list
    multiplicities: list
    exact_eigenvalues: Optional[list] = None
    geometry: str = "spectrum"
    circumference: Optional[float] = None
    max_degree: Optional[int] = None
    nodes: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    _evaluator: Optional[Callable] = field(default=None, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("cross-section dimension n must be >= 1")
        if len(self.eigenvalues) != len(self.multiplicities):
            raise ValueError("eigenvalues and multiplicities differ in length")
        if len(self.eigenvalues) == 0:
            raise ValueError("need at least the constant mode")
        if abs(self.eigenvalues[0]) > 0:
            raise ValueError("lam_0 must be 0 (constant eigenfunction)")
        prev = 0.0
        for j, lam in enumerate(self.eigenvalues):
            if j > 0 and not lam < prev:
                raise ValueError("eigenvalues must be strictly decreasing")
            prev = lam
        for m in self.multiplicities:
            if int(m) != m or m < 1:
                raise ValueError("multiplicities must be positive integers")

    # -- basic queries ---------------------------------------------------

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    def eigenvalue(self, j: int, exact: bool = False):
        if not 0 <= j < self.n_modes:
            raise IndexError(f"mode index {j} out of retained range [0, {self.n_modes})")
        if exact:
            if self.exact_eigenvalues is None:
                raise ValueError("cross section carries no exact spectrum")
            return self.exact_eigenvalues[j]
        return self.eigenvalues[j]

    def area(self) -> float:
        """Total measure of the cross section under the quadrature rule."""
        if self.weights is None:
            raise ValueError("cross section has no quadrature rule")
        return float(np.sum(self.weights))

    # -- eigenfunctions --------------------------------------------------

    def evaluate(self, j: int, k: int, y):
        """Value of the orthonormal eigenfunction e_{jk} at point(s) y."""
        if not 0 <= j < self.n_modes:
            raise IndexError(f"mode index {j} out of retained range [0, {self.n_modes})")
        if not 0 <= k < self.multiplicities[j]:
            raise IndexError(f"multiplicity index {k} out of range for mode {j}")
        if self._evaluator is None:
            raise ValueError(f"{self.geometry!r} cross section has no eigenfunction evaluator")
        return self._evaluator(j, k, y)

    def sample_eigenfunction(self, j: int, k: int) -> np.ndarray:
        """Eigenfunction values at the quadrature nodes."""
        if self.nodes is None:
            raise ValueError("cross section has no quadrature rule")
        return np.asarray(self.evaluate(j, k, self.nodes), dtype=float)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {
            "geometry": self.geometry,
            "n": self.n,
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "multiplicities": [int(m) for m in self.multiplicities],
        }
        if self.circumference is not None:
            out["circumference"] = float(self.circumference)
        if self.max_degree is not None:
            out["max_degree"] = int(self.max_degree)
        if self.exact_eigenvalues is not None:
            out["exact_eigenvalues"] = [str(v) for v in self.exact_eigenvalues]
        return out


# -- constructors --------------------------------------------------------


def make_circle(circumference: float, max_mode: int = 32) -> CrossSection:
    """Flat circle of given circumference, Fourier modes up to `max_mode`.

    Eigenvalues are lam_j = -(2 pi j / L)^2 with multiplicity 2 for j >= 1.
    When (2 pi / L)^2 is an integer to within 1e-12 (unit circle L = 2 pi,
    half circle L = pi, ...) the spectrum is also stored exactly.
    The quadrature is the uniform rectangle rule on 4 max_mode + 8 nodes,
    exact for trigonometric polynomials of frequency below the node count.
    """
    if circumference <= 0:
        raise ValueError("circumference must be positive")
    if max_mode < 0:
        raise ValueError("max_mode must be >= 0")
    L = float(circumference)
    base = (2.0 * math.pi / L) ** 2
    eigenvalues = [-base * j * j for j in range(max_mode + 1)]
    multiplicities = [1] + [2] * max_mode
    exact = None
    if abs(base - round(base)) < 1e-12 and round(base) >= 1:
        b = int(round(base))
        exact = [Fraction(-b * j * j) for j in range(max_mode + 1)]

    # products of two retained eigenfunctions have frequency <= 2 max_mode
    n_quad = 4 * max_mode + 8
    theta = np.arange(n_quad) * (L / n_quad)
    weights = np.full(n_quad, L / n_quad)

    def evaluator(j, k, y):
        return circle_basis(L, j, y)[..., 2 * j - 1 + k if j else 0]

    return CrossSection(
        n=1,
        eigenvalues=eigenvalues,
        multiplicities=multiplicities,
        exact_eigenvalues=exact,
        geometry="circle",
        circumference=L,
        nodes=theta,
        weights=weights,
        _evaluator=evaluator,
    )


def circle_basis(circumference: float, max_mode: int, y) -> np.ndarray:
    """Every orthonormal eigenfunction of the circle up to max_mode at the angles y.

    One column per channel, in the order (0, 0), (1, 0), (1, 1), (2, 0), ...:
    the constant 1/sqrt(L), then sqrt(2/L) cos(w_j y) and sqrt(2/L) sin(w_j y),
    w_j = 2 pi j / L, from one cos and one sin evaluation over angles x modes.
    make_circle's evaluate(j, k, y) is column (j, k) of circle_basis(L, j, y).
    """
    L = float(circumference)
    y = np.asarray(y, dtype=float)
    phase = np.multiply.outer(y, 2.0 * math.pi * np.arange(1, max_mode + 1) / L)
    out = np.empty(y.shape + (2 * max_mode + 1,))
    out[..., 0] = 1.0 / math.sqrt(L)
    # cos and sin of the contiguous phase array, then the strided copy
    out[..., 1::2] = math.sqrt(2.0 / L) * np.cos(phase)
    out[..., 2::2] = math.sqrt(2.0 / L) * np.sin(phase)
    return out


def _sphere_multiplicity(n: int, k: int) -> int:
    # dimension of degree-k spherical harmonics on S^n
    if k < 2:
        return 1 if k == 0 else n + 1
    return math.comb(n + k, k) - math.comb(n + k - 2, k - 2)


def make_sphere(n: int, max_degree: int = 8) -> CrossSection:
    """Round unit sphere S^n, n >= 2, harmonics up to `max_degree`.

    Eigenvalues lam_k = -k (k + n - 1) are exact integers.  For n = 2 a real
    orthonormal harmonic basis and a Gauss-Legendre (latitude) x uniform
    (longitude) quadrature are attached; higher spheres are spectrum-only
    (symbol-level work) and carry no evaluator.
    """
    if n < 2:
        raise ValueError("sphere cross section needs n >= 2 (use make_circle for n = 1)")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    eigenvalues = [float(-k * (k + n - 1)) for k in range(max_degree + 1)]
    exact = [Fraction(-k * (k + n - 1)) for k in range(max_degree + 1)]
    multiplicities = [_sphere_multiplicity(n, k) for k in range(max_degree + 1)]

    nodes = weights = None
    evaluator = None
    if n == 2:
        from scipy import special

        n_lat = max_degree + 2
        mu, w_mu = leggauss(n_lat)          # mu = cos(polar)
        n_lon = 2 * max_degree + 3
        lon = np.arange(n_lon) * (2.0 * math.pi / n_lon)
        w_lon = 2.0 * math.pi / n_lon
        polar = np.arccos(mu)
        P, A = np.meshgrid(polar, lon, indexing="ij")
        nodes = np.stack([P.ravel(), A.ravel()], axis=1)
        weights = np.repeat(w_mu, n_lon) * w_lon

        def evaluator(l, m_idx, y):
            y = np.asarray(y, dtype=float)
            pol, azi = y[..., 0], y[..., 1]
            # real harmonics: m_idx 0 -> m=0; odd -> cos branch m=(m_idx+1)//2;
            # even>0 -> sin branch m=m_idx//2
            if m_idx == 0:
                m = 0
            elif m_idx % 2 == 1:
                m = (m_idx + 1) // 2
            else:
                m = m_idx // 2
            if hasattr(special, "sph_harm_y"):
                Y = special.sph_harm_y(l, m, pol, azi)
            else:
                Y = special.sph_harm(m, l, azi, pol)
            if m_idx == 0:
                return np.real(Y)
            if m_idx % 2 == 1:
                return math.sqrt(2.0) * (-1.0) ** m * np.real(Y)
            return math.sqrt(2.0) * (-1.0) ** m * np.imag(Y)

    return CrossSection(
        n=n,
        eigenvalues=eigenvalues,
        multiplicities=multiplicities,
        exact_eigenvalues=exact,
        geometry="sphere",
        max_degree=max_degree,
        nodes=nodes,
        weights=weights,
        _evaluator=evaluator,
    )


def from_spectrum(
    n: int,
    eigenvalues: Sequence[float],
    multiplicities: Sequence[int],
    exact_eigenvalues: Optional[Sequence] = None,
) -> CrossSection:
    """Cross section given by a raw spectrum (no eigenfunctions, no quadrature)."""
    exact = None
    if exact_eigenvalues is not None:
        exact = [Fraction(v) for v in exact_eigenvalues]
        if len(exact) != len(eigenvalues):
            raise ValueError("exact_eigenvalues length mismatch")
    return CrossSection(
        n=n,
        eigenvalues=[float(v) for v in eigenvalues],
        multiplicities=[int(m) for m in multiplicities],
        exact_eigenvalues=exact,
        geometry="spectrum",
    )


def project(cs: CrossSection, values: np.ndarray, j: int) -> np.ndarray:
    """Quadrature projection of sampled data onto the eigenspace of mode j.

    Parameters
    ----------
    values : array of samples at the quadrature nodes.
    j : distinct-eigenvalue index.

    Returns the coefficient vector (one entry per multiplicity branch).
    """
    if cs.weights is None:
        raise ValueError("cross section has no quadrature rule")
    values = np.asarray(values, dtype=float)
    if values.shape[0] != cs.weights.shape[0]:
        raise ValueError("sample count does not match quadrature rule")
    out = np.empty(cs.multiplicities[j])
    for k in range(cs.multiplicities[j]):
        out[k] = float(np.sum(cs.weights * values * cs.sample_eigenfunction(j, k)))
    return out
