"""Cross sections of the model cone.

A cross section is described by the spectrum of its Laplace-Beltrami operator:
a finite list of distinct eigenvalues 0 = lam_0 > lam_1 > ... with
multiplicities.  Three kinds are built in: the flat circle of prescribed
circumference, the round unit sphere S^n and an arbitrary spectrum supplied
directly.  Only the circle, on which the simulations run, also carries a
basis: circle_basis evaluates its orthonormal eigenfunctions, and a uniform
quadrature rule integrates products of the retained ones exactly (up to
roundoff).  The sphere and a raw spectrum serve the symbol-level work.

Eigenvalues are kept twice when possible: as floats, and as exact rationals
(`fractions.Fraction`) whenever the construction yields them exactly.  The
exact channel is what downstream pole bookkeeping uses to recognize
coincident roots without tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "CrossSection",
    "make_circle",
    "circle_basis",
    "make_sphere",
    "from_spectrum",
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
    circumference : float | None
        Length of the circle; None for the other kinds.
    nodes, weights :
        The circle's quadrature rule, angles in [0, L) and their weights;
        None for the other kinds.
    """

    n: int
    eigenvalues: list
    multiplicities: list
    exact_eigenvalues: Optional[list] = None
    geometry: str = "spectrum"
    circumference: Optional[float] = None
    nodes: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None

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

    def area(self) -> float:
        """Total measure of the cross section under the quadrature rule."""
        if self.weights is None:
            raise ValueError("cross section has no quadrature rule")
        return float(np.sum(self.weights))


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
    return CrossSection(
        n=1,
        eigenvalues=eigenvalues,
        multiplicities=multiplicities,
        exact_eigenvalues=exact,
        geometry="circle",
        circumference=L,
        nodes=theta,
        weights=weights,
    )


def circle_basis(circumference: float, max_mode: int, y) -> np.ndarray:
    """Every orthonormal eigenfunction of the circle up to max_mode at the angles y.

    One column per channel, in the order (0, 0), (1, 0), (1, 1), (2, 0), ...:
    the constant 1/sqrt(L), then sqrt(2/L) cos(w_j y) and sqrt(2/L) sin(w_j y),
    w_j = 2 pi j / L, from one cos and one sin evaluation over angles x modes.
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

    Eigenvalues lam_k = -k (k + n - 1) are exact integers.  The sphere is
    spectrum-only: it carries no basis and no quadrature rule.
    """
    if n < 2:
        raise ValueError("sphere cross section needs n >= 2 (use make_circle for n = 1)")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    eigenvalues = [float(-k * (k + n - 1)) for k in range(max_degree + 1)]
    exact = [Fraction(-k * (k + n - 1)) for k in range(max_degree + 1)]
    multiplicities = [_sphere_multiplicity(n, k) for k in range(max_degree + 1)]
    return CrossSection(
        n=n,
        eigenvalues=eigenvalues,
        multiplicities=multiplicities,
        exact_eigenvalues=exact,
        geometry="sphere",
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

