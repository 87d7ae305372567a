"""Radial conormal symbol of the cone Laplacian and its pole bookkeeping.

Near the tip the Laplacian is x^{-2}((x d/dx)^2 + (n-1) x d/dx + Lap_cross),
so after a Mellin transform each cross-section mode j sees the quadratic
polynomial

    P_j(z) = z^2 - (n-1) z + lam_j = (z - q_j^+)(z - q_j^-),

with q_j^{+/-} = (n-1)/2 +/- sqrt(((n-1)/2)^2 - lam_j) and the symmetry
q_j^+ + q_j^- = n - 1.  The inverse symbol is meromorphic with poles at the
q_j^{+/-}; the fourth-order symbol P_j(z+2) P_j(z) adds the shifted copies
q_j^{+/-} - 2.  These pole locations are exactly the negatives of the
admissible near-tip exponents: x^a is annihilated by the mode-j radial
operator iff -a is a pole of 1/P_j.

Exact rational arithmetic lives in the pole catalogs only.  It is used
whenever the cross section supplies an exact spectrum whose root
discriminants are perfect squares (unit circle, round spheres); otherwise
locations are floats and coincidence is decided with an absolute tolerance
of 1e-9.  The exact arithmetic runs on integer numerators and denominators:
a root is found with an integer square root, coincident roots are grouped
by the root's reduced (numerator, denominator) pair, and each stored
location becomes a Fraction once, in PoleEntry.exact.  Every entry also
carries its float location, and the action on asymptotic monomials
(indicial_polynomial, symbolic_laplacian) runs in floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from .cross_section import CrossSection

__all__ = [
    "MERGE_TOL",
    "AsymptoticTerm",
    "PoleEntry",
    "PoleCatalog",
    "PoleProximityError",
    "compute_poles",
    "compute_bilaplacian_poles",
    "bilaplacian_poles_in",
    "apply_symbol",
    "invert_symbol",
    "symbolic_laplacian",
    "indicial_polynomial",
]

MERGE_TOL = 1e-9


class PoleProximityError(ValueError):
    """Raised when a symbol is inverted too close to a catalog pole."""


@dataclass(frozen=True)
class AsymptoticTerm:
    """One monomial c x^a log^l(x) tensored with an eigenfunction of mode j,
    with a float exponent a and a float coefficient c."""

    exponent: float
    log_power: int
    mode: int
    coefficient: float = 1.0

    def __post_init__(self):
        if self.log_power not in (0, 1):
            raise ValueError("log powers >= 2 are outside the supported asymptotics")


@dataclass(frozen=True)
class PoleEntry:
    """A pole of an inverted conormal symbol.

    origin is "direct" for roots of P_j, "shifted-by-2" for roots of
    P_j(. + 2), "merged" when both families coincide at the same point.
    """

    location: float
    order: int
    mode: int
    origin: str
    exact: Optional[Fraction] = None

    def to_json_dict(self) -> dict:
        out = {
            "rho": float(self.location),
            "order": int(self.order),
            "mode": int(self.mode),
            "origin": self.origin,
        }
        if self.exact is not None:
            out["exact"] = str(self.exact)
        return out


@dataclass
class PoleCatalog:
    """Poles of 1/P_j (compute_poles) or of 1/(P_j(.+2) P_j)
    (compute_bilaplacian_poles).

    entries is a tuple of frozen entries, indexed by mode when the catalog
    is built; for_mode reads that index.  Nothing in a catalog can be
    changed, so one catalog is shared by every caller.
    """

    entries: tuple = ()

    def __post_init__(self):
        # sorted by location descending, then mode: two stable sorts
        by_mode = sorted(self.entries, key=attrgetter("mode"))
        self.entries = tuple(sorted(by_mode, key=attrgetter("location"), reverse=True))
        index = {}
        for e in self.entries:
            es = index.setdefault(e.mode, [])
            # (location, mode) pairs unique: round(location / MERGE_TOL)
            # differs from the mode's previous entry, which is the next
            # larger location; it can only be equal within 2 MERGE_TOL
            if (es and es[-1].location - e.location <= 2.0 * MERGE_TOL
                    and round(es[-1].location / MERGE_TOL) == round(e.location / MERGE_TOL)):
                raise ValueError("duplicate (location, mode) pair in pole catalog")
            es.append(e)
        self._by_mode = {j: tuple(es) for j, es in index.items()}

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def locations(self) -> np.ndarray:
        return np.array([e.location for e in self.entries])

    def for_mode(self, j: int) -> tuple:
        """The entries of mode j in catalog order, looked up in the index."""
        return self._by_mode.get(j, ())

    def min_distance(self, z: complex) -> float:
        if not self.entries:
            return math.inf
        return float(np.min(np.abs(self.locations() - complex(z))))

    def to_json_dict(self) -> list:
        return [e.to_json_dict() for e in self.entries]


def _mode_roots(cs: CrossSection, j: int) -> list:
    """Roots of P_j as (location, order, exact) triples, q_j^+ first.

    A double root is one triple of order 2.  exact is a Fraction or None.
    With lam_j = a/b the discriminant ((n-1)/2)^2 - lam_j is N/4b,
    N = (n-1)^2 b - 4a, whose square root is rational iff 4bN is a
    perfect square s^2; the roots are then (2(n-1)b +/- s)/4b, and the
    two coincide iff s = 0.  Otherwise they are floats, coincident within
    MERGE_TOL.
    """
    n = cs.n
    half = 0.5 * (n - 1)
    root = math.sqrt(half * half - cs.eigenvalues[j])
    if cs.exact_eigenvalues is not None:
        lam = cs.exact_eigenvalues[j]
        a, b = lam.numerator, lam.denominator
        square = 4 * b * ((n - 1) ** 2 * b - 4 * a)
        s = math.isqrt(square) if square >= 0 else -1
        if s * s == square:
            mid, den = 2 * (n - 1) * b, 4 * b
            if s == 0:
                return [(mid / den, 2, Fraction(mid, den))]
            # int / int is the correctly rounded float, as float(Fraction) is
            return [((mid + s) / den, 1, Fraction(mid + s, den)),
                    ((mid - s) / den, 1, Fraction(mid - s, den))]
    qp, qm = half + root, half - root
    if abs(qp - qm) <= MERGE_TOL:
        return [(0.5 * (qp + qm), 2, None)]
    return [(qp, 1, None), (qm, 1, None)]


def compute_poles(cs: CrossSection) -> PoleCatalog:
    """Pole catalog of the inverted second-order symbol.

    One entry per root of P_j per mode; a single order-2 entry when the two
    roots coincide (for lam_0 = 0 this happens iff n = 1).  The catalog is
    computed once per cross-section and stored on it; every call returns
    that one catalog, which no caller can change.
    """
    catalog = getattr(cs, "_pole_catalog", None)
    if catalog is None:
        entries = [PoleEntry(loc, order, j, "direct", exact)
                   for j in range(cs.n_modes) for loc, order, exact in _mode_roots(cs, j)]
        catalog = PoleCatalog(entries=entries)
        cs._pole_catalog = catalog
    return catalog


# a group's origin from the families of its candidates: 1 direct, 2 shifted
_ORIGINS = {1: "direct", 2: "shifted-by-2", 3: "merged"}


def _bilaplacian_entries(catalog: PoleCatalog, j: int) -> list:
    """Mode j's entries of the fourth-order catalog, from the second-order one.

    The candidate locations are q_j^{+/-} and q_j^{+/-} - 2 with the
    multiplicities of the mode's second-order entries; coincident
    locations are merged and flagged.  An exact location is grouped by its
    reduced (numerator, denominator) pair, p/d - 2 being (p - 2d, d); a
    float one joins the first group within MERGE_TOL.  A group keeps the
    location of its first candidate.  A group of one direct candidate is
    that candidate's second-order entry, which both catalogs share; a
    Fraction is built only for a group that a shifted candidate opens.
    """
    groups = {}  # key -> [location, count, families, first entry, its family]
    for e in catalog.for_mode(j):
        if e.exact is None:
            keys = (None, None)
        else:
            p, d = e.exact.numerator, e.exact.denominator
            keys = ((p, d), (p - 2 * d, d))
        for key, loc, family in zip(keys, (e.location, e.location - 2.0), (1, 2)):
            if key is None:         # float: the first group within MERGE_TOL, or a new one
                key = next((k for k, g in groups.items()
                            if abs(loc - g[0]) <= MERGE_TOL), len(groups))
            g = groups.get(key)
            if g is None:
                groups[key] = [loc, e.order, family, e, family]
            else:
                g[1] += e.order
                g[2] |= family
    entries = []
    for key, (loc, count, families, e, first) in groups.items():
        if families == 1:
            entries.append(e)
            continue
        exact = e.exact
        if first == 2 and exact is not None:
            exact = Fraction(*key)
        entries.append(PoleEntry(loc, count, j, _ORIGINS[families], exact))
    return entries


def compute_bilaplacian_poles(cs: CrossSection) -> PoleCatalog:
    """Pole catalog of the inverted fourth-order symbol P_j(z+2) P_j(z).

    Per mode the poles are those of compute_poles(cs) and the same shifted
    by -2, merged where they coincide (see _bilaplacian_entries).
    """
    return bilaplacian_poles_in(cs, -math.inf, math.inf)


def bilaplacian_poles_in(cs: CrossSection, lo: float, hi: float) -> PoleCatalog:
    """The entries of compute_bilaplacian_poles(cs) with lo <= location < hi.

    A fourth-order pole sits at a second-order pole q of its mode or at
    q - 2, so only the modes with such a candidate in [lo, hi) are grouped.
    """
    catalog = compute_poles(cs)
    modes = sorted({e.mode for e in catalog
                    if lo <= e.location < hi or lo <= e.location - 2.0 < hi})
    entries = [e for j in modes for e in _bilaplacian_entries(catalog, j)
               if lo <= e.location < hi]
    return PoleCatalog(entries=entries)


# -- symbol action on mode vectors ----------------------------------------


def _symbol_values(z: complex, cs: CrossSection) -> np.ndarray:
    lam = np.asarray(cs.eigenvalues)
    return z * z - (cs.n - 1) * z + lam


def apply_symbol(z: complex, coeffs: Sequence[complex], cs: CrossSection) -> np.ndarray:
    """Multiply a per-mode coefficient vector by P_j(z)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape[0] != cs.n_modes:
        raise ValueError("coefficient vector length does not match retained modes")
    return _symbol_values(z, cs) * coeffs


def invert_symbol(z: complex, coeffs: Sequence[complex], cs: CrossSection) -> np.ndarray:
    """Divide a per-mode coefficient vector by P_j(z).

    Refuses to evaluate within MERGE_TOL of a pole of the second-order
    catalog of `cs` (PoleProximityError).
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape[0] != cs.n_modes:
        raise ValueError("coefficient vector length does not match retained modes")
    dist = compute_poles(cs).min_distance(z)
    if not dist > MERGE_TOL:
        raise PoleProximityError(
            f"z = {z} is within {dist:.3e} of a symbol pole (tolerance {MERGE_TOL:g})"
        )
    return coeffs / _symbol_values(z, cs)


# -- action on asymptotic monomials ----------------------------------------


def indicial_polynomial(a: float, lam: float, n: int) -> float:
    """Coefficient produced by the radial operator on x^a for eigenvalue lam.

    Delta(x^a e_j) = Q_j(a) x^{a-2} e_j with Q_j(a) = a^2 + (n-1) a + lam_j.
    Q_j(-z) = P_j(z), so exponent a resonates exactly when -a is a pole of
    the inverted symbol.
    """
    return a * a + (n - 1) * a + lam


def _indicial_derivative(a: float, n: int) -> float:
    return 2 * a + (n - 1)


def symbolic_laplacian(term: AsymptoticTerm, cs: CrossSection) -> list:
    """The Laplacian applied to one asymptotic monomial, in floats.

    Delta(x^a log^l x e_j) = x^{a-2} [Q_j(a) log^l x + l Q_j'(a) log^{l-1} x] e_j,
    with the float eigenvalue lam_j.  Terms whose coefficient is exactly
    zero are dropped; the result can be empty (the monomial is harmonic on
    the model cone).  Callers decide vanishing up to MERGE_TOL.
    """
    j = term.mode
    if not 0 <= j < cs.n_modes:
        raise IndexError(f"mode index {j} out of retained range [0, {cs.n_modes})")
    a = float(term.exponent)
    coeff = float(term.coefficient)
    q0 = indicial_polynomial(a, cs.eigenvalues[j], cs.n)
    out = []
    main = coeff * q0
    if main != 0:
        out.append(AsymptoticTerm(a - 2, term.log_power, j, main))
    if term.log_power == 1:
        lower = coeff * _indicial_derivative(a, cs.n)
        if lower != 0:
            out.append(AsymptoticTerm(a - 2, 0, j, lower))
    return out
