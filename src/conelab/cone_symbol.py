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

All bookkeeping is carried out in exact rational arithmetic whenever the
cross section supplies an exact spectrum whose root discriminants are perfect
squares (unit circle, round spheres); otherwise locations are floats and
coincidence is decided with an absolute tolerance of 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

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
    "apply_symbol",
    "invert_symbol",
    "symbolic_laplacian",
    "indicial_polynomial",
]

MERGE_TOL = 1e-9

Number = Union[int, float, Fraction]


class PoleProximityError(ValueError):
    """Raised when a symbol is inverted too close to a catalog pole."""


def _exact_sqrt(value: Fraction) -> Optional[Fraction]:
    """Square root of a nonnegative rational, or None when irrational."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class AsymptoticTerm:
    """One monomial x^a log^l(x) tensored with an eigenfunction of mode j.

    The coefficient may be a Fraction (exact channel) or a float.
    """

    exponent: Number
    log_power: int
    mode: int
    coefficient: Number = 1

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
    """Poles of 1/P_j (source "laplacian") or 1/(P_j(.+2) P_j) ("bilaplacian").

    entries is a tuple of frozen entries, indexed by mode when the catalog
    is built; for_mode reads that index.  Nothing in a catalog can be
    changed, so one catalog is shared by every caller.
    """

    n: int
    source: str
    entries: tuple = ()

    def __post_init__(self):
        # sorted by location descending; (location, mode) pairs unique
        self.entries = tuple(sorted(self.entries, key=lambda e: (-e.location, e.mode)))
        seen = set()
        by_mode = {}
        for e in self.entries:
            key = (round(e.location / MERGE_TOL), e.mode)
            if key in seen:
                raise ValueError("duplicate (location, mode) pair in pole catalog")
            seen.add(key)
            by_mode.setdefault(e.mode, []).append(e)
        self._by_mode = {j: tuple(es) for j, es in by_mode.items()}

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


def _mode_roots(cs: CrossSection, j: int):
    """Roots (q_plus, q_minus) of P_j, each as (float, Fraction-or-None)."""
    n = cs.n
    half = 0.5 * (n - 1)
    lam = cs.eigenvalues[j]
    disc = half * half - lam
    root = math.sqrt(disc)
    qp_f, qm_f = half + root, half - root
    qp_e = qm_e = None
    if cs.exact_eigenvalues is not None:
        half_e = Fraction(n - 1, 2)
        disc_e = half_e * half_e - cs.exact_eigenvalues[j]
        root_e = _exact_sqrt(disc_e)
        if root_e is not None:
            qp_e, qm_e = half_e + root_e, half_e - root_e
            qp_f, qm_f = float(qp_e), float(qm_e)
    return (qp_f, qp_e), (qm_f, qm_e)


def compute_poles(cs: CrossSection) -> PoleCatalog:
    """Pole catalog of the inverted second-order symbol.

    One entry per root of P_j per mode; a single order-2 entry when the two
    roots coincide (for lam_0 = 0 this happens iff n = 1).  The catalog is
    computed once per cross-section and stored on it; every call returns
    that one catalog, which no caller can change.
    """
    catalog = getattr(cs, "_pole_catalog", None)
    if catalog is None:
        entries = []
        for j in range(cs.n_modes):
            (qp_f, qp_e), (qm_f, qm_e) = _mode_roots(cs, j)
            if qp_e is not None and qp_e == qm_e:
                entries.append(PoleEntry(qp_f, 2, j, "direct", qp_e))
            elif qp_e is None and abs(qp_f - qm_f) <= MERGE_TOL:
                entries.append(PoleEntry(0.5 * (qp_f + qm_f), 2, j, "direct", None))
            else:
                entries.append(PoleEntry(qp_f, 1, j, "direct", qp_e))
                entries.append(PoleEntry(qm_f, 1, j, "direct", qm_e))
        catalog = PoleCatalog(n=cs.n, source="laplacian", entries=entries)
        cs._pole_catalog = catalog
    return catalog


def compute_bilaplacian_poles(cs: CrossSection) -> PoleCatalog:
    """Pole catalog of the inverted fourth-order symbol P_j(z+2) P_j(z).

    Per mode the candidate locations are q_j^{+/-} and q_j^{+/-} - 2 with
    their multiplicities, read from compute_poles(cs); coincident locations
    are merged (exact equality on the rational channel, tolerance MERGE_TOL
    otherwise) and flagged.
    """
    catalog = compute_poles(cs)
    entries = []
    for j in range(cs.n_modes):
        raw = []  # (float, Fraction|None, origin) with multiplicity from order
        for e in catalog.for_mode(j):
            for _ in range(e.order):
                raw.append((e.location, e.exact, "direct"))
                shifted = None if e.exact is None else e.exact - 2
                raw.append((e.location - 2.0, shifted, "shifted-by-2"))
        groups = []  # [locations, exacts, origins]
        for loc, exact, origin in raw:
            placed = False
            for g in groups:
                match = (
                    exact is not None and g["exact"] is not None and exact == g["exact"]
                ) or (
                    (exact is None or g["exact"] is None)
                    and abs(loc - g["loc"]) <= MERGE_TOL
                )
                if match:
                    g["count"] += 1
                    g["origins"].add(origin)
                    placed = True
                    break
            if not placed:
                groups.append({"loc": loc, "exact": exact, "count": 1, "origins": {origin}})
        for g in groups:
            origin = g["origins"].pop() if len(g["origins"]) == 1 else "merged"
            entries.append(PoleEntry(g["loc"], g["count"], j, origin, g["exact"]))
    return PoleCatalog(n=cs.n, source="bilaplacian", entries=entries)


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


# -- exact action on asymptotic monomials ----------------------------------


def indicial_polynomial(a: Number, lam: Number, n: int) -> Number:
    """Coefficient produced by the radial operator on x^a for eigenvalue lam.

    Delta(x^a e_j) = Q_j(a) x^{a-2} e_j with Q_j(a) = a^2 + (n-1) a + lam_j.
    Q_j(-z) = P_j(z), so exponent a resonates exactly when -a is a pole of
    the inverted symbol.
    """
    return a * a + (n - 1) * a + lam


def _indicial_derivative(a: Number, n: int) -> Number:
    return 2 * a + (n - 1)


def symbolic_laplacian(term: AsymptoticTerm, cs: CrossSection) -> list:
    """Exact expansion of the Laplacian applied to one asymptotic monomial.

    Delta(x^a log^l x e_j) = x^{a-2} [Q_j(a) log^l x + l Q_j'(a) log^{l-1} x] e_j.
    Terms with vanishing coefficient are dropped; the result can be empty
    (the monomial is harmonic on the model cone).  Exact rational arithmetic
    is used when the exponent, coefficient and eigenvalue are all rational.
    """
    j = term.mode
    if not 0 <= j < cs.n_modes:
        raise IndexError(f"mode index {j} out of retained range [0, {cs.n_modes})")
    exact_ok = (
        cs.exact_eigenvalues is not None
        and isinstance(term.exponent, (int, Fraction))
        and isinstance(term.coefficient, (int, Fraction))
    )
    if exact_ok:
        lam = cs.exact_eigenvalues[j]
        a = Fraction(term.exponent)
        coeff = Fraction(term.coefficient)
    else:
        lam = cs.eigenvalues[j]
        a = float(term.exponent)
        coeff = float(term.coefficient)

    q0 = indicial_polynomial(a, lam, cs.n)
    out = []
    main = coeff * q0
    if main != 0:
        out.append(AsymptoticTerm(a - 2, term.log_power, j, main))
    if term.log_power == 1:
        lower = coeff * _indicial_derivative(a, cs.n)
        if lower != 0:
            out.append(AsymptoticTerm(a - 2, 0, j, lower))
    return out
