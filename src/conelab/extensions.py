"""Closed extensions of the cone Laplacian and of its square.

The maximal domain of the Laplacian on the weighted base space exceeds the
minimal one by finitely many asymptotics spaces, one per pole of the inverted
conormal symbol inside the interval

    I_gamma = ((n+1)/2 - gamma - 2, (n+1)/2 - gamma),

and a closed extension is fixed by choosing a subspace at each such pole.
This module encodes the dissipativity-compatible choice used throughout the
package: the constant functions at the pole 0 (for a two dimensional cone the
log-free half of the order-2 pole there) and the zero subspace everywhere
else, subject to the orthogonality pairing between the choices at dual poles
q and (n-1) - q.

The domain of the squared operator is built operationally from its
composition definition: a candidate monomial u = x^{-rho} (log x)^l attached
to a pole rho of the fourth-order symbol belongs to the domain iff u lies in
the chosen second-order domain and its symbolic Laplacian does too.  The
result is cross-checked against an independent enumeration over the full
non-minimal strip; any disagreement with the expected direct-sum structure
(addons confined to the shifted interval J plus the carried second-order
addon) raises InconsistentDomainError instead of being patched.

build_extension is the module's one constructor: it makes the selection,
builds the fourth-order domain and derives the Robin exponents at the
artificial tip boundary in one call, and returns them as one frozen
ExtensionSpec.  No partly built spec exists.

Exponent convention: an asymptotics function attached to a pole at rho is
stored with exponent a = -rho, i.e. the function x^{-rho}.  The indicial
polynomial satisfies Q_j(-rho) = P_j(rho), so pole locations and resonant
exponents are consistent mirror images.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .cone_symbol import (
    MERGE_TOL,
    AsymptoticTerm,
    PoleEntry,
    bilaplacian_poles_in,
    compute_poles,
    indicial_polynomial,
    symbolic_laplacian,
)
from .cross_section import CrossSection

__all__ = [
    "EndpointCollisionError",
    "InconsistentDomainError",
    "SelectedPole",
    "DomainAddon",
    "ExtensionSpec",
    "weight_window",
    "interval_I",
    "build_extension",
]

Number = Union[int, float, Fraction]


class EndpointCollisionError(ValueError):
    """A symbol pole sits on the boundary line of the weight interval."""


class InconsistentDomainError(RuntimeError):
    """Operational fourth-order domain disagrees with its direct-sum form."""


def _is_zero(v: Number) -> bool:
    if isinstance(v, (int, Fraction)):
        return v == 0
    return abs(v) <= MERGE_TOL


# -- weight windows and pole intervals -------------------------------------


def weight_window(n: int, epsilon_bar: float) -> tuple:
    """Admissible weight interval for the dissipative extension.

    epsilon_bar = -q_1^- is the gap to the first nonzero mode.  The window is
    (-1, min(-1 + eb, 1)) for n = 1, (-1/2, min(-1/2 + eb, 3/2)) for n = 2 and
    ((n-3)/2, min((n-3)/2 + eb, (n+1)/2)) for n >= 3.
    """
    if n < 1:
        raise ValueError("cross-section dimension n must be >= 1")
    if not epsilon_bar > 0:
        raise ValueError("epsilon_bar must be positive")
    if n == 1:
        lo = -1.0
        hi = min(-1.0 + epsilon_bar, 1.0)
    elif n == 2:
        lo = -0.5
        hi = min(-0.5 + epsilon_bar, 1.5)
    else:
        lo = 0.5 * (n - 3)
        hi = min(0.5 * (n - 3) + epsilon_bar, 0.5 * (n + 1))
    return (lo, hi)


def interval_I(gamma: float, cs: CrossSection) -> list:
    """Entries of compute_poles(cs) strictly inside ((n+1)/2-gamma-2, (n+1)/2-gamma).

    Raises EndpointCollisionError when some pole sits within MERGE_TOL of the
    lower endpoint (the minimal domain would then fail to be a plain weighted
    Sobolev space).
    """
    catalog = compute_poles(cs)
    lo = 0.5 * (cs.n + 1) - gamma - 2.0
    hi = 0.5 * (cs.n + 1) - gamma
    for e in catalog:
        if abs(e.location - lo) <= MERGE_TOL:
            raise EndpointCollisionError(
                f"pole at {e.location} (mode {e.mode}) collides with the weight line "
                f"Re z = {lo} for gamma = {gamma}"
            )
    return [e for e in catalog if lo < e.location < hi]


# -- extension description --------------------------------------------------


@dataclass(frozen=True)
class SelectedPole:
    """Choice of asymptotics subspace at one pole of I_gamma."""

    entry: PoleEntry
    choice: str  # "full" | "zero" | "E_00"
    rule: str    # "i" | "ii" | "iii"

    def dim(self, cs: CrossSection) -> int:
        if self.choice == "zero":
            return 0
        if self.choice == "E_00":
            return cs.multiplicities[self.entry.mode]
        return cs.multiplicities[self.entry.mode] * self.entry.order


@dataclass(frozen=True)
class DomainAddon:
    """One basis function of an asymptotics addon, spanning all multiplicity
    branches of its mode.

    terms is a tuple of AsymptoticTerm making up the function (normalized so
    the leading term has coefficient 1).
    """

    terms: tuple
    mode: int
    source_location: float
    origin: str  # "second-order" | "fourth-order-interval"

    @property
    def exponent(self) -> Number:
        return self.terms[0].exponent

    @property
    def has_log(self) -> bool:
        return any(t.log_power > 0 for t in self.terms)

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "source_pole": float(self.source_location),
            "origin": self.origin,
            "terms": [
                {
                    "exponent": float(t.exponent),
                    "log_power": t.log_power,
                    "coefficient": float(t.coefficient),
                }
                for t in self.terms
            ],
        }


@dataclass(frozen=True, eq=False)
class ExtensionSpec:
    """The chosen extension of the Laplacian and the domain of its square.

    build_extension is the one constructor and fills every field: the
    weight window, the poles of I_gamma and the subspace chosen at each,
    the second-order addons, the interval J and the fourth-order addons,
    and inner_bc, the per-mode Robin exponent pairs (a_j, b_j).  Every
    sequence is a tuple, so a spec does not change once built.
    """

    cs: CrossSection
    gamma: float
    p: float
    epsilon_bar: float
    window: tuple
    i_gamma: tuple
    selected: tuple
    laplacian_addons: tuple
    j_interval: tuple
    bilaplacian_addons: tuple
    inner_bc: tuple

    @property
    def n(self) -> int:
        return self.cs.n

    def minimal_threshold(self, order: int) -> float:
        """Exponents strictly above this lie in the minimal domain."""
        return _minimal_threshold(self.cs, self.gamma, order)

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "p": self.p,
            "n": self.n,
            "epsilon_bar": self.epsilon_bar,
            "window": list(self.window),
            "I_gamma": [e.to_json_dict() for e in self.i_gamma],
            "selected": [
                {"pole": s.entry.to_json_dict(), "choice": s.choice, "rule": s.rule}
                for s in self.selected
            ],
            "second_order_addons": [a.to_json_dict() for a in self.laplacian_addons],
            "J": list(self.j_interval),
            "fourth_order_addons": [a.to_json_dict() for a in self.bilaplacian_addons],
            "inner_bc": [{"mode": j, "a": a, "b": b} for j, (a, b) in enumerate(self.inner_bc)],
        }


def _minimal_threshold(cs: CrossSection, gamma: float, order: int) -> float:
    return gamma - 0.5 * (cs.n + 1) + order


def build_extension(cs: CrossSection, gamma: float, p: float = 2.0) -> ExtensionSpec:
    """The extension for weight gamma and the domain of its square, built whole.

    The weight must lie strictly inside the admissible window, and no pole
    may sit on the lower line of I_gamma.
    """
    if p < 1:
        raise ValueError("integrability exponent p must be >= 1")
    i_gamma = tuple(interval_I(gamma, cs))              # collision check first
    eb = _epsilon_bar(cs)
    window = weight_window(cs.n, eb)
    if not (window[0] < gamma < window[1]):
        raise ValueError(
            f"gamma = {gamma} outside the admissible weight window ({window[0]}, {window[1]})"
        )
    selected, laplacian_addons = _select_extension(gamma, cs, i_gamma)
    gamma = float(gamma)
    j_interval, bilaplacian_addons = _bilaplacian_domain(cs, gamma, laplacian_addons)
    inner_bc = _inner_boundary_conditions(cs, gamma, laplacian_addons, bilaplacian_addons)
    return ExtensionSpec(cs, gamma, float(p), eb, window, i_gamma, selected,
                         laplacian_addons, j_interval, bilaplacian_addons, inner_bc)


# -- second-order selection --------------------------------------------------


def _q_minus(cs: CrossSection, j: int) -> float:
    return min(e.location for e in compute_poles(cs).for_mode(j))


def _epsilon_bar(cs: CrossSection) -> float:
    if cs.n_modes < 2:
        raise ValueError("need at least one nonzero cross-section mode to size the weight window")
    return -_q_minus(cs, 1)


def admissible_window(cs: CrossSection) -> tuple:
    """Weight window of the cross-section's own spectrum."""
    return weight_window(cs.n, _epsilon_bar(cs))


def default_weight(cs: CrossSection) -> float:
    """Midpoint of the admissible weight window; the run-time default."""
    lo, hi = admissible_window(cs)
    return 0.5 * (lo + hi)


def _select_extension(gamma: float, cs: CrossSection, i_gamma: tuple) -> tuple:
    """The subspace chosen at each pole of I_gamma, and the second-order addons.

    The selection follows the duality rules: at a pair of dual poles inside
    I_gamma and I_{-gamma} the subspaces at q_j^- and q_j^+ are full and zero
    respectively (the order-2 pole at 0 of a two dimensional cone takes its
    self-dual log-free half), leftover poles take the full space when
    gamma >= 0 and the zero space when gamma <= 0.
    """
    i_dual = interval_I(-gamma, cs)

    def has_dual_partner(e):
        # the pairing couples q with (n-1) - q across the two intervals
        target = (cs.n - 1) - e.location
        return any(d.mode == e.mode and abs(d.location - target) <= MERGE_TOL
                   for d in i_dual)

    selected = []
    addons = []
    for e in i_gamma:
        if has_dual_partner(e):
            rule = "i"
            if e.order == 2:
                # order-2 pole at 0 (n = 1 only): self-dual log-free half
                choice = "E_00"
            else:
                q_minus = _q_minus(cs, e.mode)
                choice = "full" if abs(e.location - q_minus) <= MERGE_TOL else "zero"
        elif gamma >= 0:
            rule, choice = "ii", "full"
        else:
            rule, choice = "iii", "zero"
        selected.append(SelectedPole(e, choice, rule))
        if choice in ("full", "E_00"):
            exponent = -e.exact if e.exact is not None else -e.location
            term = AsymptoticTerm(exponent, 0, e.mode, 1 if e.exact is not None else 1.0)
            addons.append(
                DomainAddon((term,), e.mode, e.location, "second-order")
            )
    _check_duality(cs, selected)
    return tuple(selected), tuple(addons)


def _check_duality(cs: CrossSection, selected: list) -> None:
    """Dimension bookkeeping of the pairing between choices at dual poles."""
    by_key = {(s.entry.location, s.entry.mode): s for s in selected}
    for s in selected:
        if s.rule != "i":
            continue
        m = cs.multiplicities[s.entry.mode]
        if s.choice == "E_00":
            # self-dual half of an order-2 pole: dim + dim(complement) = 2m
            if 2 * s.dim(cs) != 2 * m:
                raise InconsistentDomainError("self-dual choice has wrong dimension")
            continue
        dual_loc = (cs.n - 1) - s.entry.location
        dual = None
        for key, cand in by_key.items():
            if abs(key[0] - dual_loc) <= MERGE_TOL and key[1] == s.entry.mode:
                dual = cand
                break
        if dual is None:
            continue  # dual pole outside I_gamma; no constraint to verify
        if s.dim(cs) + dual.dim(cs) != m:
            raise InconsistentDomainError(
                f"choices at dual poles {s.entry.location} / {dual_loc} are not complementary"
            )


# -- membership of monomials in the chosen second-order domain ---------------


def _addon_allows(addons: tuple, a: Number, log_power: int, mode: int) -> bool:
    for addon in addons:
        for t in addon.terms:
            if t.mode != mode or t.log_power != log_power:
                continue
            if isinstance(t.exponent, Fraction) and isinstance(a, (int, Fraction)):
                if Fraction(a) == t.exponent:
                    return True
            elif abs(float(t.exponent) - float(a)) <= MERGE_TOL:
                return True
    return False


# -- fourth-order domain ------------------------------------------------------


def _null_space_2(constraints: list) -> list:
    """Null space of up to rank-2 constraints on (c0, c1); exact when possible."""
    rows = [(a, b) for a, b in constraints if not (_is_zero(a) and _is_zero(b))]
    if not rows:
        return [(1, 0), (0, 1)]
    a0, b0 = rows[0]
    for a1, b1 in rows[1:]:
        cross = a0 * b1 - a1 * b0
        if not _is_zero(cross):
            return []
    # rank one: null vector (-b0, a0), normalized to leading coefficient 1
    v = (-b0, a0)
    lead = v[0] if not _is_zero(v[0]) else v[1]
    return [(_div(v[0], lead), _div(v[1], lead))]


def _div(a: Number, b: Number) -> Number:
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a, 1) / Fraction(b, 1)
    return float(a) / float(b)


def _pole_exponent(entry: PoleEntry) -> Number:
    return -entry.exact if entry.exact is not None else -entry.location


def _surviving_functions(cs: CrossSection, entry: PoleEntry, laplacian_addons: tuple,
                         tau2: float) -> list:
    """Monomial combinations at one fourth-order pole that pass the
    composition test u in D(Lap), Lap u in D(Lap); tau2 is the
    second-order minimal threshold."""
    a = _pole_exponent(entry)
    j = entry.mode
    exact = isinstance(a, Fraction) and cs.exact_eigenvalues is not None
    lam = cs.exact_eigenvalues[j] if exact else cs.eigenvalues[j]
    q = indicial_polynomial(a, lam, cs.n)
    dq = 2 * a + (cs.n - 1)

    constraints = []
    if entry.order < 2:
        constraints.append((0, 1))  # no log branch at a simple pole
    # u-membership: u = c0 x^a + c1 x^a log x
    if not float(a) > tau2:
        if not _addon_allows(laplacian_addons, a, 1, j):
            constraints.append((0, 1))
        if not _addon_allows(laplacian_addons, a, 0, j):
            constraints.append((1, 0))
    # image membership: Lap u = x^{a-2} [(c0 Q + c1 Q') + c1 Q log x]
    a2 = a - 2
    if not float(a2) > tau2:
        if not _addon_allows(laplacian_addons, a2, 1, j):
            constraints.append((0, q))
        if not _addon_allows(laplacian_addons, a2, 0, j):
            constraints.append((q, dq))
    basis = _null_space_2(constraints)

    out = []
    for c0, c1 in basis:
        terms = []
        if not _is_zero(c0):
            terms.append(AsymptoticTerm(a, 0, j, c0))
        if not _is_zero(c1):
            terms.append(AsymptoticTerm(a, 1, j, c1))
        if terms:
            out.append(tuple(terms))
    return out


def _function_key(terms: tuple) -> tuple:
    return tuple(
        (round(float(t.exponent), 9), t.log_power, t.mode, round(float(t.coefficient), 9))
        for t in terms
    )


def _symbolic_square_vanishes(terms: Sequence[AsymptoticTerm], cs: CrossSection) -> bool:
    """True when the symbolic bilaplacian of the combination cancels exactly."""
    first = []
    for t in terms:
        first.extend(symbolic_laplacian(t, cs))
    second = {}
    for t in first:
        for s in symbolic_laplacian(t, cs):
            key = (float(s.exponent), s.log_power, s.mode)
            second[key] = second.get(key, 0) + s.coefficient
    return all(_is_zero(v) for v in second.values())


def _bilaplacian_domain(cs: CrossSection, gamma: float, laplacian_addons: tuple) -> tuple:
    """The interval J and the addons of the squared operator's domain.

    Direct route: enumerate poles of the fourth-order symbol inside
    J = ((n+1)/2 - gamma - 4, (n+1)/2 - gamma - 2) and keep the monomial
    combinations whose Laplacian lands back in the chosen domain; the
    second-order addons carry over (their Laplacian vanishes).

    Reconciliation route: run the same composition test over every pole of
    the fourth-order symbol in the full non-minimal strip.  The survivors
    must be exactly the direct-route list plus the carried addon; any excess
    or deficit raises InconsistentDomainError.  A pole of J may legitimately
    contribute nothing (its asymptotics space is trivial for this extension);
    what may not happen is an addon appearing outside J.
    """
    n = cs.n
    j_lo = 0.5 * (n + 1) - gamma - 4.0
    j_hi = 0.5 * (n + 1) - gamma - 2.0
    strip_lo, strip_hi = j_lo, 0.5 * (n + 1) - gamma
    tau2 = _minimal_threshold(cs, gamma, 2)

    carried = list(laplacian_addons)
    for a in carried:
        if not _symbolic_square_vanishes(a.terms, cs):
            raise InconsistentDomainError(
                "carried second-order addon is not annihilated by the symbolic bilaplacian"
            )
    carried_keys = {_function_key(a.terms) for a in carried}

    direct = []
    survivors_outside = []
    for entry in bilaplacian_poles_in(cs, strip_lo, strip_hi):
        funcs = _surviving_functions(cs, entry, laplacian_addons, tau2)
        in_j = j_lo < entry.location < j_hi
        for terms in funcs:
            addon = DomainAddon(terms, entry.mode, entry.location, "fourth-order-interval")
            if in_j:
                direct.append(addon)
            else:
                survivors_outside.append(addon)

    # reconciliation: outside-J survivors must be exactly the carried addons
    outside_keys = {_function_key(a.terms) for a in survivors_outside}
    if outside_keys != carried_keys:
        raise InconsistentDomainError(
            "operational fourth-order domain violates its direct-sum structure: "
            f"survivors outside J {sorted(outside_keys)} != carried addons {sorted(carried_keys)}"
        )
    for addon in direct:
        if not _symbolic_square_vanishes(addon.terms, cs):
            raise InconsistentDomainError(
                "fourth-order addon is not annihilated by the symbolic bilaplacian"
            )
        if not float(addon.exponent) > tau2 - 2.0:
            raise InconsistentDomainError("fourth-order addon falls outside the base space")

    keys = [_function_key(a.terms) for a in carried + direct]
    if len(keys) != len(set(keys)):
        raise InconsistentDomainError("fourth-order addon list is not direct")

    return (j_lo, j_hi), tuple(carried + sorted(
        direct, key=lambda a: (a.mode, float(a.exponent))
    ))


# -- Robin encoding of the domain at the artificial tip boundary --------------


def _ladder_exponent(q_minus: float, threshold: float) -> float:
    """Leading admissible monomial exponent: walk -q_j^- up in steps of 2."""
    a = -q_minus
    while not a > threshold:
        a += 2.0
    return a


def _inner_boundary_conditions(cs: CrossSection, gamma: float, laplacian_addons: tuple,
                               bilaplacian_addons: tuple) -> tuple:
    """Per-mode Robin exponent pairs (a_j for u, b_j for Lap u) at x_min.

    a_j is the smallest fourth-order addon exponent of the mode when one
    exists, otherwise the leading admissible monomial above the minimal
    threshold; b_j is the same construction one order down (the domain of the
    Laplacian itself), which is what the intermediate field of the composed
    fourth-order solve obeys.
    """
    tau4 = _minimal_threshold(cs, gamma, 4)
    tau2 = _minimal_threshold(cs, gamma, 2)
    low4 = _lowest_exponents(bilaplacian_addons)
    low2 = _lowest_exponents(laplacian_addons)
    pairs = []
    for j in range(cs.n_modes):
        q_minus = _q_minus(cs, j)
        a_j = low4[j] if j in low4 else _ladder_exponent(q_minus, tau4)
        b_j = low2[j] if j in low2 else _ladder_exponent(q_minus, tau2)
        pairs.append((a_j, b_j))
    return tuple(pairs)


def _lowest_exponents(addons: list) -> dict:
    """The smallest addon exponent, as a float, of each mode that has addons."""
    lowest = {}
    for a in addons:
        e = float(a.exponent)
        if a.mode not in lowest or e < lowest[a.mode]:
            lowest[a.mode] = e
    return lowest
