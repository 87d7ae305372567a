"""Weighted norms, membership tests, and field containers on the model cone.

The collar x in [x_min, 1] over the cross-section is discretized on a
uniform grid in the log-radial variable t = -log x, so the tip sits at
t_max and the outer rim at t = 0.  Fields are stored as radial-node by
channel coefficient arrays, one channel per cross-section eigenfunction.

The order-k weighted norm measures the derivative stack (x d_x)^i Lam^m,
i + m <= k, where Lam is the modal multiplier sqrt(-lambda_j) standing in
for one cross-section derivative.  The near-tip part carries the weight
x^((n+1)/2 - gamma) against the measure dx/x dy; the outer part, where
the cutoff vanishes, is measured in the plain Sobolev norm against the
volume x^n dx dy.  Monomials x^a log^l x belong to the weight-gamma space
exactly when a > gamma - (n+1)/2, strictly, regardless of l and p.
"""

from dataclasses import dataclass, field
from math import ceil
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .cross_section import CrossSection

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _phi(r):
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    pos = r > 0
    with np.errstate(divide="ignore", over="ignore"):
        out[pos] = np.exp(-1.0 / r[pos])
    return out


def cutoff(x):
    """Smooth cutoff equal to 1 for x <= 1/2 and 0 for x >= 3/4.

    Parameters
    ----------
    x : array_like
        Radial coordinate values in (0, 1].

    Returns
    -------
    ndarray or float
        The transition is the classic exp-based smoothstep
        phi(1-r) / (phi(1-r) + phi(r)) with phi(r) = exp(-1/r) and
        r = 4x - 2, which is flat to all orders at both plateaus.
    """
    x = np.asarray(x, dtype=float)
    r = np.clip(4.0 * x - 2.0, 0.0, 1.0)
    lo, hi = _phi(1.0 - r), _phi(r)
    out = lo / (lo + hi)
    return out if out.ndim else float(out)


@dataclass(eq=False)
class ConeGrid:
    """Uniform log-radial grid times a truncated cross-section basis.

    Parameters
    ----------
    cs : CrossSection
        Supplies the eigenvalues, multiplicities, and quadrature.
    t_max : float
        Extent of the log-radial axis; x_min = exp(-t_max).
    n_radial : int
        Number of radial intervals (n_radial + 1 nodes).
    j_max : int, optional
        Mode truncation; defaults to every mode the cross-section carries.
    """

    cs: CrossSection
    t_max: float = 12.0
    n_radial: int = 600
    j_max: Optional[int] = None
    t: np.ndarray = field(init=False, repr=False)
    x: np.ndarray = field(init=False, repr=False)
    omega: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")
        if self.n_radial < 8:
            raise ValueError("need at least 8 radial intervals")
        if self.j_max is None:
            self.j_max = self.cs.n_modes - 1
        if not 0 <= self.j_max < self.cs.n_modes:
            raise ValueError("j_max exceeds the cross-section spectrum")
        self.t = np.linspace(0.0, self.t_max, self.n_radial + 1)
        self.x = np.exp(-self.t)
        self.omega = np.asarray(cutoff(self.x))
        chans = []
        for j in range(self.j_max + 1):
            for k in range(self.cs.multiplicities[j]):
                chans.append((j, k))
        self.channels = chans
        self.channel_modes = np.array([j for j, _ in chans])
        self.channel_lams = np.array([float(self.cs.eigenvalue(j)) for j, _ in chans])
        self._synth = None
        self._deriv = None

    @property
    def n_nodes(self) -> int:
        return self.n_radial + 1

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def dt(self) -> float:
        return self.t_max / self.n_radial

    @property
    def x_min(self) -> float:
        return float(np.exp(-self.t_max))

    def channel_index(self, j: int, k: int = 0) -> int:
        return self.channels.index((j, k))

    def synthesis_matrix(self) -> np.ndarray:
        """Eigenfunction values at the cross-section quadrature nodes."""
        if self._synth is None:
            if self.cs.nodes is None:
                raise ValueError("cross-section carries no quadrature nodes")
            y = np.asarray(self.cs.nodes)
            cols = [self.cs.evaluate(j, k, y) for j, k in self.channels]
            self._synth = np.column_stack(cols)
        return self._synth

    def radial_derivative_matrix(self) -> sp.csr_matrix:
        """d/dt matrix: central interior rows, one-sided second order ends.

        Stored sparse; ordered row sums make D @ (constant) vanish bitwise
        away from the two one-sided end rows.
        """
        if self._deriv is None:
            m = self.n_nodes
            h = self.dt
            D = sp.lil_matrix((m, m))
            idx = np.arange(1, m - 1)
            D[idx, idx - 1] = -0.5 / h
            D[idx, idx + 1] = 0.5 / h
            D[0, :3] = np.array([-1.5, 2.0, -0.5]) / h
            D[-1, -3:] = np.array([0.5, -2.0, 1.5]) / h
            self._deriv = D.tocsr()
        return self._deriv


@dataclass(eq=False)
class FieldState:
    """Coefficients of a field on a ConeGrid, with a time stamp.

    coeffs[i, c] is the channel-c coefficient at radial node i.  The
    weight gamma and integrability p ride along so norm-based diagnostics
    can default to the run's own parameters.
    """

    grid: ConeGrid
    coeffs: np.ndarray
    time: float = 0.0
    gamma: Optional[float] = None
    p: float = 2.0

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        want = (self.grid.n_nodes, self.grid.n_channels)
        if self.coeffs.shape != want:
            raise ValueError(f"coefficient array must have shape {want}")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("field coefficients must be finite")

    @classmethod
    def zeros(cls, grid: ConeGrid, **kw) -> "FieldState":
        return cls(grid, np.zeros((grid.n_nodes, grid.n_channels)), **kw)

    @property
    def n(self) -> int:
        return self.grid.cs.n

    def copy(self) -> "FieldState":
        return FieldState(self.grid, self.coeffs.copy(), time=self.time,
                          gamma=self.gamma, p=self.p)

    def like(self, coeffs: np.ndarray, time: Optional[float] = None) -> "FieldState":
        """New state on the same grid carrying this state's metadata."""
        return FieldState(self.grid, coeffs,
                          time=self.time if time is None else time,
                          gamma=self.gamma, p=self.p)

    def channel(self, j: int, k: int = 0) -> np.ndarray:
        return self.coeffs[:, self.grid.channel_index(j, k)]

    def physical_values(self) -> np.ndarray:
        """Field values at (radial node, cross-section quadrature node)."""
        return self.coeffs @ self.grid.synthesis_matrix().T

    def sup_norm(self) -> float:
        if self.grid.cs.nodes is not None:
            if not self.coeffs.size:
                return 0.0
            vals = self.physical_values()
            return float(np.max(np.abs(vals, out=vals)))
        return float(np.max(np.abs(self.coeffs)))


def monomial_state(grid: ConeGrid, exponent: float, mode: int = 0, branch: int = 0,
                   log_power: int = 0, amplitude: float = 1.0, **kw) -> FieldState:
    """Sample amplitude * x^exponent * log^log_power x on a single channel."""
    u = FieldState.zeros(grid, **kw)
    prof = amplitude * np.exp(-float(exponent) * grid.t) * (-grid.t) ** log_power
    u.coeffs[:, grid.channel_index(mode, branch)] = prof
    return u


def constant_state(grid: ConeGrid, value: float = 1.0, **kw) -> FieldState:
    """The constant field; channel-0 coefficient is value * sqrt(area)."""
    u = FieldState.zeros(grid, **kw)
    u.coeffs[:, grid.channel_index(0, 0)] = value * np.sqrt(float(grid.cs.area()))
    return u


def _stack_sums(grid: ConeGrid, radial: np.ndarray, k: int, p: float):
    """Yield the per-node |.|^p cross-section integral of each term
    D^i Lam^m radial, i + m <= k, in the order i, then m.

    radial may hold only the first R nodes of a field that is zero on the
    rest, with R at least one past the last nonzero node of the order-k
    term; the derivatives then go through D[:R, :R], which drops only
    products with those zeros.  Every term and its power are formed in
    one scratch buffer.
    """
    D = grid.radial_derivative_matrix()
    if radial.shape[0] < grid.n_nodes:
        D = D[:radial.shape[0], :radial.shape[0]]
    mult = np.sqrt(np.maximum(-grid.channel_lams, 0.0))
    powers = [mult ** m for m in range(1, k + 1)]
    buf = np.empty_like(radial)
    for i in range(k + 1):
        if i:
            radial = D @ radial
        for m in range(k + 1 - i):
            w = np.multiply(radial, powers[m - 1], out=buf) if m else radial
            yield _p_power_radial(grid, w, p, buf)


def _p_power_radial(grid: ConeGrid, w: np.ndarray, p: float,
                    buf: np.ndarray) -> np.ndarray:
    """Cross-section integral of |w|^p per radial node; buf is scratch
    of w's shape, and may be w itself."""
    if p == 2.0:
        return np.multiply(w, w, out=buf).sum(axis=1)
    vals = w @ grid.synthesis_matrix().T
    np.abs(vals, out=vals)
    vals **= p
    return vals @ np.asarray(grid.cs.weights)


def mellin_norm(u: FieldState, k: int = 0, gamma: Optional[float] = None,
                p: float = 2.0, grid: Optional[ConeGrid] = None) -> float:
    """Discrete weighted Sobolev norm of order k and weight gamma.

    Parameters
    ----------
    u : FieldState
    k : int
        Derivative order, 0 through 4.
    gamma : float, optional
        Weight; falls back to the state's own metadata.
    p : float
        Integrability index; p = 2 integrates in coefficient space, any
        other p >= 1 goes through cross-section quadrature.
    grid : ConeGrid, optional
        Defaults to the state's grid.

    Returns
    -------
    float
        ( sum_{i+m<=k} [ tip term + outer term ] )^(1/p), where the tip
        term is the |.|^p integral of x^((n+1)/2-gamma) D^i Lam^m (omega u)
        against dt dy and the outer term the plain volume integral of the
        same stack applied to (1 - omega) u.
    """
    return mellin_norms(u, k, gamma, p, grid)[1]


def mellin_norms(u: FieldState, k: int, gamma: Optional[float] = None,
                 p: float = 2.0, grid: Optional[ConeGrid] = None) -> Tuple[float, float]:
    """The order-0 and order-k norms of mellin_norm, from one pass.

    The stack of every order starts with the order-0 term, so the
    order-0 sum is the first partial sum of the order-k one.  At p = 2
    the outer stack is evaluated only on the cutoff's support (plus k + 1
    nodes) and its per-node sums are zero-filled, which gives the same
    bits; other p keep full-height products, since a BLAS product over a
    few rows can round differently from the same rows of a taller one.
    """
    grid = grid or u.grid
    if gamma is None:
        gamma = u.gamma
    if gamma is None:
        raise ValueError("no weight gamma given and the state carries none")
    if not 0 <= k <= 4:
        raise ValueError("derivative order k must lie in 0..4")
    if p < 1:
        raise ValueError("integrability index p must be >= 1")
    n = grid.cs.n
    om = grid.omega[:, np.newaxis]
    sigma = 0.5 * (n + 1) - gamma
    tip_weight = np.exp(-p * sigma * grid.t)
    out_weight = np.exp(-(n + 1) * grid.t)
    # (1 - omega) u is zero past the cutoff's support and D^i widens that
    # by i nodes; squares make the dropped signed zeros +0 at p = 2
    rows = grid.n_nodes
    if p == 2.0:
        rows = min(rows, int(np.flatnonzero(grid.omega < 1.0)[-1]) + k + 2)
    out_sums = np.zeros(grid.n_nodes)
    sums = []
    total = 0.0
    for tip, outer in zip(_stack_sums(grid, om * u.coeffs, k, p),
                          _stack_sums(grid, (1.0 - om[:rows]) * u.coeffs[:rows], k, p)):
        total += _trapezoid(tip_weight * tip, grid.t)
        out_sums[:rows] = outer
        total += _trapezoid(out_weight * out_sums, grid.t)
        sums.append(total)
    return float(sums[0] ** (1.0 / p)), float(total ** (1.0 / p))


def membership_test(a: float, l: int, gamma: float, p: float, n: int) -> bool:
    """Whether x^a log^l x (cut off near the tip) has finite weight-gamma norm.

    True exactly when a > gamma - (n+1)/2, strictly.  The threshold does
    not involve the log power l or the index p: logarithms are absorbed
    by the strict inequality, and the weight exponent is p-independent.
    """
    del l, p
    return bool(a > gamma - 0.5 * (n + 1))


def pointwise_bound_check(u: FieldState, s: float, gamma: Optional[float] = None) -> float:
    """Empirical constant in the tip-weighted sup bound.

    For s > (n+1)/p the field is continuous away from the tip and obeys
    |u(x, y)| <= c x^(gamma-(n+1)/2) ||u||_{s,gamma}; this returns the
    smallest c visible on the grid, i.e. the max of
    |u| x^((n+1)/2-gamma) divided by the order-ceil(s) norm.
    """
    grid = u.grid
    if gamma is None:
        gamma = u.gamma
    if gamma is None:
        raise ValueError("no weight gamma given and the state carries none")
    n = grid.cs.n
    if s <= (n + 1) / u.p:
        raise ValueError("need s > (n+1)/p for a pointwise bound")
    norm = mellin_norm(u, ceil(s), gamma, u.p)
    if norm == 0.0:
        raise ValueError("zero-norm input")
    weight = np.exp(-(0.5 * (n + 1) - gamma) * grid.t)
    vals = np.max(np.abs(u.physical_values()), axis=1)
    return float(np.max(vals * weight) / norm)
