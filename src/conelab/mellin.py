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
from typing import Optional, Tuple

import numpy as np
from numpy.linalg import LinAlgError

from .cross_section import CrossSection, circle_basis

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
    t_max: float
    n_radial: int
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
        mults = self.cs.multiplicities[:self.j_max + 1]
        self.channels = [(j, k) for j, m in enumerate(mults) for k in range(m)]
        self.channel_modes = np.repeat(np.arange(self.j_max + 1), mults)
        lams = np.array(self.cs.eigenvalues[:self.j_max + 1], dtype=float)
        self.channel_lams = lams[self.channel_modes]
        self._synth = None

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
            if self.cs.geometry == "circle":
                self._synth = circle_basis(self.cs.circumference, self.j_max, y)
            else:
                cols = [self.cs.evaluate(j, k, y) for j, k in self.channels]
                self._synth = np.column_stack(cols)
        return self._synth

    def radial_derivative(self, values: np.ndarray) -> np.ndarray:
        """d/dt along axis 0: central interior rows, one-sided second order ends.

        values holds the first R >= 3 nodes of a field that is zero past
        them.  The bits are those of the sparse d/dt matrix's leading
        R x R block times values, which sums each row's products in
        column order from +0.0.
        """
        h = self.dt
        out = np.empty(values.shape)
        # out[i + 1] = (0.5 / h) u[i]; row i = out[i + 2] - out[i] goes over out[i]
        # (a ufunc computes as if overlapping operands did not overlap);
        # (0 + (-a)) + b == (b - a) + 0 bitwise, and += 0.0 adds the 0
        np.multiply(values[:-1], 0.5 / h, out=out[1:])
        np.subtract(out[3:], out[1:-2], out=out[1:-2])
        out[-2] = (0.5 / h) * values[-1] - out[-2]
        if values.shape[0] == self.n_nodes:
            out[-1] = (0.0 + (0.5 / h) * values[-3] + (-2.0 / h) * values[-2]
                       + (1.5 / h) * values[-1])
        else:
            out[-1] = -out[-1]
        out[0] = 0.0 + (-1.5 / h) * values[0] + (2.0 / h) * values[1] + (-0.5 / h) * values[2]
        out += 0.0
        return out


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
            # a numerical failure, and a ValueError too
            raise LinAlgError("field coefficients must be finite")

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
    term (see ConeGrid.radial_derivative).  Every term and its power are
    formed in one scratch buffer.
    """
    mult = np.sqrt(np.maximum(-grid.channel_lams, 0.0))
    powers = [mult ** m for m in range(1, k + 1)]
    buf = np.empty_like(radial)
    for i in range(k + 1):
        if i:
            radial = grid.radial_derivative(radial)
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
                p: float = 2.0) -> float:
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

    Returns
    -------
    float
        ( sum_{i+m<=k} [ tip term + outer term ] )^(1/p), where the tip
        term is the |.|^p integral of x^((n+1)/2-gamma) D^i Lam^m (omega u)
        against dt dy and the outer term the plain volume integral of the
        same stack applied to (1 - omega) u.
    """
    return mellin_norms(u, k, gamma, p)[1]


def mellin_norms(u: FieldState, k: int, gamma: Optional[float] = None,
                 p: float = 2.0) -> Tuple[float, float]:
    """The order-0 and order-k norms of mellin_norm, from one pass.

    The stack of every order starts with the order-0 term, so the
    order-0 sum is the first partial sum of the order-k one.  At p = 2
    the outer stack is evaluated only on the cutoff's support (plus k + 1
    nodes) and its per-node sums are zero-filled, which gives the same
    bits; other p keep full-height products, since a BLAS product over a
    few rows can round differently from the same rows of a taller one.
    """
    grid = u.grid
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
