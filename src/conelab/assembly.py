"""Per-mode radial operators, the angular transform, and the cubic split.

Each cross-section mode j carries a tridiagonal radial operator: in the
log variable t = -log x the Laplacian acts modewise as
e^(2t) (d_tt - (n-1) d_t + lambda_j), discretized with central
differences (order-2 stencil).  The first and last rows are image
extrapolation rows: the outer row copies its neighbor (Neumann for the
image), the tip row scales its neighbor by exp(-b_j dt) so that the
image decays at the leading admissible tip rate b_j.  The fourth-order
operator is the literal matrix square, so applying it equals applying
the Laplacian twice, including at the ends.

The angular transform oversamples to at least 4 j_max + 5 physical
points so that projecting a product of three band-limited factors back
onto the retained modes is exact (plain 3/2 padding is not enough for
the cubic terms; see notes).
"""

from dataclasses import InitVar, dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .extensions import ExtensionSpec
from .mellin import ConeGrid, FieldState


@dataclass(eq=False)
class ModeOperator:
    """Banded radial matrix for one cross-section mode.

    robin_a and robin_b are the leading admissible tip exponents of the
    fourth-order and second-order domains; constraint rows in implicit
    solves tie the tip node to its neighbor at the matching decay rate.
    """

    grid: ConeGrid
    mode: int
    order: int
    lam: float
    robin_a: float
    robin_b: float
    matrix: sp.csr_matrix

    @property
    def bandwidth(self) -> int:
        coo = self.matrix.tocoo()
        if coo.nnz == 0:
            return 0
        return int(np.max(np.abs(coo.row - coo.col)))


def _check_pair(grid: ConeGrid, spec: ExtensionSpec):
    if spec.cs is not grid.cs:
        raise ValueError("grid and extension spec must share one cross-section")
    if spec.inner_bc is None:
        raise ValueError("extension spec lacks inner boundary data; "
                         "run build_extension first")


def assemble_laplacian(j: int, grid: ConeGrid, spec: ExtensionSpec) -> ModeOperator:
    """Radial Laplacian for mode j with image extrapolation rows.

    Parameters
    ----------
    j : int
        Mode index, at most grid.j_max.
    grid : ConeGrid
    spec : ExtensionSpec
        Completed spec (window, addons, inner boundary exponents).

    Returns
    -------
    ModeOperator
        Tridiagonal away from the ends; row 0 copies row 1 and row N is
        exp(-b_j dt) times row N-1, so the image of a field satisfies
        the same outer-Neumann / tip-decay pattern as the field itself.
    """
    _check_pair(grid, spec)
    if not 0 <= j <= grid.j_max:
        raise ValueError("mode index outside the grid truncation")
    a_j, b_j = spec.inner_bc[j]
    lam = float(grid.cs.eigenvalue(j))
    n = grid.cs.n
    h = grid.dt
    N = grid.n_radial
    e2t = np.exp(2.0 * grid.t)[1:N]
    # row r holds the entries of columns c - 1, c, c + 1 with c clamped
    # to the interior, so the two image rows reuse their neighbor's columns
    vals = np.empty((N + 1, 3))
    vals[1:N, 0] = e2t * (1.0 / h ** 2 + 0.5 * (n - 1) / h)
    vals[1:N, 1] = e2t * (-2.0 / h ** 2 + lam)
    vals[1:N, 2] = e2t * (1.0 / h ** 2 - 0.5 * (n - 1) / h)
    vals[0] = vals[1]
    vals[N] = np.exp(-b_j * h) * vals[N - 1]
    cols = np.clip(np.arange(N + 1), 1, N - 1)[:, np.newaxis] + np.arange(-1, 2)
    # store no zeros, as LIL assembly did: the pattern fixes the order in
    # which sparse products such as P @ P sum their terms
    keep = vals != 0.0
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    M = sp.csr_matrix((vals[keep], cols[keep], indptr), shape=(N + 1, N + 1))
    return ModeOperator(grid=grid, mode=j, order=2, lam=lam,
                        robin_a=float(a_j), robin_b=float(b_j),
                        matrix=M)


def _squared(P: ModeOperator, grid: ConeGrid) -> ModeOperator:
    """The fourth-order operator of P's mode: the exact matrix square."""
    return ModeOperator(grid=grid, mode=P.mode, order=4, lam=P.lam,
                        robin_a=P.robin_a, robin_b=P.robin_b,
                        matrix=(P.matrix @ P.matrix).tocsr())


def assemble_bilaplacian(j: int, grid: ConeGrid, spec: ExtensionSpec) -> ModeOperator:
    """Fourth-order radial operator as the exact square of the Laplacian."""
    return _squared(assemble_laplacian(j, grid, spec), grid)


def laplacian_suite(grid: ConeGrid, spec: ExtensionSpec) -> List[ModeOperator]:
    return [assemble_laplacian(j, grid, spec) for j in range(grid.j_max + 1)]


def bilaplacian_suite(grid: ConeGrid, spec: ExtensionSpec,
                      laplacians: Optional[List[ModeOperator]] = None) -> List[ModeOperator]:
    if laplacians is None:
        laplacians = laplacian_suite(grid, spec)
    return [_squared(P, grid) for P in laplacians]


def mode_slices(grid: ConeGrid) -> List[slice]:
    """Column range of each mode; channels are stored in mode order."""
    bounds = np.searchsorted(grid.channel_modes, np.arange(grid.j_max + 2))
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


class FieldOperator:
    """One radial operator per mode, applied to every channel in one sparse product.

    The matrix is block diagonal in the node-major order
    (node i, mode j) -> i (j_max + 1) + j and holds each mode's matrix
    once; a mode's channels are its right-hand-side columns, padded to
    the largest multiplicity (on a circle, the cos/sin pair, with one
    padding column for mode 0).  Row (i, j) keeps the entries of row i
    of mode j's matrix in their stored order and the product sums them
    from zero, exactly as the per-mode CSR product does, so the result
    is the same bits.
    """

    def __init__(self, ops: List[ModeOperator], grid: ConeGrid):
        n, nm = grid.n_nodes, len(ops)
        mult = np.bincount(grid.channel_modes, minlength=nm)
        self.width = int(mult.max())
        # channel (j, k) sits in the last mult[j] columns of mode j's block;
        # on a circle these are contiguous, and a slice copies faster
        pos = np.array([j * self.width + self.width - mult[j] + k
                        for j, k in grid.channels])
        self._cols = (slice(pos[0], pos[0] + pos.size)
                      if np.array_equal(pos, np.arange(pos[0], pos[0] + pos.size))
                      else pos)
        self._padded = (n, nm * self.width)
        counts = np.array([np.diff(op.matrix.indptr) for op in ops])
        indptr = np.concatenate(([0], np.cumsum(counts.T.ravel())))
        data = np.empty(indptr[-1])
        cols = np.empty(indptr[-1], dtype=ops[0].matrix.indices.dtype)
        for j, op in enumerate(ops):
            M = op.matrix
            # entry s of row i of mode j goes to indptr[i nm + j] + s
            dest = np.repeat(indptr[j:-1:nm] - M.indptr[:-1], counts[j])
            dest += np.arange(M.nnz)
            data[dest] = M.data
            cols[dest] = M.indices * nm + j
        self.matrix = sp.csr_matrix((data, cols, indptr), shape=(n * nm, n * nm))

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        x = np.zeros(self._padded)
        x[:, self._cols] = coeffs
        y = self.matrix @ x.reshape(-1, self.width)
        return np.ascontiguousarray(y.reshape(self._padded)[:, self._cols])


def apply_modewise(ops: List[ModeOperator], coeffs: np.ndarray,
                   grid: ConeGrid) -> np.ndarray:
    """Apply one radial operator per mode across all channels."""
    return FieldOperator(ops, grid).apply(coeffs)


def apply_operator(u: FieldState, ops: List[ModeOperator]) -> FieldState:
    return u.like(apply_modewise(ops, u.coeffs, u.grid))


def to_banded(mat: sp.spmatrix, kl: int, ku: int) -> np.ndarray:
    """Diagonal-ordered form consumed by scipy.linalg.solve_banded."""
    mat = mat.tocsr()
    m = mat.shape[0]
    ab = np.zeros((kl + ku + 1, m))
    for k in range(-kl, ku + 1):
        d = mat.diagonal(k)
        if k >= 0:
            ab[ku - k, k:] = d
        else:
            ab[ku - k, :m + k] = d
    return ab


@dataclass(eq=False)
class TransformPlan:
    """Uniform-angle synthesis/analysis pair for circle cross-sections.

    Analysis is (L/m) S^T, which inverts synthesis exactly on the
    retained band as long as m exceeds twice the top mode; m is padded
    further so cubic products project back without aliasing.  The plan
    keeps no reference to its grid, which caches it: a cycle would
    outlive both until the cyclic collector runs.
    """

    grid: InitVar[ConeGrid]
    n_phys: Optional[int] = None

    def __post_init__(self, grid: ConeGrid):
        cs = grid.cs
        if cs.geometry != "circle":
            raise ValueError("angular transform is implemented for circles only")
        jm = grid.j_max
        self.m = self.n_phys or max(4 * jm + 5, 8)
        L = float(cs.circumference)
        self.theta = L * np.arange(self.m) / self.m
        self.S = np.column_stack([cs.evaluate(j, k, self.theta)
                                  for j, k in grid.channels])
        # d_theta sends cos(w theta) to -w sin(w theta) and sin to
        # w cos: output channel c is weight[c] times input channel
        # partner[c]; mode 0 has weight zero
        nc = grid.n_channels
        self._partner = np.arange(nc)
        self._weight = np.zeros(nc)
        for c, (j, k) in enumerate(grid.channels):
            if j == 0:
                continue
            w = 2.0 * np.pi * j / L
            partner = grid.channel_index(j, 1 - k)
            self._partner[partner] = c
            self._weight[partner] = -w if k == 0 else w
        self._analysis = (L / self.m) * self.S

    def to_physical(self, coeffs: np.ndarray) -> np.ndarray:
        return coeffs @ self.S.T

    def to_modes(self, values: np.ndarray) -> np.ndarray:
        return values @ self._analysis

    def synthesise(self, coeffs: np.ndarray) -> List[np.ndarray]:
        """[values, angular derivative] of a field on the padded physical grid."""
        return [self.to_physical(coeffs), self.to_physical(self.dtheta(coeffs))]

    def dtheta(self, coeffs: np.ndarray) -> np.ndarray:
        out = coeffs[:, self._partner] * self._weight
        # the dense product with the derivative matrix sums from +0, so
        # a zero product comes out +0.0, never -0.0
        out += 0.0
        return out

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Mode coefficients of the pointwise product of two fields."""
        return self.to_modes(self.to_physical(a) * self.to_physical(b))


def transform_plan(grid: ConeGrid) -> TransformPlan:
    plan = getattr(grid, "_transform_plan", None)
    if plan is None:
        plan = TransformPlan(grid)
        grid._transform_plan = plan
    return plan


def gradient_pairing(u: FieldState, v: FieldState,
                     grid: Optional[ConeGrid] = None,
                     angular: Optional[np.ndarray] = None) -> FieldState:
    """Metric pairing of gradients, e^(2t) (u_t v_t + u_theta v_theta).

    Both slots must live on the same grid.  The product is formed
    pointwise on the padded physical grid and projected back, so for
    u = v = x cos(theta) the result is the constant 1 up to O(dt^2)
    from the radial stencil.  With v the very same state as u, its
    gradients are transformed once.  angular, when given, is u's angular
    derivative on the padded grid (the second array of
    TransformPlan.synthesise) and is not synthesised again.
    """
    grid = grid or u.grid
    if v.grid is not grid or u.grid is not grid:
        raise ValueError("gradient pairing needs both fields on one grid")
    plan = transform_plan(grid)
    D = grid.radial_derivative_matrix()

    def gradient(w: FieldState, angular=None):
        if angular is None:
            angular = plan.to_physical(plan.dtheta(w.coeffs))
        return plan.to_physical(D @ w.coeffs), angular

    ut, uy = gradient(u, angular)
    vt, vy = (ut, uy) if v is u else gradient(v)
    w = plan.to_modes(ut * vt + uy * vy) * np.exp(2.0 * grid.t)[:, np.newaxis]
    return u.like(w)


def cubic_field(u: FieldState) -> FieldState:
    """Mode coefficients of u^3 via the dealiased physical grid."""
    plan = transform_plan(u.grid)
    vals = plan.to_physical(u.coeffs)
    return u.like(plan.to_modes(vals ** 3))


def flux_divergence(scalar_phys: np.ndarray, z: np.ndarray, grid: ConeGrid,
                    midpoints: Optional[np.ndarray] = None,
                    evaluation: Optional[List[np.ndarray]] = None) -> np.ndarray:
    """Mode coefficients of div(s grad z) = e^(2t)(d_t(s z_t) + d_y(s z_y)).

    s is given pointwise on the padded physical grid, z in mode
    coefficients.  The radial part differences staggered midpoint fluxes
    s_(i+1/2) (z_(i+1) - z_i)/h, so the weighted radial sum telescopes to
    the two boundary fluxes and the term vanishes identically when z is
    constant; the angular part applies d_y outermost, whose mode-0 row is
    zero, so it never moves mass.  The two boundary rows are left zero
    (zero-flux closure); solvers overwrite them with constraint rows.

    midpoints, the radial midpoint average 0.5 (s_i + s_(i+1)), is
    computed here unless the caller has it.  So is evaluation, the list
    TransformPlan.synthesise(z); a caller's list is consumed: it is
    emptied and its arrays are overwritten as scratch.
    """
    plan = transform_plan(grid)
    h = grid.dt
    if evaluation is None:
        evaluation = plan.synthesise(z)
    phys, angular = evaluation
    evaluation.clear()
    if midpoints is None:
        midpoints = 0.5 * (scalar_phys[:-1] + scalar_phys[1:])
    # each physical-grid array is released as soon as it is used up
    fr = phys[1:] - phys[:-1]
    del phys
    fr *= midpoints
    fr /= h
    divr = np.zeros((fr.shape[0] + 1, fr.shape[1]))
    np.subtract(fr[1:], fr[:-1], out=divr[1:-1])
    del fr
    divr[1:-1] /= h
    out = plan.to_modes(divr)
    del divr
    angular *= scalar_phys
    out += plan.dtheta(plan.to_modes(angular))
    out *= np.exp(2.0 * grid.t)[:, np.newaxis]
    return out


def nonlinearity(u: FieldState, grid: Optional[ConeGrid] = None,
                 spec: Optional[ExtensionSpec] = None
                 ) -> Tuple[Callable[[FieldState], FieldState], FieldState]:
    """Frozen-coefficient principal part and matching lower-order term.

    Splits the quasilinear right-hand side at the state u: the returned
    operator applies w -> Lap^2 w + (1 - 3 u^2) Lap w with u frozen and
    the multiplication done pseudo-spectrally; the returned field is
    F = 6 u (grad u, grad u)_g.  For u = 0 the operator reduces to
    Lap^2 + Lap, for u = 1 to Lap^2 - 2 Lap, with F = 0 in both cases.
    """
    if spec is None:
        raise ValueError("an extension spec is required")
    grid = grid or u.grid
    plan = transform_plan(grid)
    laps = laplacian_suite(grid, spec)
    lap = FieldOperator(laps, grid)
    bil = FieldOperator(bilaplacian_suite(grid, spec, laps), grid)
    u_phys = plan.to_physical(u.coeffs)
    u2_phys = u_phys ** 2

    def a_freeze(w: FieldState) -> FieldState:
        lw = lap.apply(w.coeffs)
        out = bil.apply(w.coeffs) + lw
        out -= 3.0 * plan.to_modes(u2_phys * plan.to_physical(lw))
        return w.like(out)

    # one pass through the padded grid: projecting the pairing to the
    # retained band before multiplying by u would fold away the high
    # modes that the cubic chain rule needs
    D = grid.radial_derivative_matrix()
    rad = plan.to_physical(D @ u.coeffs)
    ang = plan.to_physical(plan.dtheta(u.coeffs))
    pair_phys = (rad * rad + ang * ang) * np.exp(2.0 * grid.t)[:, np.newaxis]
    F = u.like(6.0 * plan.to_modes(u_phys * pair_phys))
    return a_freeze, F
