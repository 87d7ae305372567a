"""Per-mode radial operators, the angular transform, and the cubic split.

Each cross-section mode j carries a tridiagonal radial operator: in the
log variable t = -log x the Laplacian acts modewise as
e^(2t) (d_tt - (n-1) d_t + lambda_j), discretized with central
differences (order-2 stencil).  The first and last rows are image
extrapolation rows: the outer row copies its neighbor (Neumann for the
image), the tip row scales its neighbor by exp(-b_j dt) so that the
image decays at the leading admissible tip rate b_j.  The fourth-order
operator is the Laplacian applied twice, as the bilaplacian's closed
extension is defined by composition, including at the ends.

Every mode's stencil is held in one stacked array (RadialOperator),
together with the tip decay ratios, which are computed there once.  It
is the only form of the radial Laplacian: the whole-field Laplacian
(FieldOperator) applies it to every channel, each entry stored once,
and the stepper's implicit systems (evolve.implicit_bands) are built
from it in whole-array arithmetic, straight into one array in LAPACK
band storage.

The angular transform oversamples to at least 4 j_max + 5 physical
points so that projecting a product of three band-limited factors back
onto the retained modes is exact (plain 3/2 padding is not enough for
the cubic terms; see notes).  Below j_max = 64 it is a dense product
with the synthesis matrix on exactly 4 j_max + 5 angles; from j_max = 64
on it is a numpy.fft real FFT on the least 5-smooth grid of at least that
many angles, which builds the synthesis matrix only if it is read.  The
switch sits at the measured crossover: on one thread the dense product
is faster at j_max = 32 and the FFT at 64 and above.
"""

import math
from dataclasses import InitVar, dataclass
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .cross_section import circle_basis
from .extensions import ExtensionSpec
from .mellin import ConeGrid, FieldState


def _check_pair(grid: ConeGrid, spec: ExtensionSpec):
    if spec.cs is not grid.cs:
        raise ValueError("grid and extension spec must share one cross-section")


class RadialOperator:
    """Every mode's radial Laplacian as one stacked three-point stencil.

    vals[j, r, s] is the entry of row r of mode j's matrix in column
    cols[r, s] = c - 1 + s, c = clip(r, 1, N - 1): row 0 copies row 1
    (Neumann for the image) and row N is tip[j, 1] times row N - 1, so
    both image rows reuse their neighbour's columns.  tip[j] holds the
    tip decay ratios exp(-a_j dt) and exp(-b_j dt) of the fourth- and
    second-order domains, computed here and nowhere else.
    """

    def __init__(self, grid: ConeGrid, spec: ExtensionSpec):
        _check_pair(grid, spec)
        nm = grid.j_max + 1
        n = grid.cs.n
        h = grid.dt
        N = grid.n_radial
        self.grid = grid
        self.tip = np.exp(-np.array(spec.inner_bc[:nm], dtype=float) * h)
        lams = np.array(grid.cs.eigenvalues[:nm], dtype=float)
        e2t = np.exp(2.0 * grid.t)[1:N]
        vals = np.empty((nm, N + 1, 3))
        vals[:, 1:N, 0] = e2t * (1.0 / h ** 2 + 0.5 * (n - 1) / h)
        vals[:, 1:N, 1] = e2t * (-2.0 / h ** 2 + lams[:, np.newaxis])
        vals[:, 1:N, 2] = e2t * (1.0 / h ** 2 - 0.5 * (n - 1) / h)
        vals[:, 0] = vals[:, 1]
        vals[:, N] = self.tip[:, 1, np.newaxis] * vals[:, N - 1]
        self.vals = vals
        self.cols = np.clip(np.arange(N + 1), 1, N - 1)[:, np.newaxis] + np.arange(-1, 2)

    def tip_ratio(self, order: int) -> np.ndarray:
        """Per-mode tip decay ratio of the domain of the given order (4 or 2)."""
        return self.tip[:, 0 if order == 4 else 1]


def laplacian_suite(grid: ConeGrid, spec: ExtensionSpec) -> RadialOperator:
    return RadialOperator(grid, spec)


def mode_slices(grid: ConeGrid) -> List[slice]:
    """Column range of each mode; channels are stored in mode order."""
    bounds = np.searchsorted(grid.channel_modes, np.arange(grid.j_max + 2)).tolist()
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


# bytes of one row block of a blocked temporary: the Laplacian's scratch
# and each of flux_divergence's per-block midpoints and fluxes
BLOCK_BYTES = 1 << 18


def block_rows(width: int) -> int:
    """Rows of a float64 block of BLOCK_BYTES with width columns (at least one)."""
    return max(1, BLOCK_BYTES // (8 * width))


class FieldOperator:
    """Every mode's radial Laplacian applied to the whole field as its stencil.

    Row i of channel c's matrix holds three entries, in columns
    clip(i, 1, N - 1) - 1 + s (RadialOperator.vals and cols).  Each is
    stored once: the interior sub- and super-diagonal entries
    e^(2t)(1/h^2 +- (n-1)/2h) do not depend on the mode, so lower and
    upper are one (N - 1,) vector each; diag holds the interior
    diagonal per channel, and ends[k, s, c] entry s of image row 0
    (k = 0) and N (k = 1).  The interior rows are three shifted
    whole-array products, two of them through a row-block scratch, and
    the two image rows reuse their neighbour's columns.  Each row sums
    its three products in column order and adds the sum to +0.0, which
    makes the sign of a zero product irrelevant (einsum's products of
    lower and upper come out +0.0 where a multiply gives -0.0) and
    gives the bits of a sparse product with the mode's matrix stored
    without zeros: that sums the stored entries from +0.0, and a zero
    entry, which it does not store, adds a zero here that changes no bit
    of a finite sum.
    """

    def __init__(self, laps: RadialOperator):
        vals = laps.vals
        N = vals.shape[1] - 1
        modes = laps.grid.channel_modes
        self.lower = vals[0, 1:N, 0].copy()
        self.upper = vals[0, 1:N, 2].copy()
        # C order like the field: a product of mixed layouts runs buffered
        self.diag = vals[:, 1:N, 1].T.take(modes, axis=1)
        self.ends = vals[:, [0, N]].transpose(1, 2, 0).take(modes, axis=2)

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        N = coeffs.shape[0] - 1
        out = np.empty(coeffs.shape)
        inner = out[1:N]
        # row-scaled products go through einsum: a broadcast multiply
        # runs buffered and allocates a ufunc buffer on every call
        np.einsum("i,ij->ij", self.lower, coeffs[:N - 1], out=inner)
        rows = block_rows(coeffs.shape[1])
        scratch = np.empty((min(rows, N - 1), coeffs.shape[1]))
        for lo in range(0, N - 1, rows):
            hi = min(lo + rows, N - 1)
            tmp = scratch[:hi - lo]
            np.multiply(self.diag[lo:hi], coeffs[lo + 1:hi + 1], out=tmp)
            inner[lo:hi] += tmp
            np.einsum("i,ij->ij", self.upper[lo:hi], coeffs[lo + 2:hi + 2], out=tmp)
            inner[lo:hi] += tmp
        for (lo, mid, hi), i, c in zip(self.ends, (0, N), (1, N - 1)):
            out[i] = lo * coeffs[c - 1] + mid * coeffs[c] + hi * coeffs[c + 1]
        out += 0.0                  # 0 + x turns a -0.0 into +0.0
        return out


# from this truncation on, the real FFT beats the dense product on one thread
FFT_MIN_J_MAX = 64


def smooth_length(n: int) -> int:
    """The least m >= n >= 1 with no prime factor above 5 (30^bits(m)
    holds every power of 2, 3 and 5 that can divide m)."""
    return next(m for m in range(n, 2 * n + 1) if m == math.gcd(m, 30 ** m.bit_length()))


@dataclass(eq=False)
class TransformPlan:
    """Uniform-angle synthesis/analysis pair for circle cross-sections.

    Synthesis evaluates the retained channels at m uniform angles; S
    holds those values, one column per channel.  Analysis is the
    rectangle rule, (L/m) S^T, which inverts synthesis exactly on the
    retained band as long as m exceeds twice the top mode; m is padded
    further so cubic products project back without aliasing.  Below
    j_max = FFT_MIN_J_MAX both are dense products with S on 4 j_max + 5
    angles.  From there on both are numpy.fft real FFTs on the least
    5-smooth m of at least 4 j_max + 5, a row block at a time: the
    float64 view of the half spectrum holds channel 0 at index 0 and
    channel c >= 1 at index c + 1, so each is one FFT and one per-channel
    scale, and S is only a reference, built at its first read.  Neither
    writes into its input.  The plan keeps no reference to its grid,
    which caches it: a cycle would outlive both until the cyclic
    collector runs.
    """

    grid: InitVar[ConeGrid]
    n_phys: Optional[int] = None

    def __post_init__(self, grid: ConeGrid):
        cs = grid.cs
        if cs.geometry != "circle":
            raise ValueError("angular transform is implemented for circles only")
        jm = grid.j_max
        if self.n_phys is not None and self.n_phys <= 2 * jm:
            raise ValueError(f"n_phys={self.n_phys} cannot resolve mode {jm}: "
                             f"need more than {2 * jm} angles")
        use_fft = jm >= FFT_MIN_J_MAX
        pad = 4 * jm + 5
        self.m = self.n_phys or (smooth_length(pad) if use_fft else max(pad, 8))
        L = float(cs.circumference)
        self.theta = L * np.arange(self.m) / self.m
        self._L, self._j_max = L, jm
        self._S = None             # built by the first read of S
        # d_theta sends cos(w theta) to -w sin(w theta) and sin to
        # w cos: output channel c is weight[c] times input channel
        # partner[c].  Channels 1, 3, 5, ... are the cosines and 2, 4,
        # 6, ... the sines of modes 1, 2, 3, ...; mode 0 has weight zero
        nc = grid.n_channels
        self._partner = np.arange(nc)
        self._partner[1::2] += 1
        self._partner[2::2] -= 1
        self._weight = 2.0 * np.pi * grid.channel_modes / L
        self._weight[2::2] *= -1.0
        if use_fft:
            # channel c is Re y0 for mode 0, then Re y_j and Im y_j for
            # cos and sin, Im carrying the opposite sign
            mode0 = grid.channel_modes == 0
            norm = np.where(mode0, 1.0 / np.sqrt(L), np.sqrt(2.0 / L))
            norm[2::2] *= -1.0
            self._synth_scale = norm * np.where(mode0, self.m, 0.5 * self.m)
            self._analysis_scale = norm * (L / self.m)
        else:
            self._synth_scale = self._analysis_scale = None
            self._analysis = (L / self.m) * self.S

    @property
    def S(self) -> np.ndarray:
        """The synthesis matrix; the FFT path builds it at the first read."""
        if self._S is None:
            self._S = circle_basis(self._L, self._j_max, self.theta)
        return self._S

    def _blocks(self, rows: int):
        """(row slice, half-spectrum block, its float64 view) per row block."""
        step = block_rows(self.m + 2)
        spectrum = np.zeros((min(step, rows), self.m // 2 + 1), dtype=complex)
        for lo in range(0, rows, step):
            block = spectrum[:min(step, rows - lo)]
            yield slice(lo, lo + step), block, block.view(float)

    def to_physical(self, coeffs: np.ndarray) -> np.ndarray:
        if self._synth_scale is None:
            return coeffs @ self.S.T
        scale, nc = self._synth_scale, coeffs.shape[1]
        out = np.empty((coeffs.shape[0], self.m))
        # Im y0 and the modes past the band stay zero in every block
        for rows, spectrum, flat in self._blocks(coeffs.shape[0]):
            np.multiply(coeffs[rows, :1], scale[:1], out=flat[:, :1])
            np.multiply(coeffs[rows, 1:], scale[1:], out=flat[:, 2:nc + 1])
            np.fft.irfft(spectrum, self.m, axis=1, out=out[rows])
        return out

    def to_modes(self, values: np.ndarray) -> np.ndarray:
        """Mode coefficients of values on the padded grid."""
        if self._analysis_scale is None:
            return values @ self._analysis
        scale, nc = self._analysis_scale, self._analysis_scale.size
        out = np.empty((values.shape[0], nc))
        for rows, spectrum, flat in self._blocks(values.shape[0]):
            np.fft.rfft(values[rows], axis=1, out=spectrum)
            np.multiply(flat[:, :1], scale[:1], out=out[rows, :1])
            np.multiply(flat[:, 2:nc + 1], scale[1:], out=out[rows, 1:])
        return out

    def synthesise(self, coeffs: np.ndarray) -> List[np.ndarray]:
        """[values, angular derivative] of a field on the padded physical grid."""
        return [self.to_physical(coeffs), self.to_physical(self.dtheta(coeffs))]

    def dtheta(self, coeffs: np.ndarray) -> np.ndarray:
        out = coeffs[:, self._partner] * self._weight
        # the dense product with the derivative matrix sums from +0, so
        # a zero product comes out +0.0, never -0.0
        out += 0.0
        return out


def transform_plan(grid: ConeGrid) -> TransformPlan:
    plan = getattr(grid, "_transform_plan", None)
    if plan is None:
        plan = TransformPlan(grid)
        grid._transform_plan = plan
    return plan


def cubic_field(u: FieldState) -> FieldState:
    """Mode coefficients of u^3 via the dealiased physical grid."""
    plan = transform_plan(u.grid)
    values = plan.to_physical(u.coeffs)
    # a product, not values ** 3, which goes through libm pow per element
    cube = values * values
    cube *= values
    return u.like(plan.to_modes(cube))


def flux_divergence(scalar_phys: Union[np.ndarray, Callable[[slice], np.ndarray]],
                    z: np.ndarray, grid: ConeGrid,
                    evaluation: Optional[List[np.ndarray]] = None) -> np.ndarray:
    """Mode coefficients of div(s grad z) = e^(2t)(d_t(s z_t) + d_y(s z_y)).

    s is given pointwise on the padded physical grid, z in mode
    coefficients.  The radial part differences staggered midpoint fluxes
    s_(i+1/2) (z_(i+1) - z_i)/h, s_(i+1/2) = 0.5 (s_i + s_(i+1)), so the
    weighted radial sum telescopes to the two boundary fluxes and the
    term vanishes identically when z is constant; the angular part
    applies d_y outermost, whose mode-0 row is zero, so it never moves
    mass.  The two boundary rows are left zero (zero-flux closure);
    solvers overwrite them with constraint rows.

    scalar_phys is s as an array, or a function that returns s on a
    slice of rows as a new array.  evaluation is the list
    TransformPlan.synthesise(z), computed here unless the caller gives
    it (the conserved step gives the one it took s from); a list it is
    given is consumed: it is emptied and its arrays are overwritten as
    scratch.  The fluxes go one block of block_rows(m)
    of them at a time, from the nodes of the block and one halo row; the
    block's divergence rows are written over the values of z, whose
    rows it has then read for the last time, and the block's last flux
    is kept for the next one.  So s may be computed from the
    evaluation's values.
    """
    plan = transform_plan(grid)
    h = grid.dt
    if evaluation is None:
        evaluation = plan.synthesise(z)
    phys, angular = evaluation
    evaluation.clear()
    coefficient = scalar_phys if callable(scalar_phys) else scalar_phys.__getitem__
    N = phys.shape[0] - 1
    rows = block_rows(phys.shape[1])
    for lo in range(0, N, rows):
        hi = min(lo + rows, N)
        nodes = phys[lo:hi + 1]
        s = coefficient(slice(lo, hi + 1))
        angular[lo:hi] *= s[:-1]
        mid = s[:-1] + s[1:]
        mid *= 0.5
        flux = nodes[1:] - nodes[:-1]
        flux *= mid
        flux /= h
        # the divergence rows lo .. hi - 1 replace the values of z there
        if lo == 0:
            nodes[0] = 0.0
        else:
            np.subtract(flux[0], carry, out=nodes[0])
        np.subtract(flux[1:], flux[:-1], out=nodes[1:-1])
        nodes[:-1] /= h
        carry = flux[-1].copy()
    # node N is the last block's halo row
    angular[N] *= s[-1]
    phys[N] = 0.0
    del nodes, s, mid, flux
    # the angular part first, so that each padded-grid array is freed
    # as soon as it is projected
    out = plan.to_modes(angular)
    del angular
    out = plan.dtheta(out)
    radial = plan.to_modes(phys)
    del phys
    radial += out
    radial *= np.exp(2.0 * grid.t)[:, np.newaxis]
    return radial


def nonlinearity(u: FieldState, spec: ExtensionSpec
                 ) -> Tuple[Callable[[FieldState], FieldState], FieldState]:
    """Frozen-coefficient principal part and matching lower-order term.

    Splits the quasilinear right-hand side at the state u: the returned
    operator applies w -> Lap^2 w + (1 - 3 u^2) Lap w with u frozen and
    the multiplication done pseudo-spectrally, Lap^2 as Lap applied
    twice; the returned field is F = 6 u (grad u, grad u)_g.  For u = 0
    the operator reduces to Lap^2 + Lap, for u = 1 to Lap^2 - 2 Lap,
    with F = 0 in both cases.
    """
    grid = u.grid
    plan = transform_plan(grid)
    lap = FieldOperator(laplacian_suite(grid, spec))
    u_phys = plan.to_physical(u.coeffs)
    u2_phys = u_phys ** 2

    def a_freeze(w: FieldState) -> FieldState:
        lw = lap.apply(w.coeffs)
        out = lap.apply(lw) + lw
        out -= 3.0 * plan.to_modes(u2_phys * plan.to_physical(lw))
        return w.like(out)

    # one pass through the padded grid: projecting the pairing to the
    # retained band before multiplying by u would fold away the high
    # modes that the cubic chain rule needs
    rad = plan.to_physical(grid.radial_derivative(u.coeffs))
    ang = plan.to_physical(plan.dtheta(u.coeffs))
    pair_phys = (rad * rad + ang * ang) * np.exp(2.0 * grid.t)[:, np.newaxis]
    F = u.like(6.0 * plan.to_modes(u_phys * pair_phys))
    return a_freeze, F
