"""Backward-Euler stepping for the two phase-field flows on the cone.

The conserved flow solves u_t = -Lap^2 u - Lap(u - u^3) with the cubic
split at the current state: the stiff linear part Lap^2 + Lap is
implicit and the cubic transport div(3 u_n^2 grad u) is frozen at u_n,
so a step is one banded solve per mode by numpy's OpenBLAS
(banded_solve).  This is the linearly implicit scheme of Xu and Tang
(SIAM J. Numer. Anal. 44, 2006) and Shen and Yang (DCDS 28, 2010),
first order in dt.  The relaxational flow solves u_t = Lap u + f(u)
with f explicit.

Freezing the coupling at u_n rather than taking 3 u_n^2 grad u_{n+1} at
the new state moves the final state by O(dt): 1.7e-6 relative at the
CLI defaults and 2.7e-2 at ic_amplitude = 4.  The scheme is not
unconditionally energy stable: with j_max = 8, dt = 0.2 and
ic_amplitude = 2 the energy rises by 5.1e-7 in one step.  One huge step
can return a wrong but finite field (dt = 10 from amplitude-50 data
multiplies the energy by 6e4), which is caught only when a later
diagnostics row or step finds a non-finite value.

Steps are taken in increment form: with A = I + dt (Lap^2 + Lap) the
step solves A delta = dt * rhs(u_n), rhs = Stepper.discrete_rhs, and
the tip and outer rows of the system are replaced by the boundary
constraint rows delta_0 - delta_1 = -(u_0 - u_1) and
delta_N - r delta_{N-1} = -(u_N - r u_{N-1}), r = exp(-a_j dt_radial),
so the updated state satisfies the boundary pattern exactly.  The
increment form keeps constants as exact fixed points: for u = 0, 1, -1
the right-hand side vanishes identically (the stiff term is applied as
two successive Laplacian applications, which annihilate constants in
floating point) and the solve returns delta = 0 bitwise.

A diagnostics row synthesises its state's values once, on the padded
physical grid, for the double well and the sup norm; the gradient half
of the energy comes from the mode coefficients (see energy_functional).
A step synthesises what it reads itself: the conserved step its values
and angular derivative, which its flux divergence consumes (see
flux_divergence), and the relaxational step u for u^3 (see cubic_field).
"""

import ctypes
from typing import Callable, List, Optional, Tuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .assembly import (FieldOperator, RadialOperator, block_rows,
                       cubic_field, flux_divergence, laplacian_suite,
                       mode_slices, transform_plan)
from .config import DEFAULTS, EQUATIONS, Config, ConfigError
from .extensions import ExtensionSpec
from .mellin import (ConeGrid, FieldState, _trapezoid, constant_state,
                     mellin_norm, mellin_norms)


# the name the benchmark's workloads construct a configuration by
RunConfig = Config


def double_well(u: FieldState) -> FieldState:
    """f(u) = u - u^3 through the dealiased transform."""
    return u.like(u.coeffs - cubic_field(u).coeffs)


def _lapack(name: str, n_args: int, hidden: int = 0):
    """LAPACK's name from numpy's ILP64 OpenBLAS (libscipy_openblas64_): every
    argument is an address, integers are int64, TRANS's length trails hidden."""
    try:
        fn = ctypes.CDLL(_umath_linalg.__file__)[f"scipy_{name}_64_"]
    except AttributeError:
        raise ImportError(f"numpy's OpenBLAS has no LAPACK {name} (scipy_{name}_64_); conelab "
                          "needs the ILP64 OpenBLAS of numpy's PyPI wheels") from None
    fn.argtypes, fn.restype = [ctypes.c_void_p] * n_args + [ctypes.c_size_t] * hidden, None
    return fn


_dgbtrf, _dgttrf = _lapack("dgbtrf", 8), _lapack("dgttrf", 7)
_dgbtrs, _dgttrs = _lapack("dgbtrs", 11, 1), _lapack("dgttrs", 11, 1)


def banded_lu(AB: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(LU, ipiv): LU factors of a stack of square matrices in LAPACK band storage.

    Entry (i, i + k) of matrix j is AB[j, 2 kl - k, i + k], below kl rows
    of fill-in: solve_banded's bands under kl spare rows.  dgttrf factors
    kl = 1 with AB[j] C-ordered (dl, d and du in rows 3, 2 and 1, du2 at
    the end of row 0), dgbtrf wider bands with AB[j] Fortran-ordered: the
    factorizations of solve_banded's gtsv and gbsv, whose bits
    banded_solve gives.  An AB in this layout is factored in place and
    any other copied first; ipiv is int32.
    """
    nm, ldab, n = AB.shape
    order = (0, 1, 2) if ldab == 4 else (0, 2, 1)
    LU = np.ascontiguousarray(AB.transpose(order), dtype=np.float64).transpose(order)
    ipiv = np.empty((nm, n), np.int32)
    piv, args = np.empty(n, np.int64), np.array([n, (ldab - 1) // 3, ldab, 0])
    n_, kl_, ldab_, info = (args.ctypes.data + 8 * np.arange(4)).tolist()
    p, a = piv.ctypes.data, LU.ctypes.data
    for j in range(nm):
        if ldab == 4:
            _dgttrf(n_, a + 24 * n, a + 16 * n, a + 8 * n + 8, a + 16, p, info)
        else:
            _dgbtrf(n_, n_, kl_, kl_, a, ldab_, p, info)
        if args[3]:
            raise LinAlgError(f"singular banded system (LAPACK info {args[3]})")
        ipiv[j] = piv
        a += LU.strides[0]
    return LU, ipiv


def banded_solve(factors: tuple, b: np.ndarray, blocks: List[slice]) -> np.ndarray:
    """Solve with banded_lu's factors: matrix j against the columns blocks[j] of b.

    One dgbtrs or dgttrs call per matrix, its int32 pivots widened into
    one int64 row; ctypes.data costs a microsecond, so each address is an
    offset from one read per array.  A Fortran-contiguous float64 b is
    solved in place and returned; any other b is copied first.
    """
    LU, ipiv = factors
    _, ldab, n = LU.shape
    b = np.asfortranarray(b, dtype=np.float64)
    if b.shape[0] != n or not all(0 <= c.start <= c.stop <= b.shape[1] for c in blocks):
        raise ValueError(f"column blocks do not fit right-hand sides of shape {b.shape}")
    piv, args = np.empty(n, np.int64), np.array([n, (ldab - 1) // 3, ldab, 0, 0])
    n_, kl_, ldab_, nrhs, info = (args.ctypes.data + 8 * np.arange(5)).tolist()
    p, a, x = piv.ctypes.data, LU.ctypes.data, b.ctypes.data
    for j, cols in enumerate(blocks):
        piv[:] = ipiv[j]
        args[3] = cols.stop - cols.start
        bj = x + 8 * n * cols.start     # the block's first column
        if ldab == 4:
            _dgttrs(b"N", n_, nrhs, a + 24 * n, a + 16 * n, a + 8 * n + 8, a + 16,
                    p, bj, n_, info, 1)
        else:
            _dgbtrs(b"N", n_, kl_, kl_, nrhs, a, ldab_, p, bj, n_, info, 1)
        a += LU.strides[0]
    return b


def implicit_bands(laps: RadialOperator, dt: float,
                   order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row-scaled LAPACK band storage of every mode's constrained implicit system.

    Returns (AB, d): AB[j] is mode j's system I + dt (P^2 + P) with
    kl = 2 for order 4 and I - dt P with kl = 1 for order 2, rows 0 and
    N replaced by the constraint rows and row i scaled by d[j, i], in
    banded_lu's layout with zero fill-in rows, which it factors in
    place.  A few modes at a time are built and scaled in a scratch that
    holds each band diagonal contiguously and stays in cache, then
    copied into AB.  The arithmetic is that of the sparse route,
    I + dt (P @ P + P) on the CSR matrices: each entry of a row of P @ P
    sums P[r, jj] P[jj, :] from +0.0 over jj = r - 1, r, r + 1 in that
    order, and an entry off the diagonal is 0 + x.
    """
    P = laps.vals
    nm, m, _ = P.shape
    kl = 2 if order == 4 else 1
    AB = (np.zeros((nm, 3 * kl + 1, m)) if kl == 1
          else np.zeros((nm, m, 3 * kl + 1)).transpose(0, 2, 1))
    d = np.empty((nm, m))
    tip = laps.tip_ratio(order)
    step = block_rows((2 * kl + 1) * m)
    scratch = np.empty((min(step, nm), 2 * kl + 1, m))
    for lo in range(0, nm, step):
        hi = min(lo + step, nm)
        modes = slice(lo, hi)
        D = scratch[:hi - lo]
        # the stencil's columns as contiguous rows, like D's diagonals
        _unscaled_bands(D, P[modes].transpose(0, 2, 1).copy(), tip[modes], dt)
        # row equilibration by exact powers of two: the e^(4t) dynamic
        # range otherwise costs the banded LU ~14 digits of the
        # increment; power-of-two scales keep zero right-hand sides
        # bitwise zero
        d[modes] = np.exp2(-np.round(np.log2(np.abs(D).max(axis=1))))
        D *= d[modes, np.newaxis]
        for k in range(-kl, kl + 1):
            # entry (i, i + k) of the rows i that have it
            i0, i1 = max(0, -k), m - max(0, k)
            AB[modes, 2 * kl - k, i0 + k:i1 + k] = D[:, kl + k, i0:i1]
    return AB, d


def _unscaled_bands(D: np.ndarray, S: np.ndarray, tip: np.ndarray, dt: float):
    """D[j, kl + k, i] = entry (i, i + k) of the unscaled systems of a block of modes.

    S[j, s, r] is the stencil entry RadialOperator.vals[j, r, s] of each.
    """
    m = S.shape[2]
    N = m - 1
    kl = D.shape[1] // 2
    D.fill(0.0)
    if kl == 2:
        prod = np.empty((len(S), 3, N - 1))
        for s in range(3):
            # rows r whose neighbour jj = r - 1 + s is interior: its columns
            # jj - 1 .. jj + 1 sit at band offsets s - 2 .. s
            lo, hi = (2 if s == 0 else 1), (N - 1 if s == 2 else N)
            tmp = prod[:, :, :hi - lo]
            np.multiply(S[:, s, np.newaxis, lo:hi], S[:, :, lo - 1 + s:hi - 1 + s], out=tmp)
            D[:, s:s + 3, lo:hi] += tmp
            # the image rows hold their neighbour's columns: 0 .. 2 for
            # row 0, reached from row 1, and N - 2 .. N for row N, from N - 1
            if s == 0:
                D[:, 1:4, 1] += S[:, 0, 1, np.newaxis] * S[:, :, 0]
            elif s == 2:
                D[:, 1:4, N - 1] += S[:, 2, N - 1, np.newaxis] * S[:, :, N]
        D[:, 1:4, 1:N] += S[:, :, 1:N]
        D *= dt
        D += 0.0                    # 0 + x turns a -0.0 into +0.0
    else:
        np.multiply(S[:, :, 1:N], dt, out=D[:, :, 1:N])
        np.subtract(0.0, D, out=D)  # 0 - x, never -0.0
    D[:, kl] += 1.0
    # the end rows, the only ones reaching past the band, become the
    # constraint rows
    D[:, :, 0] = 0.0
    D[:, kl, 0] = 1.0
    D[:, kl + 1, 0] = -1.0
    D[:, :, N] = 0.0
    D[:, kl - 1, N] = -tip
    D[:, kl, N] = 1.0


def _transport(values: np.ndarray) -> Callable[[slice], np.ndarray]:
    """s = 3 u_n^2 of the cubic transport on rows of u_n's padded values."""
    def coefficient(rows: slice) -> np.ndarray:
        s = values[rows] ** 2
        s *= 3.0
        return s
    return coefficient


class Stepper:
    """Operators and factored implicit systems for one (spec, grid, dt).

    Every mode's Laplacian comes from one stacked three-point stencil
    (assembly.RadialOperator), which FieldOperator applies to the whole
    field and implicit_bands turns into every mode's system, both in
    whole-array arithmetic.  The systems are one array in LAPACK band
    storage, checked for finiteness once and factored by banded_lu, each
    mode's block in place (dgbtrf for the conserved flow, dgttrf for the
    relaxational one, from numpy's OpenBLAS), with int32 pivots in one
    (modes, N + 1) array.  Row i of mode j's system is scaled by
    2 ** _row_scale[j, i], held per mode as int16 exponents: they reach
    -183 at t_max = 30, delta_t = 0.1, where int8 would wrap.
    """

    def __init__(self, spec: ExtensionSpec, grid: ConeGrid, dt: float,
                 equation: str = DEFAULTS["equation"], *bench_args):
        if equation not in EQUATIONS:
            raise ValueError(f"equation must be one of {EQUATIONS}")
        # bench/workloads.py passes Config's two fixed one-sweep values last
        if bench_args not in ((), (1, 1e-10)):
            raise ValueError("Stepper takes at most the values (1, 1e-10) after "
                             f"equation, not {bench_args}")
        self.spec = spec
        self.grid = grid
        self.dt = float(dt)
        self.equation = equation
        self.plan = transform_plan(grid)
        laps = laplacian_suite(grid, spec)
        self.lap = FieldOperator(laps)
        order = 4 if equation == "cahn-hilliard" else 2
        modes = grid.channel_modes
        self.tip_ratio = laps.tip_ratio(order)[modes]
        AB, d = implicit_bands(laps, self.dt, order)
        del laps                    # the stencil is not kept past the build
        bad = np.flatnonzero(~np.isfinite(AB).all(axis=(1, 2)))
        if bad.size:
            raise LinAlgError(f"implicit system of mode {bad[0]} is not finite")
        # a finite system has finite power-of-two scales, so the cast is exact
        self._row_scale = (np.frexp(d)[1] - 1).astype(np.int16)
        self._modes = mode_slices(grid)
        self._factors = banded_lu(AB)   # each mode's block of AB, in place

    def laplace(self, coeffs: np.ndarray) -> np.ndarray:
        return self.lap.apply(coeffs)

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """The increment, in Fortran order: each mode's columns are solved in place.

        The caller binds it to a name before it forms w + delta: numpy
        then allocates the sum in C order like w.  An unnamed increment
        is a temporary that numpy's elision (above 256 KiB) reuses for
        the sum in place, which leaves the state F-ordered, and an
        F-ordered state changes the bits of the products and reductions
        taken over it.
        """
        b = np.empty(rhs.shape, order="F")
        # a mode's columns of b are rows of b.T, one contiguous block
        for cols, e in zip(self._modes, self._row_scale):
            np.ldexp(rhs.T[cols], e, out=b.T[cols])
        if not np.all(np.isfinite(b)):
            raise LinAlgError("right-hand side of the implicit solve is not finite")
        return banded_solve(self._factors, b, self._modes)

    def _constraint_rhs(self, rhs: np.ndarray, w: np.ndarray):
        rhs[0, :] = -(w[0, :] - w[1, :])
        rhs[-1, :] = -(w[-1, :] - self.tip_ratio * w[-2, :])

    def discrete_rhs(self, u: FieldState,
                     f: Optional[Callable[[FieldState], FieldState]] = None) -> np.ndarray:
        """Spatial right-hand side the scheme integrates, at the state u.

        step solves A delta = dt * (discrete_rhs(u, f) + forcing) with the
        constraint rows, so the two agree by construction and manufactured
        forcing g(t) = d_t u* - discrete_rhs(u*) isolates the temporal
        error of the stepping.  The conserved flow's is
        -(Lap^2 + Lap) u + div(3 u^2 grad u): the cubic transport enters in
        divergence form, staggered radially, so its weighted radial sum
        telescopes and mass moves only through the two boundary fluxes,
        which the constraint rows pin to zero.  Its values and angular
        derivative are synthesised once and consumed by flux_divergence,
        3 u^2 taken from the values before they are overwritten.  The
        relaxational flow's is Lap u + f(u).
        """
        w = u.coeffs
        if self.equation == "cahn-hilliard":
            lw = self.laplace(w)
            rhs = -(self.laplace(lw) + lw)
            del lw
            evaluation = self.plan.synthesise(w)
            rhs += flux_divergence(_transport(evaluation[0]), w, self.grid, evaluation)
            return rhs
        rhs = self.laplace(w)
        if f is not None:
            rhs = rhs + f(u).coeffs
        return rhs

    def step(self, u: FieldState,
             f: Optional[Callable[[FieldState], FieldState]] = None,
             forcing: Optional[Callable[[float], np.ndarray]] = None) -> FieldState:
        """Advance u by dt: one solve of dt * (discrete_rhs(u, f) + forcing(t + dt))."""
        dt = self.dt
        w = u.coeffs
        # an overflow or invalid value here ends in a non-finite right-hand
        # side or FieldState, either of which raises LinAlgError
        with np.errstate(over="ignore", invalid="ignore"):
            rhs = self.discrete_rhs(u, f)
            if forcing is not None:
                rhs += np.asarray(forcing(u.time + dt))
            rhs *= dt
            self._constraint_rhs(rhs, w)
            # bound to a name, so that w + delta is a new C-ordered array
            # (see _solve)
            delta = self._solve(rhs)
            return u.like(w + delta, time=u.time + dt)


def mass_functional(u: FieldState) -> float:
    """Interior rectangle rule for the volume integral of u."""
    grid = u.grid
    n = grid.cs.n
    w = np.exp(-(n + 1) * grid.t[1:-1])
    col = u.coeffs[1:-1, grid.channel_index(0, 0)]
    return float(grid.dt * np.sqrt(float(grid.cs.area())) * np.sum(w * col))


def energy_functional(u: FieldState, values: Optional[np.ndarray] = None) -> float:
    """Double-well energy int 1/4 (u^2-1)^2 + 1/2 (grad u, grad u)_g dvol.

    The gradient half 1/2 e^(2t) (u_t^2 + u_theta^2) is integrated over
    the circle by Parseval: the channels are orthonormal, so
    int (u_t^2 + u_theta^2) dtheta = sum_c (d_t u_c)^2 - lambda_c u_c^2,
    with d_t from grid.radial_derivative.  The well 1/4 (u^2 - 1)^2 is
    formed on the padded physical grid and summed there: the uniform sum
    over its m >= 4 j_max + 5 angles integrates every trigonometric
    polynomial of degree below m exactly, and the well's degree is
    4 j_max.  values, when given, is TransformPlan.to_physical(u.coeffs);
    it is only read.
    """
    grid = u.grid
    plan = transform_plan(grid)
    if values is None:
        values = plan.to_physical(u.coeffs)
    # a block of rows at a time, so that no second padded-grid array is
    # alive beside the values
    well = np.empty(grid.n_nodes)
    step = block_rows(plan.m)
    for lo in range(0, grid.n_nodes, step):
        block = values[lo:lo + step] ** 2
        block -= 1.0
        block **= 2
        well[lo:lo + step] = block.sum(axis=1)
    pair = grid.radial_derivative(u.coeffs)
    pair *= pair
    angular = u.coeffs * u.coeffs
    angular *= -grid.channel_lams
    pair += angular
    L = float(grid.cs.circumference)
    radial = (0.25 * L / plan.m) * well + 0.5 * np.exp(2.0 * grid.t) * pair.sum(axis=1)
    radial *= np.exp(-(grid.cs.n + 1) * grid.t)
    return float(_trapezoid(radial, grid.t))


_TIP_TOL = 1e-8     # compatibility_check's bound on the scaled residual


def compatibility_check(u: FieldState, spec: ExtensionSpec,
                        tip_ratio: np.ndarray) -> float:
    """Tip-compatibility proxy: finite order-2 norm plus Robin residual.

    The residual compares the tip node against its neighbor scaled by
    tip_ratio, the admissible decay ratio per channel: Stepper.tip_ratio
    of the run's flow, which is that of the order-4 domain for the
    conserved flow and of the order-2 domain for the relaxational one.
    The outer node is compared against its neighbor too.  Raises
    ValueError when the larger residual, relative to max(1, max |u|),
    is above 1e-8; returns it otherwise.
    """
    norm = mellin_norm(u, 2, spec.gamma, spec.p)
    if not np.isfinite(norm):
        raise ValueError("initial data has no finite order-2 norm")
    scale = max(1.0, float(np.max(np.abs(u.coeffs))))
    res = float(np.max(np.abs(u.coeffs[-1, :] - tip_ratio * u.coeffs[-2, :]))) / scale
    outer = float(np.max(np.abs(u.coeffs[0, :] - u.coeffs[1, :]))) / scale
    res = max(res, outer)
    if res > _TIP_TOL:
        raise ValueError(f"initial data violates the tip pattern ({res:.3e})")
    return res


_BUMP_SUPPORT = (1.0, 3.0)     # the open t-interval the bump initial data lives on


def _bump_envelope(t: np.ndarray) -> np.ndarray:
    lo, hi = _BUMP_SUPPORT
    s = (t - lo) / (hi - lo)
    out = np.zeros_like(t)
    inside = (s > 0) & (s < 1)
    si = s[inside]
    out[inside] = np.exp(4.0 - 1.0 / (si * (1.0 - si)))
    return out


def initial_state(config: Config, grid: ConeGrid) -> FieldState:
    """Seeded interior-bump data on 1 < t < 3 (or zero / constant), tip-compatible."""
    if config.ic_kind == "zero":
        return FieldState.zeros(grid)
    if config.ic_kind == "constant":
        return constant_state(grid, config.ic_value)
    lo, hi = _BUMP_SUPPORT
    if config.t_max < hi:
        raise ConfigError(f"/t_max: the bump initial data lives on {lo:g} < t < {hi:g}, "
                          f"so it needs t_max >= {hi:g}, not {config.t_max:g}")
    rng = np.random.default_rng(config.seed)
    u = FieldState.zeros(grid)
    env = _bump_envelope(grid.t)
    for c, (j, _) in enumerate(grid.channels):
        if j <= config.ic_modes:
            u.coeffs[:, c] = config.ic_amplitude * rng.uniform(-1.0, 1.0) * env
    return u


def _diagnostics_row(u: FieldState, step: int, spec: ExtensionSpec) -> dict:
    """The diagnostics row of u.

    The energy's well and the sup norm are both taken on u's values on
    the padded angular grid, which they only read.  The values are built
    after the norms, so they are never alive together with the norms'
    derivative stacks.  A row that overflows raises LinAlgError: the
    quartic energy overflows long before a step does, so a blown-up but
    finite state is caught here.
    """
    # an overflow or invalid value here ends in a non-finite row, which raises
    with np.errstate(over="ignore", invalid="ignore"):
        mass = mass_functional(u)
        norm0, norm2 = mellin_norms(u, 2, spec.gamma, spec.p)
        values = transform_plan(u.grid).to_physical(u.coeffs)
        row = {
            "step": step,
            "time": u.time,
            "mass": mass,
            "energy": energy_functional(u, values),
            # max |values| without a temporary the size of values
            "supnorm": float(max(abs(values.min()), abs(values.max()))),
            "norm0": norm0,
            "norm2": norm2,
        }
    if not np.all(np.isfinite(list(row.values()))):
        raise LinAlgError(f"diagnostics row of step {step} is not finite")
    return row


def run(config: Config, initial: Optional[FieldState] = None,
        context=None, *, diagnostics: bool = True) -> Tuple[List[FieldState], List[dict]]:
    """March the configured flow; returns (snapshots, diagnostics rows).

    Snapshots are taken every snapshot_every steps plus the initial and
    final states; diagnostics (mass, energy, sup norm, order-0 and
    order-2 weighted norms) are recorded every step unless diagnostics
    is False, in which case the row list is empty.  context, when
    given, is a prebuilt (spec, grid) pair, config.context() otherwise;
    an initial state must live on that grid, and the run measures it and
    every later state with spec's gamma and p.  The flows step on circle
    cross-sections only, whose angular transform the step uses.
    """
    if config.geometry != "circle":
        raise ValueError("evolve.run steps on circle cross-sections only, "
                         f"not on geometry {config.geometry!r}")
    spec, grid = context or config.context()
    u = initial if initial is not None else initial_state(config, grid)
    if u.grid is not grid:
        raise ValueError("initial state must live on the run grid; "
                         "pass context=(spec, grid) along with it")
    stepper = Stepper(spec, grid, config.dt, config.equation)
    compatibility_check(u, spec, stepper.tip_ratio)
    f = double_well if config.equation == "allen-cahn" else None
    snapshots = [u.copy()]
    rows = [_diagnostics_row(u, 0, spec)] if diagnostics else []
    for step in range(1, config.n_steps + 1):
        try:
            u = stepper.step(u, f=f)
        except LinAlgError as e:
            raise LinAlgError(f"time step {step}: {e}") from e
        if diagnostics:
            rows.append(_diagnostics_row(u, step, spec))
        if step % config.snapshot_every == 0 or step == config.n_steps:
            snapshots.append(u.copy())
    return snapshots, rows

