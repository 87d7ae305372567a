"""Backward-Euler stepping for the two phase-field flows on the cone.

The conserved flow solves u_t = -Lap^2 u - Lap(u - u^3) with the cubic
split at the current state: the stiff linear part Lap^2 + Lap is
implicit, the frozen-coefficient coupling -3 u_n^2 Lap u_{n+1} is
updated by Picard sweeps around mode-diagonal banded solves, and the
lower-order term 6 u (grad u, grad u)_g is explicit.  The relaxational
flow solves u_t = Lap u + f(u) with f explicit.

Steps are taken in increment form: with A = I + dt (Lap^2 + Lap) the
sweep solves A delta = dt * rhs(u_n, delta_prev) and the tip and outer
rows of the system are replaced by the boundary constraint rows
delta_0 - delta_1 = -(u_0 - u_1) and
delta_N - r delta_{N-1} = -(u_N - r u_{N-1}), r = exp(-a_j dt_radial),
so the updated state satisfies the boundary pattern exactly.  The
increment form keeps constants as exact fixed points: for u = 0, 1, -1
the right-hand side vanishes identically (the stiff term is applied as
two successive Laplacian applications, which annihilate constants in
floating point) and the solve returns delta = 0 bitwise.

Each state of a conserved run is synthesised once:
TransformPlan.synthesise gives its values and angular derivative on the
padded physical grid.  The diagnostics row builds them for the energy,
after the norms, and run hands them to the next step.  The step takes
u_n^2 from them and runs its first Picard sweep on them, since that
sweep is at delta = 0 and w + 0 synthesises to the bits of w; then it
frees them.  A step given nothing synthesises its state itself, so a
run without diagnostics synthesises nothing after its last step.
"""

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from numpy.linalg import LinAlgError
from scipy.linalg import lapack

from .assembly import (FieldOperator, _pairing, cubic_field, flux_divergence,
                       laplacian_suite, mode_slices, transform_plan)
from .cross_section import make_circle
from .extensions import ExtensionSpec, build_extension, default_weight
from .mellin import (ConeGrid, FieldState, _trapezoid, constant_state,
                     mellin_norm, mellin_norms)

EQUATIONS = ("cahn-hilliard", "allen-cahn")


class PicardDivergenceError(RuntimeError):
    """Residual grew over the Picard sweeps; the time step is too large."""


@dataclass
class RunConfig:
    """Flat description of one simulation.

    delta_t is the radial grid spacing (t_max / delta_t intervals);
    dt is the time step.  gamma = None selects the midpoint of the
    admissible weight window.
    """

    circumference: float = 2.0 * np.pi
    j_max: int = 32
    t_max: float = 12.0
    delta_t: float = 0.02
    gamma: Optional[float] = None
    p: float = 2.0
    equation: str = "cahn-hilliard"
    dt: float = 1e-3
    T: float = 0.05
    picard_iters: int = 8
    picard_tol: float = 1e-10
    seed: int = 7
    ic_kind: str = "bump"
    ic_amplitude: float = 0.03
    ic_modes: int = 3
    ic_value: float = 0.0
    snapshot_every: int = 10

    def __post_init__(self):
        if self.equation not in EQUATIONS:
            raise ValueError(f"equation must be one of {EQUATIONS}")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.dt < self.T:
            raise ValueError("dt must be smaller than the horizon T")
        if not self.picard_tol > 0:
            raise ValueError("picard_tol must be positive")
        if self.picard_iters < 1:
            raise ValueError("picard_iters must be at least 1")
        if self.delta_t <= 0 or self.t_max <= 0:
            raise ValueError("grid extents must be positive")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be at least 1")
        for name in ("n_radial", "n_steps"):
            getattr(self, name)

    @property
    def n_radial(self) -> int:
        m = radial_intervals(self.t_max, self.delta_t)
        if m < 8:
            raise ValueError("delta_t must divide t_max into >= 8 intervals")
        return m

    @property
    def n_steps(self) -> int:
        m = time_steps(self.T, self.dt)
        if m < 1:
            raise ValueError("dt must divide the horizon T")
        return m


def _divisions(total: float, step: float, rel_tol: float) -> int:
    m = round(total / step)
    return m if abs(m * step - total) <= rel_tol * total else 0


def radial_intervals(t_max: float, delta_t: float) -> int:
    """Number of radial intervals delta_t cuts t_max into, 0 if it does not divide it."""
    return _divisions(t_max, delta_t, 1e-9)


def time_steps(T: float, dt: float) -> int:
    """Number of steps dt cuts the horizon T into, 0 if it does not divide it."""
    return _divisions(T, dt, 1e-6)


def double_well(u: FieldState) -> FieldState:
    """f(u) = u - u^3 through the dealiased transform."""
    return u.like(u.coeffs - cubic_field(u).coeffs)


def banded_lu(R: np.ndarray) -> tuple:
    """LU factors of the square matrix with rows R[i, kl + k] = A[i, i + k].

    Tridiagonal matrices go to dgttrf and wider ones to dgbtrf: the
    factorizations inside the gtsv and gbsv drivers that
    scipy.linalg.solve_banded uses, so banded_solve returns the same
    bits as solve_banded on the same bands.
    """
    m, width = R.shape
    kl = width // 2
    if kl == 1:
        *factors, info = lapack.dgttrf(R[1:, 0], R[:, 1], R[:-1, 2])
    else:
        # LAPACK band storage, with kl extra rows for the pivoting fill-in
        ab = np.zeros((3 * kl + 1, m))
        for k in range(-kl, kl + 1):
            ab[2 * kl - k, max(0, k):m + min(0, k)] = R[max(0, -k):m - max(0, k), kl + k]
        *factors, info = lapack.dgbtrf(ab, kl, kl)
    if info != 0:
        raise LinAlgError(f"singular banded system (LAPACK info {info})")
    return tuple(factors)


def banded_solve(factors: tuple, b: np.ndarray) -> np.ndarray:
    """Solve with the factors from banded_lu; b holds one right-hand side per column."""
    if len(factors) == 2:
        lu, ipiv = factors
        kl = (lu.shape[0] - 1) // 3
        x, _ = lapack.dgbtrs(lu, kl, kl, b, ipiv)
    else:
        x, _ = lapack.dgttrs(*factors, b)
    return x


class Stepper:
    """Operators and factored implicit systems for one (spec, grid, dt).

    Each mode's system is factored once, here: banded LU for the
    pentadiagonal conserved-flow system, tridiagonal LU for the
    relaxational one (the LAPACK routines solve_banded would call).
    """

    def __init__(self, spec: ExtensionSpec, grid: ConeGrid, dt: float,
                 equation: str = "cahn-hilliard",
                 picard_iters: int = 8, picard_tol: float = 1e-10):
        if equation not in EQUATIONS:
            raise ValueError(f"equation must be one of {EQUATIONS}")
        self.spec = spec
        self.grid = grid
        self.dt = float(dt)
        self.equation = equation
        self.picard_iters = picard_iters
        self.picard_tol = picard_tol
        self.plan = transform_plan(grid)
        laps = laplacian_suite(grid, spec)
        self.lap = FieldOperator(laps, grid)
        order = 4 if equation == "cahn-hilliard" else 2
        exps = np.array([laps[j].robin_a if order == 4 else laps[j].robin_b
                         for j in grid.channel_modes.tolist()])
        self.tip_ratio = np.exp(-exps * grid.dt)
        self._modes = mode_slices(grid)
        self._row_scale = np.empty((grid.n_nodes, grid.n_channels))
        self._factors = []
        for j, cols in enumerate(self._modes):
            d, factors = self._factor(j, laps[j].matrix, self.tip_ratio[cols.start], order)
            self._row_scale[:, cols] = d[:, np.newaxis]
            self._factors.append(factors)

    def _factor(self, j: int, P: sp.csr_matrix, ratio: float,
                order: int) -> Tuple[np.ndarray, tuple]:
        """Row scale and LU factors of mode j's constrained system.

        P is the mode's Laplacian and ratio its tip decay ratio.
        """
        m = self.grid.n_nodes
        eye = sp.identity(m, format="csr")
        if order == 4:
            A = eye + self.dt * (P @ P + P)
            kl = 2
        else:
            A = eye - self.dt * P
            kl = 1
        # R[i, kl + k] = A[i, i + k]; the end rows, the only ones reaching
        # past the band, become the constraint rows
        R = np.zeros((m, 2 * kl + 1))
        for k in range(-kl, kl + 1):
            R[max(0, -k):m - max(0, k), kl + k] = A.diagonal(k)
        R[0] = 0.0
        R[0, kl:kl + 2] = 1.0, -1.0
        R[-1] = 0.0
        R[-1, kl - 1:kl + 1] = -ratio, 1.0
        # row equilibration by exact powers of two: the e^(4t) dynamic
        # range otherwise costs the banded LU ~14 digits, which stalls
        # the Picard iteration on solver rounding noise; power-of-two
        # scales keep zero right-hand sides bitwise zero
        d = np.exp2(-np.round(np.log2(np.abs(R).max(axis=1))))
        R *= d[:, np.newaxis]
        if not np.all(np.isfinite(R)):
            raise ValueError(f"implicit system of mode {j} is not finite")
        return d, banded_lu(R)

    def laplace(self, coeffs: np.ndarray) -> np.ndarray:
        return self.lap.apply(coeffs)

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        b = self._row_scale * rhs
        if not np.all(np.isfinite(b)):
            raise ValueError("right-hand side of the implicit solve is not finite")
        out = np.empty_like(rhs)
        for cols, factors in zip(self._modes, self._factors):
            out[:, cols] = banded_solve(factors, b[:, cols])
        return out

    def _constraint_rhs(self, rhs: np.ndarray, w: np.ndarray):
        rhs[0, :] = -(w[0, :] - w[1, :])
        rhs[-1, :] = -(w[-1, :] - self.tip_ratio * w[-2, :])

    def step(self, u: FieldState,
             f: Optional[Callable[[FieldState], FieldState]] = None,
             forcing: Optional[Callable[[float], np.ndarray]] = None,
             evaluation: Optional[List[np.ndarray]] = None) -> FieldState:
        """Advance u by dt.

        evaluation, when given, is the list self.plan.synthesise(u.coeffs),
        which the conserved flow then does not compute again.  Its first
        sweep consumes the list (see flux_divergence), so the two arrays
        are freed while the caller still holds it.  The relaxational flow
        ignores it.
        """
        if self.equation == "cahn-hilliard":
            return self._ch_step(u, forcing, evaluation)
        return self._ac_step(u, f, forcing)

    def _ch_step(self, u: FieldState, forcing, evaluation) -> FieldState:
        # conserved flow.  The cubic transport enters in divergence form
        # div(3 u_n^2 grad(u_n + delta)), staggered radially: the weighted
        # radial sum telescopes, so mass moves only through the two
        # boundary fluxes, which the constraint rows pin to zero.
        dt = self.dt
        w = u.coeffs
        lw = self.laplace(w)
        base = -(self.laplace(lw) + lw)
        if forcing is not None:
            base = base + np.asarray(forcing(u.time + dt))
        if not evaluation:
            evaluation = self.plan.synthesise(w)
        u2 = evaluation[0] ** 2
        u2 *= 3.0
        smid = u2[:-1] + u2[1:]
        smid *= 0.5
        scale = max(1.0, float(np.max(np.abs(w))))
        delta = np.zeros_like(w)
        history = []
        for _ in range(self.picard_iters):
            # the first sweep runs at delta = 0, where w + 0 synthesises to
            # the bits of w: it consumes the shared evaluation
            rhs = flux_divergence(u2, w + delta, self.grid, smid, evaluation or None)
            rhs += base
            rhs *= dt
            self._constraint_rhs(rhs, w)
            fresh = self._solve(rhs)
            del rhs
            change = fresh - delta
            res = float(np.max(np.abs(change, out=change))) / scale
            delta = fresh
            history.append(res)
            if res <= self.picard_tol:
                break
        if history[-1] > self.picard_tol and history[-1] > history[0]:
            raise PicardDivergenceError(
                f"Picard residual grew to {history[-1]:.3e}; reduce dt")
        return u.like(w + delta, time=u.time + dt)

    def discrete_rhs(self, u: FieldState,
                     f: Optional[Callable[[FieldState], FieldState]] = None) -> np.ndarray:
        """Spatial right-hand side the scheme integrates, at the state u.

        Useful for manufactured forcing: g(t) = d_t u* - discrete_rhs(u*)
        isolates the temporal error of the stepping.
        """
        w = u.coeffs
        if self.equation == "cahn-hilliard":
            lw = self.laplace(w)
            evaluation = self.plan.synthesise(w)
            u2 = 3.0 * evaluation[0] ** 2
            return -(self.laplace(lw) + lw) + flux_divergence(
                u2, w, self.grid, evaluation=evaluation)
        rhs = self.laplace(w)
        if f is not None:
            rhs = rhs + f(u).coeffs
        return rhs

    def _ac_step(self, u: FieldState, f, forcing) -> FieldState:
        dt = self.dt
        w = u.coeffs
        rhs = self.laplace(w)
        if f is not None:
            rhs = rhs + f(u).coeffs
        if forcing is not None:
            rhs = rhs + np.asarray(forcing(u.time + dt))
        rhs = dt * rhs
        self._constraint_rhs(rhs, w)
        delta = self._solve(rhs)
        return u.like(w + delta, time=u.time + dt)


def ch_step(u_n: FieldState, dt: float, spec: ExtensionSpec, grid: ConeGrid,
            forcing=None, picard_iters: int = 8, picard_tol: float = 1e-10,
            stepper: Optional[Stepper] = None) -> FieldState:
    """One conserved-flow step; see Stepper for the scheme."""
    if stepper is None:
        stepper = Stepper(spec, grid, dt, "cahn-hilliard", picard_iters, picard_tol)
    return stepper.step(u_n, forcing=forcing)


def ac_step(u_n: FieldState, dt: float, spec: ExtensionSpec, grid: ConeGrid,
            f: Optional[Callable[[FieldState], FieldState]] = None,
            forcing=None, stepper: Optional[Stepper] = None) -> FieldState:
    """One relaxational-flow step: implicit Laplacian, explicit f."""
    if stepper is None:
        stepper = Stepper(spec, grid, dt, "allen-cahn")
    return stepper.step(u_n, f=f, forcing=forcing)


def mass_functional(u: FieldState) -> float:
    """Interior rectangle rule for the volume integral of u."""
    grid = u.grid
    n = grid.cs.n
    w = np.exp(-(n + 1) * grid.t[1:-1])
    col = u.coeffs[1:-1, grid.channel_index(0, 0)]
    return float(grid.dt * np.sqrt(float(grid.cs.area())) * np.sum(w * col))


def energy_functional(u: FieldState,
                      evaluation: Optional[List[np.ndarray]] = None) -> float:
    """Double-well energy int 1/4 (u^2-1)^2 + 1/2 (grad u, grad u)_g dvol.

    evaluation, when given, is TransformPlan.synthesise(u.coeffs).
    """
    grid = u.grid
    plan = transform_plan(grid)
    phys, angular = evaluation or plan.synthesise(u.coeffs)
    # evaluation is read only: the next conserved step consumes it
    pairp = plan.to_physical(_pairing(grid, u.coeffs, angular))
    dens = phys ** 2
    dens -= 1.0
    dens **= 2
    dens *= 0.25
    pairp *= 0.5
    dens += pairp
    del pairp
    L = float(grid.cs.circumference)
    radial = dens.sum(axis=1) * (L / plan.m) * np.exp(-(grid.cs.n + 1) * grid.t)
    return float(_trapezoid(radial, grid.t))


def compatibility_check(u: FieldState, spec: ExtensionSpec,
                        tol: float = 1e-8, order: int = 4) -> float:
    """Tip-compatibility proxy: finite order-2 norm plus Robin residual.

    The residual compares the tip node against its neighbor scaled by
    the admissible decay ratio for the requested domain order (4 for
    the conserved flow, 2 for the relaxational one).  Raises on
    violation, returns the residual otherwise.
    """
    grid = u.grid
    gamma = u.gamma if u.gamma is not None else spec.gamma
    norm = mellin_norm(u, 2, gamma, u.p)
    if not np.isfinite(norm):
        raise ValueError("initial data has no finite order-2 norm")
    exps = np.array([spec.inner_bc[j][0 if order == 4 else 1]
                     for j in grid.channel_modes.tolist()])
    ratio = np.exp(-exps * grid.dt)
    scale = max(1.0, float(np.max(np.abs(u.coeffs))))
    res = float(np.max(np.abs(u.coeffs[-1, :] - ratio * u.coeffs[-2, :]))) / scale
    outer = float(np.max(np.abs(u.coeffs[0, :] - u.coeffs[1, :]))) / scale
    res = max(res, outer)
    if res > tol:
        raise ValueError(f"initial data violates the tip pattern ({res:.3e})")
    return res


def _bump_envelope(t: np.ndarray, lo: float = 1.0, hi: float = 3.0) -> np.ndarray:
    s = (t - lo) / (hi - lo)
    out = np.zeros_like(t)
    inside = (s > 0) & (s < 1)
    si = s[inside]
    out[inside] = np.exp(4.0 - 1.0 / (si * (1.0 - si)))
    return out


def initial_state(config: RunConfig, grid: ConeGrid,
                  spec: ExtensionSpec) -> FieldState:
    """Seeded interior-bump data (or zero / constant), tip-compatible."""
    gamma = spec.gamma
    if config.ic_kind == "zero":
        return FieldState.zeros(grid, gamma=gamma, p=spec.p)
    if config.ic_kind == "constant":
        return constant_state(grid, config.ic_value, gamma=gamma, p=spec.p)
    if config.ic_kind != "bump":
        raise ValueError("ic_kind must be bump, zero, or constant")
    rng = np.random.default_rng(config.seed)
    u = FieldState.zeros(grid, gamma=gamma, p=spec.p)
    env = _bump_envelope(grid.t)
    for c, (j, _) in enumerate(grid.channels):
        if j <= config.ic_modes:
            u.coeffs[:, c] = config.ic_amplitude * rng.uniform(-1.0, 1.0) * env
    return u


def _setup(config: RunConfig):
    cs = make_circle(config.circumference, max_mode=config.j_max)
    gamma = config.gamma if config.gamma is not None else default_weight(cs)
    spec = build_extension(cs, gamma, config.p)
    grid = ConeGrid(cs, config.t_max, config.n_radial, j_max=config.j_max)
    return cs, spec, grid


def _diagnostics_row(u: FieldState, step: int,
                     spec: ExtensionSpec) -> Tuple[dict, List[np.ndarray]]:
    """The row of u, and the evaluation synthesise(u.coeffs) its energy used.

    The evaluation is built after the norms, so its two arrays are never
    alive together with the norms' derivative stacks.
    """
    mass = mass_functional(u)
    norm0, norm2 = mellin_norms(u, 2, spec.gamma, u.p)
    evaluation = transform_plan(u.grid).synthesise(u.coeffs)
    row = {
        "step": step,
        "time": u.time,
        "mass": mass,
        "energy": energy_functional(u, evaluation),
        "supnorm": u.sup_norm(),
        "norm0": norm0,
        "norm2": norm2,
    }
    return row, evaluation


def run(config: RunConfig, initial: Optional[FieldState] = None,
        forcing=None, context=None, *,
        diagnostics: bool = True) -> Tuple[List[FieldState], List[dict]]:
    """March the configured flow; returns (snapshots, diagnostics rows).

    Snapshots are taken every snapshot_every steps plus the initial and
    final states; diagnostics (mass, energy, sup norm, order-0 and
    order-2 weighted norms) are recorded every step unless diagnostics
    is False, in which case the row list is empty.  context, when
    given, is a prebuilt (spec, grid) pair; an initial state must live
    on that grid.
    """
    if context is not None:
        spec, grid = context
    else:
        _, spec, grid = _setup(config)
    u = initial if initial is not None else initial_state(config, grid, spec)
    if u.grid is not grid:
        raise ValueError("initial state must live on the run grid; "
                         "pass context=(spec, grid) along with it")
    order = 4 if config.equation == "cahn-hilliard" else 2
    compatibility_check(u, spec, order=order)
    stepper = Stepper(spec, grid, config.dt, config.equation,
                      config.picard_iters, config.picard_tol)
    f = double_well if config.equation == "allen-cahn" else None
    snapshots = [u.copy()]
    rows = []

    def record(u: FieldState, step: int):
        row, evaluation = _diagnostics_row(u, step, spec)
        rows.append(row)
        # only the conserved step reuses the evaluation
        return evaluation if config.equation == "cahn-hilliard" else None

    evaluation = record(u, 0) if diagnostics else None
    for step in range(1, config.n_steps + 1):
        u = stepper.step(u, f=f, forcing=forcing, evaluation=evaluation)
        evaluation = record(u, step) if diagnostics else None
        if step % config.snapshot_every == 0 or step == config.n_steps:
            snapshots.append(u.copy())
    return snapshots, rows


def wellposedness_smoke(config: RunConfig, delta: float) -> dict:
    """Continuous-dependence probe: perturb the data, compare endpoints.

    delta = 0 must reproduce the baseline bitwise (deterministic
    seeding); small positive deltas should give end gaps scaling
    linearly, i.e. gap/delta ratios stable across delta.
    """
    _, spec, grid = _setup(config)
    base0 = initial_state(config, grid, spec)
    pert0 = base0.copy()
    pert0.coeffs[:, grid.channel_index(0, 0)] += delta * _bump_envelope(grid.t)
    base_snaps, _ = run(config, initial=base0, context=(spec, grid),
                        diagnostics=False)
    pert_snaps, _ = run(config, initial=pert0, context=(spec, grid),
                        diagnostics=False)
    bf = base_snaps[-1].coeffs
    pf = pert_snaps[-1].coeffs
    gap = float(np.max(np.abs(pf - bf)))
    return {
        "delta": float(delta),
        "final_gap": gap,
        "ratio": gap / delta if delta > 0 else 0.0,
        "identical": bool(np.array_equal(bf, pf)),
    }
