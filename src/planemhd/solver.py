"""Semi-implicit time integration of the plane-MHD system for mu >= 0.

Hyperbolic terms are explicit (first-order upwind for advection, compact
central differences for pressure-like gradients), diffusive terms are
implicit Euler via tridiagonal solves, so the time step is limited only
by the acoustic CFL condition. mu = 0 switches the transverse momentum
equation to a purely hyperbolic conservative update with no wall
condition on w.
"""

from __future__ import annotations

import copy
import ctypes
import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from . import diagnostics as _diag
from .core import (STATE_FIELDS, BoundaryData, FlowState, GridSpec,
                   PhysParams, Trajectory, check_field_types,
                   interpolate_to_nodes)
from .eos import dissipation_q, kappa as kappa_eval, sq_norm


class StepFailure(Exception):
    """A sub-step produced an inadmissible state; the caller may retry.

    member is the row of the failing state in a lockstep batch, 0 for a
    single state.
    """

    def __init__(self, reason: str, field: str, index: int, t: float,
                 member: int = 0):
        super().__init__(f"{reason} (field={field}, index={index}, t={t:.6g})")
        self.reason = reason
        self.field = field
        self.index = index
        self.t = t
        self.member = member


class RunAborted(Exception):
    """Integration failed after dt-halving reached dt_min."""

    def __init__(self, report: dict):
        super().__init__(f"run aborted at t={report['t']:.6g}: "
                         f"{report['reason']}")
        self.report = report


@dataclass(frozen=True)
class TimeConfig:
    t_end: float
    cfl: float = 0.4
    dt_max: float = 1e-2
    dt_min: float = 1e-10
    snapshot_stride: int = 1

    def __post_init__(self):
        # each check names its key first; the comparisons fail on NaN
        check_field_types(self)
        if not 0 <= self.t_end < np.inf:
            raise ValueError("t_end must be finite and nonnegative")
        if not 0 < self.cfl <= 1:
            raise ValueError("cfl must lie in (0, 1]")
        if not 0 < self.dt_min <= self.dt_max:
            raise ValueError("dt_min must satisfy 0 < dt_min <= dt_max")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be a positive integer")


_Src = Optional[Callable[[np.ndarray, float], np.ndarray]]


@dataclass(frozen=True)
class ForcingSpec:
    """Optional manufactured source terms, one per equation.

    Each entry is a function of (x, t). transverse and induction return
    arrays of shape (len(x), 2); absent entries mean zero.
    """

    continuity: _Src = None
    momentum: _Src = None
    transverse: _Src = None
    induction: _Src = None
    energy: _Src = None


# LAPACK dgtsv (Fortran calling convention, 64-bit integers) from the
# OpenBLAS that numpy's wheels bundle and `import numpy` has already
# loaded; None on builds that do not export it (distro and MKL builds),
# which fall back to _thomas_solve. The Fortran routine, unlike
# LAPACKE_dgtsv, does not reject NaN input, so a NaN reaches the
# positivity checks of the sub-steps on both paths.
_dgtsv = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__),
                 "scipy_dgtsv_64_", None)
if _dgtsv is not None:
    _int_p = ctypes.POINTER(ctypes.c_int64)
    # N, NRHS, DL, D, DU, B, LDB, INFO
    _dgtsv.argtypes = [_int_p, _int_p, ctypes.c_void_p, ctypes.c_void_p,
                       ctypes.c_void_p, ctypes.c_void_p, _int_p, _int_p]
    _dgtsv.restype = None


def tridiag_solve(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                  rhs: np.ndarray) -> np.ndarray:
    """Solve lower[i]*x[i-1] + diag[i]*x[i] + upper[i]*x[i+1] = rhs[i].

    rhs has shape (n,) or (n, m); the m columns share one elimination
    and the result has the shape of rhs. lower[0] and upper[-1] are
    ignored. A singular system raises ZeroDivisionError.

    Runs LAPACK dgtsv where numpy's OpenBLAS exports it, else the Thomas
    recurrence of _thomas_solve. dgtsv pivots by rows, but the strictly
    diagonally dominant systems of the implicit sub-steps never swap a
    row, so both paths do the same elimination. Results may still differ
    in the last bit: dgtsv subtracts multiples lower/diag of each row
    where the Thomas recurrence divides by the pivot.
    """
    if _dgtsv is None:
        return _thomas_solve(lower, diag, upper, rhs)
    n = len(diag)
    if len(lower) != n or len(upper) != n or len(rhs) != n:
        raise ValueError("bands and right-hand side must have the length "
                         "of diag")
    # dgtsv overwrites all four arrays, so it gets fresh contiguous copies
    dl = np.array(lower[1:], dtype=np.float64)
    d = np.array(diag, dtype=np.float64)
    du = np.array(upper[:-1], dtype=np.float64)
    x = np.array(rhs, dtype=np.float64, order="F")
    n_ = ctypes.c_int64(n)
    info = ctypes.c_int64()
    _dgtsv(n_, ctypes.c_int64(x.size // n), dl.ctypes.data, d.ctypes.data,
           du.ctypes.data, x.ctypes.data, n_, info)
    if info.value > 0:
        raise ZeroDivisionError("zero pivot in tridiagonal solve")
    return x


def _thomas_solve(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                  rhs: np.ndarray) -> np.ndarray:
    """Thomas algorithm with the contract of tridiag_solve.

    No pivoting, so it needs the diagonal dominance that the implicit
    sub-steps guarantee. The recurrences run on Python floats: they are
    IEEE doubles like numpy's, and far cheaper to index one at a time
    than numpy scalars.
    """
    n = len(diag)
    low = lower.tolist()
    low[0] = 0.0
    pivots = []
    factors = []
    c = 0.0
    for lo, di, up in zip(low, diag.tolist(), upper.tolist()):
        piv = di - lo * c
        if piv == 0.0:
            raise ZeroDivisionError("zero pivot in tridiagonal solve")
        c = up / piv
        pivots.append(piv)
        factors.append(c)
    factors.pop()
    factors.reverse()
    cols = []
    for col in np.reshape(rhs.T, (-1, n)).tolist():
        d = 0.0
        ds = []
        for lo, piv, r in zip(low, pivots, col):
            d = (r - lo * d) / piv
            ds.append(d)
        x = ds.pop()
        ds.reverse()
        xs = [x]
        for c, d in zip(factors, ds):
            x = d - c * x
            xs.append(x)
        xs.reverse()
        cols.append(xs)
    return np.array(cols).T.reshape(rhs.shape)


def _solve_blocks(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                  rhs: np.ndarray) -> np.ndarray:
    """tridiag_solve for one system per member: bands (R, n) and rhs
    (R, n) or (R, n, m), or one system without the member axis.

    The R systems go to tridiag_solve as one block-diagonal system of
    R*n unknowns whose couplings across block edges are zero, so each
    block eliminates exactly as its own solve would, to the bit. A block
    that is not finite would still spread through those couplings
    (0 * nan is nan), so when the result is not finite the blocks are
    solved one by one, and only the blocks at fault keep their nan.
    """
    several = diag.size > diag.shape[-1]
    if several:
        lower = np.array(lower)
        lower[..., 0] = 0.0
        upper = np.array(upper)
        upper[..., -1] = 0.0
    x = tridiag_solve(lower.reshape(-1), diag.reshape(-1), upper.reshape(-1),
                      rhs.reshape((diag.size,) + rhs.shape[diag.ndim:]))
    if several and not np.isfinite(x).all():
        return np.stack([tridiag_solve(*block)
                         for block in zip(lower, diag, upper, rhs)])
    return x.reshape(rhs.shape)


def _upwind_grad(f: np.ndarray, u: np.ndarray, dx: float,
                 axis: int) -> np.ndarray:
    """Upwind one-sided derivative of a node field against velocity u,
    along the node axis of f: -1 for u, -2 for a 2-vector field."""
    i = (slice(None),) * (axis % f.ndim)
    d = (f[i + (slice(1, None),)] - f[i + (slice(None, -1),)]) / dx
    bwd = np.concatenate((d[i + (slice(None, 1),)], d), axis)
    fwd = np.concatenate((d, d[i + (slice(-1, None),)]), axis)
    return np.where(u > 0, bwd, fwd)


def _central_grad(f: np.ndarray, dx: float) -> np.ndarray:
    """Central derivative of a 2-vector node field (..., N+1, 2) along
    its node axis, one-sided at the walls."""
    g = np.empty_like(f)
    g[..., 1:-1, :] = (f[..., 2:, :] - f[..., :-2, :]) / (2 * dx)
    g[..., 0, :] = (f[..., 1, :] - f[..., 0, :]) / dx
    g[..., -1, :] = (f[..., -1, :] - f[..., -2, :]) / dx
    return g


def _check_positive(x: np.ndarray, reason: str, field: str, t: float):
    """Raise StepFailure for the first member (row of x) with a value
    that is not positive; NaN fails too."""
    if not (x > 0).all():
        member = int(np.argmin((x > 0).all(axis=-1)))
        row = x.reshape(-1, x.shape[-1])[member]
        raise StepFailure(reason, field, int(np.argmin(row)), t, member)


def _with_mu(params: PhysParams, mu: np.ndarray) -> PhysParams:
    """params with mu as an (R, 1) column, one value per member of a
    lockstep batch, which broadcasts against (R, ·) fields. The values
    are checked by run_lockstep, so the copy skips PhysParams' scalar
    check."""
    out = copy.copy(params)
    object.__setattr__(out, "mu", np.reshape(mu, (-1, 1)))
    return out


def stable_dt(state: FlowState, grid: GridSpec, params: PhysParams,
              cfg: TimeConfig) -> float:
    """Acoustic CFL time step from the fast magnetosonic speed estimate;
    the smallest over the members of a batch."""
    rho_n = interpolate_to_nodes(state.rho)
    theta_n = interpolate_to_nodes(state.theta)
    c = np.sqrt(params.gamma * theta_n
                + sq_norm(state.b) / rho_n)
    speed = np.abs(state.u) + c
    dt = cfg.cfl * grid.dx / np.maximum(speed.max(axis=-1), 1e-300)
    ok = dt >= cfg.dt_min           # also rejects a NaN step
    if not ok.all():
        member = int(np.argmin(ok))
        lead = (member,) if speed.ndim > 1 else ()
        j = int(np.argmax(speed[lead]))
        # name the field that is not finite at node j; u if both are
        field = ("b" if np.isfinite(state.u[lead + (j,)])
                 and not np.isfinite(state.b[lead + (j,)]).all() else "u")
        raise StepFailure("CFL step below dt_min", field, j, state.t, member)
    return min(float(dt.min()), cfg.dt_max)


def advance_density(state: FlowState, grid: GridSpec, dt: float,
                    forcing: Optional[ForcingSpec] = None) -> np.ndarray:
    """Explicit conservative continuity update with upwind face fluxes."""
    dx = grid.dx
    u = state.u
    rho = state.rho
    flux = np.zeros_like(u)
    up = np.where(u[..., 1:-1] > 0, rho[..., :-1], rho[..., 1:])
    flux[..., 1:-1] = up * u[..., 1:-1]
    rho_new = rho - (dt / dx) * np.diff(flux)
    if forcing is not None and forcing.continuity is not None:
        rho_new = rho_new + dt * forcing.continuity(grid.cell_centers,
                                                    state.t + dt)
    _check_positive(rho_new, "density became nonpositive", "rho", state.t)
    return rho_new


def _diffusion_bands(mass: np.ndarray, a):
    """Bands of the implicit diffusion matrix at the interior nodes:
    mass + 2a on the diagonal and -a off it. a is a scalar or an (R, 1)
    column, one per member."""
    lower = np.full(mass.shape, -a)
    return lower, mass + 2 * a, lower.copy()


def velocity_system(grid: GridSpec, params: PhysParams, dt: float,
                    rho_new: np.ndarray, u: np.ndarray, theta: np.ndarray,
                    b: np.ndarray, f_u: Optional[np.ndarray] = None):
    """Implicit system for the interior longitudinal velocity nodes."""
    dx = grid.dx
    rho_n = interpolate_to_nodes(rho_new)
    b_c = 0.5 * (b[..., :-1, :] + b[..., 1:, :])
    ptot = params.gamma * rho_new * theta + 0.5 * sq_norm(b_c)
    grad = (ptot[..., 1:] - ptot[..., :-1]) / dx    # at interior nodes
    adv = u * _upwind_grad(u, u, dx, axis=-1)
    rhs = rho_n * u - dt * (rho_n * adv)
    rhs[..., 1:-1] -= dt * grad
    if f_u is not None:
        rhs = rhs + dt * f_u
    lower, diag, upper = _diffusion_bands(rho_n[..., 1:-1],
                                          params.lam * dt / dx ** 2)
    return lower, diag, upper, rhs[..., 1:-1]


def advance_velocity(state: FlowState, grid: GridSpec, dt: float,
                     params: PhysParams, rho_new: np.ndarray,
                     forcing: Optional[ForcingSpec] = None) -> np.ndarray:
    f_u = None
    if forcing is not None and forcing.momentum is not None:
        f_u = forcing.momentum(grid.node_positions, state.t + dt)
    lower, diag, upper, rhs = velocity_system(
        grid, params, dt, rho_new, state.u, state.theta, state.b, f_u)
    u_new = np.zeros_like(state.u)
    u_new[..., 1:-1] = _solve_blocks(lower, diag, upper, rhs)
    return u_new


def transverse_system(grid: GridSpec, params: PhysParams, dt: float,
                      rho_new: np.ndarray, u_new: np.ndarray,
                      w: np.ndarray, b: np.ndarray,
                      wl: float | np.ndarray, wr: float | np.ndarray,
                      f_w: Optional[np.ndarray] = None):
    """Implicit system for w at the interior nodes.

    w, b and f_w have shape (N+1, 2); the two components share the
    matrix, and rhs has shape (N-1, 2). wl, wr are the Dirichlet values
    at the end-of-step time, one per component or one for both. A batch
    adds a leading member axis to rho_new, u_new, w and b, and params.mu
    is then an (R, 1) column.
    """
    dx = grid.dx
    rho_n = interpolate_to_nodes(rho_new)
    rho_c = rho_n[..., None]
    u = u_new[..., None]
    adv = u * _upwind_grad(w, u, dx, axis=-2)
    b_x = _central_grad(b, dx)
    rhs = rho_c * w - dt * (rho_c * adv - b_x)
    if f_w is not None:
        rhs = rhs + dt * f_w
    a = params.mu * dt / dx ** 2
    lower, diag, upper = _diffusion_bands(rho_n[..., 1:-1], a)
    rhs_i = rhs[..., 1:-1, :].copy()
    rhs_i[..., 0, :] += a * wl
    rhs_i[..., -1, :] += a * wr
    return lower, diag, upper, rhs_i


def advance_transverse(state: FlowState, grid: GridSpec, dt: float,
                       params: PhysParams, bdry: BoundaryData,
                       rho_new: np.ndarray, u_new: np.ndarray,
                       forcing: Optional[ForcingSpec] = None) -> np.ndarray:
    """Transverse velocity update: the hyperbolic limit update where
    mu = 0, the implicit one where mu > 0, member by member in a batch."""
    t_new = state.t + dt
    f_w = None
    if forcing is not None and forcing.transverse is not None:
        f_w = forcing.transverse(grid.node_positions, t_new)
    limit = np.asarray(params.mu == 0.0)    # () alone, (R, 1) in a batch
    if limit.all():
        return _advance_transverse_limit(grid, dt, state.rho, state.w,
                                         state.b, rho_new, u_new, f_w)
    wall = bdry.at(t_new)
    if not limit.any():
        return _advance_transverse_implicit(grid, params, dt, wall, state.w,
                                            state.b, rho_new, u_new, f_w)
    lim = limit[:, 0]
    vis = ~lim
    w_new = np.empty_like(state.w)
    w_new[lim] = _advance_transverse_limit(
        grid, dt, state.rho[lim], state.w[lim], state.b[lim], rho_new[lim],
        u_new[lim], f_w)
    w_new[vis] = _advance_transverse_implicit(
        grid, _with_mu(params, params.mu[vis]), dt, wall, state.w[vis],
        state.b[vis], rho_new[vis], u_new[vis], f_w)
    return w_new


def _advance_transverse_implicit(grid: GridSpec, params: PhysParams,
                                 dt: float, wall: np.ndarray, w: np.ndarray,
                                 b: np.ndarray, rho_new: np.ndarray,
                                 u_new: np.ndarray,
                                 f_w: Optional[np.ndarray]) -> np.ndarray:
    """mu > 0: implicit diffusion of w with the wall value at both walls."""
    lower, diag, upper, rhs = transverse_system(
        grid, params, dt, rho_new, u_new, w, b, wall, wall, f_w)
    w_new = np.empty_like(w)
    w_new[..., 1:-1, :] = _solve_blocks(lower, diag, upper, rhs)
    w_new[..., 0, :] = wall
    w_new[..., -1, :] = wall
    return w_new


def _advance_transverse_limit(grid: GridSpec, dt: float, rho: np.ndarray,
                              w: np.ndarray, b: np.ndarray,
                              rho_new: np.ndarray, u_new: np.ndarray,
                              f_w: Optional[np.ndarray]) -> np.ndarray:
    """mu = 0: conservative upwind transport of rho*w with b_x source.

    The walls are characteristic (u = 0 there), so no boundary condition
    is imposed on w; the wall nodes evolve on half control volumes.
    """
    dx = grid.dx
    rho_n_old = interpolate_to_nodes(rho)[..., None]
    rho_n_new = interpolate_to_nodes(rho_new)[..., None]
    u_c = 0.5 * (u_new[..., :-1] + u_new[..., 1:])[..., None]
    m = rho_n_old * w
    m_up = np.where(u_c > 0, m[..., :-1, :], m[..., 1:, :])
    flux = u_c * m_up                           # at cell centers
    b_x = _central_grad(b, dx)
    m_new = np.empty_like(m)
    m_new[..., 1:-1, :] = (m[..., 1:-1, :]
                           - (dt / dx) * np.diff(flux, axis=-2)
                           + dt * b_x[..., 1:-1, :])
    m_new[..., 0, :] = (m[..., 0, :] - (dt / (dx / 2)) * flux[..., 0, :]
                        + dt * b_x[..., 0, :])
    m_new[..., -1, :] = (m[..., -1, :] + (dt / (dx / 2)) * flux[..., -1, :]
                         + dt * b_x[..., -1, :])
    if f_w is not None:
        m_new += dt * f_w
    return m_new / rho_n_new


def induction_system(grid: GridSpec, params: PhysParams, dt: float,
                     u_new: np.ndarray, w: np.ndarray, b: np.ndarray,
                     f_b: Optional[np.ndarray] = None):
    """Implicit system for b at the interior nodes.

    w, b and f_b have shape (N+1, 2); the two components share the
    matrix, and rhs has shape (N-1, 2). A batch adds a leading member
    axis to u_new, w and b.
    """
    dx = grid.dx
    flux = u_new[..., None] * b - w
    rhs = b - dt * _central_grad(flux, dx)
    if f_b is not None:
        rhs = rhs + dt * f_b
    lower, diag, upper = _diffusion_bands(
        np.ones(u_new.shape[:-1] + (grid.n_cells - 1,)),
        params.nu * dt / dx ** 2)
    return lower, diag, upper, rhs[..., 1:-1, :]


def advance_induction(state: FlowState, grid: GridSpec, dt: float,
                      params: PhysParams, u_new: np.ndarray,
                      w_new: np.ndarray,
                      forcing: Optional[ForcingSpec] = None) -> np.ndarray:
    f_b = None
    if forcing is not None and forcing.induction is not None:
        f_b = forcing.induction(grid.node_positions, state.t + dt)
    lower, diag, upper, rhs = induction_system(
        grid, params, dt, u_new, w_new, state.b, f_b)
    b_new = np.zeros_like(state.b)
    b_new[..., 1:-1, :] = _solve_blocks(lower, diag, upper, rhs)
    return b_new


def temperature_system(grid: GridSpec, params: PhysParams, dt: float,
                       rho_old: np.ndarray, rho_new: np.ndarray,
                       theta: np.ndarray, u_new: np.ndarray,
                       w_new: np.ndarray, b_new: np.ndarray,
                       f_th: Optional[np.ndarray] = None):
    """Implicit cell-centered system for the temperature update.

    Conductivity is frozen at the current state (one Picard sweep); the
    boundary faces carry zero heat flux.
    """
    dx = grid.dx
    c_v = params.c_v
    kap = kappa_eval(rho_new, theta, params.kappa_model)
    kap_face = 0.5 * (kap[..., :-1] + kap[..., 1:])  # interior faces only
    # upwind advection of the old thermal content rho*c_v*theta
    q = rho_old * theta
    flux = np.zeros_like(u_new)
    q_up = np.where(u_new[..., 1:-1] > 0, q[..., :-1], q[..., 1:])
    flux[..., 1:-1] = c_v * q_up * u_new[..., 1:-1]
    u_x = np.diff(u_new) / dx
    w_x = np.diff(w_new, axis=-2) / dx
    b_x = np.diff(b_new, axis=-2) / dx
    heat = dissipation_q(u_x, w_x, b_x, params)
    p = params.gamma * rho_new * theta
    rhs = (c_v * rho_old * theta / dt - np.diff(flux) / dx
           - p * u_x + heat)
    if f_th is not None:
        rhs = rhs + f_th
    lower = np.zeros_like(theta)
    upper = np.zeros_like(theta)
    lower[..., 1:] = -kap_face / dx ** 2
    upper[..., :-1] = -kap_face / dx ** 2
    diag = c_v * rho_new / dt - lower - upper
    return lower, diag, upper, rhs


def advance_temperature(state: FlowState, grid: GridSpec, dt: float,
                        params: PhysParams, rho_new: np.ndarray,
                        u_new: np.ndarray, w_new: np.ndarray,
                        b_new: np.ndarray,
                        forcing: Optional[ForcingSpec] = None) -> np.ndarray:
    f_th = None
    if forcing is not None and forcing.energy is not None:
        f_th = forcing.energy(grid.cell_centers, state.t + dt)
    lower, diag, upper, rhs = temperature_system(
        grid, params, dt, state.rho, rho_new, state.theta,
        u_new, w_new, b_new, f_th)
    theta_new = _solve_blocks(lower, diag, upper, rhs)
    _check_positive(theta_new, "temperature became nonpositive", "theta",
                    state.t)
    return theta_new


def step(state: FlowState, grid: GridSpec, dt: float, params: PhysParams,
         bdry: BoundaryData,
         forcing: Optional[ForcingSpec] = None) -> FlowState:
    """Operator-split step: density, velocity, transverse, induction,
    temperature, each sub-step seeing the most recent fields. A batch
    state (leading member axis) takes params.mu as an (R, 1) column."""
    rho_new = advance_density(state, grid, dt, forcing)
    u_new = advance_velocity(state, grid, dt, params, rho_new, forcing)
    w_new = advance_transverse(state, grid, dt, params, bdry,
                               rho_new, u_new, forcing)
    b_new = advance_induction(state, grid, dt, params, u_new, w_new, forcing)
    theta_new = advance_temperature(state, grid, dt, params, rho_new,
                                    u_new, w_new, b_new, forcing)
    return FlowState(t=state.t + dt, rho=rho_new, u=u_new, w=w_new,
                     b=b_new, theta=theta_new)


def run_lockstep(initial: FlowState, grid: GridSpec, params: PhysParams,
                 bdry: BoundaryData, cfg: TimeConfig,
                 mu_values: Sequence[float],
                 forcing: Optional[ForcingSpec] = None,
                 on_snapshot: Optional[Callable[[FlowState, tuple],
                                                None]] = None,
                 store: Optional[Sequence[int]] = None
                 ) -> List[Union[Trajectory, np.ndarray, RunAborted]]:
    """Integrate one member per mu value from initial, one state of grid
    at t = 0, all on one time grid, to t_end.

    The members are the rows of one batch state, and each step is one
    step() over the batch. Its dt is the smallest CFL step over the
    live members, at most dt_max. A StepFailure in any member halves
    dt for all; a member that still fails at dt_min, or whose CFL step
    falls below dt_min, leaves with its RunAborted, and the others redo
    the step without it. Snapshots are taken every snapshot_stride
    accepted steps plus the final state; the diagnostics table has one
    row for the initial state and one for every accepted step.

    on_snapshot(state, members), if given, is called with the batch
    state at t = 0 and at every snapshot; members names the member in
    each row of state. store lists the members whose snapshots are kept
    (all by default).

    Returns per member its Trajectory, its diagnostics table if its
    snapshots are not kept, or the RunAborted that ended it.
    """
    mu = np.array(mu_values, dtype=float)
    if mu.ndim != 1 or not np.all((mu >= 0) & (mu < np.inf)):  # NaN fails too
        raise ValueError("mu_values must be finite and nonnegative")
    if initial.t != 0.0:
        raise ValueError(f"initial must be at t = 0, not t = {initial.t}")
    if initial.rho.shape != (grid.n_cells,):
        raise ValueError(f"initial must be one state of {grid.n_cells} "
                         f"cells, not rho of shape {initial.rho.shape}")
    t_end = cfg.t_end
    members = list(range(len(mu)))      # the member in each batch row
    stored = set(members if store is None else store)
    state = FlowState(t=initial.t, **{
        name: np.broadcast_to(getattr(initial, name),
                              (len(mu),) + getattr(initial, name).shape)
        for name in STATE_FIELDS})
    batch = _with_mu(params, mu)
    outcome: list = [None] * len(mu)
    times = [state.t]

    def rows_left(dt):
        """Diagnostics rows and snapshots from state on, this one
        included, if every step takes dt."""
        steps = max(math.ceil((t_end - state.t) / dt), 0)
        return 1 + steps, 1 + math.ceil(steps / cfg.snapshot_stride)

    # per member: its own snapshot fields and diagnostics, copied out of
    # the batch rows, so that no member's trajectory holds another's
    n_diags, n_snaps = rows_left(cfg.dt_max)
    fields = [{name: _Rows(getattr(state, name)[m], n_snaps)
               for name in STATE_FIELDS} if m in stored else None
              for m in members]
    diags = [_Rows(row, n_diags)
             for row in _diag.record(state, grid, batch)]
    if on_snapshot is not None:
        on_snapshot(state, tuple(members))
    k = 0
    eps = 1e-12 * max(t_end, 1.0)
    while members and state.t < t_end - eps:
        try:
            dt = min(stable_dt(state, grid, batch, cfg), t_end - state.t)
            while True:
                try:
                    new_state = step(state, grid, dt, batch, bdry, forcing)
                    break
                except StepFailure:
                    dt *= 0.5
                    if dt < cfg.dt_min:
                        raise
        except StepFailure as exc:
            m = members.pop(exc.member)
            outcome[m] = RunAborted({"t": state.t, "reason": exc.reason,
                                     "field": exc.field, "index": exc.index})
            outcome[m].__cause__ = exc
            fields[m] = diags[m] = None
            keep = np.arange(len(members) + 1) != exc.member
            state = FlowState(t=state.t, **{
                name: getattr(state, name)[keep] for name in STATE_FIELDS})
            batch = _with_mu(params, batch.mu[keep])
            continue
        state = new_state
        k += 1
        n_diags, n_snaps = rows_left(dt)
        for m, row in zip(members, _diag.record(state, grid, batch)):
            diags[m].append(row, n_diags)
        if k % cfg.snapshot_stride == 0 or state.t >= t_end - eps:
            times.append(state.t)
            for i, m in enumerate(members):
                if fields[m] is not None:
                    for name in STATE_FIELDS:
                        fields[m][name].append(getattr(state, name)[i],
                                               n_snaps)
            if on_snapshot is not None:
                on_snapshot(state, tuple(members))
    for m in members:
        table = diags[m].array()
        outcome[m] = table if fields[m] is None else Trajectory.from_arrays(
            times, {name: rows.array() for name, rows in fields[m].items()},
            table)
        fields[m] = diags[m] = None
    return outcome


class _Rows:
    """An array filled one row at a time.

    It is allocated for a forecast number of rows and regrown by the
    forecast of the rows left, this one included, when that runs out.
    When the forecast holds, as it does whenever dt_max sets every step,
    the array itself is the result: each row is copied once, into memory
    of its own member, and the heap is not left holding a freed copy of
    every snapshot.
    """

    def __init__(self, first: np.ndarray, size: int):
        self.data = np.empty((size,) + first.shape, first.dtype)
        self.data[0] = first
        self.n = 1

    def append(self, row: np.ndarray, rows_left: int):
        if self.n == len(self.data):
            grown = np.empty((self.n + rows_left,) + self.data.shape[1:],
                             self.data.dtype)
            grown[:self.n] = self.data
            self.data = grown
        self.data[self.n] = row
        self.n += 1

    def array(self) -> np.ndarray:
        if self.n == len(self.data):
            return self.data
        return self.data[:self.n].copy()


def run(initial: FlowState, grid: GridSpec, params: PhysParams,
        bdry: BoundaryData, cfg: TimeConfig,
        forcing: Optional[ForcingSpec] = None) -> Trajectory:
    """Integrate to t_end with CFL-controlled steps and dt-halving retry:
    the one-member case of run_lockstep, which raises its RunAborted."""
    (out,) = run_lockstep(initial, grid, params, bdry, cfg, (params.mu,),
                          forcing)
    if isinstance(out, RunAborted):
        raise out
    return out
