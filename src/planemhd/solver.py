"""Semi-implicit time integration of the plane-MHD system for mu >= 0.

Hyperbolic terms are explicit (first-order upwind for advection, compact
central differences for pressure-like gradients), diffusive terms are
implicit Euler via tridiagonal solves, so the time step is limited only
by the acoustic CFL condition. mu = 0 switches the transverse momentum
equation to a purely hyperbolic conservative update with no wall
condition on w.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import diagnostics as _diag
from .core import (BoundaryData, FlowState, GridSpec, PhysParams, Trajectory,
                   interpolate_to_nodes)
from .eos import kappa as kappa_eval


class StepFailure(Exception):
    """A sub-step produced an inadmissible state; the caller may retry."""

    def __init__(self, reason: str, field: str, index: int, t: float):
        super().__init__(f"{reason} (field={field}, index={index}, t={t:.6g})")
        self.reason = reason
        self.field = field
        self.index = index
        self.t = t


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
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if not 0 < self.cfl <= 1:
            raise ValueError("cfl must lie in (0, 1]")
        if self.dt_min > self.dt_max:
            raise ValueError("dt_min must not exceed dt_max")
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


def tridiag_solve(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                  rhs: np.ndarray) -> np.ndarray:
    """Thomas algorithm for lower[i]*x[i-1] + diag[i]*x[i] + upper[i]*x[i+1].

    rhs has shape (n,) or (n, m); the m columns share one elimination
    and the result has the shape of rhs. lower[0] and upper[-1] are
    ignored. The systems assembled by the implicit sub-steps are
    strictly diagonally dominant, so no pivoting is needed.

    The recurrences run on Python floats: they are IEEE doubles like
    numpy's, and far cheaper to index one at a time than numpy scalars.
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


def _upwind_grad(f: np.ndarray, u: np.ndarray, dx: float) -> np.ndarray:
    """Upwind one-sided derivative of a node field against velocity u."""
    bwd = np.empty_like(f)
    fwd = np.empty_like(f)
    bwd[1:] = (f[1:] - f[:-1]) / dx
    bwd[0] = (f[1] - f[0]) / dx
    fwd[:-1] = (f[1:] - f[:-1]) / dx
    fwd[-1] = (f[-1] - f[-2]) / dx
    return np.where(u > 0, bwd, fwd)


def _central_grad(f: np.ndarray, dx: float) -> np.ndarray:
    """Central derivative of a node field, one-sided at the walls."""
    g = np.empty_like(f)
    g[1:-1] = (f[2:] - f[:-2]) / (2 * dx)
    g[0] = (f[1] - f[0]) / dx
    g[-1] = (f[-1] - f[-2]) / dx
    return g


def stable_dt(state: FlowState, grid: GridSpec, params: PhysParams,
              cfg: TimeConfig) -> float:
    """Acoustic CFL time step from the fast magnetosonic speed estimate."""
    rho_n = interpolate_to_nodes(state.rho)
    theta_n = interpolate_to_nodes(state.theta)
    c = np.sqrt(params.gamma * theta_n
                + (state.b * state.b).sum(axis=-1) / rho_n)
    speed = np.abs(state.u) + c
    j = int(np.argmax(speed))
    dt = cfg.cfl * grid.dx / max(speed[j], 1e-300)
    if not dt >= cfg.dt_min:        # also rejects a NaN step
        raise StepFailure("CFL step below dt_min", "u", j, state.t)
    return min(dt, cfg.dt_max)


def advance_density(state: FlowState, grid: GridSpec, dt: float,
                    forcing: Optional[ForcingSpec] = None) -> np.ndarray:
    """Explicit conservative continuity update with upwind face fluxes."""
    dx = grid.dx
    u = state.u
    rho = state.rho
    flux = np.zeros_like(u)
    up = np.where(u[1:-1] > 0, rho[:-1], rho[1:])
    flux[1:-1] = up * u[1:-1]
    rho_new = rho - (dt / dx) * np.diff(flux)
    if forcing is not None and forcing.continuity is not None:
        rho_new = rho_new + dt * forcing.continuity(grid.cell_centers,
                                                    state.t + dt)
    if not np.all(rho_new > 0):     # NaN fails too
        idx = int(np.argmin(rho_new))
        raise StepFailure("density became nonpositive", "rho", idx, state.t)
    return rho_new


def velocity_system(grid: GridSpec, params: PhysParams, dt: float,
                    rho_new: np.ndarray, u: np.ndarray, theta: np.ndarray,
                    b: np.ndarray, f_u: Optional[np.ndarray] = None):
    """Implicit system for the interior longitudinal velocity nodes."""
    dx = grid.dx
    rho_n = interpolate_to_nodes(rho_new)
    b_c = 0.5 * (b[:-1] + b[1:])
    ptot = params.gamma * rho_new * theta + 0.5 * (b_c * b_c).sum(axis=-1)
    grad = (ptot[1:] - ptot[:-1]) / dx          # at interior nodes
    adv = u * _upwind_grad(u, u, dx)
    rhs = rho_n * u - dt * (rho_n * adv)
    rhs[1:-1] -= dt * grad
    if f_u is not None:
        rhs = rhs + dt * f_u
    a = params.lam * dt / dx ** 2
    m = grid.n_cells - 1
    lower = np.full(m, -a)
    upper = np.full(m, -a)
    diag = rho_n[1:-1] + 2 * a
    return lower, diag, upper, rhs[1:-1]


def advance_velocity(state: FlowState, grid: GridSpec, dt: float,
                     params: PhysParams, rho_new: np.ndarray,
                     forcing: Optional[ForcingSpec] = None) -> np.ndarray:
    f_u = None
    if forcing is not None and forcing.momentum is not None:
        f_u = forcing.momentum(grid.node_positions, state.t + dt)
    lower, diag, upper, rhs = velocity_system(
        grid, params, dt, rho_new, state.u, state.theta, state.b, f_u)
    u_new = np.zeros(grid.n_cells + 1)
    u_new[1:-1] = tridiag_solve(lower, diag, upper, rhs)
    return u_new


def transverse_system(grid: GridSpec, params: PhysParams, dt: float,
                      rho_new: np.ndarray, u_new: np.ndarray,
                      w_k: np.ndarray, b_k: np.ndarray,
                      wl: float, wr: float,
                      f_wk: Optional[np.ndarray] = None):
    """Implicit system for one component of w at the interior nodes.

    wl, wr are the Dirichlet values at the end-of-step time.
    """
    dx = grid.dx
    rho_n = interpolate_to_nodes(rho_new)
    adv = u_new * _upwind_grad(w_k, u_new, dx)
    b_x = _central_grad(b_k, dx)
    rhs = rho_n * w_k - dt * (rho_n * adv - b_x)
    if f_wk is not None:
        rhs = rhs + dt * f_wk
    a = params.mu * dt / dx ** 2
    m = grid.n_cells - 1
    lower = np.full(m, -a)
    upper = np.full(m, -a)
    diag = rho_n[1:-1] + 2 * a
    rhs_i = rhs[1:-1].copy()
    rhs_i[0] += a * wl
    rhs_i[-1] += a * wr
    return lower, diag, upper, rhs_i


def advance_transverse(state: FlowState, grid: GridSpec, dt: float,
                       params: PhysParams, bdry: BoundaryData,
                       rho_new: np.ndarray, u_new: np.ndarray,
                       forcing: Optional[ForcingSpec] = None) -> np.ndarray:
    """Transverse velocity update; dispatches on mu > 0 versus mu = 0."""
    if params.mu == 0.0:
        return _advance_transverse_limit(state, grid, dt, params,
                                         rho_new, u_new, forcing)
    t_new = state.t + dt
    wl = bdry.w_minus(t_new)
    wr = bdry.w_plus(t_new)
    f_w = None
    if forcing is not None and forcing.transverse is not None:
        f_w = forcing.transverse(grid.node_positions, t_new)
    # both components share one matrix, so one solve takes both columns
    systems = [transverse_system(
        grid, params, dt, rho_new, u_new, state.w[:, k], state.b[:, k],
        wl[k], wr[k], None if f_w is None else f_w[:, k]) for k in (0, 1)]
    lower, diag, upper, _ = systems[0]
    w_new = np.empty_like(state.w)
    w_new[1:-1] = tridiag_solve(lower, diag, upper,
                                np.column_stack([sy[3] for sy in systems]))
    w_new[0] = wl
    w_new[-1] = wr
    return w_new


def _advance_transverse_limit(state: FlowState, grid: GridSpec, dt: float,
                              params: PhysParams, rho_new: np.ndarray,
                              u_new: np.ndarray,
                              forcing: Optional[ForcingSpec]) -> np.ndarray:
    """mu = 0: conservative upwind transport of rho*w with b_x source.

    The walls are characteristic (u = 0 there), so no boundary condition
    is imposed on w; the wall nodes evolve on half control volumes.
    """
    dx = grid.dx
    rho_n_old = interpolate_to_nodes(state.rho)
    rho_n_new = interpolate_to_nodes(rho_new)
    u_c = 0.5 * (u_new[:-1] + u_new[1:])
    f_w = None
    if forcing is not None and forcing.transverse is not None:
        f_w = forcing.transverse(grid.node_positions, state.t + dt)
    w_new = np.empty_like(state.w)
    for k in (0, 1):
        m = rho_n_old * state.w[:, k]
        m_up = np.where(u_c > 0, m[:-1], m[1:])
        flux = u_c * m_up                       # at cell centers
        b_x = _central_grad(state.b[:, k], dx)
        m_new = np.empty_like(m)
        m_new[1:-1] = m[1:-1] - (dt / dx) * np.diff(flux) + dt * b_x[1:-1]
        m_new[0] = m[0] - (dt / (dx / 2)) * flux[0] + dt * b_x[0]
        m_new[-1] = m[-1] + (dt / (dx / 2)) * flux[-1] + dt * b_x[-1]
        if f_w is not None:
            m_new += dt * f_w[:, k]
        w_new[:, k] = m_new / rho_n_new
    return w_new


def induction_system(grid: GridSpec, params: PhysParams, dt: float,
                     u_new: np.ndarray, w_k: np.ndarray, b_k: np.ndarray,
                     f_bk: Optional[np.ndarray] = None):
    """Implicit system for one component of b at the interior nodes."""
    dx = grid.dx
    flux = u_new * b_k - w_k
    rhs = b_k - dt * _central_grad(flux, dx)
    if f_bk is not None:
        rhs = rhs + dt * f_bk
    a = params.nu * dt / dx ** 2
    m = grid.n_cells - 1
    lower = np.full(m, -a)
    upper = np.full(m, -a)
    diag = np.full(m, 1.0 + 2 * a)
    return lower, diag, upper, rhs[1:-1]


def advance_induction(state: FlowState, grid: GridSpec, dt: float,
                      params: PhysParams, u_new: np.ndarray,
                      w_new: np.ndarray,
                      forcing: Optional[ForcingSpec] = None) -> np.ndarray:
    f_b = None
    if forcing is not None and forcing.induction is not None:
        f_b = forcing.induction(grid.node_positions, state.t + dt)
    systems = [induction_system(
        grid, params, dt, u_new, w_new[:, k], state.b[:, k],
        None if f_b is None else f_b[:, k]) for k in (0, 1)]
    lower, diag, upper, _ = systems[0]
    b_new = np.zeros_like(state.b)
    b_new[1:-1] = tridiag_solve(lower, diag, upper,
                                np.column_stack([sy[3] for sy in systems]))
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
    kap_face = 0.5 * (kap[:-1] + kap[1:])       # interior faces only
    # upwind advection of the old thermal content rho*c_v*theta
    q = rho_old * theta
    flux = np.zeros_like(u_new)
    q_up = np.where(u_new[1:-1] > 0, q[:-1], q[1:])
    flux[1:-1] = c_v * q_up * u_new[1:-1]
    u_x = np.diff(u_new) / dx
    w_x = np.diff(w_new, axis=0) / dx
    b_x = np.diff(b_new, axis=0) / dx
    heat = (params.lam * u_x ** 2 + params.mu * (w_x * w_x).sum(axis=-1)
            + params.nu * (b_x * b_x).sum(axis=-1))
    p = params.gamma * rho_new * theta
    rhs = (c_v * rho_old * theta / dt - np.diff(flux) / dx
           - p * u_x + heat)
    if f_th is not None:
        rhs = rhs + f_th
    n = grid.n_cells
    lower = np.zeros(n)
    upper = np.zeros(n)
    lower[1:] = -kap_face / dx ** 2
    upper[:-1] = -kap_face / dx ** 2
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
    theta_new = tridiag_solve(lower, diag, upper, rhs)
    if not np.all(theta_new > 0):   # NaN fails too
        idx = int(np.argmin(theta_new))
        raise StepFailure("temperature became nonpositive", "theta", idx,
                          state.t)
    return theta_new


def step(state: FlowState, grid: GridSpec, dt: float, params: PhysParams,
         bdry: BoundaryData,
         forcing: Optional[ForcingSpec] = None) -> FlowState:
    """Operator-split step: density, velocity, transverse, induction,
    temperature, each sub-step seeing the most recent fields."""
    rho_new = advance_density(state, grid, dt, forcing)
    u_new = advance_velocity(state, grid, dt, params, rho_new, forcing)
    w_new = advance_transverse(state, grid, dt, params, bdry,
                               rho_new, u_new, forcing)
    b_new = advance_induction(state, grid, dt, params, u_new, w_new, forcing)
    theta_new = advance_temperature(state, grid, dt, params, rho_new,
                                    u_new, w_new, b_new, forcing)
    return FlowState(t=state.t + dt, rho=rho_new, u=u_new, w=w_new,
                     b=b_new, theta=theta_new)


def run(initial: FlowState, grid: GridSpec, params: PhysParams,
        bdry: BoundaryData, cfg: TimeConfig,
        forcing: Optional[ForcingSpec] = None) -> Trajectory:
    """Integrate to t_end with CFL-controlled steps and dt-halving retry.

    Snapshots are stored every snapshot_stride accepted steps plus the
    final state; a DiagnosticsRecord is attached for every accepted step.
    """
    t_end = cfg.t_end
    state = initial
    snapshots = [state]
    times = [0.0]
    diags = [_diag.record(state, grid, params)]
    k = 0
    eps = 1e-12 * max(t_end, 1.0)
    while state.t < t_end - eps:
        try:
            dt = stable_dt(state, grid, params, cfg)
        except StepFailure as exc:
            raise RunAborted({"t": state.t, "reason": exc.reason,
                              "field": exc.field, "index": exc.index}) \
                from exc
        dt = min(dt, t_end - state.t)
        while True:
            try:
                new_state = step(state, grid, dt, params, bdry, forcing)
                break
            except StepFailure as exc:
                dt *= 0.5
                if dt < cfg.dt_min:
                    raise RunAborted({"t": state.t, "reason": exc.reason,
                                      "field": exc.field,
                                      "index": exc.index}) from exc
        state = new_state
        k += 1
        diags.append(_diag.record(state, grid, params))
        if k % cfg.snapshot_stride == 0 or state.t >= t_end - eps:
            snapshots.append(state)
            times.append(state.t)
    return Trajectory(snapshots=snapshots, snapshot_times=np.array(times),
                      diagnostics=diags)


def run_limit(initial: FlowState, grid: GridSpec, params: PhysParams,
              bdry: BoundaryData, cfg: TimeConfig,
              forcing: Optional[ForcingSpec] = None) -> Trajectory:
    """Integrate the mu = 0 limit system; params.mu must be exactly 0."""
    if params.mu != 0.0:
        raise ValueError("run_limit requires params.mu == 0")
    return run(initial, grid, params, bdry, cfg, forcing)
