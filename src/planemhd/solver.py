"""Semi-implicit time integration of the plane-MHD system for mu >= 0.

Hyperbolic terms are explicit (first-order upwind for advection, compact
central differences for pressure-like gradients), diffusive terms are
implicit Euler, so the time step is limited only by the acoustic CFL
condition. Every implicit system is symmetric positive definite, one
band off the diagonal, and is solved by LDL^T. mu = 0 is the case of
the transverse update with no diffusion, and then w has no wall
condition.
"""

from __future__ import annotations

import copy
import ctypes
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from . import diagnostics as _diag
from .core import (STATE_FIELDS, BoundaryData, FlowState, GridSpec,
                   PhysParams, Trajectory, check_field_types,
                   interpolate_to_nodes)
from .eos import dissipation_q, kappa as kappa_eval, sq_norm


class StepFailure(Exception):
    """A sub-step produced an inadmissible state; the caller may retry.

    member is the failing member of a lockstep batch (its row), 0 for a
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


def _source(forcing: Optional[ForcingSpec], name: str, grid: GridSpec,
            t: float) -> Optional[np.ndarray]:
    """The forcing entry name at time t, sampled at the cell centers of
    grid for continuity and energy and at its nodes for the others; None
    where the entry is absent. The positions are built only for an entry
    that is there, so an unforced step builds none."""
    f = None if forcing is None else getattr(forcing, name)
    if f is None:
        return None
    return f(grid.cell_centers if name in ("continuity", "energy")
             else grid.node_positions, t)


# LAPACK dptsv (Fortran calling convention, 64-bit integers) from the
# OpenBLAS that numpy's wheels bundle and `import numpy` has already
# loaded; None on builds that do not export it (distro and MKL builds),
# which fall back to _thomas_solve. The Fortran routine, unlike
# LAPACKE_dptsv, does not reject NaN input, so a NaN reaches the
# positivity checks of the sub-steps on both paths.
_dptsv = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__),
                 "scipy_dptsv_64_", None)
if _dptsv is not None:
    _int_p = ctypes.POINTER(ctypes.c_int64)
    # N, NRHS, D, E, B, LDB, INFO
    _dptsv.argtypes = [_int_p, _int_p, ctypes.c_void_p, ctypes.c_void_p,
                       ctypes.c_void_p, _int_p, _int_p]
    _dptsv.restype = None


def tridiag_solve(off, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the symmetric tridiagonal system
    off[i-1]*x[i-1] + diag[i]*x[i] + off[i]*x[i+1] = rhs[i].

    off broadcasts to the n - 1 entries off the diagonal (a scalar, or
    an array of n - 1). rhs has shape (n, ...); every trailing index is
    a column, the columns share one factorization, and the result has
    the shape of rhs. The inputs are left as they were, and the result
    shares no memory with them. An empty system (n = 0), or off or rhs
    of another length, raise ValueError; a pivot that is zero or
    negative, which a positive definite matrix never gives, raises
    ZeroDivisionError.

    Runs LAPACK dptsv (LDL^T, no pivoting) where numpy's OpenBLAS
    exports it, else _thomas_solve, which does the same arithmetic in
    the same order and so gives the same bits.
    """
    if _dptsv is None:
        return _thomas_solve(off, diag, rhs)
    n = _system_size(off, diag, rhs)
    # dptsv overwrites all three, so it gets copies, packed into one
    # fresh buffer (one .ctypes.data lookup serves every pointer): diag,
    # off in an n-wide slot, then rhs in Fortran order, which is the
    # result
    buf = np.empty(2 * n + rhs.size)
    buf[:n] = diag
    buf[n:2 * n - 1] = off
    x = buf[2 * n:].reshape(rhs.shape, order="F")
    x[...] = rhs
    p = buf.ctypes.data
    n_ = ctypes.c_int64(n)
    info = ctypes.c_int64()
    _dptsv(n_, ctypes.c_int64(rhs.size // n), p, p + 8 * n, p + 16 * n,
           n_, info)
    if info.value > 0:
        raise ZeroDivisionError("nonpositive pivot in tridiagonal solve")
    return x


def _system_size(off, diag: np.ndarray, rhs: np.ndarray) -> int:
    """n of a symmetric tridiagonal system, after checking that it has
    one."""
    n = len(diag)
    if n == 0:
        raise ValueError("empty tridiagonal system: diag has length 0")
    if np.shape(off) not in ((), (n - 1,)) or len(rhs) != n:
        raise ValueError("off must broadcast to n - 1 entries and rhs "
                         "must have the length of diag")
    return n


def _thomas_solve(off, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The LDL^T recurrence of LAPACK dptsv, with the contract of
    tridiag_solve.

    It factors as dpttrf does and solves as dptts2 does, operation for
    operation (a one-unknown system is scaled by 1 / diag), so it gives
    dptsv's bits. The recurrences run on Python floats: they are IEEE
    doubles like numpy's, and far cheaper to index one at a time than
    numpy scalars.
    """
    n = _system_size(off, diag, rhs)
    pivots = np.asarray(diag, dtype=float).tolist()
    factors = []
    for i, e in enumerate(np.broadcast_to(off, (n - 1,)).tolist()):
        f = e / pivots[i]           # a zero pivot raises here
        pivots[i + 1] -= f * e
        factors.append(f)
    if any(p <= 0.0 for p in pivots):   # a NaN passes, as in dpttrf
        raise ZeroDivisionError("nonpositive pivot in tridiagonal solve")
    cols = []
    for col in np.reshape(np.asarray(rhs, dtype=float).T, (-1, n)).tolist():
        # L y = b, then D L^T x = y
        y = col[:1]
        for f, b in zip(factors, col[1:]):
            y.append(b - y[-1] * f)
        x = [y[-1] / pivots[-1] if n > 1 else y[0] * (1.0 / pivots[0])]
        for f, yi, d in zip(factors[::-1], y[-2::-1], pivots[-2::-1]):
            x.append(yi / d - x[-1] * f)
        cols.append(x[::-1])
    return np.array(cols).T.reshape(rhs.shape, order="F")


def _solve_blocks(off, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """tridiag_solve for one system per member: diag (R, n), off
    broadcasting to (R, n - 1) (a scalar, an (R, 1) column or the full
    band) and rhs (R, n) or (R, n, m); or one system without the member
    axis.

    The R systems go to tridiag_solve as one block-diagonal system of
    R*n unknowns whose couplings across block edges are zero, so each
    block eliminates exactly as its own solve would, to the bit (for
    n >= 2: dptsv scales a one-unknown system by 1 / diag). A block
    that is not finite would still spread through those couplings
    (0 * nan is nan), so when the result is not finite the blocks are
    solved one by one, and only the blocks at fault keep their nan.
    """
    if diag.ndim == 1:
        return tridiag_solve(off, diag, rhs)
    # the band of the block-diagonal system, its block edges zeroed
    band = np.empty(diag.shape)
    band[:, :-1] = off
    band[:, -1] = 0.0
    x = tridiag_solve(band.reshape(-1)[:-1], diag.reshape(-1),
                      rhs.reshape((diag.size,) + rhs.shape[2:]))
    if not np.isfinite(x).all():
        return np.stack([tridiag_solve(e[:-1], d, b)
                         for e, d, b in zip(band, diag, rhs)])
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
    rho_new = rho - (dt / dx) * (flux[..., 1:] - flux[..., :-1])
    f_rho = _source(forcing, "continuity", grid, state.t + dt)
    if f_rho is not None:
        rho_new = rho_new + dt * f_rho
    _check_positive(rho_new, "density became nonpositive", "rho", state.t)
    return rho_new


def velocity_system(grid: GridSpec, params: PhysParams, dt: float,
                    rho_new: np.ndarray, u: np.ndarray, theta: np.ndarray,
                    b: np.ndarray, f_u: Optional[np.ndarray] = None):
    """Implicit system (off, diag, rhs) for the interior longitudinal
    velocity nodes: diag = rho + 2a and off = -a, with a = lam dt / dx^2,
    as tridiag_solve takes them."""
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
    a = params.lam * dt / dx ** 2
    return -a, rho_n[..., 1:-1] + 2 * a, rhs[..., 1:-1]


def advance_velocity(state: FlowState, grid: GridSpec, dt: float,
                     params: PhysParams, rho_new: np.ndarray,
                     forcing: Optional[ForcingSpec] = None) -> np.ndarray:
    f_u = _source(forcing, "momentum", grid, state.t + dt)
    u_new = np.zeros_like(state.u)
    u_new[..., 1:-1] = _solve_blocks(*velocity_system(
        grid, params, dt, rho_new, state.u, state.theta, state.b, f_u))
    return u_new


def transverse_system(grid: GridSpec, params: PhysParams, dt: float,
                      rho_new: np.ndarray, u_new: np.ndarray,
                      w: np.ndarray, b: np.ndarray,
                      wl: float | np.ndarray, wr: float | np.ndarray,
                      f_w: Optional[np.ndarray] = None):
    """Implicit system (off, diag, rhs) for w at the interior nodes:
    diag = rho + 2a and off = -a, with a = mu dt / dx^2.

    w, b and f_w have shape (N+1, 2); the two components share the
    matrix, and rhs has shape (N-1, 2). wl, wr are the Dirichlet values
    at the end-of-step time, one per component or one for both; they
    enter with a, so only where mu > 0. Where mu = 0 the matrix is the
    diagonal rho. A batch adds a leading member axis to rho_new, u_new,
    w and b, and params.mu is then an (R, 1) column, as is off.
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
    rhs_i = rhs[..., 1:-1, :].copy()
    rhs_i[..., 0, :] += a * wl
    rhs_i[..., -1, :] += a * wr
    return -a, rho_n[..., 1:-1] + 2 * a, rhs_i


def advance_transverse(state: FlowState, grid: GridSpec, dt: float,
                       params: PhysParams, bdry: BoundaryData,
                       rho_new: np.ndarray, u_new: np.ndarray,
                       forcing: Optional[ForcingSpec] = None) -> np.ndarray:
    """Transverse velocity update: one implicit solve for every member
    of a batch, mu = 0 being the case with no diffusion.

    The interior nodes solve transverse_system. The wall nodes, where
    u = 0, take the wall value where mu > 0; where mu = 0 they take the
    same update with no diffusion, rho w_t = b_x + f_w, so that w has no
    wall condition there.
    """
    t_new = state.t + dt
    f_w = _source(forcing, "transverse", grid, t_new)
    wall = bdry.at(t_new)
    w_new = np.empty_like(state.w)
    w_new[..., 1:-1, :] = _solve_blocks(*transverse_system(
        grid, params, dt, rho_new, u_new, state.w, state.b, wall, wall, f_w))
    # the wall nodes 0 and N (step N); rho there is that of cells 0 and
    # N-1 (step N-1), which interpolate_to_nodes copies, and b_x is
    # _central_grad's one-sided difference
    n = grid.n_cells
    rho_w = rho_new[..., ::n - 1, None]
    b_x = (state.b[..., 1::n - 1, :] - state.b[..., ::n - 1, :]) / grid.dx
    rhs_w = rho_w * state.w[..., ::n, :] + dt * b_x
    if f_w is not None:
        rhs_w = rhs_w + dt * f_w[::n]
    w_new[..., ::n, :] = np.where(np.greater(params.mu, 0)[..., None],
                                  wall, rhs_w / rho_w)
    return w_new


def induction_system(grid: GridSpec, params: PhysParams, dt: float,
                     u_new: np.ndarray, w: np.ndarray, b: np.ndarray,
                     f_b: Optional[np.ndarray] = None):
    """Implicit system (off, diag, rhs) for b at the interior nodes:
    diag = 1 + 2a and off = -a, with a = nu dt / dx^2.

    w, b and f_b have shape (N+1, 2), and rhs has shape (N-1, 2). A
    batch adds a leading member axis to u_new, w, b and rhs, but not to
    diag (N-1,): the matrix is the same for every member and both
    components.
    """
    dx = grid.dx
    flux = u_new[..., None] * b - w
    rhs = b - dt * _central_grad(flux, dx)
    if f_b is not None:
        rhs = rhs + dt * f_b
    a = params.nu * dt / dx ** 2
    return -a, np.full(grid.n_cells - 1, 1 + 2 * a), rhs[..., 1:-1, :]


def advance_induction(state: FlowState, grid: GridSpec, dt: float,
                      params: PhysParams, u_new: np.ndarray,
                      w_new: np.ndarray,
                      forcing: Optional[ForcingSpec] = None) -> np.ndarray:
    f_b = _source(forcing, "induction", grid, state.t + dt)
    off, diag, rhs = induction_system(
        grid, params, dt, u_new, w_new, state.b, f_b)
    # one solve, one column per member and component, node axis first;
    # columns share no arithmetic, so a nan stays in its own
    b_new = np.zeros_like(state.b)
    b_new[..., 1:-1, :] = np.moveaxis(
        tridiag_solve(off, diag, np.moveaxis(rhs, -2, 0)), 0, -2)
    return b_new


def temperature_system(grid: GridSpec, params: PhysParams, dt: float,
                       rho_old: np.ndarray, rho_new: np.ndarray,
                       theta: np.ndarray, u_new: np.ndarray,
                       w_new: np.ndarray, b_new: np.ndarray,
                       f_th: Optional[np.ndarray] = None):
    """Implicit cell-centered system (off, diag, rhs) for the
    temperature update: off = -kappa / dx^2 at the interior faces and
    diag = c_v rho / dt minus the off entries of its row.

    Conductivity is frozen at the current state (one Picard sweep); the
    boundary faces carry zero heat flux.
    """
    dx = grid.dx
    c_v = params.c_v
    kap = kappa_eval(rho_new, theta, params)
    kap_face = 0.5 * (kap[..., :-1] + kap[..., 1:])  # interior faces only
    # upwind advection of the old thermal content rho*c_v*theta
    q = rho_old * theta
    flux = np.zeros_like(u_new)
    q_up = np.where(u_new[..., 1:-1] > 0, q[..., :-1], q[..., 1:])
    flux[..., 1:-1] = c_v * q_up * u_new[..., 1:-1]
    u_x = (u_new[..., 1:] - u_new[..., :-1]) / dx
    w_x = (w_new[..., 1:, :] - w_new[..., :-1, :]) / dx
    b_x = (b_new[..., 1:, :] - b_new[..., :-1, :]) / dx
    heat = dissipation_q(u_x, w_x, b_x, params)
    p = params.gamma * rho_new * theta
    rhs = (c_v * rho_old * theta / dt - (flux[..., 1:] - flux[..., :-1]) / dx
           - p * u_x + heat)
    if f_th is not None:
        rhs = rhs + f_th
    off = -kap_face / dx ** 2
    diag = c_v * rho_new / dt
    diag[..., 1:] -= off
    diag[..., :-1] -= off
    return off, diag, rhs


def advance_temperature(state: FlowState, grid: GridSpec, dt: float,
                        params: PhysParams, rho_new: np.ndarray,
                        u_new: np.ndarray, w_new: np.ndarray,
                        b_new: np.ndarray,
                        forcing: Optional[ForcingSpec] = None) -> np.ndarray:
    f_th = _source(forcing, "energy", grid, state.t + dt)
    theta_new = _solve_blocks(*temperature_system(
        grid, params, dt, state.rho, rho_new, state.theta,
        u_new, w_new, b_new, f_th))
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
                 on_snapshot: Optional[Callable[[FlowState], None]] = None
                 ) -> List[Union[np.ndarray, RunAborted]]:
    """Integrate one member per mu value from initial, one state of grid
    at t = 0, all on one time grid, to t_end.

    The members are the rows of one batch state, member m in row m for
    the whole run, and each step is one step() over the batch. Its dt is
    the smallest CFL step over the rows, at most dt_max. A StepFailure
    in any member halves dt for all; a member that still fails at
    dt_min, or whose CFL step falls below dt_min, leaves with its
    RunAborted. If that member is member 0, the RunAborted is raised at
    once, chained from the StepFailure: every caller compares with or
    reports member 0, so the others are not worth finishing. A member
    >= 1 leaves alone: its row becomes a copy of row 0, with member 0's
    mu, and steps as member 0 does from then on, so it can fail only
    where member 0 fails. Snapshots are taken every snapshot_stride
    accepted steps plus the final state; the diagnostics table has one
    row for the initial state and one for every accepted step.

    No snapshot is kept. on_snapshot(state), if given, is called with
    the batch state at t = 0 and at every snapshot. A caller that wants
    a member's snapshots copies them out of its row there, as run does;
    the row of a member that has left holds member 0's fields.

    Returns per member its diagnostics table, or, for a member >= 1,
    the RunAborted that ended it.
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
    state = FlowState(t=initial.t, **{
        name: np.broadcast_to(getattr(initial, name),
                              (len(mu),) + getattr(initial, name).shape)
        for name in STATE_FIELDS})
    batch = _with_mu(params, mu)
    outcome: list = [None] * len(mu)
    # per accepted step the (R,) diagnostics rows, one per member
    tables = [_diag.record(state, grid, batch)]
    if on_snapshot is not None:
        on_snapshot(state)
    k = 0
    eps = 1e-12 * max(t_end, 1.0)
    while state.t < t_end - eps:
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
            m = exc.member
            aborted = RunAborted({"t": state.t, "reason": exc.reason,
                                  "field": exc.field, "index": exc.index})
            if m == 0:
                raise aborted from exc
            aborted.__cause__ = exc
            outcome[m] = aborted
            rows = np.arange(len(mu))
            rows[m] = 0
            state = FlowState(t=state.t, **{
                name: getattr(state, name)[rows] for name in STATE_FIELDS})
            batch = _with_mu(params, batch.mu[rows])
            continue
        state = new_state
        k += 1
        tables.append(_diag.record(state, grid, batch))
        if (on_snapshot is not None
                and (k % cfg.snapshot_stride == 0 or state.t >= t_end - eps)):
            on_snapshot(state)
    for m, out in enumerate(outcome):
        if out is None:
            outcome[m] = np.array([table[m] for table in tables],
                                  _diag.DIAGNOSTICS_DTYPE)
    return outcome


def run(initial: FlowState, grid: GridSpec, params: PhysParams,
        bdry: BoundaryData, cfg: TimeConfig,
        forcing: Optional[ForcingSpec] = None) -> Trajectory:
    """Integrate to t_end with CFL-controlled steps and dt-halving retry:
    the one-member case of run_lockstep, which raises its RunAborted.

    Each snapshot is copied out of batch row 0 as a FlowState through
    on_snapshot, and the trajectory stacks them once. The copies live
    until then, so run peaks at about twice its trajectory's bytes."""
    states: List[FlowState] = []

    def keep(state: FlowState):
        states.append(FlowState(t=state.t, **{
            name: getattr(state, name)[0] for name in STATE_FIELDS}))

    (table,) = run_lockstep(initial, grid, params, bdry, cfg, (params.mu,),
                            forcing, on_snapshot=keep)
    return Trajectory(states, table)
