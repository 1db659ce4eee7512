"""Manufactured smooth solutions with compensating source terms.

The manufactured fields are compatible with the homogeneous wall
conditions (u = b = 0, theta_x = 0, w matching the zero boundary
preset). The sources are derived for the equations as the scheme
discretises them, with the momentum and transverse updates in the
non-conservative form rho (u_t + u u_x). manufactured_steady and
manufactured_transient keep u identically zero, which exercises every
other term at its formal order; manufactured_advecting adds a nonzero
u, so the advection terms and the continuity source enter too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (BoundaryData, FlowState, GridSpec, PhysParams,
                   Trajectory)
from .diagnostics import error_norms
from .solver import ForcingSpec, TimeConfig, run


def _sympy():
    """sympy and the symbols x, t. sympy is imported on first use, so
    that importing the solver or the command line does not pay for it;
    it caches symbols by name, so every call returns the same x and t."""
    import sympy
    x, t = sympy.symbols("x t", real=True)
    return sympy, x, t


def _lambdify(expr):
    sp, *xt = _sympy()
    f = sp.lambdify(xt, expr, modules="numpy")

    def wrapped(x, t):
        return np.broadcast_to(np.asarray(f(x, t), dtype=float),
                               np.shape(x)).copy()

    return wrapped


def _pair(f1, f2):
    def wrapped(x, t):
        return np.stack([f1(x, t), f2(x, t)], axis=-1)

    return wrapped


@dataclass(frozen=True)
class ManufacturedSolution:
    """Exact fields plus the forcing that makes them solve the system."""

    rho: Callable
    u: Callable
    w: Callable
    b: Callable
    theta: Callable
    forcing: ForcingSpec

    def sampled_state(self, grid: GridSpec, t: float) -> FlowState:
        xn = grid.node_positions
        xc = grid.cell_centers
        u = self.u(xn, t)
        b = self.b(xn, t)
        u[0] = u[-1] = 0.0          # clear roundoff from sin(pi*x) at x=1
        b[0] = b[-1] = 0.0
        return FlowState(t=t, rho=self.rho(xc, t), u=u,
                         w=self.w(xn, t), b=b, theta=self.theta(xc, t))


def _build(params: PhysParams, rho, u, w1, w2, b1, b2,
           theta) -> ManufacturedSolution:
    """Derive the compensating sources symbolically from the field
    expressions."""
    sp, x, t = _sympy()
    lam, mu, nu = params.lam, params.mu, params.nu
    gamma, c_v = params.gamma, params.c_v
    km = params.kappa_model
    p = gamma * rho * theta
    bsq = b1 ** 2 + b2 ** 2
    kap = km.kappa1 * (1 + theta ** km.q) + km.kappa2 * rho
    heat = (lam * sp.diff(u, x) ** 2
            + mu * (sp.diff(w1, x) ** 2 + sp.diff(w2, x) ** 2)
            + nu * (sp.diff(b1, x) ** 2 + sp.diff(b2, x) ** 2))
    f_rho = sp.diff(rho, t) + sp.diff(rho * u, x)
    # the scheme advances rho (u_t + u u_x), which is the conservative
    # (rho u)t + (rho u^2)x less u times the continuity residual f_rho
    f_u = (sp.diff(rho * u, t)
           + sp.diff(rho * u ** 2 + p + bsq / 2, x)
           - lam * sp.diff(u, x, 2) - u * f_rho)
    f_w = [sp.diff(rho * wk, t) + sp.diff(rho * u * wk - bk, x)
           - mu * sp.diff(wk, x, 2) - wk * f_rho
           for wk, bk in ((w1, b1), (w2, b2))]
    f_b = [sp.diff(bk, t) + sp.diff(u * bk - wk, x)
           - nu * sp.diff(bk, x, 2)
           for wk, bk in ((w1, b1), (w2, b2))]
    f_th = (sp.diff(rho * c_v * theta, t)
            + sp.diff(rho * u * c_v * theta, x)
            + p * sp.diff(u, x)
            - sp.diff(kap * sp.diff(theta, x), x)
            - heat)
    forcing = ForcingSpec(
        continuity=_lambdify(f_rho),
        momentum=_lambdify(f_u),
        transverse=_pair(_lambdify(f_w[0]), _lambdify(f_w[1])),
        induction=_pair(_lambdify(f_b[0]), _lambdify(f_b[1])),
        energy=_lambdify(f_th))
    return ManufacturedSolution(
        rho=_lambdify(rho), u=_lambdify(u),
        w=_pair(_lambdify(w1), _lambdify(w2)),
        b=_pair(_lambdify(b1), _lambdify(b2)),
        theta=_lambdify(theta), forcing=forcing)


def _steady_fields(u) -> tuple:
    """The steady (rho, u, w1, w2, b1, b2, theta) with the given u."""
    sp, x, _ = _sympy()
    pi = sp.pi
    rho = 1 + sp.Rational(3, 10) * sp.cos(2 * pi * x)
    w1 = sp.Rational(1, 2) * sp.sin(pi * x)
    w2 = -sp.Rational(3, 10) * sp.sin(2 * pi * x)
    b1 = sp.Rational(2, 5) * sp.sin(pi * x)
    b2 = sp.Rational(1, 5) * sp.sin(2 * pi * x)
    theta = 1 + sp.Rational(1, 5) * sp.cos(pi * x)
    return rho, u, w1, w2, b1, b2, theta


def manufactured_steady(params: PhysParams) -> ManufacturedSolution:
    """Time-independent fields; time discretization error vanishes, so a
    refinement sweep isolates the spatial order."""
    return _build(params, *_steady_fields(0))


def manufactured_advecting(params: PhysParams) -> ManufacturedSolution:
    """The fields of manufactured_steady with u = sin(pi x) / 10: the
    upwind advection of every field and the continuity source enter, so
    a refinement sweep shows first order."""
    sp, x, _ = _sympy()
    return _build(params, *_steady_fields(sp.sin(sp.pi * x) / 10))


def manufactured_transient(params: PhysParams) -> ManufacturedSolution:
    """Time-dependent fields at fixed spatial profiles; a dt refinement at
    fine dx isolates the temporal order."""
    sp, x, t = _sympy()
    pi = sp.pi
    rho = 1 + sp.Rational(1, 5) * sp.cos(2 * pi * x)
    u = sp.Integer(0)
    g = sp.cos(3 * t)
    h = sp.sin(2 * t)
    w1 = sp.Rational(1, 2) * sp.sin(pi * x) * g
    w2 = sp.Rational(1, 4) * sp.sin(2 * pi * x) * h
    b1 = sp.Rational(2, 5) * sp.sin(pi * x) * h
    b2 = sp.Rational(1, 5) * sp.sin(2 * pi * x) * g
    theta = 1 + sp.Rational(1, 5) * sp.cos(pi * x) * sp.cos(2 * t)
    return _build(params, rho, u, w1, w2, b1, b2, theta)


def solution_error(mms: ManufacturedSolution, grid: GridSpec,
                   params: PhysParams, cfg: TimeConfig) -> float:
    """Combined discrete error of a forced run against the exact fields."""
    traj = run(mms.sampled_state(grid, 0.0), grid, params,
               BoundaryData.zero(), cfg, mms.forcing)
    exact = Trajectory([mms.sampled_state(grid, t)
                        for t in traj.snapshot_times], ())
    return error_norms(traj, exact, grid).combined


def spatial_order(params: PhysParams, n_values: Sequence[int] = (32, 64, 128),
                  t_end: float = 0.25,
                  solution: Callable[[PhysParams], ManufacturedSolution]
                  = manufactured_steady) -> tuple:
    """Observed order from a dyadic grid sequence at fixed dt = 0.4 dx."""
    mms = solution(params)
    errs = []
    for n in n_values:
        grid = GridSpec(n)
        cfg = TimeConfig(t_end=t_end, cfl=0.4, dt_max=0.4 * grid.dx,
                         snapshot_stride=10 ** 6)
        errs.append(solution_error(mms, grid, params, cfg))
    dx = np.array([1.0 / n for n in n_values])
    slope = np.polyfit(np.log(dx), np.log(errs), 1)[0]
    return float(slope), errs


def temporal_order(params: PhysParams) -> tuple:
    """Observed order from the dt refinement 2e-3 -> 1e-3 on 128 cells,
    to t = 0.25."""
    mms = manufactured_transient(params)
    grid = GridSpec(128)
    dt_values = (2e-3, 1e-3)
    errs = []
    for dt in dt_values:
        cfg = TimeConfig(t_end=0.25, cfl=0.9, dt_max=dt,
                         snapshot_stride=10 ** 6)
        errs.append(solution_error(mms, grid, params, cfg))
    slope = np.polyfit(np.log(dt_values), np.log(errs), 1)[0]
    return float(slope), errs
