"""Manufactured smooth solutions with compensating source terms.

The manufactured fields are compatible with the homogeneous wall
conditions (u = b = 0, theta_x = 0, w matching the zero boundary
preset). The sources are derived for the equations as the scheme
discretises them, with the momentum and transverse updates in the
non-conservative form rho (u_t + u u_x). manufactured_steady and
manufactured_transient keep u identically zero, which exercises every
other term at its formal order; manufactured_advecting adds a nonzero
u, so the advection terms and the continuity source enter too. The
scheme takes the same non-conservative form at mu = 0, where the
transverse update only loses its diffusion, so sources derived for
mu = 0 by mms_derive hold there too.

The sources are derived ahead of time, for the one parameter set
PARAMS (PhysParams(mu=0.05)) that every forced run uses: mms_derive
derives them with sympy, and its numpy printer writes every field and
source into mms_sources, the checked-in module this one wraps. Running
the manufactured solutions therefore needs numpy only. After changing a
field or the equations in mms_derive, regenerate the sources from the
root of a source checkout with

    PYTHONPATH=src python -m planemhd.mms_derive

tests/test_mms.py checks every printed function, bit for bit, against a
fresh sympy derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import mms_sources
from .core import (BoundaryData, FlowState, GridSpec, PhysParams,
                   Trajectory)
from .diagnostics import error_norms
from .mms_sources import PARAMS
from .solver import ForcingSpec, TimeConfig, run


def _field(solution: str, *names: str):
    """The printed functions `<solution>_<name>` of mms_sources as one
    function of (x, t), which returns a new array of the shape of x,
    also where a function is constant, with a last axis of one entry
    per name when there are two."""
    fs = [getattr(mms_sources, f"{solution}_{name}") for name in names]

    def wrapped(x, t):
        out = np.empty(np.shape(x) + (len(fs),))
        for k, f in enumerate(fs):
            out[..., k] = f(x, t)
        return out if len(fs) > 1 else out[..., 0]

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


def _solution(solution: str) -> ManufacturedSolution:
    def field(name):
        return _field(solution, name)

    def pair(name):
        return _field(solution, name + "1", name + "2")

    forcing = ForcingSpec(continuity=field("f_rho"), momentum=field("f_u"),
                          transverse=pair("f_w"), induction=pair("f_b"),
                          energy=field("f_theta"))
    return ManufacturedSolution(rho=field("rho"), u=field("u"),
                                w=pair("w"), b=pair("b"),
                                theta=field("theta"), forcing=forcing)


def manufactured_steady() -> ManufacturedSolution:
    """Time-independent fields; time discretization error vanishes, so a
    refinement sweep isolates the spatial order."""
    return _solution("steady")


def manufactured_advecting() -> ManufacturedSolution:
    """The fields of manufactured_steady with u = sin(pi x) / 10: the
    upwind advection of every field and the continuity source enter, so
    a refinement sweep shows first order."""
    return _solution("advecting")


def manufactured_transient() -> ManufacturedSolution:
    """Time-dependent fields at fixed spatial profiles; a dt refinement at
    fine dx isolates the temporal order."""
    return _solution("transient")


def solution_error(mms: ManufacturedSolution, grid: GridSpec,
                   params: PhysParams, cfg: TimeConfig) -> float:
    """Combined discrete error of a forced run against the exact fields."""
    traj = run(mms.sampled_state(grid, 0.0), grid, params,
               BoundaryData(), cfg, mms.forcing)
    exact = Trajectory([mms.sampled_state(grid, t)
                        for t in traj.snapshot_times], ())
    return error_norms(traj, exact, grid).combined


def spatial_order(n_values: Sequence[int] = (32, 64, 128),
                  t_end: float = 0.25,
                  solution: Callable[[], ManufacturedSolution]
                  = manufactured_steady) -> tuple:
    """Observed order from a dyadic grid sequence at fixed dt = 0.4 dx."""
    mms = solution()
    errs = []
    for n in n_values:
        grid = GridSpec(n)
        cfg = TimeConfig(t_end=t_end, cfl=0.4, dt_max=0.4 * grid.dx,
                         snapshot_stride=10 ** 6)
        errs.append(solution_error(mms, grid, PARAMS, cfg))
    dx = np.array([1.0 / n for n in n_values])
    slope = np.polyfit(np.log(dx), np.log(errs), 1)[0]
    return float(slope), errs


def temporal_order() -> tuple:
    """Observed order from the dt refinement 2e-3 -> 1e-3 on 128 cells,
    to t = 0.25."""
    mms = manufactured_transient()
    grid = GridSpec(128)
    dt_values = (2e-3, 1e-3)
    errs = []
    for dt in dt_values:
        cfg = TimeConfig(t_end=0.25, cfl=0.9, dt_max=dt,
                         snapshot_stride=10 ** 6)
        errs.append(solution_error(mms, grid, PARAMS, cfg))
    slope = np.polyfit(np.log(dt_values), np.log(errs), 1)[0]
    return float(slope), errs
