"""Self-contained verification suites behind the `verify` subcommand.
Each check reports what it measured beside its fixed gate:

- steady state: 200 steps of the uniform rest state on 32 cells move
  no field by more than 1e-13;
- conservation: on a bump run (64 cells, t_end = 0.2) the relative
  mass drift is at most 1e-12, and no step lowers the total entropy by
  more than 10 max(dt) dx;
- oracle equivalence: every implicit sub-step's tridiagonal solve
  matches a dense solve to 1e-12;
- manufactured orders: spatial order at least 1.7 and temporal order
  at least 0.8 (Roache, J. Fluids Eng. 124 (2002)).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .core import (BoundaryData, FlowState, GridSpec, PhysParams,
                   make_initial_state)
from .diagnostics import entropy_monotonicity
from .mms import spatial_order, temporal_order
from .solver import (TimeConfig, induction_system, run, step,
                     temperature_system, transverse_system, tridiag_solve,
                     velocity_system)


def _dense(lower, diag, upper):
    a = np.diag(diag)
    a += np.diag(upper[:-1], 1)
    a += np.diag(lower[1:], -1)
    return a


def _random_state(grid: GridSpec, rng: np.random.Generator) -> FlowState:
    n = grid.n_cells
    u = rng.normal(0, 0.3, n + 1)
    u[0] = u[-1] = 0.0
    b = rng.normal(0, 0.3, (n + 1, 2))
    b[0] = b[-1] = 0.0
    return FlowState(t=0.0, rho=0.5 + rng.random(n),
                     theta=0.5 + rng.random(n), u=u,
                     w=rng.normal(0, 0.5, (n + 1, 2)), b=b)


def check_steady_state() -> dict:
    """The uniform rest state must be a fixed point of the stepper."""
    tol = 1e-13
    grid = GridSpec(32)
    params = PhysParams()
    state = make_initial_state(grid, "uniform")
    bdry = BoundaryData()
    dt = 0.4 * grid.dx
    for _ in range(200):
        state = step(state, grid, dt, params, bdry)
    dev = max(np.abs(state.rho - 1).max(), np.abs(state.theta - 1).max(),
              np.abs(state.u).max(), np.abs(state.w).max(),
              np.abs(state.b).max())
    return {"passed": bool(dev <= tol), "value": float(dev),
            "threshold": tol}


def check_conservation() -> dict:
    """Mass invariance and entropy monotonicity on a smooth bump run."""
    tol_mass = 1e-12
    grid = GridSpec(64)
    params = PhysParams()
    cfg = TimeConfig(t_end=0.2)
    traj = run(make_initial_state(grid, "bump"), grid, params,
               BoundaryData(), cfg)
    masses = traj.diagnostics["mass"]
    drift = float(np.abs(masses - masses[0]).max() / masses[0])
    dts = np.diff(traj.diagnostics["t"])
    ent_tol = 10.0 * float(dts.max()) * grid.dx
    ent_min = entropy_monotonicity(traj)
    passed = drift <= tol_mass and ent_min >= -ent_tol
    return {"passed": bool(passed), "value": drift,
            "threshold": tol_mass, "entropy_min_increment": ent_min,
            "entropy_tolerance": ent_tol}


def check_oracle_equivalence(n_states: int = 20, seed: int = 7) -> dict:
    """Each implicit sub-step, with both components of w and b as runs
    solve them, must match a dense solve of the same linear system."""
    tol = 1e-12
    grid = GridSpec(16)
    params = PhysParams(mu=0.05)
    rng = np.random.default_rng(seed)
    dt = 1e-3
    worst = 0.0
    for _ in range(n_states):
        s = _random_state(grid, rng)
        rho_new = s.rho  # systems are checked at a frozen density
        systems = [
            velocity_system(grid, params, dt, rho_new, s.u, s.theta, s.b),
            transverse_system(grid, params, dt, rho_new, s.u, s.w, s.b,
                              0.3, -0.2),
            induction_system(grid, params, dt, s.u, s.w, s.b),
            temperature_system(grid, params, dt, s.rho, rho_new, s.theta,
                               s.u, s.w, s.b)]
        for lower, diag, upper, rhs in systems:
            x = tridiag_solve(lower, diag, upper, rhs)
            x_ref = np.linalg.solve(_dense(lower, diag, upper), rhs)
            worst = max(worst, float(np.abs(x - x_ref).max()))
    return {"passed": bool(worst <= tol), "value": worst, "threshold": tol}


def check_manufactured_orders() -> dict:
    """Observed orders of the steady and transient manufactured
    solutions."""
    spatial_min, temporal_min = 1.7, 0.8
    s_order, s_errs = spatial_order()
    t_order, t_errs = temporal_order()
    passed = s_order >= spatial_min and t_order >= temporal_min
    return {"passed": bool(passed),
            "spatial_order": s_order, "spatial_errors": list(s_errs),
            "spatial_threshold": spatial_min,
            "temporal_order": t_order, "temporal_errors": list(t_errs),
            "temporal_threshold": temporal_min}


def run_all() -> Dict[str, dict]:
    return {
        "steady_state": check_steady_state(),
        "conservation": check_conservation(),
        "oracle_equivalence": check_oracle_equivalence(),
        "manufactured_orders": check_manufactured_orders(),
    }
