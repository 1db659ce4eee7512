"""Computable counterparts of the conserved quantities, weighted norms,
and error functionals used to check the mu-uniform estimates.

Quadrature is midpoint rule in space on cell quantities and trapezoid in
time; gradients are the same forward differences the solver uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .core import FlowState, GridSpec, PhysParams, Trajectory
from .eos import dissipation_q, entropy_density, total_energy_density

WEIGHT_ORDERS = (1, 2, 3, 4)


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    mass: float
    total_energy: float
    total_entropy: float
    min_rho: float
    max_rho: float
    min_theta: float
    max_theta: float
    dissipation_integral: float
    w_grad_l2: float                     # squared L2 norm of w_x
    weighted_w_grad: Dict[int, float]


@dataclass(frozen=True)
class ErrorNorms:
    state_error: float
    gradient_error: float
    combined: float


def weight_omega(x):
    """Distance-to-boundary cutoff: x on [0,1/2], 1-x on [1/2,1]."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("weight_omega requires x in [0, 1]")
    return np.minimum(x, 1.0 - x)


def weight_omega_delta(x, delta: float):
    """Plateau cutoff: x on [0,delta], delta in the middle, 1-x near 1."""
    if not 0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("weight_omega_delta requires x in [0, 1]")
    return np.minimum(np.minimum(x, 1.0 - x), delta)


def _cell_average(node_field: np.ndarray) -> np.ndarray:
    return 0.5 * (node_field[:-1] + node_field[1:])


def total_energy(state: FlowState, grid: GridSpec,
                 params: PhysParams) -> float:
    """Midpoint-rule integral of the total energy density."""
    u_c = _cell_average(state.u)
    w_c = _cell_average(state.w)
    b_c = _cell_average(state.b)
    e = total_energy_density(state.rho, u_c, w_c, b_c, state.theta,
                             params.c_v)
    return float(e.sum() * grid.dx)


def record(state: FlowState, grid: GridSpec,
           params: PhysParams) -> DiagnosticsRecord:
    dx = grid.dx
    mass = float(state.rho.sum() * dx)
    energy = total_energy(state, grid, params)
    entropy = float((state.rho * entropy_density(
        state.rho, state.theta, params.gamma)).sum() * dx)
    u_x = np.diff(state.u) / dx
    w_x = np.diff(state.w, axis=0) / dx
    b_x = np.diff(state.b, axis=0) / dx
    diss = float(dissipation_q(u_x, w_x, b_x, params).sum() * dx)
    wg2 = (w_x * w_x).sum(axis=-1)
    w_grad = float(wg2.sum() * dx)
    om = weight_omega(grid.cell_centers)
    weighted = {n: float((om ** n * wg2).sum() * dx) for n in WEIGHT_ORDERS}
    return DiagnosticsRecord(
        t=state.t, mass=mass, total_energy=energy, total_entropy=entropy,
        min_rho=float(state.rho.min()), max_rho=float(state.rho.max()),
        min_theta=float(state.theta.min()),
        max_theta=float(state.theta.max()),
        dissipation_integral=diss, w_grad_l2=w_grad,
        weighted_w_grad=weighted)


def energy_balance_residual(traj: Trajectory, grid: GridSpec,
                            params: PhysParams) -> np.ndarray:
    """r(t) = E(t) - E(0) - mu * int_0^t (w . w_x)|_0^1 ds per snapshot.

    Wall gradients are one-sided, the time integral is trapezoidal.
    Vanishes at first order in dt on smooth runs.
    """
    if len(traj.snapshots) < 2:
        raise ValueError("energy balance needs at least two snapshots")
    dx = grid.dx
    energies = np.array([total_energy(s, grid, params)
                         for s in traj.snapshots])
    work_rate = np.empty(len(traj.snapshots))
    for i, s in enumerate(traj.snapshots):
        wx_right = (s.w[-1] - s.w[-2]) / dx
        wx_left = (s.w[1] - s.w[0]) / dx
        work_rate[i] = params.mu * (np.dot(s.w[-1], wx_right)
                                    - np.dot(s.w[0], wx_left))
    t = traj.snapshot_times
    work = np.concatenate(
        [[0.0], np.cumsum(0.5 * (work_rate[1:] + work_rate[:-1])
                          * np.diff(t))])
    return energies - energies[0] - work


def entropy_monotonicity(traj: Trajectory) -> float:
    """Minimum inter-snapshot increment of the total entropy integral."""
    s = np.array([d.total_entropy for d in traj.diagnostics])
    if len(s) < 2:
        return 0.0
    return float(np.diff(s).min())


def _check_matched(traj: Trajectory, reference: Trajectory):
    if traj.snapshots[0].n_cells != reference.snapshots[0].n_cells:
        raise ValueError("trajectories live on different grids")
    ta, tb = traj.snapshot_times, reference.snapshot_times
    if len(ta) != len(tb) or not np.allclose(ta, tb, rtol=0, atol=1e-12):
        raise ValueError("trajectories have mismatched snapshot times")


def error_norms(traj: Trajectory, reference: Trajectory,
                grid: GridSpec) -> ErrorNorms:
    """L-infinity-in-time state error plus L2-in-time gradient error.

    The state error sums the five field differences in L2(Omega); the
    gradient error integrates the squared L2 differences of u_x, b_x and
    theta_x over time.
    """
    _check_matched(traj, reference)
    dx = grid.dx
    node_w = np.full(grid.n_cells + 1, dx)
    node_w[0] = node_w[-1] = dx / 2
    state_sq = []
    grad_sq = []
    for s, r in zip(traj.snapshots, reference.snapshots):
        sq = ((s.rho - r.rho) ** 2).sum() * dx
        sq += ((s.theta - r.theta) ** 2).sum() * dx
        sq += ((s.u - r.u) ** 2 * node_w).sum()
        sq += (((s.w - r.w) ** 2).sum(axis=-1) * node_w).sum()
        sq += (((s.b - r.b) ** 2).sum(axis=-1) * node_w).sum()
        state_sq.append(sq)
        du_x = np.diff(s.u - r.u) / dx
        db_x = np.diff(s.b - r.b, axis=0) / dx
        dth_x = np.diff(s.theta - r.theta) / dx
        g = (du_x ** 2).sum() * dx + (db_x ** 2).sum() * dx \
            + (dth_x ** 2).sum() * dx
        grad_sq.append(g)
    state_error = float(np.sqrt(max(state_sq)))
    gradient_error = float(np.sqrt(
        np.trapezoid(np.array(grad_sq), traj.snapshot_times)))
    return ErrorNorms(state_error=state_error,
                      gradient_error=gradient_error,
                      combined=state_error + gradient_error)


def deviation_profile(traj: Trajectory, reference: Trajectory
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Pointwise max over time and fields of |traj - reference|.

    Returns the cell-center profile (rho, theta) and the node profile
    (u and both components of w and b), one pass over the snapshots.
    """
    _check_matched(traj, reference)
    s0 = reference.snapshots[0]
    cell = np.zeros_like(s0.rho)
    node = np.zeros_like(s0.u)
    for s, r in zip(traj.snapshots, reference.snapshots):
        np.maximum(cell, np.abs(s.rho - r.rho), out=cell)
        np.maximum(cell, np.abs(s.theta - r.theta), out=cell)
        np.maximum(node, np.abs(s.u - r.u), out=node)
        np.maximum(node, np.abs(s.w - r.w).max(axis=-1), out=node)
        np.maximum(node, np.abs(s.b - r.b).max(axis=-1), out=node)
    return cell, node


def interior_sup(profile: Tuple[np.ndarray, np.ndarray], delta: float,
                 grid: GridSpec) -> float:
    """Sup of a deviation_profile over the grid points in (delta, 1-delta)."""
    if not 0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    xc = grid.cell_centers
    xn = grid.node_positions
    mc = (xc > delta) & (xc < 1.0 - delta)
    mn = (xn > delta) & (xn < 1.0 - delta)
    if not mc.any() and not mn.any():
        raise ValueError(
            f"no grid point inside ({delta}, {1 - delta}); "
            f"minimum usable delta spacing is dx = {grid.dx}")
    cell, node = profile
    return float(np.concatenate((cell[mc], node[mn])).max())


def interior_sup_deviation(traj: Trajectory, reference: Trajectory,
                           delta: float, grid: GridSpec) -> float:
    """Sup over time and over grid points in (delta, 1-delta) of the
    maximal field deviation."""
    return interior_sup(deviation_profile(traj, reference), delta, grid)


def interior_w_grad(traj: Trajectory, delta: float, grid: GridSpec) -> float:
    """max over time of the squared L2 norm of w_x over (delta, 1-delta)."""
    if not 0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    xc = grid.cell_centers
    mask = (xc > delta) & (xc < 1.0 - delta)
    best = 0.0
    for s in traj.snapshots:
        w_x = np.diff(s.w, axis=0) / grid.dx
        val = float(((w_x * w_x).sum(axis=-1))[mask].sum() * grid.dx)
        best = max(best, val)
    return best
