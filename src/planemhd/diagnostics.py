"""Computable counterparts of the conserved quantities, weighted norms,
and error functionals used to check the mu-uniform estimates.

Quadrature is midpoint rule in space on cell quantities and trapezoid in
time; gradients are the same forward differences the solver uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple, Union

import numpy as np

from .core import FlowState, GridSpec, PhysParams, Trajectory
from .eos import (dissipation_q, entropy_density, sq_norm,
                  total_energy_density)

WEIGHT_ORDERS = (1, 2, 3, 4)


# One row per recorded state; diagnostics.csv writes these columns in
# this order. w_grad_l2 is the squared L2 norm of w_x, weighted_w_grad_n
# the same norm weighted by omega ** n.
DIAGNOSTICS_DTYPE = np.dtype([(name, np.float64) for name in (
    "t", "mass", "total_energy", "total_entropy", "min_rho", "max_rho",
    "min_theta", "max_theta", "dissipation_integral", "w_grad_l2",
    *(f"weighted_w_grad_{n}" for n in WEIGHT_ORDERS))])


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


def total_energy(fields: Union[FlowState, Trajectory], grid: GridSpec,
                 params: PhysParams):
    """Midpoint-rule integral of the total energy density.

    A float for one state, an (S,) array for a trajectory's snapshots.
    """
    u, w, b = fields.u, fields.w, fields.b
    u_c = 0.5 * (u[..., :-1] + u[..., 1:])
    w_c = 0.5 * (w[..., :-1, :] + w[..., 1:, :])
    b_c = 0.5 * (b[..., :-1, :] + b[..., 1:, :])
    e = total_energy_density(fields.rho, u_c, w_c, b_c, fields.theta,
                             params.c_v)
    return e.sum(axis=-1) * grid.dx


@lru_cache(maxsize=8)
def _omega_powers(grid: GridSpec) -> np.ndarray:
    """The read-only (len(WEIGHT_ORDERS), N) stack of omega ** n at the
    cell centers, computed once per grid.

    One row per order, each om ** n with a scalar exponent: the row sums
    of this C-contiguous stack, times a field, round as the 1-D sum of
    each row does (an integer-array exponent changes some squares in the
    last bit)."""
    om = weight_omega(grid.cell_centers)
    powers = np.stack([om ** n for n in WEIGHT_ORDERS])
    powers.setflags(write=False)
    return powers


def record(state: FlowState, grid: GridSpec, params: PhysParams):
    """One DIAGNOSTICS_DTYPE row per state, read by field name: an
    np.void for one state, an (R,) array for a lockstep batch of R."""
    dx = grid.dx
    rho, theta = state.rho, state.theta
    u_x = np.diff(state.u, axis=-1) / dx
    w_x = np.diff(state.w, axis=-2) / dx
    b_x = np.diff(state.b, axis=-2) / dx
    wg2 = sq_norm(w_x)
    weighted = (_omega_powers(grid) * wg2[..., None, :]).sum(axis=-1) * dx
    entropy = (rho * entropy_density(rho, theta, params.gamma)).sum(
        axis=-1) * dx
    rows = np.empty(rho.shape[:-1], DIAGNOSTICS_DTYPE)
    # in the order of DIAGNOSTICS_DTYPE
    for name, value in zip(DIAGNOSTICS_DTYPE.names, (
            state.t, rho.sum(axis=-1) * dx, total_energy(state, grid, params),
            entropy, rho.min(axis=-1), rho.max(axis=-1),
            theta.min(axis=-1), theta.max(axis=-1),
            dissipation_q(u_x, w_x, b_x, params).sum(axis=-1) * dx,
            wg2.sum(axis=-1) * dx, *weighted.T)):
        rows[name] = value
    return rows[()]


def energy_balance_residual(traj: Trajectory, grid: GridSpec,
                            params: PhysParams) -> np.ndarray:
    """r(t) = E(t) - E(0) - mu * int_0^t (w . w_x)|_0^1 ds per snapshot.

    Wall gradients are one-sided, the time integral is trapezoidal.
    Vanishes at first order in dt on smooth runs.
    """
    t = traj.snapshot_times
    if len(t) < 2:
        raise ValueError("energy balance needs at least two snapshots")
    dx = grid.dx
    energies = total_energy(traj, grid, params)
    w = traj.w
    wx_right = (w[:, -1] - w[:, -2]) / dx
    wx_left = (w[:, 1] - w[:, 0]) / dx
    work_rate = params.mu * (_dot_rows(w[:, -1], wx_right)
                             - _dot_rows(w[:, 0], wx_left))
    work = np.concatenate(
        [[0.0], np.cumsum(0.5 * (work_rate[1:] + work_rate[:-1])
                          * np.diff(t))])
    return energies - energies[0] - work


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (S, 2) arrays. A (1, 2) @ (2, 1)
    matmul per row rounds as np.dot does, where a multiply-and-sum
    differs in the last bit in about a quarter of cases."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def entropy_monotonicity(traj: Trajectory) -> float:
    """Minimum inter-snapshot increment of the total entropy integral."""
    s = traj.diagnostics["total_entropy"]
    if len(s) < 2:
        return 0.0
    return float(np.diff(s).min())


def _check_matched(traj: Trajectory, reference: Trajectory):
    if traj.rho.shape[1:] != reference.rho.shape[1:]:
        raise ValueError("trajectories live on different grids")
    ta, tb = traj.snapshot_times, reference.snapshot_times
    if ta.shape != tb.shape or not np.allclose(ta, tb, rtol=0, atol=1e-12):
        raise ValueError("trajectories have mismatched snapshot times")


def sq_errors(a, b, grid: GridSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Squared L2(Omega) norms of the difference of two sets of fields,
    over any leading axes of their arrays (which broadcast).

    a and b are FlowStates or Trajectories, or anything with their field
    attributes. Returns state_sq, the summed squared norms of the five
    field differences, and grad_sq, those of the differences of u_x, b_x
    and theta_x, each of the leading shape.
    """
    dx = grid.dx
    node_w = np.full(grid.n_cells + 1, dx)
    node_w[0] = node_w[-1] = dx / 2

    def diff(name):
        # one field difference at a time: temporaries hold a single field
        return getattr(a, name) - getattr(b, name)

    def grad_sq(name, axis):
        # axis is the node axis, counted from the end: one row sum takes
        # the nodes and components of one state
        g = (np.diff(diff(name), axis=axis) / dx) ** 2
        lead = g.shape[:g.ndim + axis]
        return g.reshape(lead + (-1,)).sum(axis=-1) * dx

    state_sq = ((diff("rho") ** 2).sum(axis=-1) * dx
                + (diff("theta") ** 2).sum(axis=-1) * dx
                + (diff("u") ** 2 * node_w).sum(axis=-1)
                + ((diff("w") ** 2).sum(axis=-1) * node_w).sum(axis=-1)
                + ((diff("b") ** 2).sum(axis=-1) * node_w).sum(axis=-1))
    return state_sq, grad_sq("u", -1) + grad_sq("b", -2) + grad_sq("theta", -1)


def norms_over_time(state_sq: np.ndarray, grad_sq: np.ndarray,
                    times: np.ndarray) -> ErrorNorms:
    """ErrorNorms from the per-snapshot sq_errors at the snapshot times:
    the max of the state norm, the trapezoid integral of the gradient
    norm."""
    state_error = float(np.sqrt(np.max(state_sq)))
    gradient_error = float(np.sqrt(np.trapezoid(grad_sq, times)))
    return ErrorNorms(state_error=state_error,
                      gradient_error=gradient_error,
                      combined=state_error + gradient_error)


def error_norms(traj: Trajectory, reference: Trajectory,
                grid: GridSpec) -> ErrorNorms:
    """L-infinity-in-time state error plus L2-in-time gradient error.

    The state error sums the five field differences in L2(Omega); the
    gradient error integrates the squared L2 differences of u_x, b_x and
    theta_x over time.
    """
    _check_matched(traj, reference)
    return norms_over_time(*sq_errors(traj, reference, grid),
                           traj.snapshot_times)


def deviation(a, b) -> Tuple[np.ndarray, np.ndarray]:
    """Pointwise max over the fields of |a - b|, over any leading axes.

    Returns the cell-center deviation (rho, theta) and the node deviation
    (u and both components of w and b).
    """
    cell = np.abs(a.rho - b.rho)
    np.maximum(cell, np.abs(a.theta - b.theta), out=cell)
    node = np.abs(a.u - b.u)
    np.maximum(node, np.abs(a.w - b.w).max(axis=-1), out=node)
    np.maximum(node, np.abs(a.b - b.b).max(axis=-1), out=node)
    return cell, node


def deviation_profile(traj: Trajectory, reference: Trajectory
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Pointwise max over time and fields of |traj - reference|: the
    time max of deviation, as a (cell, node) profile."""
    _check_matched(traj, reference)
    cell, node = deviation(traj, reference)
    return cell.max(axis=0), node.max(axis=0)


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


def interior_w_sq(w: np.ndarray, delta: float,
                  grid: GridSpec) -> np.ndarray:
    """Squared L2 norm of w_x over (delta, 1-delta), over any leading
    axes of the node field w (..., N+1, 2)."""
    if not 0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    xc = grid.cell_centers
    mask = (xc > delta) & (xc < 1.0 - delta)
    w_x = np.diff(w, axis=-2) / grid.dx
    # compress keeps each row contiguous, so the row sums round as the
    # sum over one state does (w_x[..., mask, :] would not)
    inside = np.compress(mask, (w_x * w_x).sum(axis=-1), axis=-1)
    return inside.sum(axis=-1) * grid.dx


def interior_w_grad(traj: Trajectory, delta: float, grid: GridSpec) -> float:
    """max over time of the squared L2 norm of w_x over (delta, 1-delta)."""
    return float(interior_w_sq(traj.w, delta, grid).max())
