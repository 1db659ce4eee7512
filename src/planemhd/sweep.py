"""mu-sweep orchestration, power-law rate fits, and boundary-layer
thickness estimation against the mu = 0 reference run."""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import (STATE_FIELDS, BoundaryData, FlowState, GridSpec,
                   PhysParams, Trajectory)
from .diagnostics import (ErrorNorms, deviation, deviation_profile,
                          interior_sup, interior_w_sq, norms_over_time,
                          sq_errors)
from .solver import RunAborted, TimeConfig, run_lockstep

DEFAULT_INTERIOR_DELTAS = (0.05, 0.1, 0.2)
BL_DELTA_CEILING = 0.25


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    prefactor: float
    max_log_residual: float


def fit_power_law(points: Sequence[Tuple[float, float]]) -> PowerLawFit:
    """Least-squares fit y = prefactor * x**exponent in log-log space."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 3:
        raise ValueError("fit_power_law needs at least 3 points")
    if np.any(pts <= 0):
        raise ValueError("fit_power_law requires strictly positive "
                         "coordinates")
    lx = np.log(pts[:, 0])
    ly = np.log(pts[:, 1])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = np.abs(ly - (slope * lx + intercept)).max()
    return PowerLawFit(exponent=float(slope),
                       prefactor=float(np.exp(intercept)),
                       max_log_residual=float(resid))


class BLThickness(NamedTuple):
    delta: float
    saturated: bool


def bl_thickness(traj: Trajectory, reference: Trajectory, tol: float,
                 grid: GridSpec) -> BLThickness:
    """Smallest grid multiple of dx (up to 1/4) whose interior excludes
    all deviations above tol; saturates at 1/4 if none qualifies."""
    if not tol > 0:                 # NaN fails too
        raise ValueError("tol must be positive")
    return _thickness(deviation_profile(traj, reference), tol, grid)


def _thickness(profile: Tuple[np.ndarray, np.ndarray], tol: float,
               grid: GridSpec) -> BLThickness:
    """bl_thickness from the time-max deviation profile: each candidate
    interior is a mask over it."""
    k = 1
    while k * grid.dx <= BL_DELTA_CEILING + 1e-12:
        delta = k * grid.dx
        if interior_sup(profile, delta, grid) <= tol:
            return BLThickness(delta=delta, saturated=False)
        k += 1
    return BLThickness(delta=BL_DELTA_CEILING, saturated=True)


@dataclass(frozen=True)
class SweepPlan:
    """Shared scenario plus a strictly decreasing list of mu values."""

    mu_values: Tuple[float, ...]
    grid: GridSpec
    params: PhysParams            # mu is set per member
    bdry: BoundaryData
    time: TimeConfig
    initial: FlowState
    bl_tol: float = 0.05
    interior_deltas: Tuple[float, ...] = DEFAULT_INTERIOR_DELTAS

    def __post_init__(self):
        check_settings(self.mu_values, self.bl_tol, self.interior_deltas)


def check_settings(mu_values: Sequence[float], bl_tol: float,
                   interior_deltas: Sequence[float]) -> None:
    """Raise ValueError, naming the argument first, if a sweep setting
    is out of range: before any run, not in bl_thickness and
    interior_w_grad after the whole sweep is integrated."""
    mu = np.asarray(mu_values, dtype=float)
    if mu.size == 0:
        raise ValueError("mu_values must not be empty")
    if not np.all((mu > 0) & (mu < np.inf)):    # NaN fails too
        raise ValueError("mu_values must be finite and strictly positive")
    if not np.all(np.diff(mu) < 0):
        raise ValueError("mu_values must be strictly decreasing")
    if not 0 < bl_tol < np.inf:
        raise ValueError(f"bl_tol must be "
                         f"{'positive' if np.isfinite(bl_tol) else 'finite'}")
    if len(interior_deltas) == 0:
        raise ValueError("interior_deltas must not be empty")
    if not all(0 < d < 0.5 for d in interior_deltas):
        raise ValueError("interior_deltas must lie in (0, 1/2)")


@dataclass(frozen=True)
class RunSummary:
    """Extremal diagnostics over one run, for the uniform-bound checks."""

    max_theta: float
    min_theta: float
    max_rho: float
    min_rho: float
    max_abs_w: float
    max_w_grad_l2: float


@dataclass
class SweepResult:
    mu_values: Tuple[float, ...]
    errors: List[Optional[ErrorNorms]]
    deltas: List[Optional[float]]
    saturated: List[Optional[bool]]
    scaled_w_grad: List[Optional[float]]   # sqrt(mu) * max_t ||w_x||^2
    summaries: List[Optional[RunSummary]]
    interior_w_grads: dict                 # delta -> list aligned with mu
    failures: List[Optional[dict]]
    rate_fit: Optional[PowerLawFit]
    thickness_fit: Optional[PowerLawFit]
    reference: Trajectory


def _summarize(diagnostics: np.ndarray, max_abs_w: float) -> RunSummary:
    d = diagnostics
    return RunSummary(
        max_theta=float(d["max_theta"].max()),
        min_theta=float(d["min_theta"].min()),
        max_rho=float(d["max_rho"].max()),
        min_rho=float(d["min_rho"].min()),
        max_abs_w=max_abs_w,
        max_w_grad_l2=float(d["w_grad_l2"].max()))


class _Comparison:
    """Compares each member of a lockstep sweep with the mu = 0
    reference, batch row 0, one snapshot at a time, so that no member's
    snapshots are kept.

    Per member it holds the per-snapshot sq_errors, the running max of
    the deviation (the deviation_profile), the running max of the
    interior w_x norm per delta and of |w|. These are the quantities
    error_norms, bl_thickness, interior_w_grad and max |w| take from
    whole trajectories, reduced the same way, so the results are the
    same to the bit. An aborted member's entries are never read.
    """

    def __init__(self, plan: SweepPlan):
        n = len(plan.mu_values) + 1
        self.grid = grid = plan.grid
        self.deltas = plan.interior_deltas
        self.state_sq: List[list] = [[] for _ in range(n)]
        self.grad_sq: List[list] = [[] for _ in range(n)]
        self.cell = np.zeros((n, grid.n_cells))
        self.node = np.zeros((n, grid.n_cells + 1))
        self.w_sq = np.zeros((n, len(self.deltas)))
        self.max_abs_w = np.zeros(n)

    def __call__(self, state: FlowState, members: Sequence[int]):
        if members[0] != 0:             # the reference aborted
            return
        ref = SimpleNamespace(**{name: getattr(state, name)[0]
                                 for name in STATE_FIELDS})
        runs = SimpleNamespace(**{name: getattr(state, name)[1:]
                                  for name in STATE_FIELDS})
        rows = list(members[1:])
        state_sq, grad_sq = sq_errors(runs, ref, self.grid)
        for m, s, g in zip(rows, state_sq, grad_sq):
            self.state_sq[m].append(s)
            self.grad_sq[m].append(g)
        cell, node = deviation(runs, ref)
        self.cell[rows] = np.maximum(self.cell[rows], cell)
        self.node[rows] = np.maximum(self.node[rows], node)
        w_sq = np.stack([interior_w_sq(runs.w, d, self.grid)
                         for d in self.deltas], axis=-1)
        self.w_sq[rows] = np.maximum(self.w_sq[rows], w_sq)
        self.max_abs_w[rows] = np.maximum(self.max_abs_w[rows],
                                          np.abs(runs.w).max(axis=(-2, -1)))

    def errors(self, m: int, times: np.ndarray) -> ErrorNorms:
        return norms_over_time(np.array(self.state_sq[m]),
                               np.array(self.grad_sq[m]), times)

    def thickness(self, m: int, tol: float) -> BLThickness:
        return _thickness((self.cell[m], self.node[m]), tol, self.grid)


def run_sweep(plan: SweepPlan) -> SweepResult:
    """Run the mu = 0 reference and every mu value in lockstep, and
    compare each mu run with the reference as the batch steps. Only the
    reference's snapshots are kept."""
    compare = _Comparison(plan)
    reference, *runs = run_lockstep(plan.initial, plan.grid, plan.params,
                                    plan.bdry, plan.time,
                                    (0.0,) + tuple(plan.mu_values),
                                    on_snapshot=compare, store=(0,))
    if isinstance(reference, RunAborted):
        raise reference
    errors: List[Optional[ErrorNorms]] = []
    deltas: List[Optional[float]] = []
    saturated: List[Optional[bool]] = []
    scaled: List[Optional[float]] = []
    summaries: List[Optional[RunSummary]] = []
    failures: List[Optional[dict]] = []
    interior: dict = {d: [] for d in plan.interior_deltas}
    for m, (mu, diags) in enumerate(zip(plan.mu_values, runs), start=1):
        if isinstance(diags, RunAborted):
            errors.append(None)
            deltas.append(None)
            saturated.append(None)
            scaled.append(None)
            summaries.append(None)
            failures.append(diags.report)
            for d in plan.interior_deltas:
                interior[d].append(None)
            continue
        bl = compare.thickness(m, plan.bl_tol)
        summary = _summarize(diags, float(compare.max_abs_w[m]))
        errors.append(compare.errors(m, reference.snapshot_times))
        deltas.append(bl.delta)
        saturated.append(bl.saturated)
        scaled.append(float(np.sqrt(mu)) * summary.max_w_grad_l2)
        summaries.append(summary)
        failures.append(None)
        for d, w_sq in zip(plan.interior_deltas, compare.w_sq[m]):
            interior[d].append(float(w_sq))
    rate_points = [(mu, e.combined)
                   for mu, e in zip(plan.mu_values, errors)
                   if e is not None and e.combined > 0]
    thick_points = [(mu, d)
                    for mu, d, sat in zip(plan.mu_values, deltas, saturated)
                    if d is not None and not sat]
    rate_fit = fit_power_law(rate_points) if len(rate_points) >= 3 else None
    thickness_fit = (fit_power_law(thick_points)
                     if len(thick_points) >= 3 else None)
    return SweepResult(mu_values=tuple(plan.mu_values), errors=errors,
                       deltas=deltas, saturated=saturated,
                       scaled_w_grad=scaled, summaries=summaries,
                       interior_w_grads=interior, failures=failures,
                       rate_fit=rate_fit, thickness_fit=thickness_fit,
                       reference=reference)


@dataclass(frozen=True)
class TauTableRow:
    mu: float
    delta: float
    tau: float
    w_grad_interior: float


@dataclass(frozen=True)
class ThicknessReport:
    alpha_fit: PowerLawFit
    excluded_saturated: Tuple[float, ...]
    tau_table: Tuple[TauTableRow, ...]
    envelope_c1: float
    envelope_c2: float
    envelope_rel_residual: float


def _upper_hull(tau: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Indices of the upper convex hull vertices, in increasing tau."""
    order = np.argsort(tau)
    hull: List[int] = []
    for i in order:
        while len(hull) >= 2:
            j, k = hull[-2], hull[-1]
            cross = ((tau[k] - tau[j]) * (g[i] - g[j])
                     - (g[k] - g[j]) * (tau[i] - tau[j]))
            if cross < 0:
                break
            hull.pop()
        hull.append(int(i))
    return np.array(hull)


def _envelope(tau: np.ndarray, g: np.ndarray) -> Tuple[float, float, float]:
    """(c1, c2, mean slack) of the line c1*tau + c2 that dominates the
    points (tau, g), tau increasing and distinct, with the least mean
    slack. A dominating line's mean slack is its value at the mean tau
    less the mean g, and every upper-hull edge dominates, so the
    optimum is the upper-hull edge over the mean tau."""
    hull = _upper_hull(tau, g)
    # the mean may round onto an end point of tau
    e = np.clip(np.searchsorted(tau[hull], tau.mean()), 1, len(hull) - 1)
    j, k = hull[e - 1], hull[e]
    c1 = (g[k] - g[j]) / (tau[k] - tau[j])
    c2 = g[j] - c1 * tau[j]
    return float(c1), float(c2), float(((c1 * tau + c2) - g).mean())


def thickness_scaling_report(result: SweepResult) -> ThicknessReport:
    """Report run_sweep's fit delta*(mu) ~ mu**alpha (thickness_fit) and
    tabulate the interior transverse gradient norm against
    tau = sqrt(mu)/delta with an affine envelope fitted over the points
    with tau <= 1.

    The envelope is the affine function that dominates every tabulated
    point while minimizing the mean slack (the least upper affine bound
    in the l1 sense): the edge of the upper convex hull of the scatter
    over the mean tau (see _envelope). The residual is the achieved
    mean slack relative to the largest tabulated norm, so it is small
    exactly when the binding points hug an affine profile."""
    if result.thickness_fit is None:
        raise ValueError("need at least 3 non-saturated thickness "
                         "estimates for a fit")
    excluded = tuple(mu for mu, sat in
                     zip(result.mu_values, result.saturated) if sat)
    rows = []
    for delta, vals in sorted(result.interior_w_grads.items()):
        for mu, g in zip(result.mu_values, vals):
            if g is None:
                continue
            rows.append(TauTableRow(mu=mu, delta=delta,
                                    tau=float(np.sqrt(mu) / delta),
                                    w_grad_interior=g))
    fitted = [(r.tau, r.w_grad_interior) for r in rows if r.tau <= 1.0]
    if len(fitted) < 2:
        raise ValueError("need at least 2 rows with tau <= 1 for the "
                         "envelope fit")
    tau = np.array([p[0] for p in fitted])
    g = np.array([p[1] for p in fitted])
    binding: dict = {}
    for t, v in zip(tau, g):      # one point per tau: the binding one
        binding[t] = max(binding.get(t, -np.inf), v)
    if len(binding) < 2:
        raise ValueError("envelope fit needs at least 2 distinct tau "
                         "values")
    tau = np.array(sorted(binding))
    g = np.array([binding[t] for t in tau])
    c1, c2, mean_slack = _envelope(tau, g)
    rel = float(mean_slack / max(g.max(), 1e-300))
    return ThicknessReport(alpha_fit=result.thickness_fit,
                           excluded_saturated=excluded,
                           tau_table=tuple(rows),
                           envelope_c1=c1, envelope_c2=c2,
                           envelope_rel_residual=rel)
