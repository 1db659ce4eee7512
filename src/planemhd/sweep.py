"""mu-sweep orchestration, power-law rate fits, and boundary-layer
thickness estimation against the mu = 0 reference run."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import BoundaryData, FlowState, GridSpec, PhysParams, Trajectory
from .diagnostics import (ErrorNorms, deviation_profile, error_norms,
                          interior_sup, interior_w_grad)
from .solver import RunAborted, TimeConfig, run, run_limit

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
    all deviations above tol; saturates at 1/4 if none qualifies.

    The time-max deviation profile is computed once and each candidate
    interior is a mask over it."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    profile = deviation_profile(traj, reference)
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
    params: PhysParams            # mu field is replaced per run
    bdry: BoundaryData
    time: TimeConfig
    initial: FlowState
    bl_tol: float = 0.05
    interior_deltas: Tuple[float, ...] = DEFAULT_INTERIOR_DELTAS

    def __post_init__(self):
        mu = np.asarray(self.mu_values, dtype=float)
        if np.any(mu <= 0):
            raise ValueError("mu_values must be strictly positive")
        if np.any(np.diff(mu) >= 0):
            raise ValueError("mu_values must be strictly decreasing")


@dataclass(frozen=True)
class RunSummary:
    """Extremal diagnostics over one run, for the uniform-bound checks."""

    max_theta: float
    min_theta: float
    max_rho: float
    min_rho: float
    max_abs_w: float
    max_w_grad_l2: float
    max_weighted_w_grad: float


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


def _summarize(traj: Trajectory) -> RunSummary:
    d = traj.diagnostics
    return RunSummary(
        max_theta=max(r.max_theta for r in d),
        min_theta=min(r.min_theta for r in d),
        max_rho=max(r.max_rho for r in d),
        min_rho=min(r.min_rho for r in d),
        max_abs_w=max(float(np.abs(s.w).max()) for s in traj.snapshots),
        max_w_grad_l2=max(r.w_grad_l2 for r in d),
        max_weighted_w_grad=max(r.weighted_w_grad[1] for r in d))


def _rate_fit_with_exclusion(points: List[Tuple[float, float]]
                             ) -> Optional[PowerLawFit]:
    """Fit, dropping the largest mu if its log residual is an outlier."""
    if len(points) < 3:
        return None
    fit = fit_power_law(points)
    lx = np.log([p[0] for p in points])
    ly = np.log([p[1] for p in points])
    resid = np.abs(ly - (fit.exponent * lx + np.log(fit.prefactor)))
    median = np.median(resid)
    largest = int(np.argmax(lx))
    if median > 0 and resid[largest] > 3 * median and len(points) > 3:
        trimmed = [p for i, p in enumerate(points) if i != largest]
        return fit_power_law(trimmed)
    return fit


def run_sweep(plan: SweepPlan) -> SweepResult:
    """Run the mu = 0 reference once, then each mu value against it."""
    params0 = replace(plan.params, mu=0.0)
    reference = run_limit(plan.initial, plan.grid, params0, plan.bdry,
                          plan.time)
    errors: List[Optional[ErrorNorms]] = []
    deltas: List[Optional[float]] = []
    saturated: List[Optional[bool]] = []
    scaled: List[Optional[float]] = []
    summaries: List[Optional[RunSummary]] = []
    failures: List[Optional[dict]] = []
    interior: dict = {d: [] for d in plan.interior_deltas}
    for mu in plan.mu_values:
        params_mu = replace(plan.params, mu=float(mu))
        try:
            traj = run(plan.initial, plan.grid, params_mu, plan.bdry,
                       plan.time)
        except RunAborted as exc:
            errors.append(None)
            deltas.append(None)
            saturated.append(None)
            scaled.append(None)
            summaries.append(None)
            failures.append(exc.report)
            for d in plan.interior_deltas:
                interior[d].append(None)
            continue
        err = error_norms(traj, reference, plan.grid)
        bl = bl_thickness(traj, reference, plan.bl_tol, plan.grid)
        summary = _summarize(traj)
        errors.append(err)
        deltas.append(bl.delta)
        saturated.append(bl.saturated)
        scaled.append(float(np.sqrt(mu)) * summary.max_w_grad_l2)
        summaries.append(summary)
        failures.append(None)
        for d in plan.interior_deltas:
            interior[d].append(interior_w_grad(traj, d, plan.grid))
    rate_points = [(mu, e.combined)
                   for mu, e in zip(plan.mu_values, errors)
                   if e is not None and e.combined > 0]
    thick_points = [(mu, d)
                    for mu, d, sat in zip(plan.mu_values, deltas, saturated)
                    if d is not None and not sat]
    rate_fit = _rate_fit_with_exclusion(rate_points)
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


def thickness_scaling_report(result: SweepResult) -> ThicknessReport:
    """Fit delta*(mu) ~ mu**alpha and tabulate the interior transverse
    gradient norm against tau = sqrt(mu)/delta with an affine envelope
    fitted over the points with tau <= 1.

    The envelope is the affine function that dominates every tabulated
    point while minimizing the mean slack (the least upper affine bound
    in the l1 sense). Its optimum lies along an edge of the upper convex
    hull of the scatter, so the fit reduces to scanning hull edges. The
    residual is the achieved mean slack relative to the largest
    tabulated norm, so it is small exactly when the binding points hug
    an affine profile."""
    points = [(mu, d) for mu, d, sat in
              zip(result.mu_values, result.deltas, result.saturated)
              if d is not None and not sat]
    excluded = tuple(mu for mu, sat in
                     zip(result.mu_values, result.saturated) if sat)
    if len(points) < 3:
        raise ValueError("need at least 3 non-saturated thickness "
                         "estimates for a fit")
    alpha_fit = fit_power_law(points)
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
    hull = _upper_hull(tau, g)
    best = None
    for j, k in zip(hull[:-1], hull[1:]):
        c1 = (g[k] - g[j]) / (tau[k] - tau[j])
        c2 = g[j] - c1 * tau[j]
        slack = (c1 * tau + c2) - g
        if slack.min() < -1e-9 * max(abs(g).max(), 1.0):
            continue
        cand = (float(slack.mean()), float(c1), float(c2))
        if best is None or cand[0] < best[0]:
            best = cand
    if best is None:
        raise ValueError("no dominating affine envelope found")
    mean_slack, c1, c2_env = best
    rel = float(mean_slack / max(g.max(), 1e-300))
    return ThicknessReport(alpha_fit=alpha_fit,
                           excluded_saturated=excluded,
                           tau_table=tuple(rows),
                           envelope_c1=float(c1), envelope_c2=c2_env,
                           envelope_rel_residual=rel)
