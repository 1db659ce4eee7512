"""mu-sweep orchestration, power-law rate fits, boundary-layer
thickness estimation against the mu = 0 reference run, and the one
report of a sweep's numbers (report)."""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from types import SimpleNamespace
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import (STATE_FIELDS, BoundaryData, FlowState, GridSpec,
                   PhysParams, Trajectory)
from .diagnostics import (ErrorNorms, deviation, deviation_profile,
                          interior, interior_w_sq, norms_over_time,
                          sq_errors, wall_cells)
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
    """Smallest grid multiple of dx (up to 1/4) whose diagnostics.interior
    excludes all deviations above tol; saturates at 1/4 if none
    qualifies, and is 0 (no layer) if no deviation exceeds tol."""
    if not tol > 0:                 # NaN fails too
        raise ValueError("tol must be positive")
    bl = _thickness(deviation_profile(traj, reference), tol, grid)
    return BLThickness(delta=float(bl[0]), saturated=bool(bl[1]))


def _thickness(profile: Tuple[np.ndarray, np.ndarray], tol: float,
               grid: GridSpec) -> Tuple[np.ndarray, np.ndarray]:
    """bl_thickness per leading index of the profiles, cell (..., N) and
    node (..., N+1). (k dx, 1 - k dx) leaves out a node m wall_cells from
    the wall when m <= k and a cell when m + 1 <= k, so k is the largest
    such bound over the points above tol (a NaN is), and at least 1."""
    cell_m, node_m = wall_cells(grid)
    above_cell, above_node = ~(profile[0] <= tol), ~(profile[1] <= tol)
    k = np.maximum(np.where(above_node, node_m, 1).max(axis=-1),
                   np.where(above_cell, cell_m + 1, 1).max(axis=-1))
    saturated = k > BL_DELTA_CEILING * grid.n_cells
    delta = np.where(saturated, BL_DELTA_CEILING, k * grid.dx)
    layer = above_cell.any(axis=-1) | above_node.any(axis=-1)
    return np.where(layer, delta, 0.0), saturated


@dataclass(frozen=True)
class SweepPlan:
    """Shared scenario plus a strictly decreasing list of mu values."""

    mu_values: Tuple[float, ...]
    grid: GridSpec
    params: PhysParams            # mu is set per member
    bdry: BoundaryData
    time: TimeConfig
    initial: FlowState
    bl_tol: Optional[float] = None   # None: default_bl_tol(bdry.amplitude)
    interior_deltas: Tuple[float, ...] = DEFAULT_INTERIOR_DELTAS

    def __post_init__(self):
        if self.bl_tol is None:
            object.__setattr__(self, "bl_tol",
                               default_bl_tol(self.bdry.amplitude))
        check_settings(self.mu_values, self.bl_tol, self.interior_deltas,
                       self.grid)


def default_bl_tol(amplitude: float) -> float:
    """The bl_tol of a sweep that names none: 5% of the wall amplitude."""
    return 0.05 * max(abs(amplitude), 1e-12)


def check_settings(mu_values: Sequence[float], bl_tol: float,
                   interior_deltas: Sequence[float], grid: GridSpec) -> None:
    """Raise ValueError, naming the argument first, if a sweep setting
    is out of range on grid: before any run, not in bl_thickness and
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
    if len(set(interior_deltas)) < len(interior_deltas):
        raise ValueError("interior_deltas must be distinct")
    if not all(interior(grid, d)[0].any() for d in interior_deltas):
        raise ValueError(f"interior_deltas must each keep a cell centre of "
                         f"the {grid.n_cells}-cell grid inside "
                         "(delta, 1 - delta)")


@dataclass(frozen=True)
class RunSummary:
    """Extremal diagnostics over one run, for the uniform-bound checks."""

    max_theta: float
    min_theta: float
    max_rho: float
    min_rho: float
    max_abs_w: float
    max_w_grad_l2: float


STATUSES = ("ok", "saturated", "no-layer", "failed")


@dataclass(frozen=True)
class ReferenceRun:
    """What a sweep keeps of its mu = 0 reference: the snapshot times it
    shares with every member, its diagnostics table (one row for t = 0
    and one per accepted step), and its RunSummary, made as the
    members' are. Its snapshots are not kept."""

    snapshot_times: np.ndarray
    diagnostics: np.ndarray
    summary: RunSummary


@dataclass
class SweepResult:
    """A sweep's member columns, each aligned with mu_values, and what
    it keeps of the mu = 0 reference (a ReferenceRun, no snapshots). A
    member's status is ok; saturated, when no interior up to
    delta = 1/4 excludes the deviations above bl_tol; no-layer, when
    none exceeds bl_tol (delta* = 0); or failed, when its run aborted
    (its entry in failures is the abort report, and its other entries
    are None). The rate and alpha fits are derived from the columns
    (fit), not stored beside them."""

    mu_values: Tuple[float, ...]
    errors: List[Optional[ErrorNorms]]
    deltas: List[Optional[float]]
    status: List[str]
    summaries: List[Optional[RunSummary]]
    interior_w_grads: dict                 # delta -> list aligned with mu
    failures: List[Optional[dict]]
    reference: ReferenceRun

    def fit(self, name: str) -> Tuple[Optional[PowerLawFit], Optional[str]]:
        """The fit "rate", error ~ mu**p over the members with a nonzero
        error, or "alpha", delta* ~ mu**alpha over the ok members, and
        None; or None and why it cannot be made (see _left_out)."""
        if name == "rate":
            need = "the rate fit needs 3 members with a nonzero error"
            ys = [0.0 if e is None else e.combined for e in self.errors]
            kept = [y > 0 for y in ys]
        elif name == "alpha":
            need = "the alpha fit needs 3 ok members"
            ys = self.deltas
            kept = [s == "ok" for s in self.status]
        else:
            raise ValueError(f"unknown fit {name!r}")
        points = [(mu, y) for mu, y, k in zip(self.mu_values, ys, kept) if k]
        if len(points) < 3:
            return None, _left_out(need, kept, self.status)
        return fit_power_law(points), None

    @property
    def rate_fit(self) -> Optional[PowerLawFit]:
        return self.fit("rate")[0]

    @property
    def thickness_fit(self) -> Optional[PowerLawFit]:
        return self.fit("alpha")[0]


def _left_out(need: str, kept: Sequence[bool], status: Sequence[str]) -> str:
    """Why a fit cannot be made: what it needs, how many members it kept,
    and the members it left out, counted by status."""
    left = Counter(s for s, k in zip(status, kept) if not k)
    causes = ", ".join(f"{left[s]} {s}" for s in STATUSES if left[s])
    return f"{need}; kept {sum(kept)}, left out {causes or 'none'}"


def _summarize(d: np.ndarray, max_abs_w: float) -> RunSummary:
    return RunSummary(
        max_theta=float(d["max_theta"].max()),
        min_theta=float(d["min_theta"].min()),
        max_rho=float(d["max_rho"].max()),
        min_rho=float(d["min_rho"].min()),
        max_abs_w=float(max_abs_w),
        max_w_grad_l2=float(d["w_grad_l2"].max()))


class _Comparison:
    """Compares each member of a lockstep sweep with the mu = 0
    reference, batch row 0, one snapshot at a time, so that no snapshot
    is kept.

    It holds the snapshot times and, per row, the running max of |w|.
    Per member row it also holds the per-snapshot sq_errors, the running
    max of the deviation (the deviation_profile) and the running max of
    the interior w_x norm per delta; row 0, the reference's, stays 0.
    These are the quantities error_norms, bl_thickness, interior_w_grad
    and max |w| take from whole trajectories, reduced the same way, so
    the results are the same to the bit. The row of an aborted member
    follows the reference, and run_sweep reads its entries as None.
    """

    def __init__(self, plan: SweepPlan):
        n = len(plan.mu_values) + 1
        self.grid = grid = plan.grid
        self.deltas = plan.interior_deltas
        self.state_sq: List[np.ndarray] = []
        self.grad_sq: List[np.ndarray] = []
        self.cell = np.zeros((n, grid.n_cells))
        self.node = np.zeros((n, grid.n_cells + 1))
        self.w_sq = np.zeros((n, len(self.deltas)))
        self.max_abs_w = np.zeros(n)
        self.times: List[float] = []

    def __call__(self, state: FlowState):
        self.times.append(state.t)
        np.maximum(self.max_abs_w, np.abs(state.w).max(axis=(-2, -1)),
                   out=self.max_abs_w)
        ref = SimpleNamespace(**{name: getattr(state, name)[0]
                                 for name in STATE_FIELDS})
        runs = SimpleNamespace(**{name: getattr(state, name)[1:]
                                  for name in STATE_FIELDS})
        state_sq, grad_sq = sq_errors(runs, ref, self.grid)
        self.state_sq.append(state_sq)
        self.grad_sq.append(grad_sq)
        cell, node = deviation(runs, ref)
        np.maximum(self.cell[1:], cell, out=self.cell[1:])
        np.maximum(self.node[1:], node, out=self.node[1:])
        w_sq = np.stack([interior_w_sq(runs.w, d, self.grid)
                         for d in self.deltas], axis=-1)
        np.maximum(self.w_sq[1:], w_sq, out=self.w_sq[1:])


def run_sweep(plan: SweepPlan) -> SweepResult:
    """Run the mu = 0 reference and every mu value in lockstep, compare
    each mu run with the reference as the batch steps, and give each
    member its columns and its status. No snapshot is kept: the
    reference is reduced as it steps, as the members are, to a
    ReferenceRun. The fits are made from the columns (SweepResult.fit)."""
    compare = _Comparison(plan)
    reference, *runs = run_lockstep(plan.initial, plan.grid, plan.params,
                                    plan.bdry, plan.time,
                                    (0.0,) + tuple(plan.mu_values),
                                    on_snapshot=compare)
    failed = np.array([isinstance(r, RunAborted) for r in runs])

    def column(values) -> list:     # None for a failed member
        return np.where(failed, None, values).tolist()

    norms = norms_over_time(np.stack(compare.state_sq, axis=-1),
                            np.stack(compare.grad_sq, axis=-1), compare.times)
    deltas, saturated = _thickness((compare.cell[1:], compare.node[1:]),
                                   plan.bl_tol, plan.grid)
    return SweepResult(
        mu_values=tuple(plan.mu_values), deltas=column(deltas),
        errors=column(list(map(ErrorNorms, *(e.tolist() for e in norms)))),
        status=np.select([failed, saturated, deltas > 0],
                         ["failed", "saturated", "ok"], "no-layer").tolist(),
        summaries=[None if f else _summarize(r, w)
                   for f, r, w in zip(failed, runs, compare.max_abs_w[1:])],
        interior_w_grads=dict(zip(plan.interior_deltas,
                                  map(column, compare.w_sq[1:].T))),
        failures=[r.report if f else None for f, r in zip(failed, runs)],
        reference=ReferenceRun(np.array(compare.times), reference,
                               _summarize(reference, compare.max_abs_w[0])))


TAU_COLUMNS = ("mu", "delta", "tau", "w_grad_interior")


@dataclass(frozen=True)
class ThicknessReport:
    alpha_fit: Optional[PowerLawFit]
    tau_table: dict                 # TAU_COLUMNS name -> column
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
    """Report run_sweep's fit delta*(mu) ~ mu**alpha (result.fit("alpha"),
    None when fewer than 3 members are ok) and tabulate the interior
    transverse gradient norm against tau = sqrt(mu)/delta, as the
    columns TAU_COLUMNS, with an affine envelope fitted over the points
    with tau <= 1. The envelope does not use the alpha fit; it raises
    ValueError when there are fewer than 2 distinct tau <= 1, or when
    every binding norm is 0 and there is no layer to bound.

    The envelope is the affine function that dominates every tabulated
    point while minimizing the mean slack (the least upper affine bound
    in the l1 sense): the edge of the upper convex hull of the scatter
    over the mean tau (see _envelope). The residual is the achieved
    mean slack relative to the largest tabulated norm, so it is small
    exactly when the binding points hug an affine profile."""
    rows = [(mu, delta, float(np.sqrt(mu) / delta), g)
            for delta, vals in sorted(result.interior_w_grads.items())
            for mu, g in zip(result.mu_values, vals) if g is not None]
    binding: dict = {}
    for _, _, tau, g in rows:   # one point per tau <= 1: the binding one
        if tau <= 1.0:
            binding[tau] = max(binding.get(tau, -np.inf), g)
    if len(binding) < 2:
        raise ValueError("need at least 2 distinct tau <= 1 for the "
                         "envelope fit")
    tau = np.array(sorted(binding))
    g = np.array([binding[t] for t in tau])
    if not g.max() > 0:
        raise ValueError("need a nonzero interior w_x norm at tau <= 1 "
                         "for the envelope fit")
    c1, c2, mean_slack = _envelope(tau, g)
    return ThicknessReport(alpha_fit=result.fit("alpha")[0],
                           tau_table=dict(zip(TAU_COLUMNS,
                                              map(list, zip(*rows)))),
                           envelope_c1=c1, envelope_c2=c2,
                           envelope_rel_residual=float(mean_slack / g.max()))


def report(result: SweepResult) -> dict:
    """Every number of a sweep, in plain values, for fits.json and the
    CSV tables. It reads the member columns and the fits of result and
    adds the envelope and sqrt(mu) * max_t ||w_x||^2 per member.

    "members" holds, per mu value in order, the errors, delta* and the
    status (see SweepResult), and "reference" the RunSummary of the
    mu = 0 reference. "rate" and "alpha" are result.fit's fits,
    and "envelope" the tau table's affine envelope, with the table, as
    columns, in "tau_table". A fit that cannot be made is None, and
    "<fit>_reason" beside it says why (see _left_out); the tau table is
    None with the envelope."""

    def errors(name):
        return [None if e is None else getattr(e, name)
                for e in result.errors]

    out = {
        "members": {
            "mu": list(result.mu_values),
            "combined_error": errors("combined"),
            "state_error": errors("state_error"),
            "gradient_error": errors("gradient_error"),
            "delta_star": list(result.deltas),
            "status": list(result.status)},
        "envelope": None, "envelope_reason": None, "tau_table": None,
        "excluded_saturated": [mu for mu, s in zip(result.mu_values,
                                                   result.status)
                               if s == "saturated"],
        "scaled_w_grad": [None if s is None else
                          float(np.sqrt(mu)) * s.max_w_grad_l2
                          for mu, s in zip(result.mu_values,
                                           result.summaries)],
        "failures": result.failures,
        "reference": asdict(result.reference.summary)}
    for name in ("rate", "alpha"):
        fit, out[f"{name}_reason"] = result.fit(name)
        out[name] = None if fit is None else asdict(fit)
    try:
        thick = thickness_scaling_report(result)
    except ValueError as exc:       # no envelope to fit
        out["envelope_reason"] = _left_out(
            str(exc), [s != "failed" for s in result.status], result.status)
    else:
        out["envelope"] = {"c1": thick.envelope_c1, "c2": thick.envelope_c2,
                           "rel_residual": thick.envelope_rel_residual}
        out["tau_table"] = thick.tau_table
    return out
