import pickle
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import lockstep_trajectories
from planemhd.core import (STATE_FIELDS, BoundaryData, FlowState,
                           GridSpec, PhysParams, Trajectory,
                           make_initial_state)
from planemhd.diagnostics import (ErrorNorms, error_norms,
                                  interior_sup_deviation, interior_w_grad,
                                  record)
from planemhd import solver
from planemhd.solver import RunAborted, StepFailure, TimeConfig, run
from planemhd.sweep import (BL_DELTA_CEILING, BLThickness, ReferenceRun,
                            SweepPlan, SweepResult, _envelope, _summarize,
                            _thickness, _upper_hull, bl_thickness,
                            fit_power_law, report, run_sweep,
                            thickness_scaling_report)


class TestFitPowerLaw:
    def test_exact_recovery(self):
        x = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        fit = fit_power_law(list(zip(x, 3.0 * x ** 0.45)))
        assert fit.exponent == pytest.approx(0.45)
        assert fit.prefactor == pytest.approx(3.0)
        assert fit.max_log_residual < 1e-12

    def test_noise_tolerance(self):
        rng = np.random.default_rng(0)
        x = np.logspace(-5, -2, 8)
        y = 2.0 * x ** 0.5 * np.exp(rng.normal(0, 0.02, 8))
        fit = fit_power_law(list(zip(x, y)))
        assert fit.exponent == pytest.approx(0.5, abs=0.05)

    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            fit_power_law([(1.0, 1.0), (2.0, 2.0)])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_power_law([(1.0, 1.0), (2.0, -2.0), (3.0, 3.0)])

    @given(st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=0.2, max_value=0.8))
    @settings(max_examples=30, deadline=None)
    def test_scale_equivariance(self, c, p):
        x = np.array([1e-4, 1e-3, 1e-2, 1e-1])
        base = fit_power_law(list(zip(x, x ** p)))
        scaled = fit_power_law(list(zip(x, c * x ** p)))
        assert scaled.exponent == pytest.approx(base.exponent, abs=1e-9)
        assert scaled.prefactor == pytest.approx(c * base.prefactor,
                                                 rel=1e-9)


class TestUpperHull:
    def test_collinear(self):
        tau = np.array([0.0, 0.5, 1.0])
        g = 2.0 * tau + 1.0
        hull = _upper_hull(tau, g)
        assert hull[0] == 0 and hull[-1] == 2

    def test_convex_scatter_keeps_endpoints_only(self):
        tau = np.array([0.1, 0.5, 1.0])
        g = np.array([0.001, 0.01, 1.0])
        hull = _upper_hull(tau, g)
        np.testing.assert_array_equal(sorted(hull), [0, 2])

    def test_concave_scatter_keeps_all(self):
        tau = np.array([0.1, 0.5, 1.0])
        g = np.array([0.5, 0.9, 1.0])
        hull = _upper_hull(tau, g)
        assert len(hull) == 3


def _scan_envelope(tau, g):
    """Reference for _envelope: scan the upper-hull edges for the
    dominating one with the least mean slack."""
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
    return best


def _scatters(seed):
    """Random (tau, g) scatters with distinct increasing tau: general
    ones, ones with collinear points, and ones whose mean tau is a hull
    vertex; and one whose mean tau rounds to its least tau."""
    yield 0.75 + np.arange(3) * np.spacing(0.75), np.array([0, 1e-16, 0])
    rng = np.random.default_rng(seed)
    for n in range(2, 12):
        tau = np.unique(rng.random(n))
        yield tau, rng.normal(size=len(tau))
        line = 2.0 - 3.0 * tau
        yield tau, np.where(rng.random(len(tau)) < 0.5, line,
                            line - rng.random(len(tau)))
        # symmetric tau about its middle point, which tops the scatter
        half = np.sort(rng.random(n))
        tau = np.concatenate((-half[::-1], [0.0], half))
        g = -np.abs(tau) * rng.random(len(tau))
        g[n] = 1.0
        yield tau, g


class TestEnvelope:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_hull_edge_scan(self, seed):
        """The upper-hull edge over the mean tau dominates every point
        and has the least mean slack of the dominating hull edges."""
        for tau, g in _scatters(seed):
            c1, c2, slack = _envelope(tau, g)
            scale = np.abs(g).max() + abs(c1) * np.abs(tau).max()
            assert ((c1 * tau + c2) - g).min() >= -1e-12 * scale
            assert slack == pytest.approx(_scan_envelope(tau, g)[0],
                                          rel=1e-12, abs=1e-12 * scale)


def _layer_trajectory(grid, ell, amplitude=1.0):
    n = grid.n_cells
    xn = grid.node_positions
    w = np.zeros((n + 1, 2))
    w[:, 0] = amplitude * np.exp(-xn / ell)
    state = make_initial_state(grid, {"rho": np.ones(n),
                                      "theta": np.ones(n), "w": w})
    return Trajectory((state,), (None,))


class TestBlThickness:
    def test_exponential_layer_width(self):
        grid = GridSpec(128)
        ref = _layer_trajectory(grid, 1.0, amplitude=0.0)
        tol = 0.05
        ell = 0.02
        traj = _layer_trajectory(grid, ell)
        bl = bl_thickness(traj, ref, tol, grid)
        assert not bl.saturated
        # profile drops below tol at -ell*log(tol); allow grid rounding
        assert bl.delta == pytest.approx(-ell * np.log(tol), abs=2 * grid.dx)

    def test_thinner_layer_gives_smaller_delta(self):
        grid = GridSpec(256)
        ref = _layer_trajectory(grid, 1.0, amplitude=0.0)
        d1 = bl_thickness(_layer_trajectory(grid, 0.04), ref, 0.05, grid)
        d2 = bl_thickness(_layer_trajectory(grid, 0.01), ref, 0.05, grid)
        assert d2.delta < d1.delta

    def test_saturation(self):
        grid = GridSpec(64)
        ref = _layer_trajectory(grid, 1.0, amplitude=0.0)
        bl = bl_thickness(_layer_trajectory(grid, 0.2), ref, 1e-9, grid)
        assert bl.saturated
        assert bl.delta == BL_DELTA_CEILING

    def test_no_layer(self):
        """A run that never leaves the reference by more than tol has
        no layer: delta* = 0, not the one-cell interior."""
        grid = GridSpec(64)
        ref = _layer_trajectory(grid, 1.0, amplitude=0.0)
        weak = _layer_trajectory(grid, 0.02, amplitude=0.01)
        for traj in (ref, weak):
            assert bl_thickness(traj, ref, 0.05, grid) == BLThickness(
                delta=0.0, saturated=False)

    def test_tol_validation(self):
        grid = GridSpec(64)
        ref = _layer_trajectory(grid, 1.0, amplitude=0.0)
        with pytest.raises(ValueError):
            bl_thickness(ref, ref, 0.0, grid)

    @given(st.sampled_from([16, 50, 96, 128]),
           st.lists(st.tuples(st.floats(1e-3, 0.3), st.floats(0.0, 2.0),
                              st.floats(1e-3, 0.3), st.floats(0.0, 0.5)),
                    min_size=1, max_size=4),
           st.floats(1e-3, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, n, layers, tol):
        """The one-pass scan returns exactly the smallest k with
        interior_sup_deviation(k*dx) <= tol, else saturates; 0 when no
        deviation anywhere exceeds tol."""
        grid = GridSpec(n)
        xc, xn = grid.cell_centers, grid.node_positions
        states = []
        for i, (ell_w, amp_w, ell_r, amp_r) in enumerate(layers):
            w = np.zeros((n + 1, 2))
            w[:, i % 2] = amp_w * np.exp(-xn / ell_w)
            b = np.zeros((n + 1, 2))
            b[1:-1, 1] = amp_w * np.exp(-(1.0 - xn[1:-1]) / ell_w)
            states.append(FlowState(
                t=0.1 * i, rho=1.0 + amp_r * np.exp(-(1.0 - xc) / ell_r),
                u=np.zeros(n + 1), w=w, b=b, theta=np.ones(n)))
        traj = Trajectory(states, (None,) * len(states))
        rest = make_initial_state(grid, "transverse-rest")
        ref = Trajectory(
            [FlowState(t=s.t, rho=rest.rho, u=rest.u, w=rest.w, b=rest.b,
                       theta=rest.theta) for s in states],
            (None,) * len(states))
        deviates = max(np.abs(getattr(traj, name) - getattr(ref, name)).max()
                       for name in STATE_FIELDS) > tol
        expected = (BLThickness(delta=BL_DELTA_CEILING, saturated=True)
                    if deviates else BLThickness(delta=0.0, saturated=False))
        k = 1
        while deviates and k * grid.dx <= BL_DELTA_CEILING + 1e-12:
            if interior_sup_deviation(traj, ref, k * grid.dx, grid) <= tol:
                expected = BLThickness(delta=k * grid.dx, saturated=False)
                break
            k += 1
        assert bl_thickness(traj, ref, tol, grid) == expected


def _point_deviation(grid, nodes=(), cells=()):
    """A one-snapshot trajectory and its rest reference that differ by 1
    at the given nodes (through w) and cells (through rho)."""
    state = make_initial_state(grid, "transverse-rest")
    w, rho = state.w.copy(), state.rho.copy()
    w[list(nodes), 0] = 1.0
    rho[list(cells)] += 1.0
    traj = FlowState(t=0.0, rho=rho, u=state.u, w=w, b=state.b,
                     theta=state.theta)
    return Trajectory((traj,), (None,)), Trajectory((state,), (None,))


class TestBlThicknessMirror:
    """delta* reads each point by its whole-cell distance to the nearer
    wall, so a profile and its mirror have the same thickness on any
    grid, power of two or not."""

    @pytest.mark.parametrize("n", [96, 384, 1536])
    def test_mirror_has_same_thickness(self, n):
        """One point above tol, at each distance from the left wall up
        to past the 1/4 ceiling, and its mirror at the right wall."""
        grid = GridSpec(n)
        for m in range(n // 4 + 2):
            for left, right in (({"nodes": [m]}, {"nodes": [n - m]}),
                                ({"cells": [m]}, {"cells": [n - 1 - m]})):
                assert (bl_thickness(*_point_deviation(grid, **left), 0.05,
                                     grid)
                        == bl_thickness(*_point_deviation(grid, **right),
                                        0.05, grid)), (m, left)

    def test_first_nodes_give_one_cell(self):
        """Above tol only at nodes 1 and 383 of 384: the interior (dx,
        1 - dx) leaves both out, so delta* is one cell."""
        grid = GridSpec(384)
        assert bl_thickness(*_point_deviation(grid, nodes=(1, 383)), 0.05,
                            grid) == BLThickness(delta=grid.dx,
                                                 saturated=False)

    def test_nan_counts_as_above_tol(self):
        grid = GridSpec(64)
        delta, saturated = _thickness(
            (np.zeros((2, 64)), np.zeros((2, 65))), 0.05, grid)
        assert delta.tolist() == [0.0, 0.0]
        cell, node = np.zeros((2, 64)), np.zeros((2, 65))
        node[0, 5] = np.nan
        cell[1, 60] = np.nan
        delta, saturated = _thickness((cell, node), 0.05, grid)
        assert delta.tolist() == [5 * grid.dx, 4 * grid.dx]
        assert not saturated.any()


class TestSweepPlan:
    def _plan(self, mu_values, bdry=BoundaryData()):
        grid = GridSpec(16)
        return SweepPlan(mu_values=mu_values, grid=grid,
                         params=PhysParams(), bdry=bdry,
                         time=TimeConfig(t_end=0.01),
                         initial=make_initial_state(grid, "uniform"))

    @pytest.mark.parametrize("mu_values", [(1e-2, np.nan, 1e-4),
                                           (np.nan,), (np.inf, 1e-2)])
    def test_rejects_nan(self, mu_values):
        with pytest.raises(ValueError):
            self._plan(mu_values)

    def test_pickles(self):
        """A plan is plain data: it survives a pickle round trip and the
        copy runs the same sweep."""
        plan = self._plan((1e-2, 1e-3, 1e-4),
                          BoundaryData("cosine-ramp", 0.5, 0.005))
        copy = pickle.loads(pickle.dumps(plan))
        for name in ("mu_values", "grid", "params", "bdry", "time",
                     "bl_tol", "interior_deltas"):
            assert getattr(copy, name) == getattr(plan, name), name
        for name in ("rho", "u", "w", "b", "theta"):
            np.testing.assert_array_equal(getattr(copy.initial, name),
                                          getattr(plan.initial, name))
        assert run_sweep(copy).errors == run_sweep(plan).errors

    @pytest.mark.parametrize("kwargs", [
        {"bl_tol": np.nan}, {"bl_tol": -1.0}, {"bl_tol": 0.0},
        {"interior_deltas": (0.7,)}, {"interior_deltas": (0.1, 0.5)},
        {"interior_deltas": (0.0,)}, {"interior_deltas": (np.nan,)},
        {"bl_tol": np.inf}, {"interior_deltas": ()},
        {"interior_deltas": (0.1, 0.1)}, {"interior_deltas": (0.05, 0.49)}])
    def test_rejects_bad_thickness_settings(self, kwargs):
        """bl_tol and interior_deltas are checked before any run, not by
        bl_thickness and interior_w_grad after the whole sweep."""
        with pytest.raises(ValueError):
            replace(self._plan((1e-2, 1e-3, 1e-4)), **kwargs)

    def test_rejects_nondecreasing(self):
        with pytest.raises(ValueError):
            self._plan((1e-3, 1e-2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            self._plan((1e-2, 0.0))

    def test_rejects_empty(self):
        """Not only after the reference run, in the error norms."""
        with pytest.raises(ValueError, match="mu_values must not be empty"):
            self._plan(())


def _synthetic_result(interior):
    mu = (1e-2, 1e-3, 1e-4, 1e-5)
    deltas = [float(np.sqrt(m)) for m in mu]
    errors = [ErrorNorms(m ** 0.25, 0.0, m ** 0.25) for m in mu]
    grid = GridSpec(16)
    table = np.array([record(make_initial_state(grid, "uniform"), grid,
                             PhysParams())])
    ref = ReferenceRun(snapshot_times=np.zeros(1), diagnostics=table,
                       summary=_summarize(table, 0.0))
    return SweepResult(mu_values=mu, errors=errors, deltas=deltas,
                       status=["ok"] * 4, summaries=[None] * 4,
                       interior_w_grads=interior, failures=[None] * 4,
                       reference=ref)


def _dominated(report):
    """The (tau, norm) points of report's tau table with tau <= 1 lie
    on or below its envelope."""
    table = report.tau_table
    return all(g <= report.envelope_c1 * tau + report.envelope_c2 + 1e-12
               for tau, g in zip(table["tau"], table["w_grad_interior"])
               if tau <= 1.0)


class TestThicknessScalingReport:
    def test_affine_data_fits_tightly(self):
        interior = {}
        for d in (0.05, 0.1, 0.2):
            interior[d] = [2.0 * np.sqrt(m) / d + 0.01 for m in
                           (1e-2, 1e-3, 1e-4, 1e-5)]
        report = thickness_scaling_report(_synthetic_result(interior))
        assert report.alpha_fit.exponent == pytest.approx(0.5)
        assert report.envelope_c1 == pytest.approx(2.0, rel=1e-6)
        assert report.envelope_rel_residual < 1e-9
        # envelope dominates every tabulated point
        assert _dominated(report)

    def test_tau_table_filters_large_tau(self):
        interior = {0.05: [1.0, 0.5, 0.2, 0.1],
                    0.1: [0.9, 0.4, 0.15, 0.08],
                    0.2: [0.8, 0.3, 0.1, 0.05]}
        report = thickness_scaling_report(_synthetic_result(interior))
        # mu = 1e-2 with delta = 0.05 has tau = 2 and must appear in the
        # table while only the tau <= 1 rows constrain the envelope
        assert max(report.tau_table["tau"]) == pytest.approx(2.0)
        assert _dominated(report)

    def test_envelope_without_thickness_fit(self):
        """With fewer than 3 ok members no alpha is fitted, and the
        envelope, which does not use it, is still made and reported."""
        interior = {0.1: [0.9, None, 0.15, 0.08]}
        synthetic = _synthetic_result(interior)
        result = replace(synthetic,
                         errors=[e if m != 1 else None
                                 for m, e in enumerate(synthetic.errors)],
                         deltas=[0.25, None, 0.01, 0.0],
                         status=["saturated", "failed", "ok", "no-layer"])
        thick = thickness_scaling_report(result)
        assert thick.alpha_fit is None
        assert thick.envelope_rel_residual >= 0
        rep = report(result)
        assert rep["members"]["status"] == ["saturated", "failed", "ok",
                                            "no-layer"]
        assert rep["members"]["combined_error"][1] is None
        # the saturated and no-layer members have a nonzero error
        assert rep["rate"] == asdict(fit_power_law(
            [(mu, e.combined) for mu, e in zip(result.mu_values,
                                               result.errors)
             if e is not None]))
        assert rep["rate_reason"] is None
        assert rep["alpha"] is None
        assert rep["alpha_reason"] == ("the alpha fit needs 3 ok members; "
                                       "kept 1, left out 1 saturated, "
                                       "1 no-layer, 1 failed")
        assert rep["envelope"] == {"c1": thick.envelope_c1,
                                   "c2": thick.envelope_c2,
                                   "rel_residual": thick.envelope_rel_residual}
        assert rep["envelope_reason"] is None
        assert rep["tau_table"]["w_grad_interior"] == [0.9, 0.15, 0.08]
        assert rep["excluded_saturated"] == [1e-2]

    @pytest.mark.parametrize("interior", [
        {0.125: [1.0, 0.5, None, None]},
        {0.25: [None, 0.5, None, None], 0.125: [None, None, 0.4, None]}],
        ids=["one-row", "shared-tau"])
    def test_raises_without_two_distinct_tau(self, interior):
        """The envelope needs two distinct tau <= 1: one such row, or
        two rows at one tau, give none, and the report says why."""
        # sqrt(mu) = 1/4, 1/8, 1/16, 1/32, so each tau is exact
        mu = (2.0 ** -4, 2.0 ** -6, 2.0 ** -8, 2.0 ** -10)
        result = replace(_synthetic_result(interior), mu_values=mu)
        with pytest.raises(ValueError, match="2 distinct tau <= 1"):
            thickness_scaling_report(result)
        rep = report(result)
        assert rep["envelope"] is None and rep["tau_table"] is None
        assert rep["envelope_reason"].startswith(
            "need at least 2 distinct tau <= 1")
        assert rep["alpha"] is not None

    def test_raises_without_layer(self):
        """Interior w_x norms that are all 0 leave no layer to bound:
        no envelope is fitted, rather than a perfect one of c1 = c2 = 0."""
        result = _synthetic_result({0.1: [0.0] * 4, 0.2: [0.0] * 4})
        with pytest.raises(ValueError, match="nonzero interior w_x norm"):
            thickness_scaling_report(result)
        rep = report(result)
        assert rep["envelope"] is None and rep["tau_table"] is None
        assert rep["envelope_reason"] == (
            "need a nonzero interior w_x norm at tau <= 1 for the envelope "
            "fit; kept 4, left out none")


class TestSweepResultFit:
    def test_fits_follow_the_member_columns(self):
        """Each fit is made from the members its rule keeps, so a
        result cannot hold a fit that disagrees with its members."""
        result = _synthetic_result({0.1: [1.0] * 4})
        mu = result.mu_values
        assert result.fit("rate") == (fit_power_law(
            [(m, m ** 0.25) for m in mu]), None)
        assert result.rate_fit == result.fit("rate")[0]
        assert result.fit("alpha") == (fit_power_law(
            list(zip(mu, result.deltas))), None)
        assert result.thickness_fit == result.fit("alpha")[0]
        result.status[0] = "saturated"
        result.errors[1] = ErrorNorms(0.0, 0.0, 0.0)
        assert result.fit("alpha")[0] == fit_power_law(
            list(zip(mu[1:], result.deltas[1:])))
        assert result.fit("rate")[0] == fit_power_law(
            [(m, m ** 0.25) for i, m in enumerate(mu) if i != 1])

    def test_reasons_count_left_out_members(self):
        result = _synthetic_result({0.1: [1.0] * 4})
        result.errors[2] = result.errors[3] = None
        result.status[2] = result.status[3] = "failed"
        assert result.fit("rate") == (
            None, "the rate fit needs 3 members with a nonzero error; "
            "kept 2, left out 2 failed")
        assert result.fit("alpha") == (
            None, "the alpha fit needs 3 ok members; kept 2, "
            "left out 2 failed")

    def test_rejects_unknown_fit(self):
        with pytest.raises(ValueError, match="unknown fit"):
            _synthetic_result({0.1: [1.0] * 4}).fit("thickness")


class TestRunSweep:
    def test_small_sweep_structure(self):
        grid = GridSpec(16)
        bdry = BoundaryData("cosine-ramp", 0.5, 0.02)
        plan = SweepPlan(
            mu_values=(1e-2, 1e-3, 1e-4), grid=grid, params=PhysParams(),
            bdry=bdry, time=TimeConfig(t_end=0.05),
            initial=make_initial_state(grid, "transverse-rest", bdry))
        result = run_sweep(plan)
        assert result.failures == [None, None, None]
        assert all(e is not None for e in result.errors)
        assert len(result.interior_w_grads[0.1]) == 3
        # the mu = 0 reference keeps the transverse fields at rest
        assert result.reference.summary.max_abs_w == 0.0

    def test_members_without_layer(self):
        """With a wall at rest the transverse fields never leave the
        reference: every member has delta* = 0, and no thickness is
        fitted to the one-cell interiors."""
        grid = GridSpec(16)
        plan = SweepPlan(
            mu_values=(1e-2, 1e-3, 1e-4), grid=grid, params=PhysParams(),
            bdry=BoundaryData(), time=TimeConfig(t_end=0.05),
            initial=make_initial_state(grid, "transverse-rest"))
        result = run_sweep(plan)
        assert result.deltas == [0.0] * 3
        assert result.status == ["no-layer"] * 3
        assert result.thickness_fit is None

    def test_cfl_bound_sweep_completes(self):
        """Where the CFL limit sets dt, it depends on |b| and so on mu:
        solo runs take different steps, and the sweep members still
        share the reference's snapshot times."""
        grid = GridSpec(64)
        bdry = BoundaryData("cosine-ramp", 1.0, 0.25)
        plan = SweepPlan(
            mu_values=(1e-2, 1e-3), grid=grid, params=PhysParams(),
            bdry=bdry, time=TimeConfig(t_end=0.1),
            initial=make_initial_state(grid, "transverse-rest", bdry))
        solo = run(plan.initial, grid, replace(plan.params, mu=1e-3), bdry,
                   plan.time)
        limit = run(plan.initial, grid, replace(plan.params, mu=0.0), bdry,
                    plan.time)
        assert np.diff(limit.diagnostics["t"]).max() < plan.time.dt_max
        assert not np.array_equal(solo.snapshot_times, limit.snapshot_times)
        result = run_sweep(plan)
        assert result.failures == [None, None]
        assert all(e is not None for e in result.errors)
        reference, *members = lockstep_trajectories(
            plan.initial, grid, plan.params, bdry, plan.time,
            (0.0,) + plan.mu_values)
        np.testing.assert_array_equal(reference.snapshot_times,
                                      result.reference.snapshot_times)
        for traj in members:
            np.testing.assert_array_equal(traj.snapshot_times,
                                          reference.snapshot_times)

    def test_reference_abort_ends_the_batch(self, monkeypatch):
        """When the mu = 0 reference aborts, run_sweep raises its
        RunAborted, chained from the StepFailure, and no member takes a
        step past the abort time."""
        plan = _ramp_plan(64, TimeConfig(t_end=0.5, dt_max=5e-4))
        real_step = solver.step
        calls = []

        def step_failing_reference(state, grid, dt, params, *args):
            calls.append(state.t)
            if state.t >= 0.01 and np.ravel(params.mu)[0] == 0.0:
                raise StepFailure("test rejection", "u", 3, state.t,
                                  member=0)
            return real_step(state, grid, dt, params, *args)

        monkeypatch.setattr(solver, "step", step_failing_reference)
        with pytest.raises(RunAborted) as exc:
            run_sweep(plan)
        left_at = exc.value.report["t"]
        assert left_at == pytest.approx(0.01, abs=plan.time.dt_max)
        assert exc.value.report["reason"] == "test rejection"
        assert isinstance(exc.value.__cause__, StepFailure)
        assert [t for t in calls if t > left_at] == []


def _ramp_plan(n_cells, time, mu_values=(1e-2, 1e-3, 1e-4)):
    grid = GridSpec(n_cells)
    bdry = BoundaryData("cosine-ramp", 1.0, 0.25)
    return SweepPlan(
        mu_values=mu_values, grid=grid, params=PhysParams(), bdry=bdry,
        time=time, initial=make_initial_state(grid, "transverse-rest", bdry))


class TestSweepComparison:
    """run_sweep compares each member with the reference as the batch
    steps and keeps no snapshots."""

    @pytest.mark.parametrize("dt_max", [1e-2, 1e-3],
                             ids=["cfl-sets-dt", "dt-max-sets-dt"])
    def test_matches_whole_trajectory_comparisons(self, dt_max):
        """The per-snapshot reductions give exactly what the whole-
        trajectory comparisons give on stored lockstep members, also
        with a final snapshot off the stride."""
        plan = _ramp_plan(64, TimeConfig(t_end=0.1, dt_max=dt_max,
                                         snapshot_stride=3))
        grid = plan.grid
        result = run_sweep(plan)
        reference, *members = lockstep_trajectories(
            plan.initial, grid, plan.params, plan.bdry, plan.time,
            (0.0,) + plan.mu_values)
        steps = np.diff(reference.diagnostics["t"])
        assert (steps.max() < dt_max) == (dt_max == 1e-2)
        assert not all(s == "saturated" for s in result.status)
        for i, traj in enumerate(members):
            assert result.errors[i] == error_norms(traj, reference, grid)
            bl = bl_thickness(traj, reference, plan.bl_tol, grid)
            assert (result.deltas[i], result.status[i] == "saturated") == bl
            for d in plan.interior_deltas:
                assert (result.interior_w_grads[d][i]
                        == interior_w_grad(traj, d, grid))
            assert result.summaries[i] == _summarize(
                traj.diagnostics, float(np.abs(traj.w).max()))

    def test_peak_memory_independent_of_snapshot_count(self):
        """A sweep's traced peak does not grow with its snapshot count:
        with a snapshot at each of 200 steps it stays below 1.5 times
        the peak with a snapshot at the first and last step only, as no
        snapshot, the reference's included, is kept."""
        plan = _ramp_plan(128, TimeConfig(t_end=0.1, dt_max=5e-4),
                          (1e-2, 1e-3, 1e-4, 1e-5))
        # warm the per-grid caches on a short sweep of the same grid
        run_sweep(replace(plan, time=replace(plan.time, t_end=1e-3)))
        peaks = {}
        for stride in (1, 200):
            tracemalloc.start()
            try:
                result = run_sweep(replace(plan, time=replace(
                    plan.time, snapshot_stride=stride)))
                peaks[stride] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(result.reference.snapshot_times) == (
                201 if stride == 1 else 2)
        assert peaks[1] < 1.5 * peaks[200]
