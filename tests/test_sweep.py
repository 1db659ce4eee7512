import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planemhd.core import (STATE_FIELDS, BoundaryData, FlowState,
                           GridSpec, PhysParams, Trajectory,
                           make_initial_state)
from planemhd.diagnostics import (ErrorNorms, error_norms,
                                  interior_sup_deviation, interior_w_grad)
from planemhd.solver import TimeConfig, run, run_lockstep
from planemhd.sweep import (BL_DELTA_CEILING, BLThickness, SweepPlan,
                            SweepResult, _envelope, _summarize,
                            _upper_hull, bl_thickness, fit_power_law,
                            run_sweep, thickness_scaling_report)


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
        interior_sup_deviation(k*dx) <= tol, else saturates."""
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
        expected = BLThickness(delta=BL_DELTA_CEILING, saturated=True)
        k = 1
        while k * grid.dx <= BL_DELTA_CEILING + 1e-12:
            if interior_sup_deviation(traj, ref, k * grid.dx, grid) <= tol:
                expected = BLThickness(delta=k * grid.dx, saturated=False)
                break
            k += 1
        assert bl_thickness(traj, ref, tol, grid) == expected


class TestSweepPlan:
    def _plan(self, mu_values, bdry=BoundaryData.zero()):
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
                          BoundaryData.cosine_ramp(0.5, 0.005))
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
        {"bl_tol": np.inf}, {"interior_deltas": ()}])
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
    ref = Trajectory((make_initial_state(grid, "uniform"),), (None,))
    return SweepResult(mu_values=mu, errors=errors, deltas=deltas,
                       saturated=[False] * 4, scaled_w_grad=[1.0] * 4,
                       summaries=[None] * 4, interior_w_grads=interior,
                       failures=[None] * 4, rate_fit=None,
                       thickness_fit=fit_power_law(list(zip(mu, deltas))),
                       reference=ref)


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
        for row in report.tau_table:
            if row.tau <= 1.0:
                bound = report.envelope_c1 * row.tau + report.envelope_c2
                assert row.w_grad_interior <= bound + 1e-12

    def test_tau_table_filters_large_tau(self):
        interior = {0.05: [1.0, 0.5, 0.2, 0.1],
                    0.1: [0.9, 0.4, 0.15, 0.08],
                    0.2: [0.8, 0.3, 0.1, 0.05]}
        report = thickness_scaling_report(_synthetic_result(interior))
        # mu = 1e-2 with delta = 0.05 has tau = 2 and must appear in the
        # table while only the tau <= 1 rows constrain the envelope
        taus = [r.tau for r in report.tau_table]
        assert max(taus) == pytest.approx(2.0)
        for row in report.tau_table:
            if row.tau <= 1.0:
                bound = report.envelope_c1 * row.tau + report.envelope_c2
                assert row.w_grad_interior <= bound + 1e-12

    def test_raises_without_thickness_fit(self):
        """run_sweep leaves thickness_fit None when fewer than 3 delta*
        are unsaturated; the report has no alpha to give then."""
        interior = {0.1: [0.9, 0.4, 0.15, 0.08]}
        result = replace(_synthetic_result(interior), thickness_fit=None)
        with pytest.raises(ValueError, match="at least 3 non-saturated"):
            thickness_scaling_report(result)


class TestRunSweep:
    def test_small_sweep_structure(self):
        grid = GridSpec(16)
        bdry = BoundaryData.cosine_ramp(0.5, 0.02)
        plan = SweepPlan(
            mu_values=(1e-2, 1e-3, 1e-4), grid=grid, params=PhysParams(),
            bdry=bdry, time=TimeConfig(t_end=0.05),
            initial=make_initial_state(grid, "transverse-rest", bdry))
        result = run_sweep(plan)
        assert result.failures == [None, None, None]
        assert all(e is not None for e in result.errors)
        assert len(result.interior_w_grads[0.1]) == 3
        # the mu = 0 reference keeps the transverse fields at rest
        assert np.all(result.reference.w == 0.0)

    def test_cfl_bound_sweep_completes(self):
        """Where the CFL limit sets dt, it depends on |b| and so on mu:
        solo runs take different steps, and the sweep members still
        share the reference's snapshot times."""
        grid = GridSpec(64)
        bdry = BoundaryData.cosine_ramp(1.0, 0.25)
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
        reference, *members = run_lockstep(
            plan.initial, grid, plan.params, bdry, plan.time,
            (0.0,) + plan.mu_values)
        np.testing.assert_array_equal(reference.snapshot_times,
                                      result.reference.snapshot_times)
        for traj in members:
            np.testing.assert_array_equal(traj.snapshot_times,
                                          reference.snapshot_times)


def _ramp_plan(n_cells, time, mu_values=(1e-2, 1e-3, 1e-4)):
    grid = GridSpec(n_cells)
    bdry = BoundaryData.cosine_ramp(1.0, 0.25)
    return SweepPlan(
        mu_values=mu_values, grid=grid, params=PhysParams(), bdry=bdry,
        time=time, initial=make_initial_state(grid, "transverse-rest", bdry))


class TestSweepComparison:
    """run_sweep compares each member with the reference as the batch
    steps and keeps no member snapshots."""

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
        reference, *members = run_lockstep(
            plan.initial, grid, plan.params, plan.bdry, plan.time,
            (0.0,) + plan.mu_values)
        steps = np.diff(reference.diagnostics["t"])
        assert (steps.max() < dt_max) == (dt_max == 1e-2)
        assert not all(result.saturated)
        for i, traj in enumerate(members):
            assert result.errors[i] == error_norms(traj, reference, grid)
            bl = bl_thickness(traj, reference, plan.bl_tol, grid)
            assert (result.deltas[i], result.saturated[i]) == bl
            for d in plan.interior_deltas:
                assert (result.interior_w_grads[d][i]
                        == interior_w_grad(traj, d, grid))
            assert result.summaries[i] == _summarize(
                traj.diagnostics, float(np.abs(traj.w).max()))

    def test_peak_memory_below_two_reference_copies(self):
        """A sweep's traced peak stays below twice the reference's
        snapshot bytes: member snapshots are never stored."""
        plan = _ramp_plan(128, TimeConfig(t_end=0.1, dt_max=5e-4),
                          (1e-2, 1e-3, 1e-4, 1e-5))
        # warm the per-grid caches on a short sweep of the same grid
        run_sweep(replace(plan, time=replace(plan.time, t_end=1e-3)))
        tracemalloc.start()
        try:
            result = run_sweep(plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ref = result.reference
        assert len(ref.snapshot_times) == 201
        snapshot_bytes = sum(getattr(ref, name).nbytes
                             for name in STATE_FIELDS)
        assert peak < 2 * snapshot_bytes
