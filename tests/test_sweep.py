import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planemhd.core import (BoundaryData, FlowState, GridSpec, PhysParams,
                           Trajectory, make_initial_state)
from planemhd.diagnostics import ErrorNorms, interior_sup_deviation
from planemhd.solver import TimeConfig
from planemhd.sweep import (BL_DELTA_CEILING, BLThickness, SweepPlan,
                            SweepResult, _upper_hull, bl_thickness,
                            fit_power_law, run_sweep,
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


def _layer_trajectory(grid, ell, amplitude=1.0):
    n = grid.n_cells
    xn = grid.node_positions
    w = np.zeros((n + 1, 2))
    w[:, 0] = amplitude * np.exp(-xn / ell)
    state = make_initial_state(grid, {"rho": np.ones(n),
                                      "theta": np.ones(n), "w": w})
    return Trajectory(snapshots=(state,), snapshot_times=np.array([0.0]),
                      diagnostics=(None,))


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
        times = 0.1 * np.arange(len(states))
        traj = Trajectory(snapshots=states, snapshot_times=times,
                          diagnostics=(None,) * len(states))
        rest = make_initial_state(grid, "transverse-rest")
        ref = Trajectory(
            snapshots=[FlowState(t=t, rho=rest.rho, u=rest.u, w=rest.w,
                                 b=rest.b, theta=rest.theta)
                       for t in times],
            snapshot_times=times, diagnostics=(None,) * len(states))
        expected = BLThickness(delta=BL_DELTA_CEILING, saturated=True)
        k = 1
        while k * grid.dx <= BL_DELTA_CEILING + 1e-12:
            if interior_sup_deviation(traj, ref, k * grid.dx, grid) <= tol:
                expected = BLThickness(delta=k * grid.dx, saturated=False)
                break
            k += 1
        assert bl_thickness(traj, ref, tol, grid) == expected


class TestSweepPlan:
    def _plan(self, mu_values):
        grid = GridSpec(16)
        return SweepPlan(mu_values=mu_values, grid=grid,
                         params=PhysParams(), bdry=BoundaryData.zero(),
                         time=TimeConfig(t_end=0.01),
                         initial=make_initial_state(grid, "uniform"))

    def test_rejects_nondecreasing(self):
        with pytest.raises(ValueError):
            self._plan((1e-3, 1e-2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            self._plan((1e-2, 0.0))


def _synthetic_result(interior):
    mu = (1e-2, 1e-3, 1e-4, 1e-5)
    deltas = [float(np.sqrt(m)) for m in mu]
    errors = [ErrorNorms(m ** 0.25, 0.0, m ** 0.25) for m in mu]
    grid = GridSpec(16)
    ref = Trajectory(
        snapshots=(make_initial_state(grid, "uniform"),),
        snapshot_times=np.array([0.0]), diagnostics=(None,))
    return SweepResult(mu_values=mu, errors=errors, deltas=deltas,
                       saturated=[False] * 4, scaled_w_grad=[1.0] * 4,
                       summaries=[None] * 4, interior_w_grads=interior,
                       failures=[None] * 4, rate_fit=None,
                       thickness_fit=None, reference=ref)


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
        for s in result.reference.snapshots:
            assert np.all(s.w == 0.0)
