import numpy as np
import pytest

from planemhd.core import (BoundaryData, FlowState, GridSpec, PhysParams,
                           Trajectory, make_initial_state)
from planemhd.diagnostics import (energy_balance_residual,
                                  entropy_monotonicity, error_norms,
                                  interior_sup_deviation, interior_w_grad,
                                  record, total_energy, weight_omega,
                                  weight_omega_delta)
from planemhd.solver import TimeConfig, run


class TestWeights:
    def test_omega_values(self):
        np.testing.assert_allclose(weight_omega([0.0, 0.25, 0.5, 0.75, 1.0]),
                                   [0.0, 0.25, 0.5, 0.25, 0.0])

    def test_omega_rejects_outside_domain(self):
        with pytest.raises(ValueError):
            weight_omega([-0.1])

    def test_omega_delta_plateau(self):
        x = np.array([0.05, 0.2, 0.5, 0.8, 0.95])
        np.testing.assert_allclose(weight_omega_delta(x, 0.1),
                                   [0.05, 0.1, 0.1, 0.1, 0.05])

    def test_omega_delta_bounds(self):
        with pytest.raises(ValueError):
            weight_omega_delta([0.5], 0.6)
        with pytest.raises(ValueError):
            weight_omega_delta([0.5], 0.0)


def _state_with_w(grid, w_profile):
    n = grid.n_cells
    w = np.zeros((n + 1, 2))
    w[:, 0] = w_profile
    return make_initial_state(grid, {"rho": np.ones(n),
                                     "theta": np.ones(n), "w": w})


def _single_snapshot(state):
    return Trajectory(snapshots=(state,), snapshot_times=np.array([0.0]),
                      diagnostics=(None,))


class TestRecord:
    def test_w_grad_sine_analytic(self):
        """For w1 = sin(pi x) the forward differences are exactly
        (2/dx) sin(pi dx / 2) cos(pi x_c), whose squared midpoint sum is
        available in closed form and tends to pi^2 / 2."""
        grid = GridSpec(256)
        state = _state_with_w(grid, np.sin(np.pi * grid.node_positions))
        rec = record(state, grid, PhysParams())
        amp = (2.0 / grid.dx) * np.sin(np.pi * grid.dx / 2)
        assert rec.w_grad_l2 == pytest.approx(0.5 * amp ** 2, rel=1e-12)
        assert rec.w_grad_l2 == pytest.approx(np.pi ** 2 / 2, rel=1e-4)

    def test_weighted_grad_ordering(self):
        grid = GridSpec(64)
        state = _state_with_w(grid, np.sin(np.pi * grid.node_positions))
        rec = record(state, grid, PhysParams())
        # omega <= 1/2, so higher weight powers shrink the integral
        assert rec.weighted_w_grad[1] > rec.weighted_w_grad[2] \
            > rec.weighted_w_grad[3] > rec.weighted_w_grad[4]
        assert rec.weighted_w_grad[1] < rec.w_grad_l2

    def test_mass_and_extrema(self):
        grid = GridSpec(32)
        state = make_initial_state(grid, "bump")
        rec = record(state, grid, PhysParams())
        assert rec.mass == pytest.approx(state.rho.sum() * grid.dx)
        assert rec.max_rho == state.rho.max()
        assert rec.min_theta == state.theta.min()


class TestTotalEnergy:
    def test_uniform_rest(self):
        grid = GridSpec(16)
        state = make_initial_state(grid, "uniform")
        assert total_energy(state, grid, PhysParams(c_v=2.0)) \
            == pytest.approx(2.0)


class TestEnergyBalance:
    def test_zero_on_frozen_trajectory(self):
        grid = GridSpec(16)
        s0 = make_initial_state(grid, "uniform")
        s1 = FlowState(t=0.5, rho=s0.rho, u=s0.u, w=s0.w, b=s0.b,
                       theta=s0.theta)
        traj = Trajectory(snapshots=(s0, s1),
                          snapshot_times=np.array([0.0, 0.5]),
                          diagnostics=(None, None))
        res = energy_balance_residual(traj, grid, PhysParams())
        np.testing.assert_allclose(res, 0.0, atol=1e-15)

    def test_small_on_resolved_run(self):
        grid = GridSpec(64)
        params = PhysParams(mu=0.3)
        prof = 0.5 * np.sin(np.pi * grid.node_positions)
        state = _state_with_w(grid, prof)
        cfg = TimeConfig(t_end=0.1, cfl=1.0, dt_max=5e-4)
        traj = run(state, grid, params,
                   BoundaryData.zero(), cfg)
        res = np.abs(energy_balance_residual(traj, grid, params)).max()
        assert res < 5e-4


class TestEntropyMonotonicity:
    def test_nondecreasing_on_smooth_run(self):
        grid = GridSpec(32)
        cfg = TimeConfig(t_end=0.1)
        traj = run(make_initial_state(grid, "bump"), grid, PhysParams(),
                   BoundaryData.zero(), cfg)
        dts = np.diff([d.t for d in traj.diagnostics])
        assert entropy_monotonicity(traj) >= -10.0 * dts.max() * grid.dx


class TestErrorNorms:
    def _pair(self, grid, shift):
        n = grid.n_cells
        a = make_initial_state(grid, "uniform")
        b = make_initial_state(grid, {"rho": np.ones(n) + shift,
                                      "theta": np.ones(n)})
        return _single_snapshot(a), _single_snapshot(b)

    def test_identity(self):
        grid = GridSpec(16)
        traj, _ = self._pair(grid, 0.1)
        err = error_norms(traj, traj, grid)
        assert err.combined == 0.0

    def test_symmetry(self):
        grid = GridSpec(16)
        ta, tb = self._pair(grid, 0.1)
        assert error_norms(ta, tb, grid).combined \
            == error_norms(tb, ta, grid).combined

    def test_constant_shift_value(self):
        grid = GridSpec(16)
        ta, tb = self._pair(grid, 0.25)
        err = error_norms(ta, tb, grid)
        assert err.state_error == pytest.approx(0.25)
        assert err.gradient_error == pytest.approx(0.0)

    def test_mismatched_times_rejected(self):
        grid = GridSpec(16)
        s = make_initial_state(grid, "uniform")
        s1 = FlowState(t=0.5, rho=s.rho, u=s.u, w=s.w, b=s.b, theta=s.theta)
        ta = _single_snapshot(s)
        tb = Trajectory(snapshots=(s, s1),
                        snapshot_times=np.array([0.0, 0.5]),
                        diagnostics=(None, None))
        with pytest.raises(ValueError, match="mismatched"):
            error_norms(ta, tb, grid)


class TestInteriorMeasures:
    def test_sup_deviation_known_profile(self):
        grid = GridSpec(128)
        prof = np.exp(-grid.node_positions / 0.05)
        traj = _single_snapshot(_state_with_w(grid, prof))
        ref = _single_snapshot(make_initial_state(grid, "transverse-rest"))
        dev = interior_sup_deviation(traj, ref, 0.2, grid)
        xn = grid.node_positions
        inside = (xn > 0.2) & (xn < 0.8)
        assert dev == pytest.approx(prof[inside].max())

    @pytest.mark.parametrize("delta", [0.01, 0.1, 0.3])
    def test_sup_deviation_takes_every_field_and_snapshot(self, delta):
        """Time and field maxima agree with a per-snapshot computation."""
        grid = GridSpec(40)
        n = grid.n_cells
        rng = np.random.default_rng(7)

        def state(t):
            u = rng.normal(size=n + 1)
            b = rng.normal(size=(n + 1, 2))
            u[0] = u[-1] = 0.0
            b[0] = b[-1] = 0.0
            return FlowState(t=t, rho=0.5 + rng.random(n), u=u,
                             w=rng.normal(size=(n + 1, 2)), b=b,
                             theta=0.5 + rng.random(n))

        times = np.array([0.0, 0.1, 0.2])
        traj = Trajectory(snapshots=[state(t) for t in times],
                          snapshot_times=times, diagnostics=(None,) * 3)
        ref = Trajectory(snapshots=[state(t) for t in times],
                         snapshot_times=times, diagnostics=(None,) * 3)
        xc, xn = grid.cell_centers, grid.node_positions
        mc = (xc > delta) & (xc < 1 - delta)
        mn = (xn > delta) & (xn < 1 - delta)
        expected = max(
            max(np.abs(s.rho - r.rho)[mc].max(),
                np.abs(s.theta - r.theta)[mc].max(),
                np.abs(s.u - r.u)[mn].max(), np.abs(s.w - r.w)[mn].max(),
                np.abs(s.b - r.b)[mn].max())
            for s, r in zip(traj.snapshots, ref.snapshots))
        assert interior_sup_deviation(traj, ref, delta, grid) == expected

    def test_sup_deviation_delta_validation(self):
        grid = GridSpec(128)
        traj = _single_snapshot(make_initial_state(grid, "uniform"))
        with pytest.raises(ValueError):
            interior_sup_deviation(traj, traj, 0.7, grid)

    def test_interior_w_grad_restricts_domain(self):
        grid = GridSpec(128)
        prof = np.exp(-grid.node_positions / 0.02)
        traj = _single_snapshot(_state_with_w(grid, prof))
        full = interior_w_grad(traj, 0.01, grid)
        inner = interior_w_grad(traj, 0.2, grid)
        assert inner < 1e-3 * full
