import numpy as np
import pytest

from planemhd.core import (BoundaryData, FlowState, GridSpec, PhysParams,
                           Trajectory, make_initial_state)
from planemhd.diagnostics import (DIAGNOSTICS_DTYPE, WEIGHT_ORDERS,
                                  energy_balance_residual,
                                  entropy_monotonicity, error_norms,
                                  interior_sup_deviation, interior_w_grad,
                                  record, total_energy, weight_omega)
from planemhd.solver import TimeConfig, _with_mu, run


class TestWeights:
    def test_omega_values(self):
        np.testing.assert_allclose(weight_omega([0.0, 0.25, 0.5, 0.75, 1.0]),
                                   [0.0, 0.25, 0.5, 0.25, 0.0])

    def test_omega_rejects_outside_domain(self):
        with pytest.raises(ValueError):
            weight_omega([-0.1])


def _state_with_w(grid, w_profile):
    n = grid.n_cells
    w = np.zeros((n + 1, 2))
    w[:, 0] = w_profile
    return make_initial_state(grid, {"rho": np.ones(n),
                                     "theta": np.ones(n), "w": w})


def _single_snapshot(state):
    return Trajectory((state,), (None,))


def _random_states(grid, times, seed):
    """Random admissible states, one per time, with nonzero w at the
    walls so the energy-balance wall terms do not vanish."""
    n = grid.n_cells
    rng = np.random.default_rng(seed)
    states = []
    for t in times:
        u = rng.normal(size=n + 1)
        b = rng.normal(size=(n + 1, 2))
        u[0] = u[-1] = 0.0
        b[0] = b[-1] = 0.0
        states.append(FlowState(t=t, rho=0.5 + rng.random(n), u=u,
                                w=rng.normal(size=(n + 1, 2)), b=b,
                                theta=0.5 + rng.random(n)))
    return states


class TestRecord:
    def test_w_grad_sine_analytic(self):
        """For w1 = sin(pi x) the forward differences are exactly
        (2/dx) sin(pi dx / 2) cos(pi x_c), whose squared midpoint sum is
        available in closed form and tends to pi^2 / 2."""
        grid = GridSpec(256)
        state = _state_with_w(grid, np.sin(np.pi * grid.node_positions))
        rec = record(state, grid, PhysParams())
        amp = (2.0 / grid.dx) * np.sin(np.pi * grid.dx / 2)
        assert rec["w_grad_l2"] == pytest.approx(0.5 * amp ** 2, rel=1e-12)
        assert rec["w_grad_l2"] == pytest.approx(np.pi ** 2 / 2, rel=1e-4)

    def test_weighted_grad_ordering(self):
        grid = GridSpec(64)
        state = _state_with_w(grid, np.sin(np.pi * grid.node_positions))
        rec = record(state, grid, PhysParams())
        # omega <= 1/2, so higher weight powers shrink the integral
        assert rec["weighted_w_grad_1"] > rec["weighted_w_grad_2"] \
            > rec["weighted_w_grad_3"] > rec["weighted_w_grad_4"]
        assert rec["weighted_w_grad_1"] < rec["w_grad_l2"]

    def test_mass_and_extrema(self):
        grid = GridSpec(32)
        state = make_initial_state(grid, "bump")
        rec = record(state, grid, PhysParams())
        assert rec["mass"] == pytest.approx(state.rho.sum() * grid.dx)
        assert rec["max_rho"] == state.rho.max()
        assert rec["min_theta"] == state.theta.min()

    def test_row_fields(self):
        grid = GridSpec(16)
        rec = record(make_initial_state(grid, "bump"), grid, PhysParams())
        assert rec.dtype == DIAGNOSTICS_DTYPE
        assert DIAGNOSTICS_DTYPE.names == (
            "t", "mass", "total_energy", "total_entropy", "min_rho",
            "max_rho", "min_theta", "max_theta", "dissipation_integral",
            "w_grad_l2", "weighted_w_grad_1", "weighted_w_grad_2",
            "weighted_w_grad_3", "weighted_w_grad_4")

    @pytest.mark.parametrize("n_cells", [8, 50, 100, 200, 511])
    def test_weighted_columns_match_per_order_sums(self, n_cells):
        """Each weighted column equals the 1-D sum of its own order, to
        the bit. A step in w puts all of w_x in one cell, so each weight
        om ** n shows on its own; random profiles check the sums.
        (om ** n with an integer-array exponent differs here in the last
        bit of some squares.)"""
        grid = GridSpec(n_cells)
        x = grid.node_positions
        om = weight_omega(grid.cell_centers)
        rng = np.random.default_rng(n_cells)
        profiles = [(x > c).astype(float) for c in grid.cell_centers]
        profiles += [rng.normal(size=n_cells + 1) for _ in range(10)]
        for profile in profiles:
            state = _state_with_w(grid, profile)
            rec = record(state, grid, PhysParams())
            w_x = np.diff(state.w, axis=0) / grid.dx
            wg2 = (w_x * w_x).sum(axis=-1)
            for n in WEIGHT_ORDERS:
                assert rec[f"weighted_w_grad_{n}"] \
                    == (om ** n * wg2).sum() * grid.dx, n


    def test_batch_rows_match_single_states(self):
        """record over a batch gives, row by row, the record of each
        state, to the bit; each member takes its own mu."""
        grid = GridSpec(64)
        states = _random_states(grid, (0.0, 0.0, 0.0), seed=4)
        batch = FlowState(t=0.0, **{name: np.stack(
            [getattr(s, name) for s in states])
            for name in ("rho", "u", "w", "b", "theta")})
        mu = np.array([0.0, 1e-2, 1e-3])
        rows = record(batch, grid, _with_mu(PhysParams(), mu))
        assert rows.shape == (3,) and rows.dtype == DIAGNOSTICS_DTYPE
        for row, state, m in zip(rows, states, mu):
            one = record(state, grid, PhysParams(mu=m))
            assert np.array_equal(np.array(row), np.array(one))


class TestTotalEnergy:
    def test_uniform_rest(self):
        grid = GridSpec(16)
        state = make_initial_state(grid, "uniform")
        assert total_energy(state, grid, PhysParams(c_v=2.0)) \
            == pytest.approx(2.0)

    def test_trajectory_matches_states(self):
        grid = GridSpec(24)
        params = PhysParams(c_v=1.5)
        states = _random_states(grid, (0.0, 0.1, 0.3), seed=5)
        got = total_energy(Trajectory(states, ()), grid, params)
        assert got.shape == (3,)
        for e, s in zip(got, states):
            assert e == total_energy(s, grid, params)


class TestEnergyBalance:
    def test_zero_on_frozen_trajectory(self):
        grid = GridSpec(16)
        s0 = make_initial_state(grid, "uniform")
        s1 = FlowState(t=0.5, rho=s0.rho, u=s0.u, w=s0.w, b=s0.b,
                       theta=s0.theta)
        traj = Trajectory((s0, s1), (None, None))
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

    def test_matches_per_snapshot_loop(self):
        """Same values as a loop over the states, with np.dot at the
        walls and a trapezoid in time."""
        grid = GridSpec(20)
        params = PhysParams(mu=0.7)
        times = np.array([0.0, 0.05, 0.2, 0.3])
        states = _random_states(grid, times, seed=11)
        dx = grid.dx
        energies = np.array([total_energy(s, grid, params) for s in states])
        rate = np.array([params.mu * (
            np.dot(s.w[-1], (s.w[-1] - s.w[-2]) / dx)
            - np.dot(s.w[0], (s.w[1] - s.w[0]) / dx)) for s in states])
        work = np.concatenate(
            [[0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(times))])
        np.testing.assert_array_equal(
            energy_balance_residual(Trajectory(states, ()), grid, params),
            energies - energies[0] - work)


class TestEntropyMonotonicity:
    def test_nondecreasing_on_smooth_run(self):
        grid = GridSpec(32)
        cfg = TimeConfig(t_end=0.1)
        traj = run(make_initial_state(grid, "bump"), grid, PhysParams(),
                   BoundaryData.zero(), cfg)
        dts = np.diff(traj.diagnostics["t"])
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
        tb = Trajectory((s, s1), (None, None))
        with pytest.raises(ValueError, match="mismatched"):
            error_norms(ta, tb, grid)

    def test_different_grids_rejected(self):
        ta = _single_snapshot(make_initial_state(GridSpec(16), "uniform"))
        tb = _single_snapshot(make_initial_state(GridSpec(32), "uniform"))
        with pytest.raises(ValueError, match="different grids"):
            error_norms(ta, tb, GridSpec(16))

    def test_matches_per_snapshot_loop(self):
        """Same values as a loop over the states: the max in time of the
        summed squared L2 field differences, and the trapezoid in time of
        the squared gradient differences."""
        grid = GridSpec(24)
        times = np.array([0.0, 0.1, 0.15, 0.4])
        sa = _random_states(grid, times, seed=3)
        sb = _random_states(grid, times, seed=4)
        dx = grid.dx
        node_w = np.full(grid.n_cells + 1, dx)
        node_w[0] = node_w[-1] = dx / 2
        state_sq, grad_sq = [], []
        for s, r in zip(sa, sb):
            state_sq.append(
                ((s.rho - r.rho) ** 2).sum() * dx
                + ((s.theta - r.theta) ** 2).sum() * dx
                + ((s.u - r.u) ** 2 * node_w).sum()
                + (((s.w - r.w) ** 2).sum(axis=-1) * node_w).sum()
                + (((s.b - r.b) ** 2).sum(axis=-1) * node_w).sum())
            grad_sq.append(
                ((np.diff(s.u - r.u) / dx) ** 2).sum() * dx
                + ((np.diff(s.b - r.b, axis=0) / dx) ** 2).sum() * dx
                + ((np.diff(s.theta - r.theta) / dx) ** 2).sum() * dx)
        err = error_norms(Trajectory(sa, ()), Trajectory(sb, ()), grid)
        assert err.state_error == np.sqrt(max(state_sq))
        assert err.gradient_error == np.sqrt(np.trapezoid(grad_sq, times))


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

        times = (0.0, 0.1, 0.2)
        states = [state(t) for t in times]
        refs = [state(t) for t in times]
        traj = Trajectory(states, (None,) * 3)
        ref = Trajectory(refs, (None,) * 3)
        xc, xn = grid.cell_centers, grid.node_positions
        mc = (xc > delta) & (xc < 1 - delta)
        mn = (xn > delta) & (xn < 1 - delta)
        expected = max(
            max(np.abs(s.rho - r.rho)[mc].max(),
                np.abs(s.theta - r.theta)[mc].max(),
                np.abs(s.u - r.u)[mn].max(), np.abs(s.w - r.w)[mn].max(),
                np.abs(s.b - r.b)[mn].max())
            for s, r in zip(states, refs))
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

    @pytest.mark.parametrize("delta", [0.01, 0.1, 0.3])
    def test_interior_w_grad_matches_per_snapshot_loop(self, delta):
        grid = GridSpec(40)
        states = _random_states(grid, (0.0, 0.1, 0.2, 0.35), seed=9)
        xc = grid.cell_centers
        mask = (xc > delta) & (xc < 1.0 - delta)
        expected = max(
            float(((np.diff(s.w, axis=0) / grid.dx) ** 2).sum(axis=-1)[mask]
                  .sum() * grid.dx)
            for s in states)
        assert interior_w_grad(Trajectory(states, ()), delta, grid) \
            == expected
