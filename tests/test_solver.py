import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from planemhd.core import (BoundaryData, FlowState, GridSpec, PhysParams,
                           make_initial_state)
from planemhd.solver import (RunAborted, StepFailure, TimeConfig,
                             advance_density, advance_induction,
                             advance_transverse, run, run_limit, stable_dt,
                             step, tridiag_solve)


def _dense(lower, diag, upper):
    a = np.diag(diag)
    a += np.diag(upper[:-1], 1)
    a += np.diag(lower[1:], -1)
    return a


def _thomas_on_numpy_scalars(lower, diag, upper, rhs):
    """The Thomas recurrence indexed element by element on numpy arrays;
    tridiag_solve must reproduce it bit for bit."""
    n = len(diag)
    c = np.empty(n)
    d = np.empty(n)
    c[0] = upper[0] / diag[0] if n > 1 else 0.0
    d[0] = rhs[0] / diag[0]
    for i in range(1, n):
        piv = diag[i] - lower[i] * c[i - 1]
        if i < n - 1:
            c[i] = upper[i] / piv
        d[i] = (rhs[i] - lower[i] * d[i - 1]) / piv
    x = np.empty(n)
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


class TestTridiag:
    @given(st.integers(min_value=1, max_value=40), st.integers(0, 2 ** 31))
    @settings(max_examples=50, deadline=None)
    def test_matches_dense_solve(self, n, seed):
        rng = np.random.default_rng(seed)
        lower = rng.normal(size=n)
        upper = rng.normal(size=n)
        # force diagonal dominance, as the solver systems guarantee
        diag = 3.0 + np.abs(lower) + np.abs(upper) + rng.random(n)
        rhs = rng.normal(size=n)
        x = tridiag_solve(lower, diag, upper, rhs)
        x_ref = np.linalg.solve(_dense(lower, diag, upper), rhs)
        np.testing.assert_allclose(x, x_ref, atol=1e-12, rtol=1e-12)
        assert np.array_equal(
            x, _thomas_on_numpy_scalars(lower, diag, upper, rhs))

    @given(st.integers(min_value=1, max_value=40), st.integers(0, 2 ** 31))
    @settings(max_examples=50, deadline=None)
    def test_paired_columns(self, n, seed):
        """An (n, 2) right-hand side matches the dense solve, and each
        column is bit for bit the 1-D solve of that column."""
        rng = np.random.default_rng(seed)
        lower = rng.normal(size=n)
        upper = rng.normal(size=n)
        diag = 3.0 + np.abs(lower) + np.abs(upper) + rng.random(n)
        rhs = rng.normal(size=(n, 2))
        x = tridiag_solve(lower, diag, upper, rhs)
        assert x.shape == (n, 2)
        x_ref = np.linalg.solve(_dense(lower, diag, upper), rhs)
        np.testing.assert_allclose(x, x_ref, atol=1e-12, rtol=1e-12)
        for k in (0, 1):
            assert np.array_equal(
                x[:, k], tridiag_solve(lower, diag, upper, rhs[:, k]))

    @pytest.mark.parametrize("shape", [(1,), (1, 2), (2,), (2, 2)])
    def test_smallest_systems(self, shape):
        n = shape[0]
        lower = np.array([7.0, -1.0][:n])     # lower[0] is ignored
        diag = np.array([4.0, 3.0][:n])
        upper = np.array([0.5, 9.0][:n])      # upper[-1] is ignored
        rhs = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
        x = tridiag_solve(lower, diag, upper, rhs)
        assert x.shape == shape
        np.testing.assert_allclose(
            x, np.linalg.solve(_dense(lower, diag, upper), rhs),
            atol=1e-15, rtol=1e-15)

    def test_zero_pivot(self):
        for cols in ((), (2,)):
            with pytest.raises(ZeroDivisionError):
                tridiag_solve(np.zeros(3), np.zeros(3), np.zeros(3),
                              np.ones((3,) + cols))
            # a pivot that vanishes only after elimination: 1 - 1 * 1 = 0
            with pytest.raises(ZeroDivisionError):
                tridiag_solve(np.array([0.0, 1.0]), np.ones(2),
                              np.array([1.0, 0.0]), np.ones((2,) + cols))


class TestTimeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeConfig(t_end=-1.0)
        with pytest.raises(ValueError):
            TimeConfig(t_end=1.0, cfl=1.5)
        with pytest.raises(ValueError):
            TimeConfig(t_end=1.0, dt_min=1.0, dt_max=0.1)


class TestStableDt:
    def test_uniform_state_formula(self):
        grid = GridSpec(16)
        params = PhysParams(gamma=1.4)
        state = make_initial_state(grid, "uniform")
        cfg = TimeConfig(t_end=1.0, cfl=0.5, dt_max=10.0)
        dt = stable_dt(state, grid, params, cfg)
        assert dt == pytest.approx(0.5 * grid.dx / np.sqrt(1.4))

    def test_dt_max_clamp(self):
        grid = GridSpec(16)
        state = make_initial_state(grid, "uniform")
        cfg = TimeConfig(t_end=1.0, cfl=0.5, dt_max=1e-4)
        assert stable_dt(state, grid, PhysParams(), cfg) == 1e-4


class TestDensity:
    def test_exact_mass_conservation(self):
        grid = GridSpec(32)
        n = grid.n_cells
        rng = np.random.default_rng(1)
        u = rng.normal(0, 0.3, n + 1)
        u[0] = u[-1] = 0.0
        state = make_initial_state(
            grid, {"rho": 0.5 + rng.random(n), "theta": np.ones(n), "u": u})
        rho_new = advance_density(state, grid, 1e-3)
        assert rho_new.sum() * grid.dx == pytest.approx(
            state.rho.sum() * grid.dx, abs=1e-15)

    def test_positivity_failure_raises(self):
        grid = GridSpec(8)
        n = grid.n_cells
        u = np.sin(np.pi * grid.node_positions)
        u[0] = u[-1] = 0.0
        state = make_initial_state(grid, {"rho": np.ones(n),
                                          "theta": np.ones(n), "u": u})
        with pytest.raises(StepFailure, match="density"):
            advance_density(state, grid, 1.0)


def _sine_state(grid, which):
    n = grid.n_cells
    xn = grid.node_positions
    prof = np.sin(np.pi * xn)
    prof[0] = prof[-1] = 0.0
    w = np.zeros((n + 1, 2))
    b = np.zeros((n + 1, 2))
    if which == "w":
        w[:, 0] = prof
    else:
        b[:, 0] = prof
    return make_initial_state(grid, {"rho": np.ones(n), "theta": np.ones(n),
                                     "w": w, "b": b})


class TestImplicitDiffusionEigenmode:
    """sin(pi x) is an eigenvector of the discrete Laplacian, so one
    implicit step must divide it by 1 + coeff*dt*lambda exactly."""

    def _lam(self, dx):
        return 4.0 * np.sin(np.pi * dx / 2) ** 2 / dx ** 2

    def test_transverse(self):
        grid = GridSpec(32)
        params = PhysParams(mu=0.3)
        state = _sine_state(grid, "w")
        dt = 2e-3
        w_new = advance_transverse(state, grid, dt, params,
                                   BoundaryData.zero(), state.rho,
                                   state.u)
        factor = 1.0 / (1.0 + params.mu * dt * self._lam(grid.dx))
        np.testing.assert_allclose(w_new[:, 0], factor * state.w[:, 0],
                                   atol=1e-13)
        np.testing.assert_array_equal(w_new[:, 1], 0.0)

    def test_induction(self):
        grid = GridSpec(32)
        params = PhysParams(nu=0.7)
        state = _sine_state(grid, "b")
        dt = 2e-3
        b_new = advance_induction(state, grid, dt, params, state.u,
                                  np.zeros_like(state.w))
        factor = 1.0 / (1.0 + params.nu * dt * self._lam(grid.dx))
        np.testing.assert_allclose(b_new[:, 0], factor * state.b[:, 0],
                                   atol=1e-13)


class TestStep:
    def test_advances_time(self):
        grid = GridSpec(16)
        state = make_initial_state(grid, "bump")
        out = step(state, grid, 1e-3, PhysParams(), BoundaryData.zero())
        assert out.t == pytest.approx(1e-3)

    def test_uniform_is_fixed_point(self):
        grid = GridSpec(16)
        state = make_initial_state(grid, "uniform")
        out = state
        for _ in range(50):
            out = step(out, grid, 1e-2, PhysParams(), BoundaryData.zero())
        assert np.abs(out.rho - 1.0).max() < 1e-14
        assert np.abs(out.u).max() < 1e-14


class TestRun:
    def test_deterministic(self):
        grid = GridSpec(32)
        cfg = TimeConfig(t_end=0.1)
        args = (make_initial_state(grid, "bump"), grid, PhysParams(),
                BoundaryData.zero(), cfg)
        a = run(*args)
        b = run(*args)
        for sa, sb in zip(a.snapshots, b.snapshots):
            np.testing.assert_array_equal(sa.rho, sb.rho)
            np.testing.assert_array_equal(sa.theta, sb.theta)

    def test_reaches_t_end(self):
        grid = GridSpec(16)
        cfg = TimeConfig(t_end=0.07)
        traj = run(make_initial_state(grid, "bump"), grid, PhysParams(),
                   BoundaryData.zero(), cfg)
        assert traj.snapshot_times[-1] == pytest.approx(0.07, abs=1e-12)

    def test_snapshot_stride(self):
        grid = GridSpec(16)
        cfg = TimeConfig(t_end=0.05, snapshot_stride=5)
        traj = run(make_initial_state(grid, "bump"), grid, PhysParams(),
                   BoundaryData.zero(), cfg)
        # far fewer snapshots than accepted steps
        assert len(traj.snapshots) < len(traj.diagnostics) / 2

    def test_nan_state_fails_cleanly(self):
        """NaN fails the positivity checks and the CFL step, so a NaN
        state ends in StepFailure and RunAborted rather than a hang or
        an InvalidStateError."""
        grid = GridSpec(16)
        u = np.zeros(grid.n_cells + 1)
        u[5] = np.nan
        state = make_initial_state(grid, {"rho": np.ones(grid.n_cells),
                                          "theta": np.ones(grid.n_cells),
                                          "u": u})
        with pytest.raises(StepFailure):
            step(state, grid, 1e-3, PhysParams(), BoundaryData.zero())
        with pytest.raises(RunAborted):
            run(state, grid, PhysParams(), BoundaryData.zero(),
                TimeConfig(t_end=0.1))

    def test_abort_when_cfl_undercuts_dt_min(self):
        grid = GridSpec(16)
        cfg = TimeConfig(t_end=1.0, cfl=0.4, dt_min=0.05, dt_max=0.05)
        with pytest.raises(RunAborted) as exc:
            run(make_initial_state(grid, "uniform"), grid, PhysParams(),
                BoundaryData.zero(), cfg)
        assert "dt_min" in exc.value.report["reason"]


class TestLimitSystem:
    def test_requires_mu_zero(self):
        grid = GridSpec(16)
        cfg = TimeConfig(t_end=0.01)
        with pytest.raises(ValueError, match="mu == 0"):
            run_limit(make_initial_state(grid, "uniform"), grid,
                      PhysParams(mu=0.1), BoundaryData.zero(), cfg)

    def test_transverse_rest_is_invariant(self):
        """With w = b = 0 initially, the limit system keeps both fields
        exactly zero for all time, whatever the wall data does."""
        grid = GridSpec(32)
        params = PhysParams(mu=0.0)
        bdry = BoundaryData.cosine_ramp(1.0, 0.05)
        cfg = TimeConfig(t_end=0.2)
        init = make_initial_state(grid, "bump")
        traj = run_limit(init, grid, params, bdry, cfg)
        for s in traj.snapshots:
            assert np.all(s.w == 0.0)
            assert np.all(s.b == 0.0)

    def test_limit_transverse_momentum_conserved(self):
        """The mu = 0 transverse update is conservative, so the total
        rho-weighted w integral only changes through the b_x source."""
        grid = GridSpec(32)
        n = grid.n_cells
        rng = np.random.default_rng(3)
        u = rng.normal(0, 0.2, n + 1)
        u[0] = u[-1] = 0.0
        w = rng.normal(0, 0.5, (n + 1, 2))
        state = make_initial_state(
            grid, {"rho": 0.5 + rng.random(n), "theta": np.ones(n),
                   "u": u, "w": w})
        params = PhysParams(mu=0.0)
        w_new = advance_transverse(state, grid, 1e-3, params,
                                   BoundaryData.zero(), state.rho, state.u)
        # node integral with half weights at the walls, b = 0 so no source
        wt = np.full(n + 1, grid.dx)
        wt[0] = wt[-1] = grid.dx / 2
        from planemhd.core import interpolate_to_nodes
        rho_n = interpolate_to_nodes(state.rho)
        before = (rho_n[:, None] * state.w * wt[:, None]).sum(axis=0)
        after = (rho_n[:, None] * w_new * wt[:, None]).sum(axis=0)
        np.testing.assert_allclose(after, before, atol=1e-14)
