import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from planemhd.core import (STATE_FIELDS, BoundaryData, FlowState, GridSpec,
                           PhysParams, make_initial_state)
from planemhd import solver
from planemhd.core import interpolate_to_nodes
from planemhd.solver import (ForcingSpec, RunAborted, StepFailure,
                             TimeConfig, _central_grad, _solve_blocks,
                             _thomas_solve, advance_density,
                             advance_induction, advance_transverse, run,
                             run_lockstep, stable_dt, step, tridiag_solve)

# tridiag_solve (LAPACK dgtsv where numpy's OpenBLAS exports it) and its
# Python fallback share one contract, which the tests below check on both
SOLVERS = (tridiag_solve, _thomas_solve)


def _dense(lower, diag, upper):
    a = np.diag(diag)
    a += np.diag(upper[:-1], 1)
    a += np.diag(lower[1:], -1)
    return a


def _thomas_on_numpy_scalars(lower, diag, upper, rhs):
    """The Thomas recurrence indexed element by element on numpy arrays;
    _thomas_solve must reproduce it bit for bit."""
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
            _thomas_solve(lower, diag, upper, rhs),
            _thomas_on_numpy_scalars(lower, diag, upper, rhs))

    @pytest.mark.skipif(solver._dgtsv is None,
                        reason="numpy's LAPACK does not export dgtsv")
    @given(st.integers(min_value=1, max_value=600), st.integers(0, 2 ** 31),
           st.sampled_from([(), (2,)]))
    @settings(max_examples=50, deadline=None)
    def test_dgtsv_matches_thomas(self, n, seed, cols):
        rng = np.random.default_rng(seed)
        lower = rng.normal(size=n)
        upper = rng.normal(size=n)
        diag = 3.0 + np.abs(lower) + np.abs(upper) + rng.random(n)
        rhs = rng.normal(size=(n,) + cols)
        x = tridiag_solve(lower, diag, upper, rhs)
        x_ref = _thomas_solve(lower, diag, upper, rhs)
        assert x.shape == x_ref.shape
        assert np.abs(x - x_ref).max() <= 1e-14 * np.abs(x_ref).max()

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
        x_ref = np.linalg.solve(_dense(lower, diag, upper), rhs)
        for solve in SOLVERS:
            x = solve(lower, diag, upper, rhs)
            assert x.shape == (n, 2)
            np.testing.assert_allclose(x, x_ref, atol=1e-12, rtol=1e-12)
            for k in (0, 1):
                assert np.array_equal(
                    x[:, k], solve(lower, diag, upper, rhs[:, k]))

    @pytest.mark.parametrize("shape", [(1,), (1, 2), (2,), (2, 2)])
    def test_smallest_systems(self, shape):
        n = shape[0]
        lower = np.array([7.0, -1.0][:n])     # lower[0] is ignored
        diag = np.array([4.0, 3.0][:n])
        upper = np.array([0.5, 9.0][:n])      # upper[-1] is ignored
        rhs = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
        for solve in SOLVERS:
            x = solve(lower, diag, upper, rhs)
            assert x.shape == shape
            np.testing.assert_allclose(
                x, np.linalg.solve(_dense(lower, diag, upper), rhs),
                atol=1e-15, rtol=1e-15)

    def test_zero_pivot(self):
        for solve in SOLVERS:
            for cols in ((), (2,)):
                with pytest.raises(ZeroDivisionError):
                    solve(np.zeros(3), np.zeros(3), np.zeros(3),
                          np.ones((3,) + cols))
                # a pivot that vanishes only after elimination: 1 - 1*1 = 0
                with pytest.raises(ZeroDivisionError):
                    solve(np.array([0.0, 1.0]), np.ones(2),
                          np.array([1.0, 0.0]), np.ones((2,) + cols))


    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=40), st.integers(0, 2 ** 31),
           st.sampled_from([(), (2,)]))
    @settings(max_examples=60, deadline=None)
    def test_block_diagonal_matches_per_block(self, blocks, n, seed, cols):
        """R systems stacked into one block-diagonal system, with zero
        couplings across the block edges, solve bit for bit as R calls,
        on both paths; _solve_blocks builds that system from (R, n)
        bands whose edge entries it ignores."""
        rng = np.random.default_rng(seed)
        lower = rng.normal(size=(blocks, n))
        upper = rng.normal(size=(blocks, n))
        diag = 3.0 + np.abs(lower) + np.abs(upper) + rng.random((blocks, n))
        rhs = rng.normal(size=(blocks, n) + cols)
        edged_lower, edged_upper = lower.copy(), upper.copy()
        lower[:, 0] = 0.0
        upper[:, -1] = 0.0
        for solve in SOLVERS:
            x = solve(lower.ravel(), diag.ravel(), upper.ravel(),
                      rhs.reshape((blocks * n,) + cols))
            for r in range(blocks):
                assert np.array_equal(x[r * n:(r + 1) * n],
                                      solve(lower[r], diag[r], upper[r],
                                            rhs[r]))
        x = _solve_blocks(edged_lower, diag, edged_upper, rhs)
        assert x.shape == rhs.shape
        for r in range(blocks):
            assert np.array_equal(
                x[r], tridiag_solve(lower[r], diag[r], upper[r], rhs[r]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("band", ["lower", "diag", "upper", "rhs"])
    def test_nonfinite_block_stays_in_its_block(self, bad, band):
        """Each block, the one that is not finite too, is what its own
        call gives; through the zeroed couplings 0 * nan would otherwise
        reach every block."""
        rng = np.random.default_rng(2)
        blocks, n = 5, 31
        sys = {"lower": rng.normal(size=(blocks, n)),
               "upper": rng.normal(size=(blocks, n)),
               "rhs": rng.normal(size=(blocks, n, 2))}
        sys["diag"] = (3.0 + np.abs(sys["lower"]) + np.abs(sys["upper"])
                       + rng.random((blocks, n)))
        sys[band][2, 10] = bad
        x = _solve_blocks(sys["lower"], sys["diag"], sys["upper"],
                          sys["rhs"])
        for r in range(blocks):
            assert np.array_equal(x[r], tridiag_solve(
                sys["lower"][r], sys["diag"][r], sys["upper"][r],
                sys["rhs"][r]), equal_nan=True)
        assert np.isfinite(np.delete(x, 2, axis=0)).all()


class TestTimeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeConfig(t_end=-1.0)
        with pytest.raises(ValueError):
            TimeConfig(t_end=1.0, cfl=1.5)
        with pytest.raises(ValueError):
            TimeConfig(t_end=1.0, dt_min=1.0, dt_max=0.1)

    @pytest.mark.parametrize("kwargs", [
        {"dt_min": 0.0, "dt_max": 0.0}, {"dt_min": -2.0, "dt_max": -1.0},
        {"dt_min": np.nan}, {"dt_max": np.nan}, {"t_end": np.nan},
        {"t_end": np.inf}, {"cfl": np.nan}, {"dt_max": np.inf},
        {"snapshot_stride": 2.5}])
    def test_rejects_nonpositive_and_nan(self, kwargs):
        """Only constructed: with dt_min = dt_max = 0, run would halve a
        zero step forever."""
        with pytest.raises(ValueError):
            TimeConfig(**{"t_end": 1.0, **kwargs})

    def test_stride_accepts_numpy_integer(self):
        assert TimeConfig(t_end=1.0,
                          snapshot_stride=np.int64(2)).snapshot_stride == 2


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
        np.testing.assert_array_equal(a.rho, b.rho)
        np.testing.assert_array_equal(a.theta, b.theta)

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
        assert len(traj.snapshot_times) < len(traj.diagnostics) / 2

    def test_diagnostics_row_per_accepted_step(self, monkeypatch):
        """One diagnostics row for the initial state and one for each
        accepted step; a rejected attempt adds none."""
        real_step = solver.step
        attempts, accepted = [], []

        def step_rejecting_third(state, *args):
            attempts.append(state.t)
            if len(attempts) == 3:
                raise StepFailure("test rejection", "u", 0, state.t)
            out = real_step(state, *args)
            accepted.append(out.t)
            return out

        monkeypatch.setattr(solver, "step", step_rejecting_third)
        grid = GridSpec(16)
        traj = run(make_initial_state(grid, "bump"), grid, PhysParams(),
                   BoundaryData.zero(), TimeConfig(t_end=0.05))
        assert len(attempts) == len(accepted) + 1
        assert len(traj.diagnostics) == len(accepted) + 1
        np.testing.assert_array_equal(traj.diagnostics["t"],
                                      [0.0] + accepted)
        assert not traj.diagnostics.flags.writeable

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

    @pytest.mark.parametrize("field", ["u", "b"])
    def test_nan_abort_names_field(self, field):
        """The CFL abort names the field that holds the NaN."""
        grid = GridSpec(16)
        n = grid.n_cells
        fields = {"rho": np.ones(n), "theta": np.ones(n),
                  "u": np.zeros(n + 1), "b": np.zeros((n + 1, 2))}
        fields[field][7] = np.nan
        with pytest.raises(RunAborted) as exc:
            run(make_initial_state(grid, fields), grid, PhysParams(),
                BoundaryData.zero(), TimeConfig(t_end=0.1))
        assert exc.value.report["field"] == field
        assert exc.value.report["index"] == 7

    def test_abort_when_cfl_undercuts_dt_min(self):
        grid = GridSpec(16)
        cfg = TimeConfig(t_end=1.0, cfl=0.4, dt_min=0.05, dt_max=0.05)
        with pytest.raises(RunAborted) as exc:
            run(make_initial_state(grid, "uniform"), grid, PhysParams(),
                BoundaryData.zero(), cfg)
        assert "dt_min" in exc.value.report["reason"]


def _bad_initial(kind):
    """An initial state that is not one state of GridSpec(32) at t = 0,
    and what the ValueError says of it."""
    bump = make_initial_state(GridSpec(32), "bump")
    if kind == "late":
        return replace(bump, t=0.05), "t = 0"
    if kind == "other-grid":
        return make_initial_state(GridSpec(64), "bump"), "32 cells"
    batch = FlowState(t=0.0, **{name: np.stack([getattr(bump, name)] * 2)
                                for name in STATE_FIELDS})
    return batch, "32 cells"


BAD_INITIALS = ("late", "other-grid", "batch")


class TestInitialChecked:
    """run_lockstep, and so run and run_sweep, reject an initial that is
    not one state of the grid at t = 0 before the first step, not after
    integrating to t_end."""

    @pytest.fixture
    def steps(self, monkeypatch):
        calls = []
        real_step = solver.step

        def counting_step(*args):
            calls.append(args[0].t)
            return real_step(*args)

        monkeypatch.setattr(solver, "step", counting_step)
        return calls

    @pytest.mark.parametrize("kind", BAD_INITIALS)
    def test_run(self, steps, kind):
        initial, says = _bad_initial(kind)
        with pytest.raises(ValueError, match=f"initial must .*{says}"):
            run(initial, GridSpec(32), PhysParams(), BoundaryData.zero(),
                TimeConfig(t_end=0.05))
        assert steps == []

    @pytest.mark.parametrize("kind", BAD_INITIALS)
    def test_run_sweep(self, steps, kind):
        from planemhd.sweep import SweepPlan, run_sweep
        initial, says = _bad_initial(kind)
        plan = SweepPlan(mu_values=(1e-2, 1e-3, 1e-4), grid=GridSpec(32),
                         params=PhysParams(), bdry=BoundaryData.zero(),
                         time=TimeConfig(t_end=0.05), initial=initial)
        with pytest.raises(ValueError, match=f"initial must .*{says}"):
            run_sweep(plan)
        assert steps == []


class TestLimitSystem:
    def test_transverse_rest_is_invariant(self):
        """With w = b = 0 initially, the limit system keeps both fields
        exactly zero for all time, whatever the wall data does."""
        grid = GridSpec(32)
        params = PhysParams(mu=0.0)
        bdry = BoundaryData.cosine_ramp(1.0, 0.05)
        cfg = TimeConfig(t_end=0.2)
        init = make_initial_state(grid, "bump")
        traj = run(init, grid, params, bdry, cfg)
        assert np.all(traj.w == 0.0)
        assert np.all(traj.b == 0.0)

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

    @pytest.mark.parametrize("forced", [False, True])
    def test_limit_update_matches_per_component_loop(self, forced):
        """Both components of the mu = 0 transverse update are computed
        together, bit for bit as one component at a time."""
        grid = GridSpec(24)
        n = grid.n_cells
        dx, dt = grid.dx, 2e-3
        rng = np.random.default_rng(8)
        forcing = None
        if forced:
            forcing = ForcingSpec(transverse=lambda x, t: np.stack(
                [np.sin(3 * x + t), np.cos(2 * x)], axis=-1))
        for _ in range(10):
            u = rng.normal(0, 0.3, n + 1)
            b = rng.normal(0, 0.3, (n + 1, 2))
            u[0] = u[-1] = 0.0
            b[0] = b[-1] = 0.0
            state = make_initial_state(
                grid, {"rho": 0.5 + rng.random(n), "theta": np.ones(n),
                       "u": u, "w": rng.normal(0, 0.5, (n + 1, 2)),
                       "b": b})
            rho_new = 0.5 + rng.random(n)
            u_new = state.u * 0.9
            got = advance_transverse(state, grid, dt, PhysParams(mu=0.0),
                                     BoundaryData.zero(), rho_new, u_new,
                                     forcing)
            rho_n_old = interpolate_to_nodes(state.rho)
            rho_n_new = interpolate_to_nodes(rho_new)
            u_c = 0.5 * (u_new[:-1] + u_new[1:])
            for k in (0, 1):
                m = rho_n_old * state.w[:, k]
                flux = u_c * np.where(u_c > 0, m[:-1], m[1:])
                b_x = _central_grad(state.b, dx)[:, k]
                m_new = np.empty_like(m)
                m_new[1:-1] = (m[1:-1] - (dt / dx) * np.diff(flux)
                               + dt * b_x[1:-1])
                m_new[0] = m[0] - (dt / (dx / 2)) * flux[0] + dt * b_x[0]
                m_new[-1] = m[-1] + (dt / (dx / 2)) * flux[-1] + dt * b_x[-1]
                if forced:
                    m_new += dt * forcing.transverse(grid.node_positions,
                                                     dt)[:, k]
                np.testing.assert_array_equal(got[:, k], m_new / rho_n_new)


def _lockstep_scenario(n_cells=32):
    grid = GridSpec(n_cells)
    bdry = BoundaryData.cosine_ramp(1.0, 0.02)
    initial = make_initial_state(grid, "transverse-rest", bdry)
    # dt_max = 5e-4 sets every step: the CFL step is about 1e-2 here
    cfg = TimeConfig(t_end=0.03, dt_max=5e-4, snapshot_stride=4)
    return initial, grid, PhysParams(), bdry, cfg


MEMBERS = (0.0, 1e-2, 1e-3, 1e-4)


def _assert_same_run(a, b):
    for name in ("snapshot_times", "rho", "u", "w", "b", "theta"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.diagnostics.dtype == b.diagnostics.dtype
    assert np.array_equal(a.diagnostics, b.diagnostics)


class TestLockstep:
    def test_members_match_solo_runs(self):
        """With dt_max setting every step, each member is bit for bit the
        run of its own mu, the mu = 0 member the limit system."""
        initial, grid, params, bdry, cfg = _lockstep_scenario()
        outs = run_lockstep(initial, grid, params, bdry, cfg, MEMBERS)
        for mu, traj in zip(MEMBERS, outs):
            _assert_same_run(traj, run(initial, grid,
                                       replace(params, mu=mu), bdry, cfg))

    def test_members_own_their_arrays(self):
        """No member's trajectory is a view of memory that holds another
        member's data, so keeping one keeps no other alive."""
        outs = run_lockstep(*_lockstep_scenario(), MEMBERS)
        for traj in outs:
            for name in ("rho", "u", "w", "b", "theta"):
                assert getattr(traj, name).base is None, name
                assert not getattr(traj, name).flags.writeable

    def test_nonfinite_member_leaves_alone(self, monkeypatch):
        """A member whose w turns to nan mid-run leaves with its own
        RunAborted, and the others are bit for bit what they are
        without it."""
        initial, grid, params, bdry, cfg = _lockstep_scenario()
        clean = run_lockstep(initial, grid, params, bdry, cfg, MEMBERS)
        real = solver.advance_transverse

        def poisoned(state, grid, dt, params, *args):
            w_new = real(state, grid, dt, params, *args)
            if state.t >= 0.01:
                w_new[np.ravel(params.mu == 1e-3), 7] = np.nan
            return w_new

        monkeypatch.setattr(solver, "advance_transverse", poisoned)
        outs = run_lockstep(initial, grid, params, bdry, cfg, MEMBERS)
        failed = outs[2]
        assert isinstance(failed, RunAborted)
        assert failed.report["t"] == pytest.approx(0.01)
        assert failed.report["field"] == "theta"
        for i in (0, 1, 3):
            _assert_same_run(outs[i], clean[i])

    def test_failure_halves_dt_for_all(self, monkeypatch):
        """A StepFailure of one member rejects the step of all: every
        member takes the halved step."""
        initial, grid, params, bdry, cfg = _lockstep_scenario()
        real_step = solver.step
        attempts = []

        def step_rejecting_second(state, *args):
            attempts.append(state.t)
            if len(attempts) == 2:
                raise StepFailure("test rejection", "u", 0, state.t, 1)
            return real_step(state, *args)

        monkeypatch.setattr(solver, "step", step_rejecting_second)
        outs = run_lockstep(initial, grid, params, bdry, cfg, MEMBERS)
        for traj in outs:
            t = traj.diagnostics["t"]
            assert t[2] - t[1] == pytest.approx(0.5 * cfg.dt_max)

    def test_member_below_dt_min_leaves(self, monkeypatch):
        """A member that fails down to dt_min leaves with the report of
        its last failure; the others redo the step without it."""
        initial, grid, params, bdry, cfg = _lockstep_scenario()
        real_step = solver.step

        def step_failing_mu(state, grid, dt, params, *args):
            mu = np.ravel(params.mu)
            if state.t >= 0.02 and 1e-2 in mu:
                raise StepFailure("test rejection", "u", 3, state.t,
                                  int(np.flatnonzero(mu == 1e-2)[0]))
            return real_step(state, grid, dt, params, *args)

        monkeypatch.setattr(solver, "step", step_failing_mu)
        outs = run_lockstep(initial, grid, params, bdry, cfg, MEMBERS)
        assert isinstance(outs[1], RunAborted)
        assert outs[1].report == {"t": pytest.approx(0.02),
                                  "reason": "test rejection", "field": "u",
                                  "index": 3}
        monkeypatch.undo()
        for i in (0, 2, 3):
            _assert_same_run(outs[i], run(initial, grid, replace(
                params, mu=MEMBERS[i]), bdry, cfg))

    def test_rejects_negative_mu(self):
        with pytest.raises(ValueError):
            run_lockstep(*_lockstep_scenario(), (1e-2, -1e-3))
        with pytest.raises(ValueError):
            run_lockstep(*_lockstep_scenario(), (np.inf, 1e-3))

    def test_snapshot_hook_sees_each_snapshot(self, monkeypatch):
        """on_snapshot gets the batch state at t = 0 and at every
        snapshot, with the members still running in its rows."""
        initial, grid, params, bdry, cfg = _lockstep_scenario()
        clean = run_lockstep(initial, grid, params, bdry, cfg, MEMBERS)
        seen = []

        def hook(state, members):
            seen.append((state.t, members,
                         {name: getattr(state, name).copy()
                          for name in STATE_FIELDS}))

        real_step = solver.step

        def step_failing_mu(state, grid, dt, params, *args):
            mu = np.ravel(params.mu)
            if state.t >= 0.02 and 1e-3 in mu:
                raise StepFailure("test rejection", "u", 3, state.t,
                                  int(np.flatnonzero(mu == 1e-3)[0]))
            return real_step(state, grid, dt, params, *args)

        monkeypatch.setattr(solver, "step", step_failing_mu)
        outs = run_lockstep(initial, grid, params, bdry, cfg, MEMBERS,
                            on_snapshot=hook)
        assert isinstance(outs[2], RunAborted)
        left_at = outs[2].report["t"]
        assert [t for t, _, _ in seen] == list(outs[0].snapshot_times)
        for s, (t, members, fields) in enumerate(seen):
            assert members == ((0, 1, 2, 3) if t <= left_at else (0, 1, 3))
            for row, m in enumerate(members):
                for name in STATE_FIELDS:
                    want = (clean if m == 2 else outs)[m]
                    assert np.array_equal(fields[name][row],
                                          getattr(want, name)[s]), name

    def test_unstored_members_keep_diagnostics(self):
        """Members left out of store return their diagnostics table in
        place of a Trajectory; the stored ones are unchanged."""
        initial, grid, params, bdry, cfg = _lockstep_scenario()
        full = run_lockstep(initial, grid, params, bdry, cfg, MEMBERS)
        outs = run_lockstep(initial, grid, params, bdry, cfg, MEMBERS,
                            store=(0, 2))
        for i in (0, 2):
            _assert_same_run(outs[i], full[i])
        for i in (1, 3):
            assert isinstance(outs[i], np.ndarray)
            assert np.array_equal(outs[i], full[i].diagnostics)


@st.composite
def _admissible_runs(draw):
    """A random admissible initial state on 16 to 32 cells, with its
    wall data, mu and a short t_end. rho and theta lie in [0.05, 20]
    (log-uniform), u, w and b in [-5, 5]."""
    n = draw(st.integers(16, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = rng.uniform(-5.0, 5.0, n + 1)
    b = rng.uniform(-5.0, 5.0, (n + 1, 2))
    u[0] = u[-1] = 0.0
    b[0] = b[-1] = 0.0
    profiles = {"rho": np.exp(rng.uniform(np.log(0.05), np.log(20.0), n)),
                "theta": np.exp(rng.uniform(np.log(0.05), np.log(20.0), n)),
                "u": u, "w": rng.uniform(-5.0, 5.0, (n + 1, 2)), "b": b}
    amplitude = draw(st.floats(-10.0, 10.0))
    bdry = draw(st.sampled_from([BoundaryData.constant(amplitude),
                                 BoundaryData.cosine_ramp(amplitude, 0.01)]))
    grid = GridSpec(n)
    return (make_initial_state(grid, profiles, bdry), grid,
            PhysParams(mu=draw(st.sampled_from([0.0, 1e-4, 1e-2, 1.0]))),
            bdry, TimeConfig(t_end=draw(st.floats(1e-3, 0.02))))


class TestRobustness:
    @given(_admissible_runs())
    @settings(max_examples=25, deadline=None)
    def test_run_ends_finite_or_aborted(self, scenario):
        """Large and rough data either integrate to finite fields or
        end in a RunAborted report, never in another exception."""
        try:
            traj = run(*scenario)
        except RunAborted:
            return
        for name in STATE_FIELDS:
            assert np.isfinite(getattr(traj, name)).all(), name
