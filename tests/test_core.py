import numpy as np
import pytest
from hypothesis import given, strategies as st

from planemhd.core import (BoundaryData, FlowState, GridSpec,
                           InvalidStateError, PhysParams,
                           Trajectory, interpolate_to_nodes,
                           make_initial_state)


class TestGridSpec:
    def test_geometry(self):
        grid = GridSpec(16)
        assert grid.dx == pytest.approx(1 / 16)
        assert len(grid.cell_centers) == 16
        assert len(grid.node_positions) == 17
        assert grid.node_positions[0] == 0.0
        assert grid.node_positions[-1] == 1.0
        # centers sit halfway between nodes
        mid = 0.5 * (grid.node_positions[:-1] + grid.node_positions[1:])
        np.testing.assert_allclose(grid.cell_centers, mid)

    def test_positions_built_once_read_only(self):
        """Each grid builds its positions once and shares them, so no
        caller may write into them."""
        grid = GridSpec(16)
        for name in ("cell_centers", "node_positions"):
            x = getattr(grid, name)
            assert getattr(grid, name) is x
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 1.0
        assert GridSpec(16) == grid and hash(GridSpec(16)) == hash(grid)

    def test_too_coarse(self):
        with pytest.raises(InvalidStateError):
            GridSpec(4)

    def test_requires_integer(self):
        """A float count is rejected, not rounded into cell centres that
        make_initial_state cannot size; numpy integers are counts."""
        for n in (8.5, 16.0):
            with pytest.raises(InvalidStateError, match="n_cells must be "
                                                        "an integer"):
                GridSpec(n)
        assert len(GridSpec(np.int64(16)).cell_centers) == 16


class TestParams:
    def test_kappa_model_validation(self):
        with pytest.raises(InvalidStateError):
            PhysParams(kappa1=0.0)
        with pytest.raises(InvalidStateError):
            PhysParams(kappa2=-1.0)
        with pytest.raises(InvalidStateError):
            PhysParams(q=0.0)

    def test_phys_params_validation(self):
        with pytest.raises(InvalidStateError):
            PhysParams(lam=0.0)
        with pytest.raises(InvalidStateError):
            PhysParams(mu=-1e-3)
        # mu = 0 selects the limit system and is allowed
        assert PhysParams(mu=0.0).mu == 0.0

    @pytest.mark.parametrize("make", [
        lambda: PhysParams(mu=np.nan), lambda: PhysParams(lam=np.nan),
        lambda: PhysParams(gamma=np.nan), lambda: PhysParams(kappa1=np.nan),
        lambda: PhysParams(kappa2=np.nan), lambda: PhysParams(q=np.nan),
        lambda: PhysParams(lam=np.inf), lambda: PhysParams(q=np.inf)])
    def test_nan_rejected(self, make):
        with pytest.raises(InvalidStateError):
            make()


class TestBoundaryData:
    def test_zero(self):
        bd = BoundaryData()
        np.testing.assert_array_equal(bd.at(3.0), [0.0, 0.0])

    def test_cosine_ramp_endpoints(self):
        bd = BoundaryData("cosine-ramp", 2.0, 0.5)
        np.testing.assert_allclose(bd.at(0.0), [0.0, 0.0])
        np.testing.assert_allclose(bd.at(0.25), [1.0, 0.0])
        np.testing.assert_allclose(bd.at(0.5), [2.0, 0.0])
        # held after the ramp
        np.testing.assert_allclose(bd.at(10.0), [2.0, 0.0])

    def test_cosine_ramp_starts_flat(self):
        bd = BoundaryData("cosine-ramp", 1.0, 0.25)
        eps = 1e-6
        assert bd.at(eps)[0] < 1e-9

    def test_constant(self):
        np.testing.assert_array_equal(
            BoundaryData("constant", -0.7).at(2.0), [-0.7, 0.0])

    def test_plain_data_hashes(self):
        a = BoundaryData("cosine-ramp", 1.0, 0.25)
        assert a == BoundaryData("cosine-ramp", 1.0, 0.25)
        assert hash(a) == hash(BoundaryData("cosine-ramp", 1.0, 0.25))
        assert len({a, BoundaryData(), BoundaryData()}) == 2

    @pytest.mark.parametrize("kwargs", [
        {"preset": "custom"},
        {"preset": "constant", "amplitude": float("nan")},
        {"preset": "constant", "amplitude": float("inf")},
        {"preset": "cosine-ramp", "amplitude": 1.0, "ramp_period": 0.0},
        {"preset": "cosine-ramp", "amplitude": 1.0,
         "ramp_period": float("nan")},
        {"preset": "cosine-ramp", "amplitude": 1.0,
         "ramp_period": float("inf")}])
    def test_rejects_bad_data(self, kwargs):
        with pytest.raises(InvalidStateError):
            BoundaryData(**kwargs)


def _arrays(n):
    return dict(rho=np.ones(n), theta=np.ones(n), u=np.zeros(n + 1),
                w=np.zeros((n + 1, 2)), b=np.zeros((n + 1, 2)))


class TestFlowState:
    def test_valid(self):
        s = FlowState(t=0.0, **_arrays(8))
        assert s.n_cells == 8

    def test_arrays_read_only(self):
        s = FlowState(t=0.0, **_arrays(8))
        with pytest.raises(ValueError):
            s.rho[0] = 2.0

    def test_positivity_reports_index(self):
        fields = _arrays(8)
        fields["rho"] = fields["rho"].copy()
        fields["rho"][3] = -1.0
        with pytest.raises(InvalidStateError, match=r"rho\[3\]"):
            FlowState(t=0.0, **fields)

    def test_wall_constraints(self):
        fields = _arrays(8)
        fields["u"] = fields["u"].copy()
        fields["u"][0] = 0.1
        with pytest.raises(InvalidStateError, match="u must vanish"):
            FlowState(t=0.0, **fields)
        fields = _arrays(8)
        fields["b"] = fields["b"].copy()
        fields["b"][-1, 1] = 0.1
        with pytest.raises(InvalidStateError, match="b must vanish"):
            FlowState(t=0.0, **fields)

    def test_shape_mismatch(self):
        fields = _arrays(8)
        fields["u"] = np.zeros(8)
        with pytest.raises(InvalidStateError):
            FlowState(t=0.0, **fields)


    def test_member_axis(self):
        """A leading member axis stacks the states of a batch; the checks
        hold per member and name the member and the index."""
        one = _arrays(8)
        fields = {k: np.stack([v] * 3) for k, v in one.items()}
        s = FlowState(t=0.0, **fields)
        assert s.n_cells == 8 and s.w.shape == (3, 9, 2)
        assert s.rho.flags.c_contiguous
        fields["theta"] = fields["theta"].copy()
        fields["theta"][2, 5] = 0.0
        with pytest.raises(InvalidStateError, match=r"theta\[2, 5\]"):
            FlowState(t=0.0, **fields)
        fields = {k: np.stack([v] * 3) for k, v in one.items()}
        fields["u"][1, -1] = 0.1
        with pytest.raises(InvalidStateError, match="u must vanish"):
            FlowState(t=0.0, **fields)
        fields = {k: np.stack([v] * 3) for k, v in one.items()}
        fields["w"] = fields["w"][:2]
        with pytest.raises(InvalidStateError, match="w and b"):
            FlowState(t=0.0, **fields)

    def test_broadcast_input_stored_row_major(self):
        """A broadcast batch is stored with contiguous member rows, so
        the rows' reductions round as those of one state."""
        one = _arrays(8)
        s = FlowState(t=0.0, **{k: np.broadcast_to(v, (3,) + v.shape)
                                for k, v in one.items()})
        for name in ("rho", "u", "w", "b", "theta"):
            assert getattr(s, name).flags.c_contiguous, name


class TestInterpolateToNodes:
    def test_constant(self):
        np.testing.assert_array_equal(interpolate_to_nodes(np.full(5, 3.0)),
                                      np.full(6, 3.0))

    def test_linear_field_exact_in_interior(self):
        grid = GridSpec(32)
        vals = 2.0 * grid.cell_centers + 1.0
        out = interpolate_to_nodes(vals)
        expected = 2.0 * grid.node_positions + 1.0
        np.testing.assert_allclose(out[1:-1], expected[1:-1])

    @given(st.integers(min_value=2, max_value=20),
           st.floats(-10, 10), st.floats(-10, 10))
    def test_linearity(self, n, a, b):
        rng = np.random.default_rng(n)
        f = rng.normal(size=n)
        g = rng.normal(size=n)
        lhs = interpolate_to_nodes(a * f + b * g)
        rhs = a * interpolate_to_nodes(f) + b * interpolate_to_nodes(g)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_stacked_rows(self):
        """A stacked (S, N) input interpolates each row as a 1-D call."""
        rows = np.random.default_rng(4).normal(size=(3, 7))
        out = interpolate_to_nodes(rows)
        assert out.shape == (3, 8)
        for row, got in zip(rows, out):
            np.testing.assert_array_equal(got, interpolate_to_nodes(row))


class TestMakeInitialState:
    def test_uniform(self):
        s = make_initial_state(GridSpec(8), "uniform")
        np.testing.assert_array_equal(s.rho, 1.0)
        np.testing.assert_array_equal(s.w, 0.0)

    def test_bump_peaks_in_center(self):
        s = make_initial_state(GridSpec(64), "bump")
        assert s.rho.argmax() in (31, 32)
        assert s.rho.max() > 1.1

    @pytest.mark.parametrize("n", [8, 64, 129])
    @pytest.mark.parametrize("bdry", [None, BoundaryData("cosine-ramp")])
    @pytest.mark.parametrize("preset", ["uniform", "bump",
                                        "transverse-rest"])
    def test_preset_profiles(self, preset, bdry, n):
        """Each preset's fields, bit for bit: rho and theta at the cell
        centres, u, w and b zero, also under a wall ramp from rest."""
        grid = GridSpec(n)
        s = make_initial_state(grid, preset, bdry)
        bump = np.exp(-50.0 * (grid.cell_centers - 0.5) ** 2)
        rho, theta = ((1.0 + 0.2 * bump, 1.0 + 0.1 * bump)
                      if preset == "bump" else (np.ones(n), np.ones(n)))
        np.testing.assert_array_equal(s.rho, rho, strict=True)
        np.testing.assert_array_equal(s.theta, theta, strict=True)
        np.testing.assert_array_equal(s.u, np.zeros(n + 1), strict=True)
        for name in ("w", "b"):
            np.testing.assert_array_equal(getattr(s, name),
                                          np.zeros((n + 1, 2)), strict=True)
        assert s.t == 0.0

    def test_unknown_preset(self):
        with pytest.raises(InvalidStateError, match="unknown preset"):
            make_initial_state(GridSpec(8), "vortex")

    def test_tabulated(self):
        n = 8
        w = np.zeros((n + 1, 2))
        w[:, 0] = np.linspace(0, 1, n + 1)
        s = make_initial_state(GridSpec(n),
                               {"rho": np.full(n, 2.0),
                                "theta": np.full(n, 0.5), "w": w})
        assert s.rho[0] == 2.0
        assert s.w[-1, 0] == 1.0

    def test_tabulated_wall_violations(self):
        n = 8
        u = np.zeros(n + 1)
        u[0] = 1.0
        with pytest.raises(InvalidStateError):
            make_initial_state(GridSpec(n), {"rho": np.ones(n),
                                             "theta": np.ones(n), "u": u})

    def test_tabulated_u_of_wrong_shape(self):
        """A misshapen tabulated u is refused by FlowState's own shape
        check, as any misshapen state is."""
        n = 8
        with pytest.raises(InvalidStateError, match="u must be node-center"):
            make_initial_state(GridSpec(n), {"rho": np.ones(n),
                                             "theta": np.ones(n),
                                             "u": np.zeros((n + 1, 2))})

    def test_boundary_data_sets_wall_w(self):
        bd = BoundaryData("constant", 0.7)
        s = make_initial_state(GridSpec(8), "transverse-rest", bd)
        assert s.w[0, 0] == 0.7
        assert s.w[-1, 0] == 0.7


class TestTrajectory:
    def test_times_must_increase(self):
        s = FlowState(t=0.0, **_arrays(8))
        with pytest.raises(InvalidStateError):
            Trajectory((s, s), (None, None))

    def test_needs_a_state(self):
        with pytest.raises(InvalidStateError):
            Trajectory((), ())

    def test_stacks_states(self):
        rng = np.random.default_rng(2)
        states = []
        for t in (0.0, 0.25, 0.5):
            fields = _arrays(8)
            fields["rho"] = 0.5 + rng.random(8)
            fields["w"] = rng.normal(size=(9, 2))
            states.append(FlowState(t=t, **fields))
        traj = Trajectory(states, (None,) * 3)
        np.testing.assert_array_equal(traj.snapshot_times, [0.0, 0.25, 0.5])
        assert traj.rho.shape == traj.theta.shape == (3, 8)
        assert traj.u.shape == (3, 9)
        assert traj.w.shape == traj.b.shape == (3, 9, 2)
        for i, s in enumerate(states):
            for name in ("rho", "u", "w", "b", "theta"):
                np.testing.assert_array_equal(getattr(traj, name)[i],
                                              getattr(s, name))
        with pytest.raises(ValueError):
            traj.w[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            traj.snapshot_times[0] = 1.0
