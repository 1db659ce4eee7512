import numpy as np
import pytest

from planemhd.core import BoundaryData, GridSpec, PhysParams
from planemhd.mms import (manufactured_advecting, manufactured_steady,
                          manufactured_transient, spatial_order)
from planemhd.solver import step

PARAMS = PhysParams(mu=0.05)


class TestManufacturedFields:
    def test_steady_state_is_admissible(self):
        grid = GridSpec(64)
        mms = manufactured_steady(PARAMS)
        state = mms.initial_state(grid)
        assert np.all(state.rho > 0)
        assert state.u[0] == 0.0 and state.u[-1] == 0.0
        assert np.all(state.b[0] == 0.0) and np.all(state.b[-1] == 0.0)

    def test_steady_forcing_is_time_independent(self):
        grid = GridSpec(32)
        mms = manufactured_steady(PARAMS)
        x = grid.cell_centers
        np.testing.assert_array_equal(mms.forcing.continuity(x, 0.0),
                                      mms.forcing.continuity(x, 1.0))
        np.testing.assert_array_equal(mms.forcing.energy(x, 0.3),
                                      mms.forcing.energy(x, 0.9))

    def test_transient_fields_move(self):
        grid = GridSpec(32)
        mms = manufactured_transient(PARAMS)
        a = mms.sampled_state(grid, 0.0)
        b = mms.sampled_state(grid, 0.3)
        assert np.abs(a.w - b.w).max() > 1e-2

    def test_forcing_shapes(self):
        grid = GridSpec(32)
        mms = manufactured_steady(PARAMS)
        xn = grid.node_positions
        assert mms.forcing.transverse(xn, 0.1).shape == (len(xn), 2)
        assert mms.forcing.induction(xn, 0.1).shape == (len(xn), 2)
        assert mms.forcing.momentum(xn, 0.1).shape == (len(xn),)


class TestForcingConsistency:
    """One forced step from the exact fields must stay near the exact
    fields, which pins the signs and placement of every source term."""

    @pytest.mark.parametrize("builder", [manufactured_steady,
                                         manufactured_transient])
    def test_single_step_error_small(self, builder):
        grid = GridSpec(64)
        mms = builder(PARAMS)
        dt = 5e-4
        state = mms.initial_state(grid)
        advanced = step(state, grid, dt, PARAMS, BoundaryData.zero(),
                        mms.forcing)
        exact = mms.sampled_state(grid, dt)
        assert np.abs(advanced.rho - exact.rho).max() < 5e-3
        assert np.abs(advanced.w - exact.w).max() < 5e-3
        assert np.abs(advanced.b - exact.b).max() < 5e-3
        assert np.abs(advanced.theta - exact.theta).max() < 5e-3

    def test_wrong_forcing_detected(self):
        """Dropping the sources breaks the single-step match, so the
        consistency check above has teeth."""
        grid = GridSpec(64)
        mms = manufactured_steady(PARAMS)
        dt = 5e-3
        state = mms.initial_state(grid)
        advanced = step(state, grid, dt, PARAMS, BoundaryData.zero(), None)
        exact = mms.sampled_state(grid, dt)
        drift = max(np.abs(advanced.w - exact.w).max(),
                    np.abs(advanced.theta - exact.theta).max())
        assert drift > 1e-3


class TestAdvectingOrder:
    def test_spatial_order_with_nonzero_u(self):
        """With u != 0 the continuity source is nonzero, and the
        momentum and transverse sources must be those of the
        non-conservative update the scheme takes. Upwind advection then
        gives first order; a conservative-form source leaves an O(1)
        residual and the error stalls."""
        order, errs = spatial_order(PARAMS, (32, 64, 128, 256), t_end=0.1,
                                    solution=manufactured_advecting)
        assert order >= 0.9, errs

    def test_u_zero_sources_have_no_advection_correction(self):
        """For u = 0 the continuity source vanishes, so the correction
        terms are zero and the u = 0 solutions keep their sources."""
        grid = GridSpec(32)
        x = grid.node_positions
        for builder in (manufactured_steady, manufactured_transient):
            mms = builder(PARAMS)
            assert not mms.forcing.continuity(x, 0.2).any()
        advecting = manufactured_advecting(PARAMS)
        assert np.abs(advecting.forcing.continuity(x, 0.2)).max() > 1e-2
