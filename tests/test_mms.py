import inspect
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import sympy

import planemhd
from planemhd import mms_derive, mms_sources
from planemhd.core import BoundaryData, GridSpec, PhysParams
from planemhd.mms import (ManufacturedSolution, manufactured_advecting,
                          manufactured_steady, manufactured_transient,
                          solution_error, spatial_order)
from planemhd.solver import TimeConfig, step

PARAMS = PhysParams(mu=0.05)


class TestManufacturedFields:
    def test_steady_state_is_admissible(self):
        grid = GridSpec(64)
        mms = manufactured_steady()
        state = mms.sampled_state(grid, 0.0)
        assert np.all(state.rho > 0)
        assert state.u[0] == 0.0 and state.u[-1] == 0.0
        assert np.all(state.b[0] == 0.0) and np.all(state.b[-1] == 0.0)

    def test_steady_forcing_is_time_independent(self):
        grid = GridSpec(32)
        mms = manufactured_steady()
        x = grid.cell_centers
        np.testing.assert_array_equal(mms.forcing.continuity(x, 0.0),
                                      mms.forcing.continuity(x, 1.0))
        np.testing.assert_array_equal(mms.forcing.energy(x, 0.3),
                                      mms.forcing.energy(x, 0.9))

    def test_transient_fields_move(self):
        grid = GridSpec(32)
        mms = manufactured_transient()
        a = mms.sampled_state(grid, 0.0)
        b = mms.sampled_state(grid, 0.3)
        assert np.abs(a.w - b.w).max() > 1e-2

    def test_forcing_shapes(self):
        grid = GridSpec(32)
        mms = manufactured_steady()
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
        mms = builder()
        dt = 5e-4
        state = mms.sampled_state(grid, 0.0)
        advanced = step(state, grid, dt, PARAMS, BoundaryData(),
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
        mms = manufactured_steady()
        dt = 5e-3
        state = mms.sampled_state(grid, 0.0)
        advanced = step(state, grid, dt, PARAMS, BoundaryData(), None)
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
        order, errs = spatial_order((32, 64, 128, 256), t_end=0.1,
                                    solution=manufactured_advecting)
        assert order >= 0.9, errs

    def test_u_zero_sources_have_no_advection_correction(self):
        """For u = 0 the continuity source vanishes, so the correction
        terms are zero and the u = 0 solutions keep their sources."""
        grid = GridSpec(32)
        x = grid.node_positions
        for builder in (manufactured_steady, manufactured_transient):
            mms = builder()
            assert not mms.forcing.continuity(x, 0.2).any()
        advecting = manufactured_advecting()
        assert np.abs(advecting.forcing.continuity(x, 0.2)).max() > 1e-2


def _derived(solution: str, params: PhysParams) -> ManufacturedSolution:
    """The manufactured solution with its sources derived for params by
    mms_derive and lambdified, wrapped as mms wraps mms_sources."""
    exprs = mms_derive._build(params, *mms_derive.SOLUTIONS[solution]())
    fresh = SimpleNamespace(**{
        f"{solution}_{name}": sympy.lambdify(
            (mms_derive.x, mms_derive.t), expr, modules="numpy")
        for name, expr in exprs.items()})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(planemhd.mms, "mms_sources", fresh)
        return planemhd.mms._solution(solution)


class TestLimitOrder:
    """The mu = 0 update is the viscous one with no diffusion, so it
    reads the transverse forcing as mms_derive derives it for the
    non-conservative form, and keeps the orders of mu > 0: second in
    space where u = 0, first where u advects."""

    @pytest.mark.parametrize("solution, bound", [("steady", 1.7),
                                                 ("advecting", 0.9)])
    def test_spatial_order(self, solution, bound):
        params = PhysParams(mu=0.0)
        mms = _derived(solution, params)
        n_values = (32, 64, 128, 256)
        errs = []
        for n in n_values:
            grid = GridSpec(n)
            cfg = TimeConfig(t_end=0.1, cfl=0.4, dt_max=0.4 * grid.dx,
                             snapshot_stride=10 ** 6)
            errs.append(solution_error(mms, grid, params, cfg))
        order = np.polyfit(np.log(1.0 / np.array(n_values)), np.log(errs),
                           1)[0]
        assert order >= bound, errs


class TestPrintedSources:
    """mms_sources must hold what mms_derive derives: every field and
    source of every solution, evaluating bit for bit as a fresh
    lambdify of the derivation with the installed sympy. After a change
    to mms_derive, regenerate with `python -m planemhd.mms_derive`."""

    @pytest.mark.parametrize("solution", list(mms_derive.SOLUTIONS))
    def test_printed_functions_equal_fresh_derivation(self, solution):
        grid = GridSpec(64)
        for name, expr in mms_derive.derive(solution).items():
            fresh = sympy.lambdify((mms_derive.x, mms_derive.t), expr,
                                   modules="numpy")
            printed = getattr(mms_sources, f"{solution}_{name}")
            for x in (grid.node_positions, grid.cell_centers):
                for t in (0, 0.1, 0.25, 1):
                    want = np.broadcast_to(
                        np.asarray(fresh(x, t), dtype=float), x.shape)
                    got = np.broadcast_to(
                        np.asarray(printed(x, t), dtype=float), x.shape)
                    assert got.tobytes() == want.tobytes(), (name, t)

    def test_module_holds_only_the_derived_functions(self):
        derived = {f"{solution}_{name}"
                   for solution in mms_derive.SOLUTIONS
                   for name in mms_derive.derive(solution)}
        printed = {name for name, value in vars(mms_sources).items()
                   if inspect.isfunction(value)}
        assert printed == derived
        assert len(printed) == 42

    def test_params_are_those_derived_for(self):
        assert mms_sources.PARAMS == mms_derive.PARAMS
        assert planemhd.mms.PARAMS is mms_sources.PARAMS

    def test_printed_text_does_not_depend_on_the_hash_seed(self):
        """sympy orders some terms by their hashes; the generated module
        must be the same from every process, or the bits would be too."""
        src = str(Path(planemhd.__file__).parents[1])
        code = "from planemhd import mms_derive; print(mms_derive.source())"
        texts = {subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=300,
            env={**os.environ, "PYTHONPATH": src,
                 "PYTHONHASHSEED": seed}).stdout for seed in ("0", "1")}
        assert len(texts) == 1
