"""Acceptance gate: one test per numbered criterion, each printing a
single pass/fail line with the measured value and its threshold.

The mu-sweep criteria (8 through 11) share one module-scoped sweep so
the expensive runs happen once.
"""

from dataclasses import replace

import numpy as np
import pytest

import conftest

from planemhd.core import (BoundaryData, GridSpec, PhysParams,
                           make_initial_state)
from planemhd.diagnostics import (energy_balance_residual,
                                  entropy_monotonicity, error_norms)
from planemhd.solver import TimeConfig, run, step
from planemhd.sweep import SweepPlan, run_sweep, thickness_scaling_report
from planemhd.verify import (check_manufactured_orders,
                             check_oracle_equivalence)


def _report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {num:02d}] {name}: {status} ({detail})"
    print(line, flush=True)
    conftest.CRITERION_LINES.append(line)
    assert passed, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def bump_run():
    """n_cells=128, t_end=1 bump run shared by criteria 1 and 6."""
    grid = GridSpec(128)
    cfg = TimeConfig(t_end=1.0)
    traj = run(make_initial_state(grid, "bump"), grid, PhysParams(),
               BoundaryData.zero(), cfg)
    return grid, traj


@pytest.fixture(scope="module")
def sweep():
    """Shared vanishing-viscosity sweep for criteria 8 through 11.

    Transverse fields start at rest and are driven by a cosine-ramp wall
    velocity of amplitude 1; dt is pinned below the acoustic limit so
    every mu value walks the same step sequence as the mu = 0 reference.
    """
    grid = GridSpec(512)
    params = PhysParams(lam=1.0, mu=0.1, nu=1.0, gamma=1.4)
    bdry = BoundaryData.cosine_ramp(amplitude=1.0, ramp_period=0.25)
    cfg = TimeConfig(t_end=0.5, cfl=0.8, dt_max=5e-4, snapshot_stride=10)
    plan = SweepPlan(mu_values=(1e-2, 1e-3, 1e-4, 1e-5), grid=grid,
                     params=params, bdry=bdry, time=cfg,
                     initial=make_initial_state(grid, "transverse-rest",
                                                bdry),
                     bl_tol=0.05)
    return plan, run_sweep(plan)


# ---------------------------------------------------------------- criteria

def test_criterion_01_mass_conservation(bump_run):
    grid, traj = bump_run
    masses = traj.diagnostics["mass"]
    drift = float(np.abs(masses - masses[0]).max() / masses[0])
    _report(1, "mass conservation", drift <= 1e-12,
            f"relative drift {drift:.3e} <= 1e-12")


def test_criterion_02_uniform_steady_state():
    grid = GridSpec(64)
    params = PhysParams()
    state = make_initial_state(grid, "uniform")
    dt = 0.4 * grid.dx
    for _ in range(1000):
        state = step(state, grid, dt, params, BoundaryData.zero())
    dev = max(np.abs(state.rho - 1.0).max(),
              np.abs(state.theta - 1.0).max(),
              np.abs(state.u).max(), np.abs(state.w).max(),
              np.abs(state.b).max())
    _report(2, "uniform steady state", dev <= 1e-13,
            f"max deviation {dev:.3e} <= 1e-13 after 1000 steps")


def test_criterion_03_implicit_solve_oracle():
    check = check_oracle_equivalence(n_states=100, seed=42)
    _report(3, "implicit solve oracle", check["passed"],
            f"worst deviation {check['value']:.3e} <= "
            f"{check['threshold']:g} over 100 states")


def test_criterion_04_manufactured_orders():
    check = check_manufactured_orders()
    _report(4, "manufactured-solution orders", check["passed"],
            f"spatial {check['spatial_order']:.2f} >= "
            f"{check['spatial_threshold']:g}, temporal "
            f"{check['temporal_order']:.2f} >= "
            f"{check['temporal_threshold']:g}")


@pytest.fixture(scope="module")
def energy_benchmark():
    """Smooth mixed-field benchmark for the dt-refinement of the energy
    identity, shared with the entropy check of criterion 6."""
    grid = GridSpec(64)
    params = PhysParams(lam=1.0, mu=0.3, nu=1.0)
    n = grid.n_cells
    xn = grid.node_positions
    w0 = np.zeros((n + 1, 2))
    w0[:, 0] = 0.8 * np.sin(np.pi * xn)
    w0[:, 1] = 0.4 * np.sin(2 * np.pi * xn)
    b0 = np.zeros((n + 1, 2))
    b0[:, 0] = 0.3 * np.sin(np.pi * xn)
    b0[0] = b0[-1] = 0.0
    rho0 = 1.0 + 0.1 * np.cos(2 * np.pi * grid.cell_centers)
    init = make_initial_state(grid, {"rho": rho0, "theta": np.ones(n),
                                     "w": w0, "b": b0})
    runs = {}
    for dt in (2e-3, 1e-3):
        cfg = TimeConfig(t_end=0.25, cfl=1.0, dt_max=dt, snapshot_stride=1)
        runs[dt] = run(init, grid, params, BoundaryData.zero(), cfg)
    return grid, params, runs


def test_criterion_05_energy_balance_refinement(energy_benchmark):
    grid, params, runs = energy_benchmark
    resid = {dt: float(np.abs(
        energy_balance_residual(traj, grid, params)).max())
        for dt, traj in runs.items()}
    ratio = resid[1e-3] / resid[2e-3]
    _report(5, "energy balance dt refinement", 0.3 <= ratio <= 0.7,
            f"residual ratio {ratio:.3f} in [0.3, 0.7] "
            f"({resid[2e-3]:.2e} -> {resid[1e-3]:.2e})")


def test_criterion_06_entropy_production(bump_run, energy_benchmark):
    grid, traj = bump_run
    _, _, runs = energy_benchmark
    worst = np.inf
    bound = np.inf
    for g, t in [(grid, traj)] + [(GridSpec(64), r) for r in runs.values()]:
        dts = np.diff(t.diagnostics["t"])
        worst = min(worst, entropy_monotonicity(t))
        bound = min(bound, -10.0 * float(dts.max()) * g.dx)
    _report(6, "entropy production", worst >= bound,
            f"min increment {worst:.3e} >= {bound:.3e}")


def test_criterion_07_degenerate_limit():
    grid = GridSpec(128)
    params0 = PhysParams(mu=0.0)
    cfg = TimeConfig(t_end=0.5)
    # driven case: wall data cannot excite w or b in the limit system
    bdry = BoundaryData.cosine_ramp(1.0, 0.25)
    driven = run(make_initial_state(grid, "transverse-rest", bdry),
                 grid, params0, bdry, cfg)
    wmax = float(np.abs(driven.w).max())
    bmax = float(np.abs(driven.b).max())
    # vanishing-mu case on shared data must reproduce rho, u, theta
    init = make_initial_state(grid, "bump")
    zero = BoundaryData.zero()
    ref = run(init, grid, params0, zero, cfg)
    traj = run(init, grid, replace(params0, mu=1e-12), zero, cfg)
    dx = grid.dx
    worst = max(float(np.sqrt(((getattr(traj, f) - getattr(ref, f)) ** 2)
                              .sum(axis=-1).max() * dx))
                for f in ("rho", "u", "theta"))
    ok = wmax == 0.0 and bmax == 0.0 and worst <= 1e-6
    _report(7, "degenerate-limit consistency", ok,
            f"limit |w|={wmax:.1e}, |b|={bmax:.1e} (exact 0); "
            f"mu=1e-12 state L2 gap {worst:.3e} <= 1e-6")


def test_criterion_08_vanishing_viscosity_rate(sweep):
    _, result = sweep
    errs = [e.combined for e in result.errors]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    fit = result.rate_fit
    ok = (decreasing and fit is not None and fit.exponent >= 0.2
          and fit.max_log_residual <= 0.5)
    _report(8, "vanishing-viscosity rate", ok,
            f"errors {['%.3g' % e for e in errs]} decreasing={decreasing}, "
            f"exponent {fit.exponent:.3f} >= 0.2, "
            f"log residual {fit.max_log_residual:.3f} <= 0.5")


def test_criterion_09_boundary_layer_thickness(sweep):
    _, result = sweep
    deltas = result.deltas
    nonincreasing = all(a >= b for a, b in zip(deltas, deltas[1:]))
    # the mu = 0 reference keeps w identically zero, so the full-domain
    # sup-deviation of each run is its own max |w|
    assert np.all(result.reference.w == 0.0)
    sup_dev = min(s.max_abs_w for s in result.summaries)
    report = thickness_scaling_report(result)
    alpha = report.alpha_fit.exponent
    ok = nonincreasing and sup_dev >= 0.9 and 0.2 < alpha < 0.6
    _report(9, "boundary-layer thickness", ok,
            f"delta* {['%.3g' % d for d in deltas]} "
            f"nonincreasing={nonincreasing}, full-domain sup dev "
            f"{sup_dev:.3f} >= 0.9, alpha {alpha:.3f} in (0.2, 0.6)")


def test_criterion_10_uniform_diagnostics(sweep):
    _, result = sweep
    ratios = {}
    for name in ("max_theta", "min_theta", "max_rho", "min_rho"):
        vals = [getattr(s, name) for s in result.summaries]
        ratios[name] = max(vals) / min(vals)
    scaled = result.scaled_w_grad
    scaled_ratio = max(scaled) / min(scaled)
    ok = all(r <= 2.0 for r in ratios.values()) and scaled_ratio <= 10.0
    worst = max(ratios.values())
    _report(10, "uniform-in-mu diagnostics", ok,
            f"state extremal ratio {worst:.3f} <= 2, "
            f"sqrt(mu)*max||w_x||^2 ratio {scaled_ratio:.3f} <= 10")


def test_criterion_11_tau_table_envelope(sweep):
    _, result = sweep
    report = thickness_scaling_report(result)
    c1, c2 = report.envelope_c1, report.envelope_c2
    rel = report.envelope_rel_residual
    finite = np.isfinite(c1) and np.isfinite(c2)
    # the fitted line must dominate every tabulated point with tau <= 1
    dominated = all(r.w_grad_interior <= c1 * r.tau + c2 + 1e-12
                    for r in report.tau_table if r.tau <= 1.0)
    ok = finite and dominated and rel <= 0.2
    _report(11, "tau-table affine envelope", ok,
            f"c1 {c1:.3f}, c2 {c2:.3f}, envelope residual {rel:.3f} <= 0.2,"
            f" dominates={dominated}")
