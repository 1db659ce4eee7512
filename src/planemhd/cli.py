"""Command-line entry point: run | limit | sweep | bl | verify.

All CSV output is deterministic (fixed column order, 17-significant-digit
floats) and every file starts with a comment line carrying the resolved
config hash.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, config_hash, parse_config, \
    render_config
from .core import interpolate_to_nodes, make_initial_state
from .solver import RunAborted, run, run_limit
from .sweep import SweepPlan, run_sweep, thickness_scaling_report
from . import verify as verify_suites


# Rows per formatted block: a block is the unit of work of one formatter
# call, so the writer never holds more than a few blocks of text or
# Python floats at once.
BLOCK_ROWS = 16384


def _usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _block_map(n_blocks: int):
    """`map` for formatting n_blocks blocks, in order: over a pool of
    forked workers when there are several blocks, several usable cores
    and a platform with fork, else in this process. The pool is joined
    on exit."""
    workers = min(_usable_cores(), n_blocks)
    if workers < 2 or not hasattr(os, "fork"):
        yield map
        return
    # imported here, so that commands writing no multi-block file do
    # not pay their import time and memory
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork")) as pool:
        yield pool.map


def _format_block(fmt: str, columns: list) -> str:
    """One block of CSV rows: fmt applied to each row of the columns."""
    values = [c.tolist() if isinstance(c, np.ndarray) else c
              for c in columns]
    return "".join(fmt % row for row in zip(*values))


def _write_csv(path: Path, header: str, columns: dict) -> None:
    """Write the header line, the column names and one line per row.

    columns maps each name to its values: a float array, written as
    %.17g, or a sequence of strings. Rows are formatted in blocks of
    BLOCK_ROWS (see _block_map) and each block is written as soon as
    it and those before it are ready.
    """
    values = list(columns.values())
    fmt = ",".join("%.17g" if isinstance(c, np.ndarray) else "%s"
                   for c in values) + "\n"
    starts = range(0, len(values[0]), BLOCK_ROWS)
    blocks = ([c[i:i + BLOCK_ROWS] for c in values] for i in starts)
    with _block_map(len(starts)) as map_blocks:
        # pool.map forks the workers now, so they never hold the file
        text = map_blocks(_format_block, repeat(fmt), blocks)
        with path.open("w") as f:
            f.write(f"{header}\n{','.join(columns)}\n")
            f.writelines(text)


def _load_config(args) -> RunConfig:
    flags = (("physics", "mu", args.mu, "--mu"),
             ("grid", "n_cells", args.n_cells, "--n-cells"),
             ("time", "t_end", args.t_end, "--t-end"))
    return parse_config(Path(args.config).read_text(),
                        [f for f in flags if f[2] is not None])


def _emit_trajectory(outdir: Path, cfg: RunConfig, traj, grid) -> None:
    tag = f"# config_hash={config_hash(cfg)}"
    # t and x repeat across rows: format each distinct value once
    times = ["%.17g" % t for t in traj.snapshot_times.tolist()]
    nodes = ["%.17g" % x for x in grid.node_positions.tolist()]
    _write_csv(outdir / "snapshots.csv", tag, {
        "t": [t for t in times for _ in nodes],
        "x": nodes * len(times),
        "rho": interpolate_to_nodes(traj.rho).ravel(),
        "u": traj.u.ravel(),
        "w1": traj.w[..., 0].ravel(), "w2": traj.w[..., 1].ravel(),
        "b1": traj.b[..., 0].ravel(), "b2": traj.b[..., 1].ravel(),
        "theta": interpolate_to_nodes(traj.theta).ravel()})
    diag = traj.diagnostics
    _write_csv(outdir / "diagnostics.csv", tag,
               {name: diag[name] for name in diag.dtype.names})


def _write_summary(outdir: Path, cfg: RunConfig, payload: dict) -> None:
    payload = {"config_hash": config_hash(cfg),
               "resolved_config": render_config(cfg), **payload}
    (outdir / "summary.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _scenario(cfg: RunConfig):
    grid = cfg.grid_spec()
    params = cfg.phys_params()
    bdry = cfg.boundary_data()
    initial = make_initial_state(grid, cfg["initial"]["preset"], bdry)
    return grid, params, bdry, initial, cfg.time_config()


def cmd_run(cfg: RunConfig, outdir: Path, limit: bool) -> int:
    grid, params, bdry, initial, tcfg = _scenario(cfg)
    if limit:
        params = replace(params, mu=0.0)
    try:
        traj = (run_limit if limit else run)(initial, grid, params, bdry,
                                             tcfg)
    except RunAborted as exc:
        _write_summary(outdir, cfg, {"status": "aborted",
                                     "failure": exc.report})
        return 1
    _emit_trajectory(outdir, cfg, traj, grid)
    _write_summary(outdir, cfg, {
        "status": "ok", "t_final": traj.snapshot_times[-1],
        "n_steps": len(traj.diagnostics) - 1,
        "final_mass": float(traj.diagnostics["mass"][-1]),
        "final_energy": float(traj.diagnostics["total_energy"][-1])})
    return 0


def _sweep(cfg: RunConfig, fits_path: Path):
    """run_sweep on the config's plan; None, after writing fits_path
    with the failure report, if the mu = 0 reference run aborted."""
    grid, params, bdry, initial, tcfg = _scenario(cfg)
    plan = SweepPlan(mu_values=cfg.mu_values(), grid=grid, params=params,
                     bdry=bdry, time=tcfg, initial=initial,
                     bl_tol=cfg.bl_tol(),
                     interior_deltas=cfg.interior_deltas())
    try:
        return run_sweep(plan)
    except RunAborted as exc:
        fits_path.write_text(json.dumps(
            {"config_hash": config_hash(cfg), "status": "aborted",
             "failure": exc.report}, indent=2, sort_keys=True) + "\n")
        return None


def _fit_dict(fit):
    if fit is None:
        return None
    return {"exponent": fit.exponent, "prefactor": fit.prefactor,
            "max_log_residual": fit.max_log_residual}


def _status(result) -> list:
    """Per-mu status column: failed runs have saturated None."""
    return [{None: "failed", True: "saturated", False: "ok"}[s]
            for s in result.saturated]


def cmd_sweep(cfg: RunConfig, outdir: Path) -> int:
    result = _sweep(cfg, outdir / "fits.json")
    if result is None:
        return 1
    tag = f"# config_hash={config_hash(cfg)}"
    # a failed run has no errors and no delta*: its row reads nan
    errors = np.array([(None,) * 3 if e is None else
                       (e.combined, e.state_error, e.gradient_error)
                       for e in result.errors], dtype=float)
    _write_csv(outdir / "sweep.csv", tag, {
        "mu": np.array(result.mu_values),
        "combined_error": errors[:, 0], "state_error": errors[:, 1],
        "gradient_error": errors[:, 2],
        "delta_star": np.array(result.deltas, dtype=float),
        "status": _status(result)})
    fits = {"config_hash": config_hash(cfg),
            "rate": _fit_dict(result.rate_fit),
            "thickness": _fit_dict(result.thickness_fit),
            "scaled_w_grad": result.scaled_w_grad,
            "failures": result.failures}
    (outdir / "fits.json").write_text(
        json.dumps(fits, indent=2, sort_keys=True) + "\n")
    ok = all(f is None for f in result.failures)
    return 0 if ok else 1


def cmd_bl(cfg: RunConfig, outdir: Path) -> int:
    result = _sweep(cfg, outdir / "bl_fits.json")
    if result is None:
        return 1
    tag = f"# config_hash={config_hash(cfg)}"
    _write_csv(outdir / "thickness.csv", tag, {
        "mu": np.array(result.mu_values),
        "delta_star": np.array(result.deltas, dtype=float),
        "status": _status(result)})
    try:
        report = thickness_scaling_report(result)
    except ValueError as exc:
        (outdir / "bl_fits.json").write_text(json.dumps(
            {"config_hash": config_hash(cfg), "error": str(exc)},
            indent=2) + "\n")
        return 1
    _write_csv(outdir / "tau_table.csv", tag, {
        name: np.array([getattr(r, name) for r in report.tau_table])
        for name in ("mu", "delta", "tau", "w_grad_interior")})
    (outdir / "bl_fits.json").write_text(json.dumps({
        "config_hash": config_hash(cfg),
        "alpha": _fit_dict(report.alpha_fit),
        "excluded_saturated": list(report.excluded_saturated),
        "envelope_c1": report.envelope_c1,
        "envelope_c2": report.envelope_c2,
        "envelope_rel_residual": report.envelope_rel_residual,
    }, indent=2, sort_keys=True) + "\n")
    ok = all(f is None for f in result.failures)
    return 0 if ok else 1


def cmd_verify(cfg: RunConfig, outdir: Path) -> int:
    report = verify_suites.run_all()
    payload = {"config_hash": config_hash(cfg), "checks": report,
               "all_passed": all(c["passed"] for c in report.values())}
    (outdir / "verify_report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for name, check in report.items():
        print(f"{name}: {'pass' if check['passed'] else 'FAIL'}")
    return 0 if payload["all_passed"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="planemhd",
        description="1-D plane-MHD solver and vanishing-shear-viscosity "
                    "experiment harness")
    parser.add_argument("command",
                        choices=("run", "limit", "sweep", "bl", "verify"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mu", type=float, default=None)
    parser.add_argument("--n-cells", type=int, default=None)
    parser.add_argument("--t-end", type=float, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    if args.command == "run":
        return cmd_run(cfg, outdir, limit=False)
    if args.command == "limit":
        return cmd_run(cfg, outdir, limit=True)
    if args.command == "sweep":
        return cmd_sweep(cfg, outdir)
    if args.command == "bl":
        return cmd_bl(cfg, outdir)
    return cmd_verify(cfg, outdir)


if __name__ == "__main__":
    sys.exit(main())
