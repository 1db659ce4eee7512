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
from collections import deque
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, config_hash, parse_config, \
    render_config
from .core import interpolate_to_nodes, make_initial_state
from .solver import RunAborted, run_lockstep
from .sweep import SweepPlan, run_sweep, thickness_scaling_report
from . import verify as verify_suites


# Rows per formatted block: a block is the unit of work of one formatter
# call, so the writer never holds more than a few blocks of text or
# Python floats at once.
BLOCK_ROWS = 16384

SNAPSHOT_COLUMNS = ("t", "x", "rho", "u", "w1", "w2", "b1", "b2", "theta")


def _usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _format_block(fmt: str, columns: list) -> str:
    """One block of CSV rows: fmt applied to each row of the columns."""
    values = [c.tolist() if isinstance(c, np.ndarray) else c
              for c in columns]
    return "".join(fmt % row for row in zip(*values))


class _BlockFormatter:
    """Formats blocks of rows and writes them to a file, in order.

    A block is a list of columns, all of one length: a float array,
    written as %.17g, or a sequence of strings. Blocks are formatted in
    this process until a second block arrives. Then, on a platform with
    fork and at least two usable cores, they go to a pool of forked
    workers, which format them while the caller makes the next ones. At
    most 2 x workers blocks are in flight, and each is written once it
    and those before it are done. The pool is shut down on exit; on a
    clean exit the blocks still held are written first.
    """

    def __init__(self, file):
        self.file = file
        self.fmt = None
        self.workers = _usable_cores() if hasattr(os, "fork") else 1
        self.first = None       # held until a second block starts the pool
        self.pool = None
        self.pending = deque()

    def write(self, columns: list) -> None:
        if self.fmt is None:
            self.fmt = ",".join("%.17g" if isinstance(c, np.ndarray)
                                else "%s" for c in columns) + "\n"
        if self.workers > 1 and self.pool is None:
            if self.first is None:
                self.first = columns
                return
            # imported here, so that commands writing no multi-block
            # file do not pay their import time and memory
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            self.pool = ProcessPoolExecutor(
                self.workers, mp_context=multiprocessing.get_context("fork"))
            self._submit(self.first)
            self.first = None
        self._submit(columns)

    def _submit(self, columns: list) -> None:
        if self.pool is None:
            self.file.write(_format_block(self.fmt, columns))
            return
        pending = self.pending
        while pending and (pending[0].done()
                           or len(pending) == 2 * self.workers):
            self.file.write(pending.popleft().result())
        pending.append(self.pool.submit(_format_block, self.fmt, columns))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is None:
                if self.first is not None:
                    self._submit(self.first)
                while self.pending:
                    self.file.write(self.pending.popleft().result())
        finally:
            if self.pool is not None:
                self.pool.shutdown(cancel_futures=True)


@contextmanager
def _csv_writer(path: Path, header: str, names):
    """Yield write(block), which adds one block of rows (see
    _BlockFormatter) to a CSV file of the header line, the column names
    and the rows. The file is written under a temporary name beside
    path and moved to path on a clean exit; on an exception it is
    removed and path is left as it was."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("w") as f, _BlockFormatter(f) as blocks:
            f.write(f"{header}\n{','.join(names)}\n")
            yield blocks.write
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: str, columns: dict) -> None:
    """Write a whole table: columns maps each name to its values, which
    are written in blocks of BLOCK_ROWS rows."""
    values = list(columns.values())
    with _csv_writer(path, header, columns) as write:
        for i in range(0, len(values[0]), BLOCK_ROWS):
            write([c[i:i + BLOCK_ROWS] for c in values])


class _SnapshotBlocks:
    """on_snapshot hook of a one-member run that writes snapshots.csv.

    It copies each snapshot's node values into a block of
    BLOCK_ROWS // (N+1) whole snapshots and passes each full block to
    write; flush passes the last, partial one.
    """

    def __init__(self, grid, write):
        self.write = write
        self.nodes = ["%.17g" % x for x in grid.node_positions.tolist()]
        self.size = max(BLOCK_ROWS // len(self.nodes), 1)
        self.times = []
        self.values = None

    def __call__(self, state, members) -> None:
        if not self.times:
            # a new array per block: the pool may not have read the last
            self.values = np.empty((len(SNAPSHOT_COLUMNS) - 2, self.size,
                                    len(self.nodes)))
        row = self.values[:, len(self.times)]
        self.times.append(state.t)
        row[0] = interpolate_to_nodes(state.rho[0])
        row[1] = state.u[0]
        row[2:4] = state.w[0].T
        row[4:6] = state.b[0].T
        row[6] = interpolate_to_nodes(state.theta[0])
        if len(self.times) == self.size:
            self.flush()

    def flush(self) -> None:
        n = len(self.times)
        if n == 0:
            return
        # t and x repeat across rows: format each distinct value once
        times = ["%.17g" % t for t in self.times]
        self.write([[t for t in times for _ in self.nodes], self.nodes * n,
                    *self.values[:, :n].reshape(len(self.values), -1)])
        self.times = []


def _load_config(args) -> RunConfig:
    flags = [("physics", "mu", args.mu, "--mu"),
             ("grid", "n_cells", args.n_cells, "--n-cells"),
             ("time", "t_end", args.t_end, "--t-end")]
    flags = [f for f in flags if f[2] is not None]
    text = Path(args.config).read_text()
    cfg = parse_config(text, flags)
    if args.command == "limit":
        # after the flags are checked, so that a bad --mu is still refused
        cfg = parse_config(text, flags + [("physics", "mu", 0.0, "limit")])
    return cfg


def _write_json(path: Path, cfg: RunConfig, payload: dict) -> None:
    """Write payload and the config hash as sorted, indented JSON."""
    path.write_text(json.dumps({"config_hash": config_hash(cfg), **payload},
                               indent=2, sort_keys=True) + "\n")


def _scenario(cfg: RunConfig):
    grid = cfg.grid_spec()
    params = cfg.phys_params()
    bdry = cfg.boundary_data()
    initial = make_initial_state(grid, cfg["initial"]["preset"], bdry)
    return grid, params, bdry, initial, cfg.time_config()


def cmd_run(cfg: RunConfig, outdir: Path) -> int:
    grid, params, bdry, initial, tcfg = _scenario(cfg)
    tag = f"# config_hash={config_hash(cfg)}"
    try:
        with _csv_writer(outdir / "snapshots.csv", tag,
                         SNAPSHOT_COLUMNS) as write:
            snapshots = _SnapshotBlocks(grid, write)
            (diag,) = run_lockstep(initial, grid, params, bdry, tcfg,
                                   (params.mu,), on_snapshot=snapshots,
                                   store=())
            if isinstance(diag, RunAborted):
                raise diag
            snapshots.flush()
    except RunAborted as exc:
        code, payload = 1, {"status": "aborted", "failure": exc.report}
    else:
        _write_csv(outdir / "diagnostics.csv", tag,
                   {name: diag[name] for name in diag.dtype.names})
        code, payload = 0, {
            "status": "ok", "t_final": float(diag["t"][-1]),
            "n_steps": len(diag) - 1,
            "final_mass": float(diag["mass"][-1]),
            "final_energy": float(diag["total_energy"][-1])}
    _write_json(outdir / "summary.json", cfg,
                {"resolved_config": render_config(cfg), **payload})
    return code


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
        _write_json(fits_path, cfg,
                    {"status": "aborted", "failure": exc.report})
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
    _write_json(outdir / "fits.json", cfg, {
        "rate": _fit_dict(result.rate_fit),
        "thickness": _fit_dict(result.thickness_fit),
        "scaled_w_grad": result.scaled_w_grad,
        "failures": result.failures})
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
        _write_json(outdir / "bl_fits.json", cfg, {"error": str(exc)})
        return 1
    _write_csv(outdir / "tau_table.csv", tag, {
        name: np.array([getattr(r, name) for r in report.tau_table])
        for name in ("mu", "delta", "tau", "w_grad_interior")})
    _write_json(outdir / "bl_fits.json", cfg, {
        "alpha": _fit_dict(report.alpha_fit),
        "excluded_saturated": list(report.excluded_saturated),
        "envelope_c1": report.envelope_c1,
        "envelope_c2": report.envelope_c2,
        "envelope_rel_residual": report.envelope_rel_residual})
    ok = all(f is None for f in result.failures)
    return 0 if ok else 1


def cmd_verify(cfg: RunConfig, outdir: Path) -> int:
    report = verify_suites.run_all()
    all_passed = all(c["passed"] for c in report.values())
    _write_json(outdir / "verify_report.json", cfg,
                {"checks": report, "all_passed": all_passed})
    for name, check in report.items():
        print(f"{name}: {'pass' if check['passed'] else 'FAIL'}")
    return 0 if all_passed else 1


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
    if args.command in ("run", "limit"):
        return cmd_run(cfg, outdir)
    if args.command == "sweep":
        return cmd_sweep(cfg, outdir)
    if args.command == "bl":
        return cmd_bl(cfg, outdir)
    return cmd_verify(cfg, outdir)


if __name__ == "__main__":
    sys.exit(main())
