"""Command-line entry point: run | limit | sweep | verify.

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
from .sweep import SweepPlan, report, run_sweep
from . import verify as verify_suites


# Rows per formatted block: the writer cuts every file into blocks of
# this many rows, and a block is the unit of work of one formatter call,
# so the writer never holds more than a few blocks of text or Python
# floats at once. The size bounds the text in flight: at most
# 2 x workers blocks, ~0.5 MB each for snapshots.csv (~137 bytes a row).
# Smaller blocks start to cost wall time for little memory.
BLOCK_ROWS = 4096

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
    """Formats rows and writes them to a file, in order, in blocks of
    BLOCK_ROWS rows.

    write takes any number of rows as a list of columns, all of one
    length: a float array, written as %.17g, or a sequence of strings.
    They are copied into the next block of BLOCK_ROWS rows, and a full
    block is sent on when a further row arrives, or on exit. A file of
    one block is formatted in this process. Once a file's rows pass its
    first block, on a platform with fork and at least two usable cores,
    the blocks go to a pool of forked workers, which format them while
    the caller makes the next rows. At most 2 x workers blocks are in
    flight, and each is written once it and those before it are done.
    The pool is shut down on exit; on a clean exit the rows still held
    are written first.
    """

    def __init__(self, file):
        self.file = file
        self.fmt = None
        self.workers = _usable_cores() if hasattr(os, "fork") else 1
        self.block = None       # the next block, filled to self.rows
        self.rows = 0
        self.pool = None
        self.pending = deque()

    def write(self, columns: list) -> None:
        if self.fmt is None:
            self.fmt = ",".join("%.17g" if isinstance(c, np.ndarray)
                                else "%s" for c in columns) + "\n"
        i, n = 0, len(columns[0])
        while i < n:
            if self.rows == BLOCK_ROWS:
                if self.workers > 1 and self.pool is None:
                    # imported here, so that commands writing no
                    # multi-block file do not pay their import time
                    import multiprocessing
                    from concurrent.futures import ProcessPoolExecutor
                    self.pool = ProcessPoolExecutor(
                        self.workers,
                        mp_context=multiprocessing.get_context("fork"))
                self._submit(self.block)
                self.rows = 0
            if self.rows == 0:
                # a new block each time: the pool may not have read the last
                self.block = [np.empty(BLOCK_ROWS) if isinstance(c, np.ndarray)
                              else [None] * BLOCK_ROWS for c in columns]
            k = min(n - i, BLOCK_ROWS - self.rows)
            for block, c in zip(self.block, columns):
                block[self.rows:self.rows + k] = c[i:i + k]
            i += k
            self.rows += k

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
                if self.rows:
                    self._submit([c[:self.rows] for c in self.block])
                while self.pending:
                    self.file.write(self.pending.popleft().result())
        finally:
            if self.pool is not None:
                self.pool.shutdown(cancel_futures=True)


@contextmanager
def _csv_writer(path: Path, header: str, names):
    """Yield write(columns), which adds rows (see _BlockFormatter) to a
    CSV file of the header line, the column names and the rows. The
    file is written under a temporary name beside path and moved to
    path on a clean exit; on an exception it is removed and path is
    left as it was."""
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
    """Write a whole table: columns maps each name to its values."""
    with _csv_writer(path, header, columns) as write:
        write(list(columns.values()))


def _load_config(args) -> RunConfig:
    flags = [("physics", "mu", args.mu, "--mu"),
             ("grid", "n_cells", args.n_cells, "--n-cells"),
             ("time", "t_end", args.t_end, "--t-end")]
    flags = [f for f in flags if f[2] is not None]
    text = Path(args.config).read_text(encoding="utf-8")
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


def cmd_run(cfg: RunConfig, outdir: Path, written: list) -> int:
    grid, params, bdry, initial, tcfg = _scenario(cfg)
    tag = f"# config_hash={config_hash(cfg)}"
    try:
        with _csv_writer(outdir / "snapshots.csv", tag,
                         SNAPSHOT_COLUMNS) as write:
            nodes = ["%.17g" % x for x in grid.node_positions.tolist()]

            def on_snapshot(state):
                write([["%.17g" % state.t] * len(nodes), nodes,
                       interpolate_to_nodes(state.rho[0]), state.u[0],
                       *state.w[0].T, *state.b[0].T,
                       interpolate_to_nodes(state.theta[0])])

            (diag,) = run_lockstep(initial, grid, params, bdry, tcfg,
                                   (params.mu,), on_snapshot=on_snapshot)
    except RunAborted as exc:
        code, payload = 1, {"status": "aborted", "failure": exc.report}
    else:
        written.append(outdir / "snapshots.csv")
        _write_csv(outdir / "diagnostics.csv", tag,
                   {name: diag[name] for name in diag.dtype.names})
        written.append(outdir / "diagnostics.csv")
        code, payload = 0, {
            "status": "ok", "t_final": float(diag["t"][-1]),
            "n_steps": len(diag) - 1,
            "final_mass": float(diag["mass"][-1]),
            "final_energy": float(diag["total_energy"][-1])}
    _write_json(outdir / "summary.json", cfg,
                {"resolved_config": render_config(cfg), **payload})
    return code


def cmd_sweep(cfg: RunConfig, outdir: Path, written: list) -> int:
    """Integrate the sweep once and write its report: sweep.csv and
    tau_table.csv (none when there is no envelope) are its tables, and
    fits.json the rest, with the bl_tol used. If the mu = 0 reference
    aborts, fits.json holds its failure report and nothing else is
    written."""
    grid, params, bdry, initial, tcfg = _scenario(cfg)
    plan = SweepPlan(mu_values=cfg.mu_values(), grid=grid, params=params,
                     bdry=bdry, time=tcfg, initial=initial,
                     bl_tol=cfg.bl_tol(),
                     interior_deltas=cfg.interior_deltas())
    try:
        result = run_sweep(plan)
    except RunAborted as exc:
        _write_json(outdir / "fits.json", cfg,
                    {"status": "aborted", "failure": exc.report})
        return 1
    # the tolerance behind delta* and the statuses, also when defaulted
    fits = {"bl_tol": plan.bl_tol, **report(result)}
    tag = f"# config_hash={config_hash(cfg)}"
    for name, table in (("sweep.csv", fits.pop("members")),
                        ("tau_table.csv", fits.pop("tau_table"))):
        if table is not None:
            # a failed member's None reads nan
            _write_csv(outdir / name, tag, {
                column: values if column == "status" else
                np.array(values, dtype=float)
                for column, values in table.items()})
            written.append(outdir / name)
    _write_json(outdir / "fits.json", cfg, fits)
    return 0 if all(f is None for f in fits["failures"]) else 1


def cmd_verify(cfg: RunConfig, outdir: Path, written: list) -> int:
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
                        choices=("run", "limit", "sweep", "verify"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mu", type=float, default=None)
    parser.add_argument("--n-cells", type=int, default=None)
    parser.add_argument("--t-end", type=float, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    command = {"run": cmd_run, "limit": cmd_run, "sweep": cmd_sweep,
               "verify": cmd_verify}[args.command]
    outdir = Path(args.out)
    written = []    # the files the command has put in outdir, in order
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        return command(cfg, outdir, written)
    except OSError as exc:      # an output file that cannot be written
        for path in written:    # leave none of the command's files
            path.unlink(missing_ok=True)
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
