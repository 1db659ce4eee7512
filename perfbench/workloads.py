"""The three benchmark workloads and the checks on their outputs.

Each workload is closed loop with one client in one process: the next
iteration starts when the previous one has returned. Constructing a
workload is its set-up (config parsing and plan or initial-state
construction); `execute` is one timed iteration; `check` validates that
iteration's outputs and returns (cell_steps, output_bytes, problems).

The program is called through module attributes (`sweep.run_sweep`,
`cli.main`), so the tracer in `spans.py` sees every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from pathlib import Path

from spans import Tracer

MODULES = ("cli", "config", "core", "sweep")


def import_program(root: Path) -> dict:
    """Import planemhd from the checkout's `src` and no other place."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import planemhd
    if Path(planemhd.__file__).resolve().parent.parent != src:
        raise SystemExit(f"planemhd was imported from {planemhd.__file__}, "
                         f"not from {src}")
    return {name: importlib.import_module(f"planemhd.{name}")
            for name in MODULES}


def _count_rows(path: Path) -> int:
    """Data rows of a planemhd CSV: all lines but the hash and header."""
    with path.open("rb") as f:
        return sum(1 for _ in f) - 2


def _output_bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())


def _clear_sympy_cache():
    """Each iteration re-derives the manufactured forcing, as a fresh
    `planemhd verify` would, instead of reading sympy's expression cache."""
    sympy = sys.modules.get("sympy")
    if sympy is not None:
        sympy.core.cache.clear_cache()


ACCEPT_CONFIG = """\
[grid]
n_cells = {n_cells}

[physics]
lambda = 1.0
mu = 0.1
nu = 1.0
gamma = 1.4

[initial]
preset = transverse-rest

[boundary]
preset = cosine-ramp
amplitude = 1.0
ramp_period = 0.25

[time]
t_end = 0.5
cfl = 0.8
dt_max = {dt_max}
snapshot_stride = 10

[sweep]
mu_values = 1e-2,1e-3,1e-4,1e-5
bl_tol = 0.05
"""

# Criteria 8-11 at N=512 as the acceptance tests print them. The layer
# thicknesses are whole multiples of dx = 1/512 and compare exactly.
ACCEPT_EXPECTED = {"p": 0.244, "alpha": 0.565, "envelope_residual": 0.154}
ACCEPT_DELTAS = (128 / 512, 27 / 512, 8 / 512, 2 / 512)


class AcceptSweep:
    """The criteria 8-11 plan through `run_sweep` and
    `thickness_scaling_report`: the mu = 0 reference plus four mu values,
    1000 steps each at N = 512. Its inputs do not depend on the seed, so
    every run must reproduce the acceptance values."""

    name = "accept-sweep"
    inputs = {}

    def __init__(self, program, seed, tiny, workdir):
        self.sweep = program["sweep"]
        self.tiny = tiny
        text = ACCEPT_CONFIG.format(n_cells=64 if tiny else 512,
                                    dt_max=5e-3 if tiny else 5e-4)
        cfg = program["config"].parse_config(text)
        grid = cfg.grid_spec()
        bdry = cfg.boundary_data()
        initial = program["core"].make_initial_state(
            grid, cfg["initial"]["preset"], bdry)
        self.plan = self.sweep.SweepPlan(
            mu_values=cfg.mu_values(), grid=grid, params=cfg.phys_params(),
            bdry=bdry, time=cfg.time_config(), initial=initial,
            bl_tol=cfg.bl_tol(), interior_deltas=cfg.interior_deltas())

    def warm_up(self):
        pass

    def execute(self):
        result = self.sweep.run_sweep(self.plan)
        return result, self.sweep.thickness_scaling_report(result)

    def check(self, out):
        result, report = out
        problems = [f"mu={mu:g} aborted: {failure}"
                    for mu, failure in zip(result.mu_values, result.failures)
                    if failure is not None]
        if not self.tiny:
            got = {"p": result.rate_fit.exponent,
                   "alpha": report.alpha_fit.exponent,
                   "envelope_residual": report.envelope_rel_residual}
            for key, want in ACCEPT_EXPECTED.items():
                if abs(got[key] - want) > 5e-4:
                    problems.append(f"{key} = {got[key]:.6g}, "
                                    f"expected {want}")
            if tuple(result.deltas) != ACCEPT_DELTAS:
                problems.append(f"delta* = {result.deltas}, "
                                f"expected {list(ACCEPT_DELTAS)}")
        # every mu walks the reference's step sequence (dt is pinned)
        steps = len(result.reference.diagnostics) - 1
        runs = 1 + sum(f is None for f in result.failures)
        return self.plan.grid.n_cells * steps * runs, 0, problems


RUN_CONFIG = """\
[grid]
n_cells = {n_cells}

[physics]
mu = {mu!r}

[initial]
preset = bump

[boundary]
preset = cosine-ramp
amplitude = {amplitude!r}
ramp_period = 0.25

[time]
t_end = {t_end}
"""


class RunCsv:
    """`planemhd run` through `cli.main`: N = 256, bump initial state,
    cosine-ramp wall, default snapshot_stride = 1, so every one of about
    800 steps is written to snapshots.csv. The seed draws mu and the wall
    amplitude."""

    name = "run-csv"

    def __init__(self, program, seed, tiny, workdir):
        self.cli = program["cli"]
        rng = random.Random(seed)
        mu = 10.0 ** rng.uniform(-3.0, -1.0)
        amplitude = rng.uniform(0.8, 1.2)
        self.inputs = {"mu": mu, "amplitude": amplitude}
        self.n_cells = 32 if tiny else 256
        text = RUN_CONFIG.format(n_cells=self.n_cells, mu=mu,
                                 amplitude=amplitude,
                                 t_end=0.05 if tiny else 1.0)
        self.config = Path(workdir) / "run.cfg"
        self.config.write_text(text)
        self.outdir = Path(workdir) / "run-out"
        cfg = program["config"].parse_config(self.config.read_text())
        program["core"].make_initial_state(
            cfg.grid_spec(), cfg["initial"]["preset"], cfg.boundary_data())

    def warm_up(self):
        pass

    def execute(self):
        return self.cli.main(["run", "--config", str(self.config),
                              "--out", str(self.outdir)])

    def check(self, code):
        if code != 0:
            return 0, 0, [f"planemhd run exited with {code}"]
        summary = json.loads((self.outdir / "summary.json").read_text())
        steps = summary["n_steps"]
        problems = []
        with (self.outdir / "diagnostics.csv").open() as f:
            masses = [float(line.split(",")[1]) for line in f.readlines()[2:]]
        drift = max(abs(m - masses[0]) for m in masses) / masses[0]
        if not drift <= 1e-12:
            problems.append(f"relative mass drift {drift:.3e} > 1e-12")
        rows = _count_rows(self.outdir / "snapshots.csv")
        want = (steps + 1) * (self.n_cells + 1)
        if rows != want:
            problems.append(f"snapshots.csv has {rows} rows, "
                            f"expected {want}")
        return (self.n_cells * steps, _output_bytes(self.outdir), problems)


class Verify:
    """`planemhd verify` through `cli.main`: tiny grids (n = 16 to 128),
    the ForcingSpec path and the sympy derivation. Fixed inputs. The
    warm-up iteration pays sympy's lazy imports and counts the cell-steps
    of one iteration."""

    name = "verify"
    inputs = {}

    def __init__(self, program, seed, tiny, workdir):
        self.cli = program["cli"]
        self.config = Path(workdir) / "verify.cfg"
        self.config.write_text("[grid]\nn_cells = 32\n\n[time]\n"
                               "t_end = 0.1\n")
        self.outdir = Path(workdir) / "verify-out"
        program["config"].parse_config(self.config.read_text())
        self.cell_steps = 0

    def warm_up(self):
        with Tracer() as tracer:
            self.execute()
        self.cell_steps = tracer.sizes["solver.step"]

    def execute(self):
        _clear_sympy_cache()
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(["verify", "--config", str(self.config),
                                  "--out", str(self.outdir)])

    def check(self, code):
        report = json.loads(
            (self.outdir / "verify_report.json").read_text())
        problems = [] if code == 0 else [f"planemhd verify exited with "
                                         f"{code}"]
        if not report["all_passed"]:
            problems.append("failed checks: " + ", ".join(
                name for name, check in report["checks"].items()
                if not check["passed"]))
        return self.cell_steps, _output_bytes(self.outdir), problems


WORKLOADS = {w.name: w for w in (AcceptSweep, RunCsv, Verify)}
