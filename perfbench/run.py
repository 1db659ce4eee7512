"""planemhd benchmark: one workload per process, every metric by name.

    python3 perfbench/run.py --workload accept-sweep --seed 1 --seconds 30 \
        --trace 0

With `--trace 0` the run measures the end-to-end metrics with no tracing;
with `--trace 1` it measures half its time untraced and half traced and
prints the per-layer metrics. Every iteration's outputs are checked.
Before the result the run prints one JSON line with the environment and
the raw samples; the last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

The program is imported from `src/` next to this directory; without it
the run exits with a nonzero code and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS, import_program

ROOT = Path(__file__).resolve().parent.parent
# Set-up is sampled in this process and in this many fresh ones.
SETUP_PROBES = 4
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s",
                    "cell_steps_per_s": "1/s", "peak_rss_mb": "MB"}

# Per-layer metrics: "<layer>.<function>.<field>" from the spans.
SELF_TIMED = (
    "solver.tridiag_solve", "solver.velocity_system",
    "solver.transverse_system", "solver.induction_system",
    "solver.temperature_system", "solver.advance_density",
    "solver.advance_velocity", "solver.advance_transverse",
    "solver.advance_induction", "solver.advance_temperature",
    "solver.stable_dt", "solver.step", "solver.run", "core.FlowState",
    "core.make_initial_state", "diagnostics.record",
    "diagnostics.error_norms", "diagnostics.interior_w_grad",
    "diagnostics.interior_sup_deviation", "sweep.bl_thickness",
    "sweep.run_sweep", "sweep.thickness_scaling_report", "cli.cmd_run",
    "config.parse_config", "mms.manufactured_steady",
    "mms.manufactured_transient", "mms.solution_error",
    "verify.check_steady_state", "verify.check_conservation",
    "verify.check_oracle_equivalence", "verify.check_manufactured_orders")
COUNTED = (
    "solver.tridiag_solve", "solver.step", "solver.run", "core.FlowState",
    "diagnostics.record", "diagnostics.interior_sup_deviation",
    "sweep.bl_thickness", "mms.solution_error")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable cores; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, str(nproc))
    return nproc


def cache_sizes() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}-{kind.lower()}"] = size
    return caches


def environment(nproc: int) -> dict:
    import numpy

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": version("scipy"),
            "sympy": version("sympy"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "machine": platform.machine(), "caches": cache_sizes()}


def set_up(args, workdir, tracer=None):
    """Import the program and build the workload; returns the seconds."""
    start = time.perf_counter()
    program = import_program(ROOT)
    with tracer or contextlib.nullcontext():
        workload = WORKLOADS[args.workload](program, args.seed, args.tiny,
                                            workdir)
    return workload, time.perf_counter() - start


def probe_set_up(args) -> float:
    """Set-up seconds of a fresh process running this file."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def timed_loop(workload, budget: float) -> dict:
    """Run iterations until the next one would end past `budget` seconds;
    at least one. Only `execute` is timed; `check` runs after it."""
    walls, cell_steps, output_bytes, problems = [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        wall = None
        try:
            out = workload.execute()
            wall = time.perf_counter() - t0
            found = workload.check(out)
        except Exception as exc:
            if wall is None:
                wall = time.perf_counter() - t0
            traceback.print_exc()
            found = (0, 0, [f"{type(exc).__name__}: {exc}"])
        walls.append(wall)
        cell_steps.append(found[0])
        output_bytes.append(found[1])
        problems.append(found[2])
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > budget:
            return {"walls": walls, "cell_steps": cell_steps,
                    "output_bytes": output_bytes, "problems": problems}


def end_to_end(samples: dict, setups: list) -> dict:
    rates = [c / w for c, w in zip(samples["cell_steps"], samples["walls"])]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {"wall_s": statistics.median(samples["walls"]),
              "setup_s": statistics.median(setups),
              "cell_steps_per_s": statistics.median(rates),
              "peak_rss_mb": peak_kib / 1024}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def per_layer(setup_tracer, tracer, traced, untraced) -> dict:
    """Per-layer values for one execution of the workload: its set-up
    spans plus the mean over the traced iterations."""
    iterations = len(traced["walls"])
    setup_totals, _ = setup_tracer.layer_totals()
    run_totals, covered = tracer.layer_totals()

    def per_run(field, name):
        return (setup_totals[name][field]
                + run_totals[name][field] / iterations)

    def errors(name, kind):
        return (setup_totals[name]["errors"][kind]
                + run_totals[name]["errors"][kind] / iterations)

    traced_wall = sum(traced["walls"]) / iterations
    untraced_wall = sum(untraced["walls"]) / len(untraced["walls"])
    m = {}
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = (per_run("self_s", name), "s")
    for name in COUNTED:
        m[f"{name}.calls"] = (per_run("calls", name), "count")
    m["solver.tridiag_solve.rows"] = (
        (setup_tracer.sizes["solver.tridiag_solve"]
         + tracer.sizes["solver.tridiag_solve"] / iterations),
        "count")
    m["solver.tridiag_solve.wall_share"] = (
        run_totals["solver.tridiag_solve"]["self_s"] / iterations
        / traced_wall, "ratio")
    steps = per_run("calls", "solver.step")
    rejected = errors("solver.step", "StepFailure")
    m["solver.step.rejected"] = (rejected, "count")
    m["solver.step.accepted_ratio"] = (
        (steps - rejected) / steps if steps else 0.0, "ratio")
    m["solver.run.aborted"] = (errors("solver.run", "RunAborted"),
                               "count")
    m["cli.output_bytes"] = (statistics.median(traced["output_bytes"]),
                             "bytes")
    m["trace.traced_wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.unattributed_s"] = (traced_wall - covered / iterations,
                                 "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    nproc = cap_blas_threads()

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.setup_probe:
            _, seconds = set_up(args, workdir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        if args.trace:
            setup_tracer = Tracer()
            workload, _ = set_up(args, workdir, setup_tracer)
            workload.warm_up()
            untraced = timed_loop(workload, args.seconds / 2)
            with Tracer() as tracer:
                traced = timed_loop(workload, args.seconds / 2)
            metrics = per_layer(setup_tracer, tracer, traced, untraced)
            runs = [untraced, traced]
            samples = {"untraced_walls": untraced["walls"],
                       "traced_walls": traced["walls"]}
        else:
            workload, setup_s = set_up(args, workdir)
            setups = [setup_s] + [probe_set_up(args)
                                  for _ in range(SETUP_PROBES)]
            workload.warm_up()
            timed = timed_loop(workload, args.seconds)
            metrics = end_to_end(timed, setups)
            runs = [timed]
            samples = {"walls": timed["walls"], "setups": setups,
                       "cell_steps": timed["cell_steps"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for run in runs for p in run["problems"]]
    failed = sum(1 for p in problems if p)
    for issue in (i for p in problems for i in p):
        print(f"check failed: {issue}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "inputs": workload.inputs,
                      "environment": environment(nproc),
                      "samples": samples}))
    print(json.dumps({"correct": failed == 0, "attempted": len(problems),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
