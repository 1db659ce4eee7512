"""Span tracing around the calls into each planemhd layer.

The tracer lives in the benchmark, not in the program: `install` rebinds
every module attribute of the `planemhd` package that refers to a traced
function, so calls made through names imported into another module
(`sweep.error_norms`, `mms.run`, `verify.step`, ...) are traced too.
`FlowState` is a class, so its `__init__` is wrapped in place instead.

`eos` is not traced: its functions are bound at import inside `solver`
and `diagnostics`, and their cost shows in the self time of the callers.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Traced functions per module. Every name here is a per-layer span.
LAYERS = {
    "solver": ("tridiag_solve", "velocity_system", "transverse_system",
               "induction_system", "temperature_system", "advance_density",
               "advance_velocity", "advance_transverse", "advance_induction",
               "advance_temperature", "stable_dt", "step", "run"),
    "core": ("make_initial_state",),
    "diagnostics": ("record", "error_norms", "interior_w_grad",
                    "interior_sup_deviation"),
    "sweep": ("bl_thickness", "run_sweep", "thickness_scaling_report"),
    "cli": ("main", "cmd_run", "cmd_verify"),
    "config": ("parse_config",),
    "mms": ("manufactured_steady", "manufactured_transient",
            "solution_error"),
    "verify": ("check_steady_state", "check_conservation",
               "check_oracle_equivalence", "check_manufactured_orders"),
}

# Work done by one successful call, summed into `Tracer.sizes`: the
# unknowns of a tridiagonal system, the cells advanced by a step.
SIZES = {"solver.tridiag_solve": lambda args: len(args[1]),
         "solver.step": lambda args: args[1].n_cells}


class Tracer:
    """Records one span per traced call: (name, start, end, parent, error).

    `parent` is the index of the enclosing span in `spans`, or -1 for a
    root span; `error` is the name of the exception the call raised, or
    None. Spans stay in memory until `layer_totals` reduces them.
    """

    def __init__(self):
        self.spans = []
        self.sizes = defaultdict(int)
        self._stack = []
        self._undo = []

    def wrap(self, name, fn):
        spans, stack, sizes = self.spans, self._stack, self.sizes
        clock = time.perf_counter
        size = SIZES.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, error)
            if size is not None:
                sizes[name] += size(args)
            return result

        return traced

    def install(self):
        """Rebind every traced function in the loaded planemhd modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "planemhd" or n.startswith("planemhd.")]
        for layer, names in LAYERS.items():
            owner = sys.modules[f"planemhd.{layer}"]
            for attr in names:
                fn = getattr(owner, attr)
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._undo.append((mod, key, fn))
                            setattr(mod, key, wrapped)
        flow_state = sys.modules["planemhd.core"].FlowState
        self._undo.append((flow_state, "__init__", flow_state.__init__))
        flow_state.__init__ = self.wrap("core.FlowState", flow_state.__init__)

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def layer_totals(self):
        """Per span name: calls, self seconds, raised exceptions by name.

        Self time is a span's duration minus the durations of its direct
        children; also returns the summed duration of the root spans.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                      "errors": defaultdict(int)})
        covered = 0.0
        for i, (name, start, end, parent, error) in enumerate(self.spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[i]
            if error is not None:
                entry["errors"][error] += 1
            if parent < 0:
                covered += end - start
        return totals, covered
