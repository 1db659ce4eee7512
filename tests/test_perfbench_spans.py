"""The benchmark's tracer (perfbench/spans.py) rebinds planemhd functions
by module and name, so every name it lists must exist: a missing one
makes `perfbench/run.py --trace 1` fail."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{layer}.{name}" for layer, names in spans.LAYERS.items()
               for name in names
               if not callable(getattr(
                   importlib.import_module(f"planemhd.{layer}"), name, None))]
    assert missing == []
