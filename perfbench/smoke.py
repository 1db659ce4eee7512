"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at its smallest inputs (`--tiny`),
once untraced and once traced, and checks that the last output line is
a correct result naming exactly the end-to-end or per-layer metrics of
BENCHMARK.json, each with its unit. Exits nonzero on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_result(result: dict, expected: list, positive: bool) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) \
            or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in expected}
    if list(metrics) != list(want):
        problems.append(f"metric names differ: missing "
                        f"{sorted(set(want) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        got = metrics.get(name)
        if got is None:
            continue
        if got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r}, want "
                            f"{unit!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or (positive and value <= 0):
            problems.append(f"{name}: value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = spec["command"] + [
                "--workload", workload["name"], "--seed", "1",
                "--seconds", "1", "--trace", str(trace), "--tiny"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=300)
            label = f"{workload['name']} --trace {trace}"
            if done.returncode != 0:
                problems = [f"exit code {done.returncode}: "
                            f"{done.stderr.strip()[-2000:]}"]
            else:
                result = json.loads(done.stdout.splitlines()[-1])
                problems = check_result(result, spec[key],
                                        positive=trace == 0)
            print(f"{label}: {'ok' if not problems else 'FAIL'}")
            for problem in problems:
                print(f"  {problem}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
