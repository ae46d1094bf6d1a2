"""Smoke self-check of the benchmark harness.

Runs every workload cut to 3 levels, once untraced and once traced, and
checks that each run ends with a well-formed result line naming every
metric that ``BENCHMARK.json`` declares (with its unit), that each metric
is also printed by name, that the correctness gate passed, and that the
exact counts repeat between two traced runs of one seed.  Takes about
fifteen seconds::

    python3 pdbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(workload: str, trace: int,
              declared: list[dict]) -> tuple[list[str], dict]:
    """Errors of one cut run, and its metrics."""
    # --seconds 0 runs the minimum: one untraced study, or with --trace 1
    # one untraced and one traced study
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", str(trace),
           "--levels", "3"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: "
                f"{proc.stderr[-500:]}"], {}
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{where}: not correct")
    metrics = result.get("metrics", {})
    printed = "\n".join(lines[:-1])
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        got = metrics.get(name)
        if got is None or got.get("unit") != unit:
            errors.append(f"{where}: metric {name} [{unit}] missing: {got}")
        if f"  {name} = " not in printed:
            errors.append(f"{where}: metric {name} not printed by name")
    extra = set(metrics) - {e["name"] for e in declared}
    if extra:
        errors.append(f"{where}: undeclared metrics {sorted(extra)}")
    return errors, metrics


def main() -> int:
    sys.path.insert(0, str(HERE))
    from tracer import EXACT_COUNTS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        errors += check_run(workload, 0, bench["end_to_end"])[0]
        first, layers = check_run(workload, 1, bench["per_layer"])
        second, again = check_run(workload, 1, bench["per_layer"])
        errors += first + second
        for name in EXACT_COUNTS:
            if layers.get(name) != again.get(name):
                errors.append(f"{workload}: {name} {layers.get(name)} then "
                              f"{again.get(name)}")
    for error in errors:
        print(f"FAIL {error}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
