"""pdgap benchmark: adaptive studies timed end to end, or traced per layer.

Usage (from the repository root)::

    python3 pdbench/run.py --workload p12-newton --seed 3 --trace 0
    python3 pdbench/run.py --workload all --seconds 44

One run is a closed loop with a single client: it starts one study at a
time, each in a fresh ``python3 pdbench/study.py`` process with BLAS and
OpenMP pinned to one thread, and starts the next only when the previous one
has ended and the next is expected to finish within ``--seconds``.  At least
one study always runs.  Study ``i`` of a run with seed ``n`` starts from the
L-shape mesh relabelled by ``(n, i)`` (see ``workloads.relabelled_lshape``),
so a seed fixes the sequence of inputs.  ``--trace 0`` reports the
end-to-end metrics as medians over the run's studies, that is over several
numberings of one mesh; ``--trace 1`` alternates untraced and traced studies
of the numbering ``(n, 0)`` and reports the per-layer metrics of the traced
ones.  Every study passes through the correctness gate in ``study.py``.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` (adaptive levels) and ``metrics``.  A study that crashes (for example because
``src/pdgap`` is missing) ends the run with exit code 1 and no JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import EXACT_COUNTS, LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "study_s": "s",
    "last_level_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_eta_sq": "1",
    "levels_ok_share": "1",
}

#: One thread for every BLAS/OpenMP runtime the study may load.
THREAD_ENV = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                            "NUMEXPR_NUM_THREADS"), "1")

#: A study that runs longer than this is killed and fails the run.
STUDY_TIMEOUT_S = 170.0


class StudyCrashed(RuntimeError):
    """A study process ended without a report."""


def run_study(workload: str, seed: int, study: int, run_id: str,
              traced: bool, levels: int | None) -> dict:
    """Run one study in a fresh process and return its report."""
    cmd = [sys.executable, str(HERE / "study.py"), "--workload", workload,
           "--seed", str(seed), "--study", str(study), "--run-id", run_id]
    if traced:
        cmd.append("--traced")
    if levels is not None:
        cmd += ["--levels", str(levels)]
    env = dict(os.environ, **THREAD_ENV, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=STUDY_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise StudyCrashed(f"{run_id}: no result within "
                           f"{STUDY_TIMEOUT_S:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise StudyCrashed(f"{run_id}: exit code {proc.returncode}\n"
                           + proc.stderr[-2000:])
    return json.loads(lines[-1])


def tail_percentile(values: list[float]):
    """The highest percentile with at least ten samples above it, as
    ``(percent, value)``, or ``None`` with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    below = n - 10
    return 100.0 * below / n, sorted(values)[below - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            levels: int | None = None) -> dict:
    """One benchmark run; returns its result object."""
    started = time.perf_counter()
    reports: list[dict] = []
    longest = 0.0
    while True:
        traced = trace and len(reports) % 2 == 1
        # untraced runs give each study its own relabelling; traced runs keep
        # one, so that counts repeat and the overhead compares like with like
        study = 0 if trace else len(reports)
        run_id = f"{workload}-s{seed}-{len(reports)}{'t' if traced else 'u'}"
        t0 = time.perf_counter()
        report = run_study(workload, seed, study, run_id, traced, levels)
        longest = max(longest, time.perf_counter() - t0)
        reports.append(report)
        print_study(report)
        complete = not trace or len(reports) >= 2
        if complete and (time.perf_counter() - started + longest > seconds):
            break

    untraced = [r for r in reports if not r["traced"]]
    traced = [r for r in reports if r["traced"]]
    problems = [p for r in reports for p in r["problems"]]
    attempted = sum(r["levels"] for r in reports)
    failed = sum(r["failed_levels"] for r in reports)

    if trace:
        # times are medians over the traced studies; counts and ratios are
        # those of the first traced study
        metrics = {}
        for name, (unit, _) in LAYER_METRICS.items():
            if name == "trace.overhead_s":
                value = (statistics.median(r["study_s"] for r in traced)
                         - statistics.median(r["study_s"] for r in untraced))
            elif unit == "s":
                value = statistics.median(r["layers"][name] for r in traced)
            else:
                value = traced[0]["layers"][name]
            metrics[name] = value
        for name in EXACT_COUNTS:
            seen = {r["layers"][name] for r in traced}
            if len(seen) > 1:
                problems.append(f"{name} differs between traced studies: "
                                f"{sorted(seen)}")
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    else:
        metrics = {name: statistics.median(r[name] for r in reports)
                   for name in END_TO_END if name != "levels_ok_share"}
        metrics["levels_ok_share"] = 1.0 - failed / attempted
        units = END_TO_END
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print_summary(workload, seed, result, reports, problems)
    return result


def print_study(report: dict) -> None:
    verdict = "ok" if not report["problems"] else "; ".join(report["problems"])
    kind = "traced" if report["traced"] else "untraced"
    print(f"  {report['run_id']} ({kind}): study_s {report['study_s']:.3f} s, "
          f"last_level_s {report['last_level_s']:.3f} s, "
          f"setup_s {report['setup_s']:.3f} s, "
          f"peak_rss_mb {report['peak_rss_mb']:.1f} MB, "
          f"N {report['final_N']}, gate: {verdict}", flush=True)


def print_summary(workload: str, seed: int, result: dict, reports: list[dict],
                  problems: list[str]) -> None:
    untraced = [r["study_s"] for r in reports if not r["traced"]]
    print(f"{workload} (seed {seed}, {WORKLOADS[workload].command}): "
          f"{len(reports)} studies, {len(untraced)} untraced samples")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    tail = tail_percentile(untraced)
    if tail is None:
        print(f"  study_s tail: n={len(untraced)}, fewer than 11 samples, "
              "no percentile has 10 samples above it")
    else:
        print(f"  study_s p{tail[0]:.0f} = {tail[1]:.6g} s "
              f"(n={len(untraced)})")
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(f"  verdict: {verdict} ({result['failed']} of {result['attempted']} "
          "levels failed)")
    for problem in problems:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="pdgap adaptive-study benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--levels", type=int, default=None,
                        help="cut every study to this many levels (smoke "
                             "check; skips the final-level reference)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds,
                                    bool(args.trace), args.levels)
    except StudyCrashed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
