"""One adaptive study in a fresh process: set up, run, check, report.

Run by ``run.py`` as ``python3 pdbench/study.py --workload W --seed N
--study I --run-id ID [--traced] [--levels L]``; the initial mesh is the
L-shape relabelled from ``(N, I)``.  Prints one JSON object on its last
stdout line.  A study that breaks the correctness gate still reports (with
``failed_levels`` set); an exception exits non-zero without a report.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def gate(workload, records, rc: int, levels: int,
         reference) -> tuple[list[str], int]:
    """Correctness problems of one study and the number of failed levels.

    A level fails when it is missing or breaks a per-row check.  A non-zero
    return code or a final level off its reference fails every level.
    ``reference`` is ``(N, eta_hat_sq, rel_tol_N, rel_tol_eta)`` for the
    final level, or ``None`` for a study cut short of the full workload.
    """
    problems = []
    bad_rows = set()
    for r in records:
        if not r.D_dual <= r.I_primal:
            problems.append(f"level {r.k}: D_dual {r.D_dual!r} > I_primal "
                            f"{r.I_primal!r}")
            bad_rows.add(r.k)
        if not r.discrete_gap >= 0.0:
            problems.append(f"level {r.k}: discrete_gap {r.discrete_gap!r}")
            bad_rows.add(r.k)
    if workload.monotone_primal:
        for a, b in zip(records, records[1:]):
            if b.I_primal > a.I_primal:
                problems.append(f"level {b.k}: primal energy increased")
                bad_rows.add(b.k)
    failed = levels - len(records) + len(bad_rows)
    if len(records) != levels:
        problems.append(f"{len(records)} of {levels} levels completed")
    whole = []
    if rc != 0:
        whole.append(f"run_benchmark returned {rc}")
    if reference is not None and records:
        n_ref, eta_ref, tol_n, tol_eta = reference
        last = records[-1]
        if abs(last.N - n_ref) > tol_n * n_ref:
            whole.append(f"final N {last.N} vs reference {n_ref}")
        if abs(last.eta_hat_sq - eta_ref) > tol_eta * eta_ref:
            whole.append(f"final eta_hat_sq {last.eta_hat_sq!r} vs "
                         f"reference {eta_ref!r}")
    return problems + whole, levels if whole else failed


def reference_for(workload_name: str):
    """Final-level reference of a workload: ``(N, eta_hat_sq, rel_tol_N,
    rel_tol_eta)``.  Relabelling the mesh moves the final level only through
    roundoff, so one reference with a tolerance serves every seed."""
    data = json.loads((HERE / "reference.json").read_text())
    ref = data["references"][workload_name]
    return (ref["N"], ref["eta_hat_sq"], ref["rel_tol_N"],
            ref["rel_tol_eta_hat_sq"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--study", type=int, required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--levels", type=int, default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, relabelled_lshape
    workload = WORKLOADS[args.workload]

    # set-up: import the package, build the seeded mesh, build the problem
    import pdgap
    if Path(pdgap.__file__).resolve().parent != ROOT / "src" / "pdgap":
        raise SystemExit(f"pdgap imported from {pdgap.__file__}, not from "
                         f"{ROOT / 'src'}")
    from pdgap.afem import AfemConfig, read_trace_csv
    from pdgap.cli import BenchmarkSpec, run_benchmark
    config = dict(workload.config)
    if args.levels is not None:
        config["max_iterations"] = args.levels
    cfg = AfemConfig(**config)
    spec = BenchmarkSpec(mesh=relabelled_lshape(args.seed, args.study),
                         **workload.spec)
    spec.make_problem()
    setup_s = time.perf_counter() - _STARTED

    tracer = None
    if args.traced:
        from tracer import Tracer
        tracer = Tracer(args.run_id)
        tracer.install()
        run_benchmark = tracer.wrap("study", run_benchmark)

    out_dir = OUT / args.run_id
    started = time.perf_counter()
    rc = run_benchmark(spec, cfg, out_dir, seed=args.seed)
    study_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records = read_trace_csv(out_dir / "trace.csv")
    full = cfg.max_iterations == workload.levels
    reference = reference_for(workload.name) if full else None
    problems, failed_levels = gate(workload, records, rc,
                                   cfg.max_iterations, reference)
    shutil.rmtree(out_dir)

    last = records[-1] if records else None
    report = {
        "run_id": args.run_id,
        "traced": args.traced,
        "setup_s": setup_s,
        "study_s": study_s,
        "last_level_s": last.seconds if last else float("nan"),
        "peak_rss_mb": peak_rss_mb,
        "final_eta_sq": last.eta_hat_sq if last else float("nan"),
        "final_N": last.N if last else 0,
        "levels": cfg.max_iterations,
        "levels_completed": len(records),
        "failed_levels": failed_levels,
        "problems": problems,
        "reference_checked": reference is not None,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics(
            study_s, len(records), last.elements if last else 0)
        tracer.write_spans(OUT / f"spans-{args.run_id}.csv")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
