"""Run the benchmark workloads on one or two checkouts and compare traces.

A refactor is safe when every ``trace.csv`` it produces is bit-identical
to its parent's apart from the ``seconds`` column.  This script makes that
test one command::

    python3 bench/trace_diff.py CHECKOUT --out DIR
    python3 bench/trace_diff.py PARENT CHANGE --out DIR

For each workload of the checkout's ``pdbench/workloads.py`` it builds the
``BenchmarkSpec`` and ``AfemConfig`` that ``pdbench/study.py`` builds, on
the L-shape mesh as built, and runs ``run_benchmark`` in a fresh process
with ``PYTHONPATH`` set to the checkout's ``src``.  The trace, without its
``seconds`` column, goes to ``DIR/<workload>.csv`` for one checkout and to
``DIR/a/<workload>.csv`` and ``DIR/b/<workload>.csv`` for two.  With two
checkouts it matches the cells of the two traces by column name.  Per
workload it prints the columns that only one side has (``columns only in
a: eta_sq``), then ``identical`` if every shared cell is equal, or else
the first row whose shared cells differ, or the two row counts.  It exits
with status 1 if a shared cell differs in any workload; a column that only
one side has is reported but is not a difference.

``--workload`` (repeatable) picks workloads, ``--levels`` overrides their
level count, and ``--seed``/``--study`` relabel the initial mesh as the
benchmark's numbered studies do.  The 20-level optimal-design run of
acceptance check 7 is ``--workload design-flow --levels 20``.  Nothing is
written under either checkout.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: Runs one workload in the child process: argv is the checkout, the
#: workload, the level count (0: the workload's own), seed, study and the
#: output file.
_CHILD = """
import sys
from pathlib import Path
checkout, name, levels, seed, study, out = sys.argv[1:]
sys.path.insert(0, str(Path(checkout) / "pdbench"))
from workloads import WORKLOADS, relabelled_lshape
from pdgap.afem import AfemConfig
from pdgap.cli import BenchmarkSpec, run_benchmark
workload = WORKLOADS[name]
config = dict(workload.config)
if int(levels):
    config["max_iterations"] = int(levels)
spec = BenchmarkSpec(mesh=relabelled_lshape(int(seed), int(study)),
                     **workload.spec)
rc = run_benchmark(spec, AfemConfig(**config), Path(out).parent / "run")
lines = (Path(out).parent / "run" / "trace.csv").read_text().splitlines()
drop = lines[0].split(",").index("seconds")
Path(out).write_text("".join(
    ",".join(c for i, c in enumerate(line.split(",")) if i != drop) + "\\n"
    for line in lines))
sys.exit(rc)
"""

WORKLOADS = ("p12-newton", "design-flow", "p2-average")


def run_trace(checkout: Path, workload: str, levels: int, seed: int,
              study: int, out: Path) -> int:
    """Write the seconds-free trace of one run to ``out``; return the
    run's exit status."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.csv"
        done = subprocess.run(
            [sys.executable, "-c", _CHILD, str(checkout), workload,
             str(levels), str(seed), str(study), str(trace)],
            env=env, cwd=tmp, capture_output=True, text=True)
        if not trace.exists():
            raise RuntimeError(f"{checkout} {workload}: no trace\n"
                               f"{done.stderr[-2000:]}")
        out.write_bytes(trace.read_bytes())
    return done.returncode


def _columns(path: Path) -> tuple[dict[str, list[str]], int]:
    """The cells of a trace file by column name, in file order, and its
    row count."""
    header, *rows = (line.split(",") for line in
                     path.read_text().splitlines())
    return {name: [row[i] for row in rows]
            for i, name in enumerate(header)}, len(rows)


def compare(a: Path, b: Path) -> tuple[list[str], bool]:
    """Compare two traces by column name.

    Returns the report lines and whether a shared cell differs.  The lines
    name the columns that only one side has, then say ``identical``, or
    give the first row whose shared cells differ, cell by cell, or the two
    row counts.
    """
    (cols_a, n_a), (cols_b, n_b) = _columns(a), _columns(b)
    lines = [f"columns only in {side}: {', '.join(only)}"
             for side, only in (("a", [c for c in cols_a if c not in cols_b]),
                                ("b", [c for c in cols_b if c not in cols_a]))
             if only]
    shared = [c for c in cols_a if c in cols_b]
    for k in range(min(n_a, n_b)):
        cells = [f"{c}: {cols_a[c][k]} vs {cols_b[c][k]}" for c in shared
                 if cols_a[c][k] != cols_b[c][k]]
        if cells:
            return lines + [f"row {k}: " + "; ".join(cells)], True
    if n_a != n_b:
        return lines + [f"{n_a} vs {n_b} rows"], True
    return lines + ["identical"], False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("checkouts", nargs="+", type=Path,
                        help="one checkout, or a parent and a change")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--levels", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--study", type=int, default=0)
    args = parser.parse_args(argv)
    if len(args.checkouts) > 2:
        parser.error("give one or two checkouts")
    sides = (dict(zip("ab", args.checkouts)) if len(args.checkouts) == 2
             else {"": args.checkouts[0]})
    differ = False
    for workload in args.workload or WORKLOADS:
        paths = {}
        for side, checkout in sides.items():
            paths[side] = args.out / side / f"{workload}.csv"
            paths[side].parent.mkdir(parents=True, exist_ok=True)
            rc = run_trace(checkout.resolve(), workload, args.levels,
                           args.seed, args.study, paths[side])
            print(f"{workload}{' ' + side if side else ''}: exit status "
                  f"{rc}, {paths[side]}")
        if len(paths) == 2:
            lines, differs = compare(paths["a"], paths["b"])
            differ |= differs
            for line in lines:
                print(f"{workload}: {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
