"""Guard for the calls that ``pdbench`` makes into ``pdgap``.

``pdbench/tracer.py`` patches module attributes and methods of ``pdgap``
from outside the package, and ``pdbench/study.py`` passes keywords that no
``pdgap`` caller passes (``tau`` in the design workload's solver options,
``seed`` to ``run_benchmark``).  A renamed entry point or a dropped keyword
breaks a benchmark run only when it runs.  This test makes the calls of
``study.py`` for every workload at two levels in a fresh process, with the
tracer installed from ``design-flow`` on, so such a break shows here.  Every
flow step then factorizes through the traced ``splu`` and solves once with
the factor that ``_TracedFactor`` wraps.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {pdbench!r})
from tracer import Tracer
from workloads import WORKLOADS, relabelled_lshape
from pdgap.afem import AfemConfig
from pdgap.cli import BenchmarkSpec, run_benchmark

tracer = Tracer("t")
rcs = {{}}
for name in ("p12-newton", "design-flow", "p2-average"):
    workload = WORKLOADS[name]
    if name == "design-flow":
        tracer.install()
    cfg = AfemConfig(**dict(workload.config, max_iterations=2))
    spec = BenchmarkSpec(mesh=relabelled_lshape(1, 0), **workload.spec)
    rcs[name] = run_benchmark(spec, cfg, {out!r} + "/" + name, seed=1)
metrics = tracer.metrics(1.0, 2, 0)
counts = ("solvers.factorizations", "solvers.pcg_iters",
          "solvers.direct_solves")
print(json.dumps({{"rcs": rcs, "spans": metrics["trace.spans"],
                  "counts": {{key: metrics[key] for key in counts}}}}))
"""


def test_tracer_installs_and_traces_a_two_level_study(tmp_path):
    script = _SCRIPT.format(src=str(ROOT / "src"),
                            pdbench=str(ROOT / "pdbench"),
                            out=str(tmp_path / "study"))
    # no bytecode cache: the test writes nothing under pdbench/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert "AttributeError" not in done.stderr, done.stderr
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["rcs"] == {"p12-newton": 0, "design-flow": 0,
                             "p2-average": 0}
    assert result["spans"] > 0
    # every traced flow step is one factorization and one LU solve
    counts = result["counts"]
    assert counts["solvers.factorizations"] > 0, result
    assert counts["solvers.direct_solves"] == counts["solvers.factorizations"]
    assert counts["solvers.pcg_iters"] == 0, result
    for name in result["rcs"]:
        assert (tmp_path / "study" / name / "trace.csv").is_file()
