"""Guard for the benchmark tracer, which rebinds pdgap entry points by name.

``pdbench/tracer.py`` patches module attributes and methods of ``pdgap``
from outside the package, so a renamed or deleted entry point breaks a
traced benchmark run only when it runs.  This test installs the tracer in a
fresh process and runs a short traced study, so such a break shows here.
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
from workloads import WORKLOADS
from pdgap.afem import AfemConfig
from pdgap.cli import BenchmarkSpec, run_benchmark

workload = WORKLOADS["p2-average"]
tracer = Tracer("t")
tracer.install()
config = dict(workload.config, max_iterations=2)
rc = run_benchmark(BenchmarkSpec(**workload.spec), AfemConfig(**config),
                   {out!r})
metrics = tracer.metrics(1.0, 2, 0)
print(json.dumps({{"rc": rc, "spans": metrics["trace.spans"]}}))
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
    assert result["rc"] == 0
    assert result["spans"] > 0
    assert (tmp_path / "study" / "trace.csv").is_file()
