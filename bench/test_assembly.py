"""Layer micro-benchmark: the kernels of one Newton trial.

Times ``DiscreteProblem.hessian``, ``gradient`` and ``energy``, the
assembly and evaluation behind every Newton step and line-search trial, on
p = 1.2 Crouzeix-Raviart problems of the uniformly refined L-shape at about
10k, 40k and 150k unknowns, at a random state.  The directory is outside
the Tier-1 ``testpaths``; run it with

    PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 \\
        python -m pytest bench/test_assembly.py

Pin BLAS to one thread, as ``pdbench`` does, so that the numbers compare.
"""

import numpy as np
import pytest

from pdgap.energy_models import PPowerDensity
from pdgap.fespaces import PwConstant
from pdgap.mesh import make_lshape_mesh, uniform_refine
from pdgap.solvers import DiscreteProblem

# uniform refinement levels: 9088, 36608 and 146944 free CR unknowns
LEVELS = {"10k": 3, "40k": 4, "150k": 5}


@pytest.fixture(scope="module", params=list(LEVELS))
def state(request):
    mesh = uniform_refine(make_lshape_mesh(), LEVELS[request.param])
    problem = DiscreteProblem(mesh, PPowerDensity(1.2),
                              PwConstant(mesh, np.ones(mesh.num_triangles)))
    rng = np.random.default_rng(3)
    u = problem.impose_dirichlet(rng.normal(size=problem.num_dofs))
    problem.hessian(u)  # build the cached free-dof pattern outside the timing
    return problem, u


def test_hessian(benchmark, state):
    problem, u = state
    hessian = benchmark(problem.hessian, u)
    assert np.isfinite(hessian.data).all()


def test_gradient(benchmark, state):
    problem, u = state
    assert np.isfinite(benchmark(problem.gradient, u)).all()


def test_energy(benchmark, state):
    problem, u = state
    assert np.isfinite(benchmark(problem.energy, u))
