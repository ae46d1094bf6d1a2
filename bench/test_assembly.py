"""Layer micro-benchmark: the kernels of one Newton trial and one Kacanov
step.

Times ``DiscreteProblem.hessian``, ``gradient`` and ``energy``, the
assembly and evaluation behind every Newton step and line-search trial, on
p = 1.2 Crouzeix-Raviart problems of the uniformly refined L-shape at about
10k, 40k and 150k unknowns, at a random state.  ``test_kacanov_step``
times the two kernels of a Kacanov step, ``weighted_stiffness`` at the
secant slopes and the ``gradient`` that is its right-hand side, on the
optimal-design problem of the same meshes.  The directory is outside
the Tier-1 ``testpaths``; run it with

    PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 \\
        python -m pytest bench/test_assembly.py

Pin BLAS to one thread, as ``pdbench`` does, so that the numbers compare.
"""

import numpy as np
import pytest

from pdgap.energy_models import OptimalDesignDensity, PPowerDensity
from pdgap.fespaces import PwConstant
from pdgap.mesh import make_lshape_mesh, uniform_refine
from pdgap.solvers import DiscreteProblem

# uniform refinement levels: 9088, 36608 and 146944 free CR unknowns
LEVELS = {"10k": 3, "40k": 4, "150k": 5}


def _random_state(level, density):
    mesh = uniform_refine(make_lshape_mesh(), LEVELS[level])
    problem = DiscreteProblem(mesh, density,
                              PwConstant(mesh, np.ones(mesh.num_triangles)))
    rng = np.random.default_rng(3)
    u = problem.impose_dirichlet(rng.normal(size=problem.num_dofs))
    return problem, u


@pytest.fixture(scope="module", params=list(LEVELS))
def state(request):
    problem, u = _random_state(request.param, PPowerDensity(1.2))
    problem.hessian(u)  # build the cached free-dof pattern outside the timing
    return problem, u


@pytest.fixture(scope="module", params=list(LEVELS))
def design_state(request):
    # small random values, so that the slopes fall on every branch
    problem, u = _random_state(request.param, OptimalDesignDensity())
    u *= 1e-2
    grads = problem.broken_gradient(u)
    slopes = problem.density.slope_ratio(np.sqrt(np.sum(grads ** 2, axis=-1)))
    # build the cached pattern and basis-gradient products, as above
    problem.weighted_stiffness(slopes)
    return problem, u, slopes


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


@pytest.mark.parametrize("kernel", ["weighted_stiffness", "gradient"])
def test_kacanov_step(benchmark, design_state, kernel):
    problem, u, slopes = design_state
    if kernel == "weighted_stiffness":
        matrix = benchmark(problem.weighted_stiffness, slopes)
        assert np.isfinite(matrix.data).all()
    else:
        assert np.isfinite(benchmark(problem.gradient, u)).all()
