"""Layer micro-benchmark: one SPD factorization and solve.

Times ``pdgap.solvers._spd_factor_solve``, the helper behind every Newton
step and every flow refactorization, on p = 1.2 Crouzeix-Raviart Hessians
of the uniformly refined L-shape at about 10k, 40k and 150k unknowns.
The directory is outside the Tier-1 ``testpaths``; run it with

    PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 \\
        python -m pytest bench/test_factor.py

Pin BLAS to one thread, as ``pdbench`` does, so that the numbers compare.
"""

import numpy as np
import pytest

from pdgap.energy_models import PPowerDensity
from pdgap.fespaces import PwConstant
from pdgap.mesh import make_lshape_mesh, uniform_refine
from pdgap.solvers import DiscreteProblem, _spd_factor_solve

# uniform refinement levels: 9088, 36608 and 146944 free CR unknowns
LEVELS = {"10k": 3, "40k": 4, "150k": 5}


@pytest.fixture(scope="module", params=list(LEVELS))
def system(request):
    mesh = uniform_refine(make_lshape_mesh(), LEVELS[request.param])
    problem = DiscreteProblem(mesh, PPowerDensity(1.2),
                              PwConstant(mesh, np.ones(mesh.num_triangles)))
    rng = np.random.default_rng(3)
    hessian = problem.hessian(
        problem.impose_dirichlet(rng.normal(size=problem.num_dofs)))
    return hessian, rng.normal(size=hessian.shape[0])


def test_spd_factor_solve(benchmark, system):
    hessian, b = system
    _, x = benchmark(_spd_factor_solve, hessian, b)
    assert np.isfinite(x).all()
