"""Layer micro-benchmark: the flux reconstruction and the estimator.

Times ``marini_reconstruct`` and ``eta_hat_sq`` (the feasibility test and
the two guaranteed gap parts), which every adaptive level runs once on its
CR solution, on the uniformly refined L-shape at about 10k, 40k and 150k
CR unknowns.  The state is the p = 1.2 CR iterate after
two Newton steps from zero: the stress of its last linear solve gives a
feasible flux, and the candidate is the vertex average of the iterate.
The directory is outside the Tier-1 ``testpaths``; run it with

    PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 \\
        python -m pytest bench/test_estimators.py

Pin BLAS to one thread, as ``pdbench`` does, so that the numbers compare.
"""

import numpy as np
import pytest

from pdgap.energy_models import PPowerDensity
from pdgap.estimators import eta_hat_sq
from pdgap.fespaces import CrFunction, PwConstant, node_average
from pdgap.mesh import make_lshape_mesh, uniform_refine
from pdgap.reconstruction import marini_reconstruct
from pdgap.solvers import DiscreteProblem, newton_solve

# uniform refinement levels: 9088, 36608 and 146944 free CR unknowns
LEVELS = {"10k": 3, "40k": 4, "150k": 5}


@pytest.fixture(scope="module", params=list(LEVELS))
def level_state(request):
    mesh = uniform_refine(make_lshape_mesh(), LEVELS[request.param])
    density = PPowerDensity(1.2)
    load = PwConstant(mesh, np.ones(mesh.num_triangles))
    u, report = newton_solve(DiscreteProblem(mesh, density, load),
                             max_iter=2)
    u_cr = CrFunction(mesh, u)
    return u_cr, density, load, report.stress


def test_marini_reconstruct(benchmark, level_state):
    _, _, load, stress = level_state
    z = benchmark(marini_reconstruct, stress, load)
    assert np.isfinite(z.coeffs).all()


def test_eta_hat_sq(benchmark, level_state):
    u_cr, density, load, stress = level_state
    z = marini_reconstruct(stress, load)
    candidate = node_average(u_cr)
    gap = benchmark(eta_hat_sq, candidate, z, density, load)
    assert np.array_equal(gap.eta_hat_sq, gap.eta_A_sq + gap.eta_D_hat_sq)
    assert np.isfinite(gap.eta_hat_sq_total)
