"""Layer micro-benchmark: one SPD factorization and solve.

Times ``pdgap.solvers._SpdSolver.solve``, the factorization and solve
behind every Newton and every flow step, on Crouzeix-Raviart Hessians
of the uniformly refined L-shape at about 10k, 40k and 150k unknowns:
p = 1.2 Hessians, which have no exact zeros, and p = 2 Hessians, whose
couplings across right angles are exact zeros that the assembly does not
store.
``test_spd_factor_solve_on_a_reused_ordering`` times the later systems of
a solve: a second p = 1.2 Hessian of the same pattern, factorized by the
solver that ordered the first.  ``test_kept_factor_solve`` times what a
Newton step on a kept factor costs instead of a factorization: the LU
solve and the backward-error check on the p = 1.2 factor the solver
keeps.  The directory is outside the Tier-1
``testpaths``; run it with

    PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 \\
        python -m pytest bench/test_factor.py

Pin BLAS to one thread, as ``pdbench`` does, so that the numbers compare.
"""

import numpy as np
import pytest

from pdgap.energy_models import PPowerDensity
from pdgap.fespaces import PwConstant
from pdgap.mesh import make_lshape_mesh, uniform_refine
from pdgap.solvers import DiscreteProblem, _SpdSolver

# uniform refinement levels: 9088, 36608 and 146944 free CR unknowns
LEVELS = {"10k": 3, "40k": 4, "150k": 5}


def _hessians(level, p, count):
    mesh = uniform_refine(make_lshape_mesh(), LEVELS[level])
    problem = DiscreteProblem(mesh, PPowerDensity(p),
                              PwConstant(mesh, np.ones(mesh.num_triangles)))
    rng = np.random.default_rng(3)
    hessians = [problem.hessian(problem.impose_dirichlet(
        rng.normal(size=problem.num_dofs))) for _ in range(count)]
    return hessians, rng.normal(size=hessians[0].shape[0])


@pytest.fixture(scope="module", params=[(level, p) for p in (1.2, 2.0)
                                        for level in LEVELS],
                ids=lambda param: f"p{param[1]:g}-{param[0]}")
def system(request):
    (hessian,), b = _hessians(*request.param, count=1)
    return hessian, b


@pytest.fixture(scope="module", params=list(LEVELS))
def reused(request):
    (first, hessian), b = _hessians(request.param, 1.2, count=2)
    solver = _SpdSolver()
    solver.solve(first, b)
    solver.solve(hessian, b)  # the gather map, built once
    return solver, hessian, b


def test_spd_factor_solve(benchmark, system):
    hessian, b = system
    x = benchmark(lambda: _SpdSolver().solve(hessian, b))
    assert np.isfinite(x).all()


def test_spd_factor_solve_on_a_reused_ordering(benchmark, reused):
    solver, hessian, b = reused
    kept = solver._perm_c
    x = benchmark(solver.solve, hessian, b)
    assert solver._perm_c is kept and np.isfinite(x).all()


@pytest.fixture(scope="module", params=list(LEVELS))
def kept(request):
    (hessian,), b = _hessians(request.param, 1.2, count=1)
    solver = _SpdSolver()
    solver.solve(hessian, b)
    return solver, b


def test_kept_factor_solve(benchmark, kept):
    solver, b = kept
    x = benchmark(solver.solve_kept, b)
    assert solver.kept and np.isfinite(x).all()
