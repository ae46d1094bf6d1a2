"""Layer micro-benchmark: mesh build and red-green-blue refinement.

Times ``Triangulation.__init__`` (vertices, triangles and all-Dirichlet
labels of the unit square) and ``refine`` of a random eighth of the
elements, with and without the interior node, on unit-square meshes of
about 10k, 40k and 150k elements.  The directory is outside the Tier-1
``testpaths``; run it with

    PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 \\
        python -m pytest bench/test_mesh.py

Pin BLAS to one thread, as ``pdbench`` does, so that the numbers compare.
"""

import numpy as np
import pytest

from pdgap.mesh import Triangulation, make_square_mesh, refine

# n-by-n squares, two triangles each: 10082, 39762 and 150152 elements
SIZES = {"10k": 71, "40k": 141, "150k": 274}


@pytest.fixture(scope="module", params=list(SIZES))
def mesh(request):
    return make_square_mesh(SIZES[request.param])


def test_build(benchmark, mesh):
    built = benchmark(Triangulation, mesh.vertices, mesh.triangles,
                      "dirichlet")
    assert built.num_sides == mesh.num_sides


@pytest.mark.parametrize("interior_node", [False, True],
                         ids=["plain", "interior_node"])
def test_refine(benchmark, mesh, interior_node):
    marked = np.random.default_rng(5).choice(
        mesh.num_triangles, size=mesh.num_triangles // 8, replace=False)
    fine = benchmark(refine, mesh, marked, interior_node=interior_node)
    assert fine.num_triangles > mesh.num_triangles
