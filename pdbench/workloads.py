"""The three benchmark workloads and the seeded input mesh.

Each workload is one ``pdgap run`` command.  The benchmark builds the same
``BenchmarkSpec`` and ``AfemConfig`` that command builds, except that the
initial L-shape mesh is relabelled from the seed and handed in through
``BenchmarkSpec(mesh=...)``.  This module imports nothing from ``pdgap`` at
import time, so the parent process can read the definitions without loading
numpy or scipy.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One adaptive study and the ``pdgap run`` command it mirrors.

    ``spec`` holds the ``BenchmarkSpec`` keywords, ``config`` the
    ``AfemConfig`` keywords.  ``monotone_primal`` asks the correctness gate
    to check that the primal energy never increases from level to level.
    """

    name: str
    command: str
    spec: dict
    config: dict
    monotone_primal: bool = False

    @property
    def levels(self) -> int:
        return int(self.config["max_iterations"])


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="p12-newton",
            command="pdgap run --problem p-dirichlet --p 1.2 --tol-abs 5e-6 "
                    "--iters 20",
            spec={"problem": "p-dirichlet", "p": 1.2},
            config={"max_iterations": 20, "solver": "newton",
                    "solver_options": {"tol_abs": 5e-6, "tol_rel": 1e-10}}),
        Workload(
            name="design-flow",
            command="pdgap run --problem optimal-design --iters 14 "
                    "--max-iter 3000",
            spec={"problem": "optimal-design"},
            config={"max_iterations": 14, "solver": "flow",
                    "solver_options": {"tau": 1.0, "max_iter": 3000}},
            monotone_primal=True),
        Workload(
            name="p2-average",
            command="pdgap run --problem p-dirichlet --p 2 --conforming "
                    "average --iters 25",
            spec={"problem": "p-dirichlet", "p": 2.0},
            config={"max_iterations": 25, "solver": "newton",
                    "conforming": "average",
                    "solver_options": {"tol_abs": 1e-8, "tol_rel": 1e-10}}),
    )
}


def relabelled_lshape(seed: int, study: int = 0):
    """The initial L-shape mesh with vertices and triangles relabelled.

    Seed 0, study 0 is the mesh as built.  Otherwise the pair ``(seed,
    study)`` seeds one permutation of the vertex ids and one of the
    triangle order; each triangle keeps its counterclockwise vertex order,
    so the geometry, the boundary and the refinement edges are unchanged
    and only the numbering differs.  The numbering still matters: it orders
    the unknowns, and the fill of the sparse LU factors depends on it.
    """
    import numpy as np

    from pdgap.mesh import Triangulation, make_lshape_mesh

    mesh = make_lshape_mesh()
    if seed == 0 and study == 0:
        return mesh
    rng = np.random.default_rng([seed, study])
    order = rng.permutation(mesh.num_vertices)
    new_id = np.argsort(order)
    triangles = new_id[mesh.triangles][rng.permutation(mesh.num_triangles)]
    return Triangulation(mesh.vertices[order], triangles, "dirichlet")
