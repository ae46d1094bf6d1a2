"""Lowest-order finite element functions on a triangulation.

Three discrete spaces are provided:

* :class:`P1Function` -- continuous piecewise affine, one value per vertex;
* :class:`CrFunction` -- nonconforming piecewise affine with continuity at
  side midpoints (Crouzeix-Raviart), one value per side midpoint;
* :class:`Rt0Field` -- lowest-order Raviart-Thomas vector fields, one normal
  flux per side (along the mesh's canonical side normal), with continuous
  normal component and elementwise form ``z(x) = a_T + b_T (x - x_T)``.

Piecewise constants live in :class:`PwConstant` / :class:`PwConstantVector`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Triangulation

__all__ = [
    "PwConstant", "PwConstantVector", "P1Function", "CrFunction", "Rt0Field",
    "node_average", "side_jump", "vector_jump", "ibp_residual",
    "prolong_cr",
]


@dataclass
class PwConstant:
    """Piecewise constant scalar: one value per triangle."""

    mesh: Triangulation
    values: np.ndarray


@dataclass
class PwConstantVector:
    """Piecewise constant 2D vector field: shape (nt, 2)."""

    mesh: Triangulation
    values: np.ndarray


class P1Function:
    """Continuous piecewise affine function given by vertex values (nv,)."""

    def __init__(self, mesh: Triangulation, values):
        self.mesh = mesh
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (mesh.num_vertices,):
            raise ValueError("P1 values must have one entry per vertex")

    def gradients(self) -> np.ndarray:
        """(nt, 2) broken (here: elementwise) gradient."""
        vv = self.values[self.mesh.triangles]
        return np.einsum("ti,tid->td", vv, self.mesh.barycentric_gradients)

    def triangle_vertex_values(self) -> np.ndarray:
        """(nt, 3) values at the triangle corners."""
        return self.values[self.mesh.triangles]

    def element_means(self) -> np.ndarray:
        """(nt,) integral means (= barycenter values)."""
        g = self.values[self.mesh.triangles]
        return (g[:, 0] + g[:, 1] + g[:, 2]) / 3.0


class CrFunction:
    """Crouzeix-Raviart function given by side midpoint values (ns,)."""

    def __init__(self, mesh: Triangulation, values):
        self.mesh = mesh
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (mesh.num_sides,):
            raise ValueError("CR values must have one entry per side")

    def gradients(self) -> np.ndarray:
        """(nt, 2) broken gradient (see
        :attr:`~pdgap.mesh.Triangulation.cr_basis_gradients`)."""
        vv = self.values[self.mesh.tri_sides]
        return np.einsum("tj,tjd->td", vv, self.mesh.cr_basis_gradients)

    def triangle_vertex_values(self) -> np.ndarray:
        """(nt, 3) corner values of the broken affine representative.

        At local vertex i the affine function through the three side midpoint
        values equals (sum of the side values) minus twice the value on the
        side opposite vertex i, which is local side i+1.
        """
        vv = self.values[self.mesh.tri_sides]
        return vv.sum(axis=1, keepdims=True) - 2.0 * vv[:, [1, 2, 0]]

    def element_means(self) -> np.ndarray:
        """(nt,) integral means (= mean of the three midpoint values)."""
        g = self.values[self.mesh.tri_sides]
        return (g[:, 0] + g[:, 1] + g[:, 2]) / 3.0


class Rt0Field:
    """Lowest-order Raviart-Thomas field given by side normal fluxes (ns,).

    ``coeffs[s]`` is the (constant) normal component of the field along side
    ``s`` with respect to the mesh's canonical side normal, so the normal
    component is continuous across sides by construction: ``mismatch``, the
    per-side disagreement of the two adjacent normal components, is zero.
    """

    def __init__(self, mesh: Triangulation, coeffs):
        self.mesh = mesh
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.shape != (mesh.num_sides,):
            raise ValueError("field coefficients must have one entry per side")
        self.mismatch = np.zeros(mesh.num_sides)

    def element_linear(self) -> tuple[np.ndarray, np.ndarray]:
        """Elementwise form ``z(x) = a_T + b_T (x - x_T)``: (nt, 2) and (nt,)."""
        mesh = self.mesh
        c = self.coeffs[mesh.tri_sides] * mesh.tri_side_orient \
            * mesh.side_lengths[mesh.tri_sides]
        # local basis: sigma_j |s_j| / (2|T|) (x - P_{j+2})
        opp = mesh.triangle_coords[:, [2, 0, 1], :]
        scale = 1.0 / (2.0 * mesh.areas)
        b = c.sum(axis=1) * scale
        a = scale[:, None] * np.einsum(
            "tj,tjd->td", c, mesh.barycenters[:, None, :] - opp)
        return a, b

    def element_means(self) -> np.ndarray:
        """(nt, 2) integral means (= barycenter values)."""
        return self.element_linear()[0]

    def divergence(self) -> PwConstant:
        """Elementwise (global, since normal components match) divergence."""
        return PwConstant(self.mesh, 2.0 * self.element_linear()[1])

    def at_triangle_vertices(self) -> np.ndarray:
        """(nt, 3, 2) values at the triangle corners."""
        a, b = self.element_linear()
        rel = self.mesh.triangle_coords - self.mesh.barycenters[:, None, :]
        return a[:, None, :] + b[:, None, None] * rel


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def node_average(v: CrFunction, dirichlet_values=None) -> P1Function:
    """Conforming approximation by arithmetic vertex averaging.

    Each vertex value is the mean of the broken corner values over the
    incident triangles.  If ``dirichlet_values`` is given (an array over all
    vertices), vertices on the Dirichlet boundary are overridden with those
    values.
    """
    mesh = v.mesh
    corner = v.triangle_vertex_values()
    sums = np.bincount(mesh.triangles.ravel(), weights=corner.ravel(),
                       minlength=mesh.num_vertices)
    counts = np.bincount(mesh.triangles.ravel(), minlength=mesh.num_vertices)
    averaged = sums / counts
    if dirichlet_values is not None:
        mask = mesh.dirichlet_vertex_mask
        averaged[mask] = np.asarray(dirichlet_values, dtype=float)[mask]
    return P1Function(mesh, averaged)


def side_jump(v: P1Function | CrFunction) -> np.ndarray:
    """Jumps of the broken trace at both side endpoints: (ns, 2).

    Row ``s`` holds the jump (trace from the first incident triangle minus
    trace from the second) at the side's two vertices in sorted order.  On
    boundary sides the jump is the trace itself.
    """
    mesh = v.mesh
    corner = v.triangle_vertex_values()
    out = np.zeros((mesh.num_sides, 2))
    for col in range(2):
        vids = mesh.sides[:, col]
        for sgn, tcol in ((1.0, 0), (-1.0, 1)):
            tris = mesh.side_tris[:, tcol]
            valid = tris >= 0
            loc = np.argmax(
                mesh.triangles[tris[valid]] == vids[valid, None], axis=1)
            out[valid, col] += sgn * corner[tris[valid], loc]
    return out


def vector_jump(q: PwConstantVector) -> np.ndarray:
    """Full vector jump across each side: (ns, 2), trace on boundary sides."""
    mesh = q.mesh
    minus = q.values[mesh.side_tris[:, 0]]
    plus = np.where((mesh.side_tris[:, 1] >= 0)[:, None],
                    q.values[mesh.side_tris[:, 1]], 0.0)
    return minus - plus


def ibp_residual(z: Rt0Field, v: P1Function | CrFunction) -> float:
    """Integration-by-parts defect, exactly zero for affine data.

    Returns ``int (div z) v + int z . grad_h v - sum_S int_S (z . n) [v]``
    where the side sum runs over all sides with the jump convention of
    :func:`side_jump`.  All integrands are (piecewise) polynomials integrated
    exactly (barycenter and midpoint rules).
    """
    mesh = z.mesh
    a, b = z.element_linear()
    divergence = 2.0 * b
    bulk = float(mesh.areas @ (divergence * v.element_means()))
    bulk += float(mesh.areas @ np.einsum("td,td->t", a, v.gradients()))
    jumps = side_jump(v).mean(axis=1)  # side means of affine jumps
    sides = float(np.sum(z.coeffs * jumps * mesh.side_lengths))
    return bulk - sides


# ---------------------------------------------------------------------------
# Prolongation to a refined mesh (for warm starts)
# ---------------------------------------------------------------------------

def _eval_parent_affine(old, means, grads, coarse_of, points):
    rel = points - old.barycenters[coarse_of]
    return means[coarse_of] + np.einsum("nd,nd->n", grads[coarse_of], rel)


def prolong_cr(v: CrFunction, fine: Triangulation) -> CrFunction:
    """Transfer a CR function to a refinement by evaluating the broken affine
    representative of the parent element at the new side midpoints."""
    if fine.parent_elements is None:
        raise ValueError("fine mesh does not track parent elements")
    owner_tri = fine.side_tris[:, 0]
    coarse_of = fine.parent_elements[owner_tri]
    vals = _eval_parent_affine(v.mesh, v.element_means(), v.gradients(),
                               coarse_of, fine.side_midpoints)
    return CrFunction(fine, vals)
