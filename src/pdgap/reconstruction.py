"""Explicit dual flux reconstruction from an elementwise stress.

Given an elementwise-constant stress sigma and an elementwise-constant
load f_h, the reconstructed flux is, per element,

    z|_T(x) = sigma_T - f_T (x - x_T) / 2,

an elementwise affine field of lowest-order Raviart-Thomas form whose
divergence equals ``-f_T`` and whose element mean equals ``sigma_T`` by
construction.  By Marini's identity its normal components match across
sides exactly when sigma solves a *linear* CR problem with load f_h, i.e.
``sum_T |T| sigma_T . grad phi_S = int f_h phi_S`` for every free side
basis function ``phi_S``.  The solvers hand back such a stress from their
last linear solve (:attr:`~pdgap.solvers.SolverReport.stress`),
``Dphi(grad u) + T grad delta`` with ``T`` the Hessian (floored in the
flow).  That flux is feasible for every iterate, not only at the discrete
minimizer, and its normal mismatch is a roundoff diagnostic at the level
of the linear solve's backward error.  The gradient stress
``Dphi(grad u)`` of a CR function ``u`` gives a feasible flux only at an
exact discrete minimizer.

A single coefficient per side is extracted by evaluating the normal
component from the adjacent element with the smaller index.  The mismatch
(larger-index candidate minus smaller-index candidate) is recorded, and the
feasibility test of :mod:`pdgap.estimators` checks it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy_models import check_fenchel_young
from .estimators import dual_energy, primal_energy
from .fespaces import CrFunction, PwConstant, Rt0Field

__all__ = ["MariniField", "DualityReport", "marini_reconstruct",
           "flux_mismatch", "verify_discrete_optimality"]


class MariniField(Rt0Field):
    """Reconstructed flux with exact broken representation.

    Behaves like :class:`Rt0Field` (``coeffs`` holds the extracted per-side
    normal fluxes), but evaluation, element means, and divergence use the
    exact elementwise form ``a_T + b_T (x - x_T)`` from the reconstruction
    formula rather than the glued coefficients.  ``mismatch[s]`` is the
    normal-component disagreement across interior side ``s``.
    """

    def __init__(self, mesh, element_a: np.ndarray, element_b: np.ndarray,
                 coeffs: np.ndarray, mismatch: np.ndarray):
        super().__init__(mesh, coeffs)
        self._element_a = np.asarray(element_a, dtype=float)
        self._element_b = np.asarray(element_b, dtype=float)
        self.mismatch = np.asarray(mismatch, dtype=float)

    def element_linear(self):
        return self._element_a, self._element_b


@dataclass
class DualityReport:
    """Energies and elementwise optimality diagnostics for a primal/dual pair.

    ``gap = primal - dual`` is nonnegative up to roundoff whenever the dual
    field passes the feasibility test (weak duality); ``dual`` is ``-inf``
    (and the gap ``+inf``) when it fails it.
    """

    primal: float                # discrete primal energy of u
    dual: float                  # discrete dual value of z (-inf if infeasible)
    gap: float                   # primal - dual
    max_mean_defect: float       # max_T |mean(z)|_T - dphi(grad u|_T)|
    max_div_defect: float        # max_T |div z + f_h|
    max_flux_jump: float         # max_S |normal mismatch| over interior sides
    fenchel_young_residuals: np.ndarray  # per element, >= 0 at gradient pairs

    @property
    def max_fenchel_young_residual(self) -> float:
        return float(np.max(np.abs(self.fenchel_young_residuals)))


def _candidate_normal_fluxes(mesh, element_a, element_b) -> np.ndarray:
    """(nt, 3) normal flux of the broken field along each side's canonical
    normal, evaluated from inside each element (constant along the side)."""
    sides = mesh.tri_sides
    mids = mesh.side_midpoints[sides]                     # (nt, 3, 2)
    b = element_b[:, None]
    # one component at a time: the same arithmetic as the (nt, 3, 2) form
    vx = element_a[:, None, 0] + b * (mids[..., 0] - mesh.barycenters[:, None, 0])
    vy = element_a[:, None, 1] + b * (mids[..., 1] - mesh.barycenters[:, None, 1])
    return vx * mesh.side_normals[sides, 0] + vy * mesh.side_normals[sides, 1]


def marini_reconstruct(stress: np.ndarray, f_h: PwConstant) -> MariniField:
    """Reconstruct the dual flux ``stress - f_h (x - x_T)/2`` on ``f_h.mesh``.

    ``stress`` is the (nt, 2) elementwise stress of a linear CR solve, as
    in :attr:`~pdgap.solvers.SolverReport.stress`; the gradient stress
    ``density.dphi(u.gradients())`` gives a feasible flux only at the
    discrete minimizer.  Any other shape raises :class:`ValueError`.
    """
    mesh = f_h.mesh
    element_a = np.asarray(stress, dtype=float)
    if element_a.shape != (mesh.num_triangles, 2):
        raise ValueError("stress must have shape (number of elements, 2)")
    element_b = -0.5 * f_h.values

    cand = _candidate_normal_fluxes(mesh, element_a, element_b)
    # the canonical normal points out of the smaller-index element
    # side_tris[:, 0], which is where tri_side_orient is +1
    smaller = mesh.tri_side_orient > 0
    coeffs = np.zeros(mesh.num_sides)
    coeffs[mesh.tri_sides[smaller]] = cand[smaller]
    mismatch = np.zeros(mesh.num_sides)
    mismatch[mesh.tri_sides[~smaller]] = cand[~smaller]
    interior = mesh.side_tris[:, 1] >= 0
    mismatch[interior] -= coeffs[interior]
    return MariniField(mesh, element_a, element_b, coeffs, mismatch)


def flux_mismatch(z: MariniField) -> np.ndarray:
    """Normal-component disagreement per side (zero on boundary sides)."""
    return z.mismatch.copy()


def verify_discrete_optimality(u: CrFunction, z: Rt0Field, density,
                               f_h: PwConstant) -> DualityReport:
    """Check the discrete optimality relations of a primal/dual pair.

    At an exact discrete minimizer with its reconstructed flux, all
    diagnostics vanish: the element means of z coincide with the gradient
    stress, the divergence balances the load, the elementwise Fenchel-Young
    inequality holds with equality, and the gap closes.

    The dual value is ``-sum_T |T| phi*(mean(z)|_T)`` plus the boundary
    pairing ``sum_S (z.n)|S| u_S`` over Dirichlet sides (the pairing
    vanishes for homogeneous data): that is
    :func:`~pdgap.estimators.dual_energy` with ``quadrature="mean"``.
    """
    grads = u.gradients()
    means = z.element_means()
    mean_defect = means - density.dphi(grads)
    div_defect = z.divergence().values + f_h.values
    max_jump = float(np.max(np.abs(z.mismatch), initial=0.0))
    primal = primal_energy(u, density, f_h)
    dual = dual_energy(z, density, f_h, boundary_values=u.values,
                       quadrature="mean")
    return DualityReport(
        primal=primal, dual=dual, gap=primal - dual,
        max_mean_defect=float(np.max(np.sqrt(np.sum(mean_defect ** 2, -1)))),
        max_div_defect=float(np.max(np.abs(div_defect))),
        max_flux_jump=max_jump,
        fenchel_young_residuals=check_fenchel_young(density, grads, means))
