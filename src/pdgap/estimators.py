"""A posteriori error estimators built from primal-dual energy gaps.

Two families are provided, both localized per element:

* the guaranteed gap indicators ``eta_hat`` of a conforming candidate and a
  feasible dual field: the Fenchel-Young residual ``eta_A`` plus the
  vertex-rule conjugate deficit ``eta_D_hat``, with ``eta_hat`` summing to
  the primal-dual gap of the pair (:class:`GapIndicators`), and
* the classical residual indicator ``eta_res`` built from element load
  residuals and side jumps of the nonlinear numerical flux
  (:class:`ResidualIndicators`).

The vertex (trapezoidal) rule overestimates integrals of convex integrands,
which makes ``eta_hat`` computable and one-sided.  Dual feasibility (``z``
in H(div) with ``div z = -f_h`` and ``z.n = 0`` on Neumann sides:
divergence, normal continuity and the Neumann flux) is a precondition for
the gap family; violations are marked with ``+inf`` rather than raised, so
callers can surface them in traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .energy_models import check_fenchel_young, fmap
from .fespaces import CrFunction, P1Function, PwConstant, Rt0Field
from .mesh import NEUMANN
from .quadrature import RULE_ORDER4, TriangleRule, integrate

__all__ = ["GapIndicators", "ResidualIndicators", "AitkenResult",
           "primal_energy", "dual_energy", "eta_hat_sq", "eta_res_sq",
           "rho_F_sq", "rho_I_sq", "aitken_extrapolate"]


# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------

@dataclass
class GapIndicators:
    """Per-element guaranteed gap indicators (squared-unit quantities):
    ``eta_hat_sq = eta_A_sq + eta_D_hat_sq``, all ``+inf`` for an
    infeasible dual field."""

    eta_A_sq: np.ndarray
    eta_D_hat_sq: np.ndarray
    eta_hat_sq: np.ndarray = field(init=False)

    def __post_init__(self):
        self.eta_hat_sq = self.eta_A_sq + self.eta_D_hat_sq

    @property
    def eta_hat_sq_total(self) -> float:
        return float(np.sum(self.eta_hat_sq))


@dataclass
class ResidualIndicators:
    """Residual indicators: the element terms ``eta_E_sq``, the per-side
    jump terms ``eta_J_sq`` and the element totals ``eta_res_sq``, in which
    each interior side is charged in full to both adjacent elements."""

    eta_E_sq: np.ndarray
    eta_J_sq: np.ndarray
    eta_res_sq: np.ndarray

    @property
    def eta_res_sq_total(self) -> float:
        # element totals double-charge interior sides; the global value
        # counts every side once
        return float(np.sum(self.eta_E_sq) + np.sum(self.eta_J_sq))


class AitkenResult(NamedTuple):
    value: float
    degenerate: bool  # True when the second difference vanished


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------

def primal_energy(v: P1Function | CrFunction, density,
                  f_h: PwConstant) -> float:
    """Discrete primal energy ``sum_T |T| (phi(grad v) - f_T mean(v))``."""
    mesh = v.mesh
    return float(mesh.areas @ (density.phi(v.gradients())
                               - f_h.values * v.element_means()))


def _feasible(z: Rt0Field, f_h: PwConstant) -> bool:
    """The dual constraint: ``z`` is H(div)-conforming with ``div z = -f_h``
    and ``z.n = 0`` on Neumann sides.

    The divergence defect must be at most ``1e-10 (1 + max|f_h|)``, and the
    normal mismatch across every side and the normal flux on every Neumann
    side at most ``1e-10 (1 + max|z.n|)``, with ``max|z.n|`` the largest
    side normal flux.  A glued :class:`~pdgap.fespaces.Rt0Field` has no
    mismatch; a :class:`~pdgap.reconstruction.MariniField` passes only if
    its stress comes from a linear CR solve (or the exact discrete
    minimizer).
    """
    neumann = z.mesh.side_labels == NEUMANN
    defect = np.where(neumann, z.coeffs, z.mismatch)
    div_tol = 1e-10 * (1.0 + float(np.max(np.abs(f_h.values))))
    jump_tol = 1e-10 * (1.0 + float(np.max(np.abs(z.coeffs), initial=0.0)))
    return (float(np.max(np.abs(z.divergence().values + f_h.values)))
            <= div_tol
            and float(np.max(np.abs(defect), initial=0.0)) <= jump_tol)


def _vertex_rule_conjugate(z: Rt0Field, density) -> np.ndarray:
    """(nt,) mean of ``phi*(z)`` over the corners of each element, which
    bounds its element mean from above (convexity).  The three-term sum is
    bit-identical to ``.mean(axis=1)`` and faster."""
    c = density.phi_star(z.at_triangle_vertices())
    return (c[:, 0] + c[:, 1] + c[:, 2]) / 3.0


def dual_energy(z: Rt0Field, density, f_h: PwConstant,
                boundary_values: np.ndarray | None = None,
                quadrature: str = "vertex") -> float:
    """Discrete dual value of a feasible flux; ``-inf`` if infeasible.

    With the default vertex rule the conjugate integral is overestimated,
    so the returned value is a guaranteed lower bound for the exact dual
    value (and hence for the primal minimum).  ``quadrature="mean"``
    evaluates the conjugate at the element means instead, which gives the
    discrete dual value ``-sum_T |T| phi*(mean z|_T)`` of the CR/RT0
    duality; by Jensen's inequality it is at least the vertex-rule value.

    ``boundary_values`` (length: number of sides) supplies the side means
    of the primal candidate's Dirichlet trace for the boundary pairing term
    ``sum_S (z.n)|S| v_S``; omit for homogeneous data.
    """
    mesh = z.mesh
    if not _feasible(z, f_h):
        return float(-np.inf)
    if quadrature == "vertex":
        value = -float(mesh.areas @ _vertex_rule_conjugate(z, density))
    elif quadrature == "mean":
        value = -float(mesh.areas @ density.phi_star(z.element_means()))
    else:
        raise ValueError(f"unknown quadrature {quadrature!r}")
    if boundary_values is not None:
        diri = np.flatnonzero(mesh.dirichlet_side_mask)
        if diri.size:
            value += float(np.sum(z.coeffs[diri] * mesh.side_lengths[diri]
                                  * np.asarray(boundary_values)[diri]))
    return value


# ---------------------------------------------------------------------------
# Gap indicators
# ---------------------------------------------------------------------------

def eta_hat_sq(u_tilde: P1Function, z: Rt0Field, density,
               f_h: PwConstant) -> GapIndicators:
    """Per-element primal-dual gap indicators for a conforming candidate
    and a feasible dual field.

    ``eta_A_sq`` has an elementwise-constant integrand and is exact; it is
    nonnegative by the Fenchel-Young inequality.  ``eta_D_hat_sq`` is the
    conjugate quadrature deficit, the vertex-rule mean of ``phi*(z)`` minus
    its value at the element mean, which bounds the exact deficit from
    above by convexity.  The load and divergence terms of the gap cancel
    for the elementwise-constant load under the divergence constraint, so
    they have no field.  All entries are ``+inf`` when the dual field fails
    the feasibility test (divergence, normal continuity or the Neumann
    flux).
    """
    mesh = u_tilde.mesh
    if z.mesh is not mesh or f_h.mesh is not mesh:
        raise ValueError("estimator inputs live on different meshes")
    if not _feasible(z, f_h):
        inf = np.full(mesh.num_triangles, np.inf)
        return GapIndicators(inf, inf)
    grads = u_tilde.gradients()
    means = z.element_means()
    # Fenchel-Young residual of (grad u, mean z); >= 0, clipped for roundoff
    eta_A = mesh.areas * np.maximum(
        check_fenchel_young(density, grads, means), 0.0)
    # conjugate quadrature deficit: integral of phi*(z) minus its value at
    # the element mean (Jensen gives >= 0; vertex rule bounds the integral)
    eta_D_hat = np.maximum(mesh.areas * (_vertex_rule_conjugate(z, density)
                                         - density.phi_star(means)), 0.0)
    return GapIndicators(eta_A, eta_D_hat)


# ---------------------------------------------------------------------------
# Residual indicators
# ---------------------------------------------------------------------------

def eta_res_sq(u_c: P1Function, f_h: PwConstant,
               p: float) -> ResidualIndicators:
    """Classical residual indicators for the p-power model.

    Element term: ``(|grad u_c|^{p-1} + h_T |f_T|)^{p'-2} h_T^2 |f_T|^2 |T|``
    (constant integrand, exact).  Side term on interior sides:
    ``h_S |S| |[[F(grad u_c)]]_S|^2`` with the nonlinear flux map ``F``.
    Element totals charge each interior side in full to both neighbours.
    """
    if p <= 1.0:
        raise ValueError("residual indicator requires p > 1")
    mesh = u_c.mesh
    q = p / (p - 1.0)
    grads = u_c.gradients()
    gnorm = np.sqrt(np.sum(grads ** 2, axis=-1))
    h = mesh.diameters
    fmag = np.abs(f_h.values)
    base = gnorm ** (p - 1.0) + h * fmag
    weight = np.where(fmag > 0.0,
                      np.where(base > 0.0, base, 1.0) ** (q - 2.0), 0.0)
    eta_E = weight * h ** 2 * fmag ** 2 * mesh.areas

    flux = fmap(p, grads)                       # (nt, 2) per element
    jump = np.zeros((mesh.num_sides, 2))
    t_minus, t_plus = mesh.side_tris[:, 0], mesh.side_tris[:, 1]
    interior = t_plus >= 0
    jump[interior] = flux[t_minus[interior]] - flux[t_plus[interior]]
    eta_J = mesh.side_lengths ** 2 * np.sum(jump ** 2, axis=-1)  # h_S |S| = |S|^2

    per_side_charge = np.where(interior, eta_J, 0.0)
    eta_res = eta_E + per_side_charge[mesh.tri_sides].sum(axis=1)
    return ResidualIndicators(eta_E, eta_J, eta_res)


# ---------------------------------------------------------------------------
# Error measures and extrapolation
# ---------------------------------------------------------------------------

def _at_rule_points(exact_grad: Callable | np.ndarray, mesh,
                    rule: TriangleRule) -> np.ndarray:
    """Exact gradient at the rule points, shape ``(nt, nq, 2)``: evaluated
    if ``exact_grad`` is a callable, taken as given otherwise."""
    if callable(exact_grad):
        exact_grad = exact_grad(rule.points(mesh.triangle_coords))
    return np.asarray(exact_grad, dtype=float)


def rho_F_sq(u_tilde: P1Function | CrFunction,
             exact_grad: Callable | np.ndarray, p: float,
             rule: TriangleRule = RULE_ORDER4) -> float:
    """Squared distance of nonlinear flux maps, ``||F(grad u) - F(grad
    u_tilde)||^2`` over the mesh; reduces to the squared gradient-error
    norm at p=2.  Pass the order-8 rule from :mod:`pdgap.quadrature` for a
    high-order cross-check.

    ``exact_grad`` is a callable on point arrays or its values at the rule
    points.  The constant-free gap bound is not about this quantity but
    about :func:`rho_I_sq`; for p < 2 the two agree only up to a
    p-dependent factor, and at p = 2 this one is exactly twice the other.
    """
    mesh = u_tilde.mesh
    eg = _at_rule_points(exact_grad, mesh, rule)
    F_exact = fmap(p, eg)
    F_disc = fmap(p, u_tilde.gradients())[:, None, :]
    diff = np.sum((F_exact - F_disc) ** 2, axis=-1)
    return float(np.sum(integrate(rule, mesh.areas, diff)))


def rho_I_sq(u_tilde: P1Function | CrFunction,
             exact_grad: Callable | np.ndarray, density,
             rule: TriangleRule = RULE_ORDER4) -> float:
    """Energy distance ``int sigma_phi(grad u_tilde, grad u) dx`` with
    ``sigma_phi(a, b) = phi(a) - phi(b) - Dphi(b).(a - b)``.

    Here ``u`` is the exact minimizer.  This is the error measure that
    the primal-dual gap bounds without a constant, up to the data terms.
    ``exact_grad`` is a callable on point arrays or its values at the rule
    points.
    """
    mesh = u_tilde.mesh
    eg = _at_rule_points(exact_grad, mesh, rule)
    grads = u_tilde.gradients()
    sigma = (density.phi(grads)[:, None] - density.phi(eg)
             - np.einsum("tqd,tqd->tq", density.dphi(eg),
                         grads[:, None, :] - eg))
    return float(np.sum(integrate(rule, mesh.areas, sigma)))


def aitken_extrapolate(s) -> AitkenResult:
    """Sequence acceleration from the last three entries,
    ``s_k - (delta s_k)^2 / (delta^2 s_k)``; exact on ``a + c q^k``.

    A vanishing second difference (e.g. a constant sequence) is flagged and
    the last entry returned unchanged.
    """
    arr = np.asarray(s, dtype=float)
    if arr.ndim != 1 or arr.size < 3:
        raise ValueError("need a 1-d sequence with at least 3 entries")
    s0, s1, s2 = arr[-3:]
    d2, d1 = s2 - s1, s1 - s0
    denom = d2 - d1
    if denom == 0.0 or not np.isfinite(denom):
        return AitkenResult(float(s2), True)
    return AitkenResult(float(s2 - d2 * d2 / denom), False)
