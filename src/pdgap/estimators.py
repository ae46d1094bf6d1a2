"""A posteriori error estimators built from primal-dual energy gaps.

Two families are provided, both localized per element:

* the gap indicators ``eta`` (Fenchel-Young residuals of a conforming
  candidate and a feasible dual field) together with their guaranteed
  vertex-rule upper variant ``eta_hat``, and
* the classical residual indicator ``eta_res`` built from element load
  residuals and side jumps of the nonlinear numerical flux.

The vertex (trapezoidal) rule overestimates integrals of convex integrands,
which makes ``eta_hat`` computable and one-sided: per element
``0 <= eta <= eta_hat``.  Dual feasibility (``div z = -f_h``) is a
precondition for the gap family; violations are marked with ``+inf`` rather
than raised, so callers can surface them in traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .energy_models import fmap
from .fespaces import CrFunction, P1Function, PwConstant, Rt0Field
from .quadrature import RULE_ORDER4, TriangleRule, integrate

__all__ = ["EstimatorBreakdown", "AitkenResult",
           "primal_energy", "dual_energy", "eta_sq", "eta_hat_sq",
           "eta_res_sq", "oscillation", "rho_F_sq", "rho_I_sq",
           "aitken_extrapolate", "refined_gap_bounds"]


# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------

@dataclass
class EstimatorBreakdown:
    """Per-element estimator contributions (squared-unit quantities).

    The gap part satisfies ``eta_sq = eta_A_sq + eta_B_sq + eta_C_sq +
    eta_D_sq`` and ``eta_hat_sq = eta_A_sq + eta_B_sq + eta_C_hat_sq +
    eta_D_hat_sq`` per element, with ``0 <= eta_sq <= eta_hat_sq`` (the
    exact-quadrature ``eta_D_sq`` is diagnostic; the shipped estimator is
    ``eta_hat_sq``).  The residual part carries the element term
    ``eta_E_sq``, the per-side jump terms ``eta_J_sq``, and the element
    totals ``eta_res_sq`` in which each interior side is charged in full to
    both adjacent elements.  Parts not computed by a given entry point are
    ``None``.
    """

    eta_A_sq: np.ndarray | None = None
    eta_B_sq: np.ndarray | None = None
    eta_C_sq: np.ndarray | None = None
    eta_D_sq: np.ndarray | None = None
    eta_C_hat_sq: np.ndarray | None = None
    eta_D_hat_sq: np.ndarray | None = None
    eta_sq: np.ndarray | None = None
    eta_hat_sq: np.ndarray | None = None
    eta_E_sq: np.ndarray | None = None
    eta_J_sq: np.ndarray | None = None      # per side
    eta_res_sq: np.ndarray | None = None    # per element

    @property
    def eta_sq_total(self) -> float:
        return float(np.sum(self.eta_sq))

    @property
    def eta_hat_sq_total(self) -> float:
        return float(np.sum(self.eta_hat_sq))

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
    tol = 1e-10 * (1.0 + float(np.max(np.abs(f_h.values))))
    return float(np.max(np.abs(z.divergence().values + f_h.values))) <= tol


def dual_energy(z: Rt0Field, density, f_h: PwConstant,
                boundary_values: np.ndarray | None = None,
                quadrature: str = "vertex") -> float:
    """Discrete dual value of a feasible flux; ``-inf`` if infeasible.

    With the default vertex rule the conjugate integral is overestimated,
    so the returned value is a guaranteed lower bound for the exact dual
    value (and hence for the primal minimum).  ``quadrature="order4"``
    gives the accurate-quadrature diagnostic variant instead.

    ``boundary_values`` (length: number of sides) supplies the side means
    of the primal candidate's Dirichlet trace for the boundary pairing term
    ``sum_S (z.n)|S| v_S``; omit for homogeneous data.
    """
    mesh = z.mesh
    if not _feasible(z, f_h):
        return float(-np.inf)
    if quadrature == "vertex":
        conj = density.phi_star(z.at_triangle_vertices()).mean(axis=1)
        value = -float(mesh.areas @ conj)
    elif quadrature == "order4":
        conj = density.phi_star(z.at_points(
            RULE_ORDER4.points(mesh.triangle_coords)))
        value = -float(np.sum(integrate(RULE_ORDER4, mesh.areas, conj)))
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

def eta_sq(u_tilde: P1Function, z: Rt0Field, density,
           f_h: PwConstant) -> EstimatorBreakdown:
    """Per-element primal-dual gap indicators for a conforming candidate
    and a feasible dual field.

    ``eta_A_sq`` has an elementwise-constant integrand and is exact; it is
    nonnegative by the Fenchel-Young inequality.  ``eta_B_sq`` and
    ``eta_C_sq`` vanish for the elementwise-constant load with the
    divergence constraint.  ``eta_D_sq`` (conjugate quadrature deficit) is
    evaluated by an order-4 rule and is diagnostic; its guaranteed
    vertex-rule variant lives in ``eta_D_hat_sq``.  All entries are ``+inf``
    when the dual field violates ``div z = -f_h``.
    """
    mesh = u_tilde.mesh
    if z.mesh is not mesh or f_h.mesh is not mesh:
        raise ValueError("estimator inputs live on different meshes")
    nt = mesh.num_triangles
    zeros = np.zeros(nt)
    if not _feasible(z, f_h):
        inf = np.full(nt, np.inf)
        return EstimatorBreakdown(
            eta_A_sq=inf, eta_B_sq=zeros, eta_C_sq=zeros, eta_D_sq=inf,
            eta_C_hat_sq=zeros, eta_D_hat_sq=inf, eta_sq=inf,
            eta_hat_sq=inf)

    grads = u_tilde.gradients()
    means = z.element_means()
    conj_mean = density.phi_star(means)
    # Fenchel-Young residual of (grad u, mean z); >= 0, clipped for roundoff
    eta_A = mesh.areas * np.maximum(
        density.phi(grads) - np.einsum("td,td->t", grads, means) + conj_mean,
        0.0)
    # conjugate quadrature deficits: integral of phi*(z) minus its value at
    # the element mean (Jensen gives >= 0; vertex rule bounds the integral)
    corner = density.phi_star(z.at_triangle_vertices()).mean(axis=1)
    eta_D_hat = np.maximum(mesh.areas * (corner - conj_mean), 0.0)
    quad = integrate(RULE_ORDER4, mesh.areas, density.phi_star(
        z.at_points(RULE_ORDER4.points(mesh.triangle_coords))))
    eta_D = np.maximum(quad - mesh.areas * conj_mean, 0.0)
    return EstimatorBreakdown(
        eta_A_sq=eta_A, eta_B_sq=zeros.copy(), eta_C_sq=zeros.copy(),
        eta_D_sq=eta_D, eta_C_hat_sq=zeros.copy(), eta_D_hat_sq=eta_D_hat,
        eta_sq=eta_A + eta_D, eta_hat_sq=eta_A + eta_D_hat)


def eta_hat_sq(u_tilde: P1Function, z: Rt0Field, density,
               f_h: PwConstant) -> EstimatorBreakdown:
    """Guaranteed (vertex-rule) indicators; same breakdown as :func:`eta_sq`."""
    return eta_sq(u_tilde, z, density, f_h)


# ---------------------------------------------------------------------------
# Residual indicators
# ---------------------------------------------------------------------------

def eta_res_sq(u_c: P1Function, f_h: PwConstant, p: float) -> EstimatorBreakdown:
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
    return EstimatorBreakdown(eta_E_sq=eta_E, eta_J_sq=eta_J,
                              eta_res_sq=eta_res)


def oscillation(u_c: P1Function, f: Callable, p: float,
                rule: TriangleRule = RULE_ORDER4) -> np.ndarray:
    """Per-element data-oscillation values for a non-constant load ``f``.

    ``int_T (|grad u_c|^{p-1} + h_T |f - mean f|)^{p'-2} h_T^2 |f - mean f|^2``
    by numerical quadrature.  Zero wherever ``f`` is elementwise constant.
    """
    if p <= 1.0:
        raise ValueError("oscillation requires p > 1")
    mesh = u_c.mesh
    q = p / (p - 1.0)
    pts = rule.points(mesh.triangle_coords)
    fvals = np.asarray(f(pts), dtype=float)
    fmean = fvals @ rule.weights
    dev = np.abs(fvals - fmean[:, None])
    gnorm = np.sqrt(np.sum(u_c.gradients() ** 2, axis=-1))
    h = mesh.diameters
    base = gnorm[:, None] ** (p - 1.0) + h[:, None] * dev
    weight = np.where(dev > 0.0,
                      np.where(base > 0.0, base, 1.0) ** (q - 2.0), 0.0)
    integrand = weight * h[:, None] ** 2 * dev ** 2
    return integrate(rule, mesh.areas, integrand)


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


def refined_gap_bounds(u_tilde: P1Function, u_cr: CrFunction, z: Rt0Field,
                       density) -> tuple[np.ndarray, np.ndarray]:
    """Convexity (monotonicity) bounds dominating the gap indicators.

    Returns per-element ``B_A = int (Dphi(grad u_tilde) - Dphi(grad u_cr))
    . (grad u_tilde - grad u_cr)`` (constant integrand, exact) and ``B_D =
    int (Dphi*(z) - Dphi*(mean z)) . (z - mean z)`` (order-4 quadrature).
    Per element ``eta_A_sq <= B_A`` and ``eta_D_sq <= B_D`` up to quadrature
    tolerance; totals are the array sums.
    """
    mesh = u_tilde.mesh
    gt = u_tilde.gradients()
    gc = u_cr.gradients()
    b_a = mesh.areas * np.einsum(
        "td,td->t", density.dphi(gt) - density.dphi(gc), gt - gc)

    pts = RULE_ORDER4.points(mesh.triangle_coords)
    zvals = z.at_points(pts)
    means = z.element_means()
    integrand = np.einsum(
        "tqd,tqd->tq",
        density.dphi_star(zvals) - density.dphi_star(means)[:, None, :],
        zvals - means[:, None, :])
    b_d = integrate(RULE_ORDER4, mesh.areas, integrand)
    return b_a, b_d
