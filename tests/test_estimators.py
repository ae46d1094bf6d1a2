"""Tests for the gap and residual estimators and the primal/dual energies."""

import numpy as np
import pytest

from pdgap.energy_models import OptimalDesignDensity, PPowerDensity
from pdgap.estimators import (_feasible, _vertex_rule_conjugate,
                              aitken_extrapolate, dual_energy, eta_hat_sq,
                              eta_res_sq, primal_energy, rho_F_sq, rho_I_sq)
from pdgap.fespaces import (CrFunction, P1Function, PwConstant, Rt0Field,
                            node_average)
from pdgap.mesh import (Triangulation, make_lshape_mesh, make_square_mesh,
                        uniform_refine)
from pdgap.quadrature import RULE_ORDER4, RULE_ORDER8
from pdgap.reconstruction import (MariniField, marini_reconstruct,
                                  verify_discrete_optimality)
from pdgap.solvers import DiscreteProblem, gradient_flow_solve, newton_solve

REF = Triangulation(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    np.array([[0, 1, 2]]))
P2 = PPowerDensity(2.0)


def _identity_field(mesh):
    """The field z(x) = x as a glued lowest-order Raviart-Thomas field."""
    coeffs = np.einsum("sd,sd->s", mesh.side_midpoints, mesh.side_normals)
    return Rt0Field(mesh, coeffs)


def _constant_field(mesh, c):
    return Rt0Field(mesh, np.asarray(c) @ mesh.side_normals.T)


def _converged_pair(p=1.6, level=0):
    # the strongly degenerate exponent needs one refinement before Newton
    # can push the residual to tight tolerances
    tol = 1e-11
    if p == 1.2:
        level, tol = max(level, 1), 1e-9
    mesh = uniform_refine(make_lshape_mesh(), level) if level \
        else make_lshape_mesh()
    f_h = PwConstant(mesh, np.ones(mesh.num_triangles))
    density = PPowerDensity(p)
    prob = DiscreteProblem(mesh, density, f_h, space="cr")
    u0 = None
    if p != 2.0:
        u0, _ = newton_solve(
            DiscreteProblem(mesh, P2, f_h, space="cr"), tol_abs=1e-12)
    state, rep = newton_solve(prob, u0=u0, tol_abs=tol, tol_rel=0.0)
    assert rep.converged
    u_cr = prob.function(state)
    z = marini_reconstruct(rep.stress, f_h)
    u_tilde = node_average(u_cr, dirichlet_values=np.zeros(mesh.num_vertices))
    return mesh, f_h, density, u_cr, z, u_tilde


# ---------------------------------------------------------------------------
# conjugate quadrature deficits: closed forms on the reference triangle
# ---------------------------------------------------------------------------

def test_reference_triangle_closed_forms():
    # z(x,y) = (x,y), p=2, u = 0: vertex-rule deficit 1/6 - 1/18 = 1/9 and
    # Fenchel-Young residual |T| phi*(mean z) = 1/18
    z = _identity_field(REF)
    f_h = PwConstant(REF, np.array([-2.0]))   # div z = 2
    u0 = P1Function(REF, np.zeros(3))
    bd = eta_hat_sq(u0, z, P2, f_h)
    assert bd.eta_D_hat_sq[0] == pytest.approx(1.0 / 9.0, abs=1e-15)
    assert bd.eta_A_sq[0] == pytest.approx(1.0 / 18.0, abs=1e-15)
    assert bd.eta_hat_sq_total == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_constant_field_has_zero_deficit():
    z = _constant_field(REF, [0.3, -0.2])
    f_h = PwConstant(REF, np.zeros(1))
    u0 = P1Function(REF, np.zeros(3))
    bd = eta_hat_sq(u0, z, P2, f_h)
    assert bd.eta_D_hat_sq[0] == 0.0


def test_gradient_pair_gives_zero_eta():
    # f = 0 and affine boundary data: the minimizer is the affine function,
    # its stress is constant and representable; eta vanishes identically
    mesh = make_lshape_mesh()
    f_h = PwConstant(mesh, np.zeros(mesh.num_triangles))
    density = PPowerDensity(1.6)
    grad = np.array([0.4, -0.3])
    u_tilde = P1Function(mesh, mesh.vertices @ grad)
    z = _constant_field(mesh, density.dphi(grad[None])[0])
    bd = eta_hat_sq(u_tilde, z, density, f_h)
    assert float(np.sum(bd.eta_A_sq)) == pytest.approx(0.0, abs=1e-14)
    assert bd.eta_hat_sq_total == pytest.approx(0.0, abs=1e-14)


def test_breakdown_invariants_random_pairs():
    rng = np.random.default_rng(21)
    mesh = uniform_refine(make_lshape_mesh(), 1)
    f_h = PwConstant(mesh, np.ones(mesh.num_triangles))
    for density in (PPowerDensity(1.6), OptimalDesignDensity()):
        prob = DiscreteProblem(mesh, density, f_h, space="cr")
        for _ in range(5):
            u_cr = CrFunction(mesh, rng.normal(size=mesh.num_sides))
            # one flow step from a random state: feasible, far from optimal
            _, rep = gradient_flow_solve(prob, u0=u_cr.values, max_iter=1)
            z = marini_reconstruct(rep.stress, f_h)
            u_tilde = P1Function(mesh, rng.normal(size=mesh.num_vertices))
            bd = eta_hat_sq(u_tilde, z, density, f_h)
            assert np.all(bd.eta_A_sq >= 0.0)
            assert np.all(bd.eta_D_hat_sq >= 0.0)
            assert np.array_equal(bd.eta_hat_sq,
                                  bd.eta_A_sq + bd.eta_D_hat_sq)
            assert bd.eta_hat_sq_total == float(np.sum(bd.eta_hat_sq))


def test_infeasible_dual_field_marks_infinity():
    mesh, f_h, density, u_cr, z, u_tilde = _converged_pair()
    bad = Rt0Field(mesh, 1.1 * z.coeffs)
    bd = eta_hat_sq(u_tilde, bad, density, f_h)
    for part in (bd.eta_A_sq, bd.eta_D_hat_sq, bd.eta_hat_sq):
        assert np.all(part == np.inf)
    assert bd.eta_hat_sq_total == np.inf
    assert dual_energy(bad, density, f_h) == -np.inf


def test_neumann_normal_flux_is_infeasible():
    # Dirichlet on x = 0, Neumann elsewhere: z = (1/2 - x, 0) has div z = -1
    # and no jumps, but z.n = -1/2 on the Neumann side x = 1
    square = make_square_mesh(1)
    labels = {tuple(square.sides[s].tolist()):
              "D" if np.all(square.vertices[square.sides[s], 0] == 0.0)
              else "N" for s in square.boundary_side_ids}
    mesh = uniform_refine(
        Triangulation(square.vertices, square.triangles, labels), 2)
    f_h = PwConstant(mesh, np.ones(mesh.num_triangles))
    z = Rt0Field(mesh, (0.5 - mesh.side_midpoints[:, 0])
                 * mesh.side_normals[:, 0])
    assert np.allclose(z.divergence().values, -1.0, atol=1e-12)
    assert not _feasible(z, f_h)
    for quadrature in ("vertex", "mean"):
        assert dual_energy(z, P2, f_h, quadrature=quadrature) == -np.inf
    # the Marini flux of the discrete minimizer has z.n = 0 there
    prob = DiscreteProblem(mesh, P2, f_h, space="cr")
    _, rep = newton_solve(prob)
    assert _feasible(marini_reconstruct(rep.stress, f_h), f_h)


# ---------------------------------------------------------------------------
# dual energy
# ---------------------------------------------------------------------------

def test_dual_energy_closed_forms():
    mesh = make_square_mesh(4)
    f_h = PwConstant(mesh, np.zeros(mesh.num_triangles))
    zero = Rt0Field(mesh, np.zeros(mesh.num_sides))
    assert dual_energy(zero, P2, f_h) == 0.0
    c = np.array([0.7, -0.4])
    z = _constant_field(mesh, c)
    expected = -1.0 * 0.5 * float(c @ c)   # |Omega| = 1
    assert dual_energy(z, P2, f_h) == pytest.approx(expected, abs=1e-14)


def test_vertex_rule_bit_identical_to_numpy_mean():
    mesh, f_h, density, u_cr, z, u_tilde = _converged_pair()
    assert np.array_equal(
        _vertex_rule_conjugate(z, density),
        density.phi_star(z.at_triangle_vertices()).mean(axis=1))


def test_dual_energy_vertex_rule_is_lower_bound():
    # Jensen: the corner mean of phi*(z) is at least phi* of the element mean
    mesh, f_h, density, u_cr, z, u_tilde = _converged_pair()
    guaranteed = dual_energy(z, density, f_h)
    discrete = dual_energy(z, density, f_h, quadrature="mean")
    assert guaranteed < discrete
    with pytest.raises(ValueError):
        dual_energy(z, density, f_h, quadrature="order2")


def _with_divergence_defect(z0, f_h, ratio):
    """``z0`` with one boundary coefficient changed so that its divergence
    moves by ``ratio`` times the feasibility tolerance on one element."""
    mesh = z0.mesh
    tol = 1e-10 * (1.0 + float(np.max(np.abs(f_h.values))))
    coeffs = z0.coeffs.copy()
    side = int(mesh.boundary_side_ids[0])
    t = int(mesh.side_tris[side, 0])
    # a boundary coefficient changes div z on its one element by
    # coeff |S| / |T|
    coeffs[side] += ratio * tol * mesh.areas[t] / mesh.side_lengths[side]
    z = Rt0Field(mesh, coeffs)
    defect = float(np.max(np.abs(z.divergence().values + f_h.values)))
    return z, defect / tol


def _with_normal_mismatch(z0, ratio):
    """``z0`` as a broken field whose normal components disagree on one
    interior side by ``ratio`` times the feasibility tolerance."""
    mesh = z0.mesh
    tol = 1e-10 * (1.0 + float(np.max(np.abs(z0.coeffs))))
    mismatch = np.zeros(mesh.num_sides)
    mismatch[mesh.interior_side_ids[0]] = ratio * tol
    a, b = z0.element_linear()
    z = MariniField(mesh, a, b, z0.coeffs, mismatch)
    return z, float(np.max(np.abs(z.mismatch))) / tol


@pytest.mark.parametrize("ratio", [0.5, 2.0])
def test_feasibility_boundary_agrees_across_entry_points(ratio):
    # one defect at a time, the divergence or the normal mismatch, just
    # inside or just outside the tolerance of the one feasibility test
    mesh = uniform_refine(make_lshape_mesh(), 1)
    z0 = Rt0Field(mesh, np.einsum("sd,sd->s", -0.5 * mesh.side_midpoints,
                                  mesh.side_normals))     # z0 = -x/2
    # the load is minus the computed divergence, so z0 has no defect at all
    f_h = PwConstant(mesh, -z0.divergence().values)
    assert _feasible(z0, f_h)
    feasible = ratio < 1.0
    rng = np.random.default_rng(3)
    density = PPowerDensity(1.6)
    u_cr = CrFunction(mesh, rng.normal(size=mesh.num_sides))
    u_tilde = P1Function(mesh, rng.normal(size=mesh.num_vertices))
    div_tol = 1e-10 * (1.0 + np.max(np.abs(f_h.values)))
    jump_tol = 1e-10 * (1.0 + np.max(np.abs(z0.coeffs)))
    cases = ((*_with_divergence_defect(z0, f_h, ratio), "max_div_defect",
              div_tol),
             (*_with_normal_mismatch(z0, ratio), "max_flux_jump", jump_tol))
    for z, measured, diagnostic, tol in cases:
        assert measured == pytest.approx(ratio, rel=1e-3)
        assert _feasible(z, f_h) is feasible
        for quadrature in ("vertex", "mean"):
            value = dual_energy(z, density, f_h, quadrature=quadrature)
            assert np.isfinite(value) if feasible else value == -np.inf
        bd = eta_hat_sq(u_tilde, z, density, f_h)
        for part in (bd.eta_A_sq, bd.eta_D_hat_sq, bd.eta_hat_sq):
            assert np.all(np.isfinite(part)) if feasible \
                else np.all(part == np.inf)
        report = verify_discrete_optimality(u_cr, z, density, f_h)
        assert getattr(report, diagnostic) == pytest.approx(measured * tol,
                                                            rel=1e-12)
        if feasible:
            assert np.isfinite(report.dual) and np.isfinite(report.gap)
        else:
            assert report.dual == -np.inf and report.gap == np.inf


@pytest.mark.parametrize("space", ["cr", "p1"])
@pytest.mark.parametrize("density", [PPowerDensity(1.2),
                                     OptimalDesignDensity()],
                         ids=["p1.2", "design"])
def test_one_primal_energy_kernel(space, density):
    # the solver energy, the estimator energy and the optimality report
    # share one formula, so they agree bit for bit
    rng = np.random.default_rng(47)
    mesh = uniform_refine(make_lshape_mesh(), 1)
    f_h = PwConstant(mesh, rng.normal(size=mesh.num_triangles))
    num_dofs = mesh.num_sides if space == "cr" else mesh.num_vertices
    prob = DiscreteProblem(mesh, density, f_h, space=space,
                           dirichlet=rng.normal(size=num_dofs))
    for _ in range(3):
        u = prob.impose_dirichlet(rng.normal(size=num_dofs))
        v = prob.function(u)
        grads = np.einsum("tj,tjd->td", u[prob.dof_map], prob.basis_grads)
        assert np.array_equal(prob.broken_gradient(u), grads)
        inline = float(mesh.areas @ (density.phi(grads) - f_h.values
                                     * u[prob.dof_map].mean(axis=1)))
        energy = prob.energy(u)
        assert energy == primal_energy(v, density, f_h) == inline
        if space == "cr":
            _, rep = gradient_flow_solve(prob, u0=u, max_iter=1)
            z = marini_reconstruct(rep.stress, f_h)
            report = verify_discrete_optimality(v, z, density, f_h)
            assert report.primal == energy
            diri = np.flatnonzero(mesh.dirichlet_side_mask)
            inline = -float(mesh.areas @ density.phi_star(z.element_means())) \
                + float(np.sum(z.coeffs[diri] * mesh.side_lengths[diri]
                               * u[diri]))
            assert report.dual == inline == dual_energy(
                z, density, f_h, boundary_values=u, quadrature="mean")


def test_weak_duality_and_gap_identity():
    # the vertex-rule dual value lower-bounds the conforming primal energy,
    # and their difference reproduces the total gap indicator
    for p in (2.0, 1.6, 1.2):
        mesh, f_h, density, u_cr, z, u_tilde = _converged_pair(p=p)
        primal = primal_energy(u_tilde, density, f_h)
        dual = dual_energy(z, density, f_h)
        scale = abs(primal) + abs(dual)
        assert primal - dual >= -1e-10 * scale
        bd = eta_hat_sq(u_tilde, z, density, f_h)
        assert primal - dual == pytest.approx(bd.eta_hat_sq_total,
                                              abs=1e-9 * max(scale, 1.0))


# ---------------------------------------------------------------------------
# residual estimator
# ---------------------------------------------------------------------------

def test_residual_zero_for_affine_no_load():
    mesh = make_lshape_mesh()
    u_c = P1Function(mesh, mesh.vertices @ np.array([0.5, 1.5]) + 0.3)
    f_h = PwConstant(mesh, np.zeros(mesh.num_triangles))
    bd = eta_res_sq(u_c, f_h, p=1.6)
    # interpolated-gradient roundoff leaves ~1e-31 jump residue
    assert bd.eta_res_sq_total <= 1e-28
    assert np.all(bd.eta_E_sq == 0.0)


def test_residual_p2_reduction_formulas():
    rng = np.random.default_rng(31)
    mesh = make_lshape_mesh()
    u_c = P1Function(mesh, rng.normal(size=mesh.num_vertices))
    f_h = PwConstant(mesh, rng.normal(size=mesh.num_triangles))
    bd = eta_res_sq(u_c, f_h, p=2.0)
    expect_E = mesh.diameters ** 2 * f_h.values ** 2 * mesh.areas
    assert np.allclose(bd.eta_E_sq, expect_E, rtol=1e-13)
    grads = u_c.gradients()
    interior = mesh.side_tris[:, 1] >= 0
    jump = grads[mesh.side_tris[interior, 0]] \
        - grads[mesh.side_tris[interior, 1]]
    expect_J = mesh.side_lengths[interior] ** 2 * np.sum(jump ** 2, axis=-1)
    assert np.allclose(bd.eta_J_sq[interior], expect_J, rtol=1e-13)
    assert np.all(bd.eta_J_sq[~interior] == 0.0)


def test_residual_unit_jump_patch():
    # vertical unit side with gradient jump (1,0): h_S |S| |jump|^2 = 1
    mesh = Triangulation(
        np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.5], [-1.0, 0.5]]),
        np.array([[0, 2, 1], [0, 1, 3]]))
    u_c = P1Function(mesh, np.array([0.0, 0.0, 1.0, 0.0]))
    f_h = PwConstant(mesh, np.zeros(2))
    bd = eta_res_sq(u_c, f_h, p=2.0)
    interior = np.flatnonzero(mesh.side_tris[:, 1] >= 0)
    assert interior.size == 1
    assert bd.eta_J_sq[interior[0]] == pytest.approx(1.0, abs=1e-14)
    # charged in full to both adjacent elements
    assert np.allclose(bd.eta_res_sq, [1.0, 1.0], atol=1e-14)


def test_residual_element_total_charges_both_sides():
    mesh, f_h, density, u_cr, z, u_tilde = _converged_pair()
    bd = eta_res_sq(u_tilde, f_h, p=1.6)
    interior = mesh.side_tris[:, 1] >= 0
    charge = np.where(interior, bd.eta_J_sq, 0.0)
    recomputed = bd.eta_E_sq + charge[mesh.tri_sides].sum(axis=1)
    assert np.array_equal(bd.eta_res_sq, recomputed)
    assert bd.eta_res_sq_total <= np.sum(bd.eta_res_sq) + 1e-15


def test_residual_rejects_bad_exponent():
    mesh = make_lshape_mesh()
    u_c = P1Function(mesh, np.zeros(mesh.num_vertices))
    f_h = PwConstant(mesh, np.ones(mesh.num_triangles))
    with pytest.raises(ValueError):
        eta_res_sq(u_c, f_h, p=1.0)


# ---------------------------------------------------------------------------
# F-metric error
# ---------------------------------------------------------------------------

def _at_points(exact_grad, mesh, rule=RULE_ORDER4):
    """Values of the callable ``exact_grad`` at the rule's points."""
    return exact_grad(rule.points(mesh.triangle_coords))


def _constant_at_points(grad, mesh):
    """The constant gradient ``grad`` at every order-4 point."""
    return np.broadcast_to(grad, (mesh.num_triangles, RULE_ORDER4.npoints, 2))


def test_rho_F_exact_affine_is_zero():
    mesh = make_lshape_mesh()
    grad = np.array([1.2, -0.4])
    u = P1Function(mesh, mesh.vertices @ grad)
    for p in (2.0, 1.6):
        val = rho_F_sq(u, _constant_at_points(grad, mesh), p)
        assert val == pytest.approx(0.0, abs=1e-28)


def test_rho_F_p2_is_gradient_error_norm():
    mesh = make_lshape_mesh()
    u = P1Function(mesh, np.zeros(mesh.num_vertices))
    grad = np.array([1.0, 2.0])
    val = rho_F_sq(u, _constant_at_points(grad, mesh), p=2.0)
    assert val == pytest.approx(3.0 * 5.0, rel=1e-14)  # |Omega| |grad|^2


def _smooth_exact_grad(x):
    return np.stack((np.sin(x[..., 0]), x[..., 1] ** 2), axis=-1)


def test_rho_F_order8_cross_check():
    mesh = make_lshape_mesh()
    rng = np.random.default_rng(17)
    u = P1Function(mesh, rng.normal(size=mesh.num_vertices))
    low = rho_F_sq(u, _at_points(_smooth_exact_grad, mesh), p=1.6)
    high = rho_F_sq(u, _at_points(_smooth_exact_grad, mesh, RULE_ORDER8),
                    p=1.6, rule=RULE_ORDER8)
    assert high == pytest.approx(low, rel=1e-6)


# ---------------------------------------------------------------------------
# Energy-distance error
# ---------------------------------------------------------------------------

def test_rho_I_own_gradient_is_zero():
    mesh = make_lshape_mesh()
    rng = np.random.default_rng(5)
    u = P1Function(mesh, rng.normal(size=mesh.num_vertices))
    own = np.broadcast_to(u.gradients()[:, None, :],
                          (mesh.num_triangles, RULE_ORDER4.npoints, 2))
    for p in (1.2, 1.6, 2.0):
        assert rho_I_sq(u, own, PPowerDensity(p)) == 0.0


@pytest.mark.parametrize("p", [1.2, 1.6])
def test_rho_I_nonnegative_on_random_fields(p):
    rng = np.random.default_rng(23)
    density = PPowerDensity(p)
    mesh = make_lshape_mesh()
    exact = _at_points(_smooth_exact_grad, mesh)
    for _ in range(5):
        u = P1Function(mesh, rng.normal(size=mesh.num_vertices))
        assert rho_I_sq(u, exact, density) >= 0.0
    # one element: each value integrates sigma_phi over just six points,
    # with exact gradients near to and far from the candidate's
    for scale in (1e-3, 1e-1, 1.0, 10.0):
        for _ in range(20):
            u = P1Function(REF, rng.normal(size=3))
            exact = u.gradients()[:, None, :] + scale * rng.normal(
                size=(1, RULE_ORDER4.npoints, 2))
            assert rho_I_sq(u, exact, density) >= 0.0


def test_rho_I_is_half_rho_F_at_p2():
    # sigma_phi(a, b) = |a - b|^2 / 2 for phi = |.|^2 / 2
    mesh = make_lshape_mesh()
    rng = np.random.default_rng(31)
    u = P1Function(mesh, rng.normal(size=mesh.num_vertices))
    exact = _at_points(_smooth_exact_grad, mesh)
    energy = rho_I_sq(u, exact, P2)
    flux = rho_F_sq(u, exact, p=2.0)
    assert energy == pytest.approx(0.5 * flux, rel=1e-12)


def test_rho_I_order8_cross_check():
    mesh = make_lshape_mesh()
    rng = np.random.default_rng(17)
    u = P1Function(mesh, rng.normal(size=mesh.num_vertices))
    density = PPowerDensity(1.6)
    low = rho_I_sq(u, _at_points(_smooth_exact_grad, mesh), density)
    high = rho_I_sq(u, _at_points(_smooth_exact_grad, mesh, RULE_ORDER8),
                    density, rule=RULE_ORDER8)
    # the difference is the order-4 quadrature error (5e-6 on this mesh,
    # 3e-7 after one uniform refinement)
    assert high == pytest.approx(low, rel=1e-5)


# ---------------------------------------------------------------------------
# Aitken extrapolation
# ---------------------------------------------------------------------------

def test_aitken_geometric_is_exact():
    k = np.arange(6)
    value, degenerate = aitken_extrapolate(1.0 + 2.0 ** (-k))
    assert not degenerate
    assert value == pytest.approx(1.0, abs=1e-15)
    a, c, q = -0.0745, 0.31, 0.62
    value, degenerate = aitken_extrapolate(a + c * q ** k)
    assert not degenerate
    assert value == pytest.approx(a, abs=1e-12)


def test_aitken_constant_flagged():
    value, degenerate = aitken_extrapolate([4.2, 4.2, 4.2])
    assert degenerate and value == 4.2


def test_aitken_input_validation():
    with pytest.raises(ValueError):
        aitken_extrapolate([1.0, 2.0])


# ---------------------------------------------------------------------------
# monotonicity bounds on the gap indicators
# ---------------------------------------------------------------------------

def _monotonicity_bound(u_tilde, u_cr, density):
    """Per-element ``B_A = int (Dphi(grad u_tilde) - Dphi(grad u_cr)) .
    (grad u_tilde - grad u_cr)``; by convexity it dominates ``eta_A_sq``
    when ``z`` is the flux reconstructed from ``u_cr``."""
    gt, gc = u_tilde.gradients(), u_cr.gradients()
    return u_tilde.mesh.areas * np.einsum(
        "td,td->t", density.dphi(gt) - density.dphi(gc), gt - gc)


def test_gap_bounds_p2_identities():
    # at p = 2 the Fenchel-Young part is exactly half its monotonicity bound
    mesh, f_h, density, u_cr, z, u_tilde = _converged_pair(p=2.0)
    b_a = _monotonicity_bound(u_tilde, u_cr, density)
    diff = u_tilde.gradients() - u_cr.gradients()
    expect_a = mesh.areas * np.sum(diff ** 2, axis=-1)
    assert np.allclose(b_a, expect_a, atol=1e-15)
    bd = eta_hat_sq(u_tilde, z, density, f_h)
    assert np.allclose(bd.eta_A_sq, 0.5 * b_a, atol=1e-15)


def test_gap_bounds_dominate_indicators():
    for p in (1.6, 1.2):
        mesh, f_h, density, u_cr, z, u_tilde = _converged_pair(p=p)
        bd = eta_hat_sq(u_tilde, z, density, f_h)
        b_a = _monotonicity_bound(u_tilde, u_cr, density)
        scale = max(bd.eta_hat_sq_total, 1.0)
        assert np.all(bd.eta_A_sq <= b_a + 1e-10 * scale)


# ---------------------------------------------------------------------------
# reliability against an overkill reference (p=2)
# ---------------------------------------------------------------------------

def _overkill_gradient_lookup(fine_mesh, fine_u, n):
    """Gradient-evaluating callable for a P1 function on make_square_mesh(n)."""
    grads = fine_u.gradients()

    def exact_grad(points):
        x = np.clip(points[..., 0], 0.0, 1.0 - 1e-12)
        y = np.clip(points[..., 1], 0.0, 1.0 - 1e-12)
        col = (x * n).astype(int)
        row = (y * n).astype(int)
        fx = x * n - col
        fy = y * n - row
        upper = fy > fx          # cells split along the (+1,+1) diagonal
        tri = 2 * (row * n + col) + np.where(upper, 1, 0)
        return grads[tri]

    return exact_grad


def test_gap_dominates_overkill_error_with_convexity_constant():
    # for the quadratic model, strong convexity gives exactly
    # ||grad(u - u_tilde)||^2 = 2 (I(u_tilde) - I(u)) <= 2 (I(u_tilde) - D(z)),
    # i.e. the squared error is bounded by twice the gap indicator total
    coarse = uniform_refine(make_square_mesh(4), 1)
    f_coarse = PwConstant(coarse, np.ones(coarse.num_triangles))
    prob = DiscreteProblem(coarse, P2, f_coarse, space="p1")
    state, rep = newton_solve(prob, tol_abs=1e-12)
    assert rep.converged
    u_tilde = prob.function(state)
    cr = DiscreteProblem(coarse, P2, f_coarse, space="cr")
    _, cr_rep = newton_solve(cr, tol_abs=1e-12)
    z = marini_reconstruct(cr_rep.stress, f_coarse)

    n_fine = 64
    fine = make_square_mesh(n_fine)
    f_fine = PwConstant(fine, np.ones(fine.num_triangles))
    fine_prob = DiscreteProblem(fine, P2, f_fine, space="p1")
    fine_state, _ = newton_solve(fine_prob, tol_abs=1e-12)
    exact_grad = _overkill_gradient_lookup(fine, fine_prob.function(fine_state),
                                           n_fine)
    rho = rho_F_sq(u_tilde, _at_points(exact_grad, coarse), p=2.0)
    bd = eta_hat_sq(u_tilde, z, P2, f_coarse)
    assert np.all(bd.eta_A_sq >= 0.0)
    assert rho <= 2.0 * bd.eta_hat_sq_total
