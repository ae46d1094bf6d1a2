"""Tests for the explicit dual flux reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdgap.energy_models import OptimalDesignDensity, PPowerDensity
from pdgap.estimators import _feasible, dual_energy, primal_energy
from pdgap.fespaces import CrFunction, PwConstant, Rt0Field, node_average
from pdgap.mesh import (Triangulation, make_lshape_mesh, make_square_mesh,
                        refine, uniform_refine)
from pdgap.reconstruction import (MariniField, flux_mismatch,
                                  marini_reconstruct,
                                  verify_discrete_optimality)
from pdgap.solvers import DiscreteProblem, newton_solve, solve_problem

REF = Triangulation(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    np.array([[0, 1, 2]]))


def _lshape_load(level=0):
    mesh = uniform_refine(make_lshape_mesh(), level) if level \
        else make_lshape_mesh()
    return mesh, PwConstant(mesh, np.ones(mesh.num_triangles))


def _solve(mesh, f_h, p, tol=1e-10):
    prob = DiscreteProblem(mesh, PPowerDensity(p), f_h, space="cr")
    u0 = None
    if p != 2.0:
        lap = DiscreteProblem(mesh, PPowerDensity(2.0), f_h, space="cr")
        u0, _ = newton_solve(lap, tol_abs=1e-12)
    state, rep = newton_solve(prob, u0=u0, tol_abs=tol, tol_rel=0.0)
    assert rep.converged
    return prob.function(state), prob


def test_exactness_holds_for_arbitrary_states():
    # divergence balance and mean identity hold by construction, without
    # any solve: take a random (certainly non-optimal) function
    rng = np.random.default_rng(7)
    mesh, f_h = _lshape_load(level=1)
    density = PPowerDensity(1.6)
    u = CrFunction(mesh, rng.normal(size=mesh.num_sides))
    z = marini_reconstruct(density.dphi(u.gradients()), f_h)
    assert np.max(np.abs(z.divergence().values + f_h.values)) == 0.0
    assert np.max(np.abs(z.element_means() - density.dphi(u.gradients()))) == 0.0
    # ...while the normal components genuinely disagree across sides
    interior = mesh.side_tris[:, 1] >= 0
    assert np.max(np.abs(z.mismatch[interior])) > 1e-3
    assert np.all(z.mismatch[~interior] == 0.0)


def test_one_element_hand_check():
    # p=2, f=2 on the reference triangle: z = grad u - (x - x_T).
    # With u = x + 2y + 0.25 (grad u = (1,2)): midpoint values 0.75, 1.25,
    # 1.75 on the sorted sides (0,1), (0,2), (1,2).
    f_h = PwConstant(REF, np.array([2.0]))
    u = CrFunction(REF, np.array([0.75, 1.25, 1.75]))
    z = marini_reconstruct(PPowerDensity(2.0).dphi(u.gradients()), f_h)
    assert np.allclose(u.gradients(), [[1.0, 2.0]], atol=1e-14)
    assert np.allclose(z.element_means(), [[1.0, 2.0]], atol=1e-14)
    assert np.allclose(z.divergence().values, [-2.0], atol=1e-14)
    # normal flux at each side midpoint: n.(grad u - (m - x_T))
    x_T = REF.barycenters[0]
    for s in range(3):
        n = REF.side_normals[s]
        m = REF.side_midpoints[s]
        expected = n @ (np.array([1.0, 2.0]) - (m - x_T))
        assert z.coeffs[s] == pytest.approx(expected, abs=1e-14)


def test_smaller_index_extraction_and_mismatch_sign():
    # two triangles sharing the diagonal of the unit square
    mesh = Triangulation(
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        np.array([[0, 1, 2], [0, 2, 3]]))
    rng = np.random.default_rng(3)
    u = CrFunction(mesh, rng.normal(size=mesh.num_sides))
    f_h = PwConstant(mesh, np.zeros(2))
    z = marini_reconstruct(PPowerDensity(2.0).dphi(u.gradients()), f_h)
    grads = u.gradients()
    diag = int(np.flatnonzero(mesh.side_tris[:, 1] >= 0)[0])
    n = mesh.side_normals[diag]
    t0, t1 = mesh.side_tris[diag]
    assert t0 < t1
    assert z.coeffs[diag] == pytest.approx(grads[t0] @ n, abs=1e-14)
    assert z.mismatch[diag] == pytest.approx((grads[t1] - grads[t0]) @ n,
                                             abs=1e-14)
    assert np.array_equal(flux_mismatch(z), z.mismatch)


def test_extraction_bit_identical_to_reference_loop():
    # the (nt, 3, 2) candidate normal fluxes and the argmax search for the
    # local side index, as the reference for the vectorized forms
    rng = np.random.default_rng(17)
    mesh, f_h = _lshape_load(level=1)
    f_h = PwConstant(mesh, rng.normal(size=mesh.num_triangles))
    u = CrFunction(mesh, rng.normal(size=mesh.num_sides))
    z = marini_reconstruct(PPowerDensity(1.6).dphi(u.gradients()), f_h)
    a, b = z.element_linear()
    rel = mesh.side_midpoints[mesh.tri_sides] - mesh.barycenters[:, None, :]
    cand = np.einsum("tjd,tjd->tj", a[:, None, :] + b[:, None, None] * rel,
                     mesh.side_normals[mesh.tri_sides])
    picked = []
    for col in (0, 1):
        tris = mesh.side_tris[:, col]
        valid = tris >= 0
        loc = np.argmax(mesh.tri_sides[tris[valid]]
                        == np.flatnonzero(valid)[:, None], axis=1)
        values = np.zeros(mesh.num_sides)
        values[valid] = cand[tris[valid], loc]
        picked.append(values)
    interior = mesh.side_tris[:, 1] >= 0
    mismatch = np.zeros(mesh.num_sides)
    mismatch[interior] = picked[1][interior] - picked[0][interior]
    assert np.array_equal(z.coeffs, picked[0])
    assert np.array_equal(z.mismatch, mismatch)


def test_converged_minimizer_has_continuous_normal_flux():
    mesh, f_h = _lshape_load()
    density = PPowerDensity(1.6)
    u, _ = _solve(mesh, f_h, 1.6)
    z = marini_reconstruct(density.dphi(u.gradients()), f_h)
    report = verify_discrete_optimality(u, z, density, f_h)
    # normal-flux jump within 10x the solver tolerance
    assert report.max_flux_jump <= 10 * 1e-10
    assert report.max_mean_defect == 0.0
    assert report.max_div_defect == 0.0
    assert report.max_fenchel_young_residual <= 1e-14


def test_optimality_report_flags_perturbation():
    mesh, f_h = _lshape_load()
    density = PPowerDensity(2.0)
    u, prob = _solve(mesh, f_h, 2.0)
    z = marini_reconstruct(density.dphi(u.gradients()), f_h)
    base = verify_discrete_optimality(u, z, density, f_h)
    assert base.max_fenchel_young_residual <= 1e-14

    values = u.values.copy()
    side = int(np.flatnonzero(~prob.fixed_mask)[4])
    values[side] += 1e-3
    perturbed = verify_discrete_optimality(CrFunction(mesh, values), z,
                                           density, f_h)
    assert perturbed.max_fenchel_young_residual >= 1e-9
    touched = np.any(mesh.tri_sides == side, axis=1)
    assert np.max(np.abs(perturbed.fenchel_young_residuals[~touched])) <= 1e-14


def test_gap_vanishes_at_minimizer():
    for p in (2.0, 1.6):
        mesh, f_h = _lshape_load()
        density = PPowerDensity(p)
        u, prob = _solve(mesh, f_h, p)
        z = marini_reconstruct(density.dphi(u.gradients()), f_h)
        report = verify_discrete_optimality(u, z, density, f_h)
        assert abs(report.gap) <= 1e-8 * (abs(report.primal)
                                          + abs(report.dual))


def test_gap_infinite_off_the_constraint_set():
    mesh, f_h = _lshape_load()
    density = PPowerDensity(2.0)
    u, _ = _solve(mesh, f_h, 2.0)
    z = marini_reconstruct(density.dphi(u.gradients()), f_h)
    scaled = Rt0Field(mesh, 1.1 * z.coeffs)
    assert verify_discrete_optimality(u, scaled, density, f_h).gap == np.inf


def test_gap_accepts_glued_field_at_minimizer():
    # the glued coefficients define a genuine RT0 field; at a tightly
    # converged minimizer it is feasible and gives the same tiny gap
    mesh, f_h = _lshape_load()
    density = PPowerDensity(2.0)
    u, _ = _solve(mesh, f_h, 2.0, tol=1e-12)
    z = marini_reconstruct(density.dphi(u.gradients()), f_h)
    glued = Rt0Field(mesh, z.coeffs.copy())
    gap = verify_discrete_optimality(u, glued, density, f_h).gap
    assert np.isfinite(gap)
    assert abs(gap) <= 1e-10


def test_report_energies_and_weak_duality():
    mesh, f_h = _lshape_load()
    density = PPowerDensity(1.6)
    u, _ = _solve(mesh, f_h, 1.6)
    z = marini_reconstruct(density.dphi(u.gradients()), f_h)
    report = verify_discrete_optimality(u, z, density, f_h)
    assert report.gap == report.primal - report.dual
    scale = abs(report.primal) + abs(report.dual)
    assert report.gap >= -1e-10 * scale

    infeasible = verify_discrete_optimality(
        u, Rt0Field(mesh, 1.1 * z.coeffs), density, f_h)
    assert infeasible.dual == -np.inf
    assert infeasible.gap == np.inf


def test_marini_field_is_rt0_subclass():
    mesh, f_h = _lshape_load()
    z = marini_reconstruct(np.zeros((mesh.num_triangles, 2)), f_h)
    assert isinstance(z, MariniField)
    assert isinstance(z, Rt0Field)
    assert z.mesh is f_h.mesh
    assert z.coeffs.shape == (mesh.num_sides,)


def test_stress_of_another_shape_is_rejected():
    # one stress vector per element of the load's mesh, nothing else
    mesh, f_h = _lshape_load()
    nt = mesh.num_triangles
    for shape in [(nt,), (nt, 3), (nt + 1, 2), (nt, 2, 1), (2 * nt,)]:
        with pytest.raises(ValueError, match="stress"):
            marini_reconstruct(np.zeros(shape), f_h)


_BASES = (make_lshape_mesh(), make_square_mesh(4))


@st.composite
def _refined_meshes(draw):
    """The L-shape or the unit square with permuted vertex and triangle
    numbers, random D/N boundary labels (at least one D), and two rounds of
    random marking."""
    base = draw(st.sampled_from(_BASES))
    order = np.array(draw(st.permutations(range(base.num_vertices))))
    new_id = np.argsort(order)
    triangles = new_id[base.triangles][
        np.array(draw(st.permutations(range(base.num_triangles))))]
    boundary = base.sides[base.boundary_side_ids]
    labels = draw(st.lists(st.sampled_from("DN"), min_size=len(boundary),
                           max_size=len(boundary)))
    labels[draw(st.integers(0, len(labels) - 1))] = "D"
    mesh = Triangulation(base.vertices[order], triangles, {
        tuple(sorted(new_id[pair].tolist())): lab
        for pair, lab in zip(boundary, labels)})
    for _ in range(2):
        marked = draw(st.sets(st.integers(0, mesh.num_triangles - 1),
                              min_size=1, max_size=12))
        mesh = refine(mesh, sorted(marked))
    return mesh


_UNIT = st.floats(-1.0, 1.0, allow_subnormal=False)
# bounded away from zero: with f_h = 0 and affine data the discrete solution
# is affine, the bracket has zero width and D <= I holds only to roundoff
_LOAD = st.one_of(st.floats(-2.0, -0.25), st.floats(0.25, 2.0))


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(mesh=_refined_meshes(),
       density=st.one_of(st.just(OptimalDesignDensity()),
                         st.floats(1.1, 3.0).map(PPowerDensity)),
       solver=st.sampled_from(["flow", "newton"]),
       max_iter=st.integers(1, 5),
       affine=st.tuples(_UNIT, _UNIT, _UNIT),
       data=st.data())
def test_capped_solve_keeps_the_bracket(mesh, density, solver, max_iter,
                                        affine, data):
    # however early the solve stops, the flux of its last linear solve is
    # feasible, so the averaged candidate and that flux bracket the energy;
    # Dirichlet data g = c + b.x, a piecewise-constant load
    f_h = PwConstant(mesh, np.array(data.draw(st.lists(
        _LOAD, min_size=mesh.num_triangles, max_size=mesh.num_triangles))))
    c, b0, b1 = affine

    def g(x):
        return c + b0 * x[:, 0] + b1 * x[:, 1]

    gv = g(mesh.vertices)
    prob = DiscreteProblem(mesh, density, f_h, space="cr",
                           dirichlet=g(mesh.side_midpoints))
    options = {"vertex_dirichlet": gv} if solver == "flow" else {}
    u, report = solve_problem(prob, solver=solver, max_iter=max_iter,
                              **options)
    u_cr = CrFunction(mesh, u)
    z = marini_reconstruct(report.stress, f_h)
    candidate = node_average(u_cr, dirichlet_values=gv)
    trace = candidate.values[mesh.sides].mean(axis=1)
    dual = dual_energy(z, density, f_h, boundary_values=trace)
    assert dual <= primal_energy(candidate, density, f_h)
    continuous = (np.max(np.abs(z.mismatch))
                  <= 1e-10 * np.max(np.abs(z.coeffs)))
    # with inhomogeneous data the start is flat inside, and a p-power
    # linearization weights its flat elements by kappa^(p-2): the continuity
    # is then lost to roundoff (see the xfail test below), and only the
    # feasibility test's verdict stands behind D <= I
    flat_start = (isinstance(density, PPowerDensity) and density.p != 2.0
                  and np.any(gv))
    if solver == "newton" and isinstance(density, OptimalDesignDensity):
        # the plateau Hessian is singular, so a Newton system may have no
        # solution and its flux no continuity; the feasibility test says so
        assert continuous or dual == -np.inf
    elif not flat_start:
        assert continuous


@pytest.mark.xfail(strict=True, reason="the weights kappa^(p-2) of a flat "
                   "start's elements lose the flux's continuity to roundoff")
@pytest.mark.parametrize("solver", ["flow", "newton"])
def test_one_step_from_a_flat_start_gives_a_feasible_flux(solver):
    # Dirichlet data g = y: the start is g on the boundary and zero inside,
    # and at p = 1.1 its flat elements weigh about 1e9 times the others
    mesh = make_lshape_mesh()
    f_h = PwConstant(mesh, np.ones(mesh.num_triangles))
    density = PPowerDensity(1.1)
    prob = DiscreteProblem(mesh, density, f_h, space="cr",
                           dirichlet=mesh.side_midpoints[:, 1])
    _, report = solve_problem(prob, solver=solver, max_iter=1)
    z = marini_reconstruct(report.stress, f_h)
    assert _feasible(z, f_h)
