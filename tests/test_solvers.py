"""Tests for the nonlinear solvers and discrete problem assembly."""

import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import pdgap.afem as afem
import pdgap.solvers as solvers
from pdgap.energy_models import OptimalDesignDensity, PPowerDensity
from pdgap.afem import conforming_candidate
from pdgap.estimators import (_feasible, dual_energy, eta_hat_sq,
                              primal_energy)
from pdgap.fespaces import PwConstant, node_average
from pdgap.mesh import Triangulation, make_lshape_mesh, refine, uniform_refine
from pdgap.quadrature import RULE_ORDER4, integrate
from pdgap.reconstruction import marini_reconstruct
from pdgap.solvers import (DiscreteProblem, gradient_flow_solve, newton_solve,
                           solve_problem)


def _lshape_problem(p=2.0, space="cr", level=0):
    mesh = uniform_refine(make_lshape_mesh(), level) if level \
        else make_lshape_mesh()
    f_h = PwConstant(mesh, np.ones(mesh.num_triangles))
    return DiscreteProblem(mesh, PPowerDensity(p), f_h, space=space)


# ---------------------------------------------------------------------------
# the SPD factor/solve object of both solvers
# ---------------------------------------------------------------------------

def _direct_solve(A, b):
    """``x`` of a fresh :class:`solvers._SpdSolver` for the CSC matrix ``A``."""
    return solvers._SpdSolver().solve(A, b)


def test_linear_solve_identity():
    b = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(_direct_solve(sp.eye(3, format="csc"), b), b)


def test_linear_solve_tridiagonal_matches_dense():
    n = 40
    A = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                 [-1, 0, 1], format="csc")
    rng = np.random.default_rng(0)
    b = rng.normal(size=n)
    x = _direct_solve(A, b)
    assert np.allclose(x, np.linalg.solve(A.toarray(), b), atol=1e-12)


def test_linear_solve_random_spd_residual():
    rng = np.random.default_rng(1)
    M = rng.normal(size=(50, 50))
    A = sp.csc_matrix(M.T @ M + np.eye(50))
    b = rng.normal(size=50)
    x = _direct_solve(A, b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_linear_solve_rejects_singular():
    A = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns before returning NaNs
        with pytest.raises(ArithmeticError):
            _direct_solve(A, np.array([1.0, 0.0]))


#: SciPy's ``splu``, kept before any test replaces it with a spy.
_splu = spla.splu


@pytest.fixture
def splu_calls(monkeypatch):
    """``(permc_spec, factor)`` of every SuperLU factorization the solvers
    make, in order."""
    calls = []

    def spy(A, **kwargs):
        calls.append((kwargs["permc_spec"], _splu(A, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(solvers.spla, "splu", spy)
    return calls


def test_spd_factor_has_less_fill_than_default_ordering(splu_calls):
    # CR Hessian at a random state, 9k free unknowns
    prob = _lshape_problem(p=1.2, level=3)
    rng = np.random.default_rng(3)
    H = prob.hessian(prob.impose_dirichlet(rng.normal(size=prob.num_dofs)))
    b = rng.normal(size=H.shape[0])
    x = solvers._SpdSolver().solve(H, b)
    [(_, lu)] = splu_calls
    default = _splu(H)
    fill = lu.L.nnz + lu.U.nnz
    assert fill <= 0.6 * (default.L.nnz + default.U.nnz)
    assert np.linalg.norm(H @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_superlu_options_keep_the_fill_and_the_solution():
    # dropping SciPy's relaxed supernodes and panels changes neither the
    # fill nor, beyond roundoff, the solution
    options = solvers._SUPERLU_OPTIONS
    assert options["relax"] == 1 and options["panel_size"] == 1
    defaults = {k: v for k, v in options.items()
                if k not in ("relax", "panel_size")}
    prob = _lshape_problem(p=1.2, level=3)
    rng = np.random.default_rng(3)
    H = prob.hessian(prob.impose_dirichlet(rng.normal(size=prob.num_dofs)))
    b = rng.normal(size=H.shape[0])
    lu = _splu(H, permc_spec="MMD_AT_PLUS_A", **options)
    reference = _splu(H, permc_spec="MMD_AT_PLUS_A", **defaults)
    assert lu.L.nnz + lu.U.nnz == reference.L.nnz + reference.U.nnz
    x = solvers._SpdSolver().solve(H, b)
    x_ref = reference.solve(b)
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def _spsolve_reference(A, b):
    """Direct solve through ``spsolve``'s default (COLAMD) ordering."""
    x = spla.spsolve(sp.csr_matrix(A), b)
    assert np.isfinite(x).all()
    return x


@pytest.mark.parametrize("factorization", ["symmetric", "spsolve"])
def test_newton_p12_converges_to_tight_tolerance(monkeypatch, factorization):
    # near the solution the energy decrease of a Newton step falls below
    # the energy's roundoff, where only the residual can still decide
    prob = _lshape_problem(p=1.2, level=1)
    u0, _ = newton_solve(_lshape_problem(p=2.0, level=1), tol_abs=1e-12)
    references = []
    if factorization == "spsolve":
        def reference(self, A, b):
            references.append(1)
            return _spsolve_reference(A, b)
        monkeypatch.setattr(solvers._SpdSolver, "solve", reference)
    u, rep = newton_solve(prob, u0=u0, tol_abs=1e-9, tol_rel=0.0)
    assert rep.converged
    assert np.linalg.norm(prob.gradient(u)[prob.free_mask]) <= 1e-9
    if factorization == "spsolve":  # every Newton system went through it
        assert len(references) == rep.iterations > 0


def _p12_hessians(level, count):
    """CR Hessians of one sparsity pattern at ``count`` random states."""
    prob = _lshape_problem(p=1.2, level=level)
    rng = np.random.default_rng(7)
    return [prob.hessian(prob.impose_dirichlet(rng.normal(size=prob.num_dofs)))
            for _ in range(count)], rng.normal(size=prob.free_mask.sum())


def test_reused_ordering_keeps_the_fill_and_the_backward_error(splu_calls):
    (H0, H1), b = _p12_hessians(level=3, count=2)
    solver = solvers._SpdSolver()
    solver.solve(H0, b)
    # SciPy's perm_c is a view whose base is the factor; the solver keeps
    # a copy, so that the first factor is freed before the next is made
    kept = solver._perm_c
    assert kept.base is None
    x = solver.solve(H1, b)
    x_fresh = solvers._SpdSolver().solve(H1, b)
    (_, _), (ordering, lu), (_, fresh) = splu_calls
    # P H1 P^T is factorized in its natural order on the kept ordering
    assert solver._perm_c is kept and ordering == "NATURAL"
    assert np.array_equal(lu.perm_c, np.arange(H1.shape[0]))
    assert lu.L.nnz + lu.U.nnz == fresh.L.nnz + fresh.U.nnz
    residual = np.linalg.norm(H1 @ x - b)
    scale = np.linalg.norm(b) + abs(H1).sum(axis=1).max() * np.linalg.norm(x)
    assert residual <= 1e-12 * (1.0 + scale)
    assert np.linalg.norm(x - x_fresh) <= 1e-12 * np.linalg.norm(x_fresh)


def test_ordering_is_renewed_for_a_new_pattern(splu_calls):
    # the p = 2 Hessian of the same mesh lacks the right-angle couplings
    (H, _), b = _p12_hessians(level=2, count=2)
    solver = solvers._SpdSolver()
    solver.solve(H, b)
    kept = solver._perm_c
    p2 = _lshape_problem(p=2.0, level=2)
    other = p2.hessian(p2.initial_state())
    assert other.shape == H.shape and other.nnz < H.nnz
    x = solver.solve(other, b)
    ordering, lu = splu_calls[-1]
    # a fresh minimum-degree ordering, kept as a copy
    assert ordering == "MMD_AT_PLUS_A"
    assert solver._perm_c is not kept and solver._perm_c.base is None
    assert np.array_equal(solver._perm_c, lu.perm_c)
    assert not np.array_equal(lu.perm_c, np.arange(other.shape[0]))
    assert np.linalg.norm(other @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_p2_hessian_stores_no_zeros_and_loses_fill(splu_calls):
    # at p = 2 every CR coupling across a right angle vanishes exactly
    prob = _lshape_problem(p=2.0, level=3)
    rng = np.random.default_rng(4)
    v = prob.impose_dirichlet(rng.normal(size=prob.num_dofs))
    H = prob.hessian(v)
    assert not np.any(H.data == 0.0)
    B = prob.basis_grads
    stored = _coo_reference(prob, prob.mesh.areas[:, None, None] * (
        B @ prob.density.d2phi(prob.broken_gradient(v)) @ B.transpose(0, 2, 1)))
    assert np.count_nonzero(stored.data == 0.0) > 0.2 * stored.nnz
    b = rng.normal(size=H.shape[0])
    x = solvers._SpdSolver().solve(H, b)
    x_stored = solvers._SpdSolver().solve(stored, b)
    (_, lu), (_, lu_stored) = splu_calls
    assert lu.L.nnz + lu.U.nnz <= 0.7 * (lu_stored.L.nnz + lu_stored.U.nnz)
    assert np.linalg.norm(x - x_stored) <= 1e-12 * np.linalg.norm(x_stored)


def test_newton_orders_once_per_solve(splu_calls):
    # from the p = 2 solution, as the adaptive loop warm-starts; a flat
    # start has an isotropic Hessian, whose right-angle couplings vanish
    prob = _lshape_problem(p=1.2, level=2)
    u0, _ = newton_solve(_lshape_problem(p=2.0, level=2), tol_abs=1e-12)
    splu_calls.clear()
    _, rep = newton_solve(prob, u0=u0, tol_abs=1e-8)
    assert rep.converged and rep.iterations > 2
    # the steps on a kept factor make none, so there are fewer than steps
    assert rep.factorizations < rep.iterations
    orderings = [ordering for ordering, _ in splu_calls]
    assert orderings == (["MMD_AT_PLUS_A"]
                         + ["NATURAL"] * (rep.factorizations - 1))


@pytest.mark.parametrize("space", ["cr", "p1"])
def test_flow_orders_again_when_the_pattern_changes(monkeypatch, splu_calls,
                                                    space):
    # an element on a quadratic branch has an isotropic floored Hessian, so
    # its couplings across right angles vanish and are not stored; as
    # elements cross t1 or t2 the pattern changes, and the solver makes a
    # fresh minimum-degree ordering exactly then
    patterns = []
    hessian = DiscreteProblem.hessian

    def spy(self, u, floor=0.0):
        H = hessian(self, u, floor)
        patterns.append((H.indptr.copy(), H.indices.copy()))
        return H

    monkeypatch.setattr(DiscreteProblem, "hessian", spy)
    monkeypatch.setattr(solvers, "GAMMA", 0.0)  # the CR gap stop never holds
    mesh = uniform_refine(make_lshape_mesh(), 1)
    f_h = PwConstant(mesh, np.ones(mesh.num_triangles))
    prob = DiscreteProblem(mesh, OptimalDesignDensity(), f_h, space=space)
    # an infinite dual value never stops the P1 solve; CR ignores it
    _, rep = gradient_flow_solve(prob, max_iter=12, dual=-np.inf)
    assert rep.iterations == 12 == len(patterns)
    fresh = [ordering == "MMD_AT_PLUS_A" for ordering, _ in splu_calls]
    changed = [True] + [not (np.array_equal(a[0], b[0])
                             and np.array_equal(a[1], b[1]))
                        for a, b in zip(patterns, patterns[1:])]
    assert fresh == changed
    assert any(changed[1:]) and not all(changed)  # both cases occur


# ---------------------------------------------------------------------------
# Newton steps on a kept factor
# ---------------------------------------------------------------------------

def _spy_kept_steps(monkeypatch):
    """``True`` for every step of the solves that follow that is taken on
    a kept factor: no Hessian is assembled since the step before."""
    kept, assembled = [], []
    hessian, search = DiscreteProblem.hessian, solvers._line_search

    def hessian_spy(self, u, floor=0.0):
        assembled.append(True)
        return hessian(self, u, floor)

    def search_spy(*args):
        kept.append(not assembled)
        assembled.clear()
        return search(*args)

    monkeypatch.setattr(DiscreteProblem, "hessian", hessian_spy)
    monkeypatch.setattr(solvers, "_line_search", search_spy)
    return kept


def _p12_newton(level=2):
    """A p = 1.2 CR problem and its start: the p = 2 solution, as the
    adaptive loop warm-starts."""
    prob = _lshape_problem(p=1.2, level=level)
    u0, _ = newton_solve(_lshape_problem(p=2.0, level=level), tol_abs=1e-12)
    return prob, u0


def test_kept_factor_step_hands_back_a_feasible_flux(monkeypatch):
    # the stress of a step on the kept factor of H(u_f) solves the linear
    # CR problem with the tensor d2phi(grad u_f), so Marini's identity
    # holds; the solve is cut right after its last kept-factor step
    prob, u0 = _p12_newton()
    kept = _spy_kept_steps(monkeypatch)
    newton_solve(prob, u0=u0, tol_abs=1e-9, tol_rel=0.0)
    last = np.flatnonzero(kept)[-1]
    kept.clear()
    u, rep = newton_solve(prob, u0=u0, tol_abs=1e-9, tol_rel=0.0,
                          max_iter=last + 1)
    assert rep.iterations == len(kept) == last + 1 and kept[-1]
    u_cr = prob.function(u)
    z = marini_reconstruct(u_cr, prob.density, prob.load, stress=rep.stress)
    assert np.max(np.abs(z.mismatch)) <= 1e-10 * np.max(np.abs(z.coeffs))
    assert _feasible(z, prob.load)
    dual = dual_energy(z, prob.density, prob.load, boundary_values=u,
                       quadrature="mean")
    assert np.isfinite(dual) and dual <= rep.energy


@pytest.mark.parametrize("level", [1, 2])
def test_kept_factor_steps_follow_a_contracting_step(monkeypatch, level):
    # the refresh rule: a step may reuse the factor only if the one before
    # cut the free-residual norm to at most REFRESH of its value
    prob, u0 = _p12_newton(level)
    kept = _spy_kept_steps(monkeypatch)
    _, rep = newton_solve(prob, u0=u0, tol_abs=1e-9, tol_rel=0.0)
    norms = rep.residual_norms
    assert rep.converged and len(kept) == rep.iterations
    assert not kept[0] and any(kept)
    for i in np.flatnonzero(kept):
        assert norms[i] <= solvers.REFRESH * norms[i - 1]
    assert rep.factorizations == kept.count(False)


def test_p2_newton_makes_one_factorization(splu_calls):
    _, rep = newton_solve(_lshape_problem(p=2.0, level=2))
    assert rep.converged and rep.iterations == 1
    assert rep.factorizations == len(splu_calls) == 1


@pytest.mark.parametrize("space", ["cr", "p1"])
def test_flow_factorizes_once_per_step(splu_calls, space):
    mesh = uniform_refine(make_lshape_mesh(), 1)
    f_h = PwConstant(mesh, np.ones(mesh.num_triangles))
    prob = DiscreteProblem(mesh, OptimalDesignDensity(), f_h, space=space)
    _, rep = gradient_flow_solve(prob, max_iter=8, dual=-np.inf)
    assert rep.iterations > 1
    assert rep.factorizations == rep.iterations == len(splu_calls)


class _Factor:
    """A SuperLU factor that can be weakly referenced."""

    def __init__(self, lu):
        self._lu = lu

    def __getattr__(self, name):
        return getattr(self._lu, name)


def test_at_most_one_factor_is_alive(monkeypatch):
    # each factor is freed before the next matrix is assembled
    factors = []

    def all_freed():
        return all(factor() is None for factor in factors)

    def spy(A, **kwargs):
        assert all_freed()
        lu = _Factor(_splu(A, **kwargs))
        factors.append(weakref.ref(lu))
        return lu

    hessian = DiscreteProblem.hessian

    def assemble(self, u, floor=0.0):
        assert all_freed()
        return hessian(self, u, floor)

    prob, u0 = _p12_newton()
    monkeypatch.setattr(solvers.spla, "splu", spy)
    monkeypatch.setattr(DiscreteProblem, "hessian", assemble)
    kept = _spy_kept_steps(monkeypatch)
    _, rep = newton_solve(prob, u0=u0, tol_abs=1e-9, tol_rel=0.0)
    assert any(kept) and len(factors) == rep.factorizations > 1
    mesh = uniform_refine(make_lshape_mesh(), 1)
    design = DiscreteProblem(mesh, OptimalDesignDensity(),
                             PwConstant(mesh, np.ones(mesh.num_triangles)))
    _, rep = gradient_flow_solve(design, max_iter=5)
    assert rep.factorizations > 1 and all_freed()


# ---------------------------------------------------------------------------
# assembly: energies, gradients, Hessians
# ---------------------------------------------------------------------------

def _corner_refined_lshape():
    mesh = make_lshape_mesh()
    for r in range(4):
        centroids = mesh.triangle_coords.mean(axis=1)
        near = np.hypot(centroids[:, 0], centroids[:, 1]) < 0.5 ** r
        mesh = refine(mesh, np.flatnonzero(near))
    return mesh


def _coo_reference(prob, local):
    """Free-dof matrix by COO -> CSR conversion and slicing, in CSC form.

    SciPy sums duplicate triplets in the order its index sort leaves them,
    which is not stable within long rows; sorting the triplets stably by
    (row, column) first makes the summation follow the element order.  The
    conversion to CSC moves entries without summing them.
    """
    rows = np.repeat(prob.dof_map, 3, axis=1).ravel()
    cols = np.tile(prob.dof_map, (1, 3)).ravel()
    order = np.lexsort((cols, rows))
    A = sp.coo_matrix((local.ravel()[order], (rows[order], cols[order])),
                      shape=(prob.num_dofs, prob.num_dofs)).tocsr()
    free = np.flatnonzero(prob.free_mask)
    return A[free][:, free].tocsc()


@pytest.mark.parametrize("space", ["cr", "p1"])
def test_assemble_free_bit_identical_to_coo_reference(space):
    mesh = _corner_refined_lshape()
    rng = np.random.default_rng(17)
    num_dofs = mesh.num_sides if space == "cr" else mesh.num_vertices
    prob = DiscreteProblem(mesh, PPowerDensity(1.4),
                           PwConstant(mesh, np.ones(mesh.num_triangles)),
                           space=space, dirichlet=rng.normal(size=num_dofs))
    v = prob.impose_dirichlet(rng.normal(size=num_dofs))
    grads = prob.broken_gradient(v)
    B = prob.basis_grads
    hessian_local = mesh.areas[:, None, None] * (
        B @ prob.density.d2phi(grads) @ B.transpose(0, 2, 1))
    for local in (hessian_local, rng.normal(size=(mesh.num_triangles, 3, 3))):
        got = prob._assemble_free(local)
        ref = _coo_reference(prob, local)
        assert got.format == "csc"
        assert got.shape == ref.shape == (prob.free_mask.sum(),) * 2
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)
    H = prob.hessian(v)
    assert np.array_equal(H.data, _coo_reference(prob, hessian_local).data)


@pytest.mark.parametrize("space", ["cr", "p1"])
def test_weighted_stiffness_is_csc_without_stored_zeros(space):
    # the weighted stiffness is assembled as the Hessian is
    mesh = _corner_refined_lshape()
    rng = np.random.default_rng(23)
    prob = DiscreteProblem(mesh, OptimalDesignDensity(),
                           PwConstant(mesh, np.ones(mesh.num_triangles)),
                           space=space)
    weights = rng.uniform(0.5, 2.0, size=mesh.num_triangles)
    A = prob.weighted_stiffness(weights)
    assert A.format == "csc" and not np.any(A.data == 0.0)
    local = (mesh.areas * weights)[:, None, None] * np.einsum(
        "tid,tjd->tij", prob.basis_grads, prob.basis_grads)
    ref = _coo_reference(prob, local)
    assert np.any(ref.data == 0.0)  # couplings across right angles
    ref.eliminate_zeros()
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    assert np.array_equal(A.data, ref.data)


def test_floored_hessian_lifts_only_the_plateau_curvature():
    design = OptimalDesignDensity()
    rng = np.random.default_rng(37)

    def gradients(radii):
        angles = rng.uniform(0.0, 2.0 * np.pi, size=radii.size)
        return radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], 1)

    t1, t2 = design.t1, design.t2
    off = gradients(np.concatenate([[0.0, t1, 2.0 * t2], rng.uniform(
        0.0, t1, 20), rng.uniform(t2 * (1 + 1e-12), 3.0 * t2, 20)]))
    on = gradients(np.concatenate([[t2], rng.uniform(t1 * (1 + 1e-12), t2,
                                                     40)]))
    anywhere = np.concatenate([off, on])
    # the density's own Hessian, bit for bit: at floor 0, off the plateau
    # and at p = 2, where the Hessian is the secant slope times I
    for density in (design, PPowerDensity(1.4), PPowerDensity(2.0)):
        assert np.array_equal(density.d2phi(anywhere, 0.0),
                              density.d2phi(anywhere))
    assert np.array_equal(design.d2phi(off, solvers.FLOOR),
                          design.d2phi(off))
    p2 = PPowerDensity(2.0)
    assert np.array_equal(p2.d2phi(anywhere, solvers.FLOOR),
                          p2.d2phi(anywhere))
    # on the plateau psi'(t)/t = mu2 t1 / t: the radial curvature 0 becomes
    # FLOOR times it, the tangential one stays
    tensor = design.d2phi(on, solvers.FLOOR)
    t = np.hypot(on[:, 0], on[:, 1])
    secant = design.mu2 * t1 / t
    radial = on / t[:, None]
    tangential = np.stack([-radial[:, 1], radial[:, 0]], axis=1)

    def form(x, y):
        return np.einsum("td,tde,te->t", x, tensor, y)

    assert np.allclose(form(radial, radial), solvers.FLOOR * secant,
                       rtol=1e-12, atol=0.0)
    assert np.allclose(form(tangential, tangential), secant,
                       rtol=1e-12, atol=0.0)
    assert np.all(np.abs(form(radial, tangential)) <= 1e-12 * secant)


@pytest.mark.parametrize("space", ["cr", "p1"])
def test_flow_step_is_the_floored_hessian_solve(monkeypatch, space):
    # one flow step from a random start moves along the direct solve of
    # H delta = -DI(u0), H the free-dof matrix of D + FLOOR (psi'/t I - D),
    # with the Dirichlet values kept
    mesh = _corner_refined_lshape()
    rng = np.random.default_rng(29)
    num_dofs = mesh.num_sides if space == "cr" else mesh.num_vertices
    f_h = PwConstant(mesh, rng.uniform(0.5, 2.0, size=mesh.num_triangles))
    density = OptimalDesignDensity()
    prob = DiscreteProblem(mesh, density, f_h, space=space,
                           dirichlet=rng.normal(size=num_dofs))
    u0 = prob.impose_dirichlet(0.1 * rng.normal(size=num_dofs))
    never_stop = {} if space == "cr" else {"dual": -np.inf}
    calls = _spy_line_search(monkeypatch)
    u, rep = gradient_flow_solve(prob, u0=u0, max_iter=1, **never_stop)
    [(t, *_)] = calls
    assert rep.iterations == 1
    grads = np.einsum("tj,tjd->td", u0[prob.dof_map], prob.basis_grads)
    norms = np.sqrt(np.sum(grads ** 2, axis=-1))
    plateau = (norms > density.t1) & (norms <= density.t2)
    assert 0 < plateau.sum() < mesh.num_triangles  # both kinds of element
    hess = density.d2phi(grads)
    tensor = hess + solvers.FLOOR * (
        density.slope_ratio(norms)[:, None, None] * np.eye(2) - hess)
    B = prob.basis_grads
    H = _coo_reference(prob, mesh.areas[:, None, None]
                       * np.einsum("tid,tde,tje->tij", B, tensor, B))
    free, fixed = prob.free_mask, prob.fixed_mask
    delta = spla.spsolve(H, -prob.gradient(u0)[free])
    assert np.array_equal(u[fixed], prob.dirichlet_values[fixed])
    assert np.linalg.norm(u[free] - u0[free] - t * delta) \
        <= 1e-12 * np.linalg.norm(t * delta)


def test_energy_of_linear_interpolant():
    # |grad v|^2/2 with v = x on a unit-area mesh and f=0 gives 1/2
    mesh = Triangulation(
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        np.array([[0, 1, 2], [0, 2, 3]]))
    f_h = PwConstant(mesh, np.zeros(2))
    prob = DiscreteProblem(mesh, PPowerDensity(2.0), f_h, space="p1")
    v = mesh.vertices[:, 0]
    assert prob.energy(v) == pytest.approx(0.5, abs=1e-14)


def test_energy_matches_quadrature_oracle():
    rng = np.random.default_rng(5)
    prob = _lshape_problem(p=1.6)
    v = rng.normal(size=prob.num_dofs)
    density = prob.density
    grads = prob.broken_gradient(v)
    pts = RULE_ORDER4.points(prob.mesh.triangle_coords)
    vals = density.phi(np.broadcast_to(grads[:, None, :], pts.shape))
    expected = integrate(RULE_ORDER4, prob.mesh.areas, vals).sum() \
        - float(prob.mesh.areas @ (prob.load.values
                                   * v[prob.dof_map].mean(axis=1)))
    assert prob.energy(v) == pytest.approx(expected, rel=1e-12)


def test_p2_hessian_is_stiffness_and_gradient_affine():
    prob = _lshape_problem(p=2.0)
    rng = np.random.default_rng(2)
    K = prob.hessian(np.zeros(prob.num_dofs))
    free = prob.free_mask
    v = rng.normal(size=prob.num_dofs)
    v[~free] = 0.0
    g0 = prob.gradient(np.zeros(prob.num_dofs))[free]
    gv = prob.gradient(v)[free]
    assert np.allclose(gv, K @ v[free] + g0, atol=1e-12)
    K2 = prob.hessian(v)
    assert abs(K2 - K).max() <= 1e-12


def test_gradient_finite_difference():
    rng = np.random.default_rng(11)
    for density in (PPowerDensity(1.6), OptimalDesignDensity()):
        mesh = make_lshape_mesh()
        f_h = PwConstant(mesh, np.ones(mesh.num_triangles))
        prob = DiscreteProblem(mesh, density, f_h, space="cr")
        v = prob.impose_dirichlet(rng.normal(size=prob.num_dofs))
        w = rng.normal(size=prob.num_dofs)
        w[prob.fixed_mask] = 0.0
        eps = 1e-6
        fd = (prob.energy(v + eps * w) - prob.energy(v - eps * w)) / (2 * eps)
        exact = float(prob.gradient(v) @ w)
        assert abs(fd - exact) <= 1e-5 * max(1.0, abs(exact))


def test_hessian_vector_finite_difference():
    rng = np.random.default_rng(12)
    prob = _lshape_problem(p=1.6)
    free = np.flatnonzero(prob.free_mask)
    v = prob.impose_dirichlet(rng.normal(size=prob.num_dofs))
    w = np.zeros(prob.num_dofs)
    w[free] = rng.normal(size=free.size)
    eps = 1e-6
    fd = (prob.gradient(v + eps * w) - prob.gradient(v - eps * w))[free] \
        / (2 * eps)
    exact = prob.hessian(v) @ w[free]
    assert np.linalg.norm(fd - exact) <= 1e-5 * max(1.0, np.linalg.norm(exact))


def test_hessian_matches_three_operand_einsum():
    # the batched B D B^T kernel against the einsum form it replaced, entry
    # by entry relative to the sum of the absolute local contributions
    prob = _lshape_problem(p=1.2, level=2)
    rng = np.random.default_rng(11)
    v = prob.impose_dirichlet(rng.normal(size=prob.num_dofs))
    B = prob.basis_grads
    local = prob.mesh.areas[:, None, None] * np.einsum(
        "tid,tde,tje->tij", B, prob.density.d2phi(prob.broken_gradient(v)), B)
    ref = prob._assemble_free(local)
    scale = prob._assemble_free(np.abs(local))
    H = prob.hessian(v)
    assert np.array_equal(H.indices, ref.indices)
    assert np.all(np.abs(H.data - ref.data) <= 1e-14 * scale.data)


def test_hessian_symmetric_positive_definite():
    prob = _lshape_problem(p=1.6)
    rng = np.random.default_rng(13)
    v = prob.impose_dirichlet(rng.normal(size=prob.num_dofs))
    H = prob.hessian(v)
    assert abs(H - H.T).max() <= 1e-14
    eigs = np.linalg.eigvalsh(H.toarray())
    assert eigs.min() > 0


# ---------------------------------------------------------------------------
# Newton iteration
# ---------------------------------------------------------------------------

def test_newton_one_step_for_quadratic_energy():
    prob = _lshape_problem(p=2.0)
    u, rep = newton_solve(prob)
    assert rep.converged and rep.iterations == 1
    assert np.linalg.norm(prob.gradient(u)[prob.free_mask]) <= 1e-12
    # the one step is the full Newton step, t = 1
    start, free = prob.initial_state(), prob.free_mask
    step = _direct_solve(prob.hessian(start), -prob.gradient(start)[free])
    assert np.array_equal(u[free], start[free] + step)


def _spy_line_search(monkeypatch):
    """Record ``(t, g(0), I(u), I(u + t delta), g(t), |r(u)|, |r(u + t
    delta)|)`` of every accepted step, with ``g`` the energy's derivative
    along the direction and ``r`` the free residual."""
    calls = []
    search = solvers._line_search

    def spy(problem, u, step, slope, energy0, norm0):
        t, x, grad, energy = search(problem, u, step, slope, energy0, norm0)
        residual = grad[problem.free_mask]
        calls.append((t, slope, energy0, energy, float(residual @ step),
                      norm0, float(np.linalg.norm(residual))))
        return t, x, grad, energy

    monkeypatch.setattr(solvers, "_line_search", spy)
    return calls


def test_newton_line_search_meets_armijo_and_curvature(monkeypatch):
    # Newton at p = 1.2, and the floored Newton step of the design flow
    u0, _ = newton_solve(_lshape_problem(p=2.0, level=1), tol_abs=1e-12)
    mesh = uniform_refine(make_lshape_mesh(), 1)
    design = DiscreteProblem(mesh, OptimalDesignDensity(),
                             PwConstant(mesh, np.ones(mesh.num_triangles)))
    calls = _spy_line_search(monkeypatch)
    for solve, prob, options in (
            (newton_solve, _lshape_problem(p=1.2, level=1),
             dict(u0=u0, tol_abs=1e-6, tol_rel=0.0)),
            (gradient_flow_solve, design, {})):
        calls.clear()
        u, rep = solve(prob, **options)
        assert rep.converged and len(calls) == rep.iterations
        assert any(t < 1 for t, *_ in calls)  # the search itself is exercised
        decided = []  # whether Armijo can decide the step in floating point
        for t, slope, energy0, energy, g, norm0, norm in calls:
            assert slope < 0 and 0 < t <= 1
            target = energy0 + 1e-4 * t * slope
            decided.append(target < energy0)
            if decided[-1]:
                assert energy <= target  # Armijo
            else:  # the documented roundoff branch: the residual must fall
                assert norm < norm0
            if t < 1:
                assert abs(g) <= solvers.C2 * abs(slope)  # strong Wolfe
        assert any(decided)
        assert np.all(np.diff(rep.energies)[decided] <= 0)


def test_undecided_armijo_steps_lower_the_residual(monkeypatch):
    # on the finest levels the Armijo target of a Newton step rounds to the
    # energy itself; such a step is accepted only if it lowers the residual,
    # even when its energy did not rise
    u0, _ = newton_solve(_lshape_problem(p=2.0, level=3), tol_abs=1e-12)
    calls = _spy_line_search(monkeypatch)
    newton_solve(_lshape_problem(p=1.2, level=3), u0=u0, tol_abs=1e-8,
                 tol_rel=0.0)
    undecided = [(norm0, norm) for t, slope, energy0, _, _, norm0, norm
                 in calls if not energy0 + 1e-4 * t * slope < energy0]
    assert undecided  # the roundoff regime is reached
    assert all(norm < norm0 for norm0, norm in undecided)


#: Newton iterations of the test below when each step halved ``t`` until
#: Armijo passed, instead of searching for the minimum along the direction.
_HALVING_ITERATIONS = 47


def test_newton_line_search_saves_iterations():
    mesh = _corner_refined_lshape()
    f_h = PwConstant(mesh, np.ones(mesh.num_triangles))
    u0, _ = newton_solve(DiscreteProblem(mesh, PPowerDensity(2.0), f_h),
                         tol_abs=1e-12)
    prob = DiscreteProblem(mesh, PPowerDensity(1.2), f_h)
    u, rep = newton_solve(prob, u0=u0, tol_abs=1e-8, tol_rel=0.0)
    assert rep.converged
    assert np.linalg.norm(prob.gradient(u)[prob.free_mask]) <= 1e-8
    assert rep.iterations < _HALVING_ITERATIONS


def test_newton_p16_converges_with_energy_descent():
    prob = _lshape_problem(p=1.6)
    u, rep = newton_solve(prob, tol_abs=1e-10)
    assert rep.converged
    diffs = np.diff(rep.energies)
    assert np.all(diffs <= 1e-14 * np.abs(rep.energies[:-1]))
    assert rep.residual_norms[-1] <= 1e-10


@pytest.mark.parametrize("solver", ["newton", "flow"])
def test_limit_returns_last_iterate(monkeypatch, solver):
    # a deliberately tiny iteration budget, with stop rules that cannot
    # pass: the returned state is the last iterate
    monkeypatch.setattr(solvers, "GAMMA", 0.0)
    prob = _lshape_problem(p=1.2)
    options = {"tol_abs": 1e-14} if solver == "newton" else {}
    u, rep = solve_problem(prob, solver=solver, max_iter=3, **options)
    assert rep.method == solver
    assert not rep.converged and rep.iterations == 3
    assert rep.stop_reason == "iteration limit reached"
    assert len(rep.energies) == len(rep.residual_norms) == 4
    residual = np.linalg.norm(prob.gradient(u)[prob.free_mask])
    assert residual == rep.residual_norms[-1]
    assert prob.energy(u) == rep.energy == rep.energies[-1]
    assert rep.stress.shape == (prob.mesh.num_triangles, 2)


@pytest.mark.parametrize("solver, steps", [("newton", 0), ("flow", 1)])
def test_restart_at_the_solution(solver, steps):
    # Newton's residual test passes at the start; the flow's stop rules
    # judge a step, so it takes one, against the gradient of a minimizer
    prob = _lshape_problem(p=2.0)
    u, _ = solve_problem(prob, solver=solver)
    u2, rep = solve_problem(prob, solver=solver, u0=u)
    assert rep.converged and rep.iterations == steps
    assert np.max(np.abs(u2 - u)) <= 1e-12 * np.max(np.abs(u))
    if solver == "newton":
        assert np.array_equal(u2, u)
    assert rep.energy == prob.energy(u2) == rep.energies[-1]


def test_newton_deterministic():
    prob = _lshape_problem(p=1.6)
    u1, _ = newton_solve(prob, tol_abs=1e-10)
    u2, _ = newton_solve(prob, tol_abs=1e-10)
    assert np.array_equal(u1, u2)


def test_cr_minimum_below_p1_minimum():
    # the nonconforming space contains the conforming one, so its minimum
    # cannot be larger (same elementwise-mean load pairing)
    for p in (2.0, 1.6):
        cr = _lshape_problem(p=p, space="cr")
        p1 = _lshape_problem(p=p, space="p1")
        u_cr, rep_cr = newton_solve(cr, tol_abs=1e-12)
        u_p1, rep_p1 = newton_solve(p1, tol_abs=1e-12)
        assert rep_cr.converged and rep_p1.converged
        assert cr.energy(u_cr) <= p1.energy(u_p1) + 1e-14


def test_inhomogeneous_dirichlet_affine_reproduction(monkeypatch):
    # boundary data from an affine function, zero load: the affine function
    # itself is the minimizer in both spaces, for any density, and the fixed
    # point of the flow step (run here for a fixed number of steps)
    monkeypatch.setattr(solvers, "_gap_below_tolerance", lambda *a: False)
    mesh = make_lshape_mesh()
    f_h = PwConstant(mesh, np.zeros(mesh.num_triangles))

    def affine(x):
        return 0.3 * x[..., 0] - 0.7 * x[..., 1] + 0.2

    for space, nodes in (("cr", mesh.side_midpoints), ("p1", mesh.vertices)):
        data = affine(nodes)
        prob = DiscreteProblem(mesh, PPowerDensity(1.6), f_h, space=space,
                               dirichlet=data)
        u, rep = newton_solve(prob, tol_abs=1e-12)
        assert rep.converged
        assert np.max(np.abs(u - data)) <= 1e-10
        u, rep = gradient_flow_solve(prob, max_iter=40, dual=-np.inf)
        assert rep.iterations == 40
        assert np.max(np.abs(u - data)) <= 1e-10


# ---------------------------------------------------------------------------
# gradient flow
# ---------------------------------------------------------------------------

def test_flow_matches_direct_solve_for_quadratic():
    prob = _lshape_problem(p=2.0)
    u_direct, _ = newton_solve(prob)
    # at p = 2 the floored Hessian is the Hessian: one step is the solve
    u_flow, rep = gradient_flow_solve(prob)
    assert rep.converged and rep.iterations == 1
    assert rep.stop_reason == "discrete gap below tolerance"
    assert np.max(np.abs(u_flow - u_direct)) <= 1e-8


def test_flow_energy_monotone_and_stops():
    mesh = make_lshape_mesh()
    f_h = PwConstant(mesh, np.ones(mesh.num_triangles))
    prob = DiscreteProblem(mesh, OptimalDesignDensity(), f_h, space="cr")
    u, rep = gradient_flow_solve(prob)
    assert rep.converged
    diffs = np.diff(rep.energies)
    assert np.all(diffs <= 1e-14 * np.maximum(1.0, np.abs(rep.energies[:-1])))


def test_p1_kacanov_stops_when_a_step_barely_lowers_the_gap(monkeypatch):
    # a once-refined design level with homogeneous data: the CR flow's
    # flux and its discrete dual value (no boundary pairing)
    mesh = uniform_refine(make_lshape_mesh(), 1)
    f_h = PwConstant(mesh, np.ones(mesh.num_triangles))
    density = OptimalDesignDensity()
    cr = DiscreteProblem(mesh, density, f_h, space="cr")
    u, cr_rep = gradient_flow_solve(cr)
    u_cr = cr.function(u)
    z = marini_reconstruct(u_cr, density, f_h, stress=cr_rep.stress)
    dual = dual_energy(z, density, f_h, quadrature="mean")
    assert np.isfinite(dual)
    passed = {}
    solve = afem.solve_problem

    def spy(problem, **kwargs):
        passed.update(kwargs)
        return solve(problem, **kwargs)

    monkeypatch.setattr(afem, "solve_problem", spy)
    candidate, rep = conforming_candidate(u_cr, density, f_h, solver="flow",
                                          flux=z)
    assert passed["dual"] == dual  # the flux's mean-rule dual value
    assert rep.converged and rep.iterations >= 2
    assert rep.stop_reason == "energy decrease below tolerance"
    assert rep.stress is None
    energy = primal_energy(candidate, density, f_h)
    assert energy == rep.energy
    assert energy - dual >= 0.0  # discrete weak duality
    drop = rep.energies[-2] - rep.energies[-1]
    assert 0.0 <= drop <= solvers.GAMMA * (energy - dual)
    # the solve stops at the first step that meets the rule
    _, rep_short = conforming_candidate(
        u_cr, density, f_h, solver="flow", flux=z,
        solver_options={"max_iter": rep.iterations - 1})
    assert not rep_short.converged
    assert rep_short.stop_reason == "iteration limit reached"


def test_p1_flow_needs_a_stop_rule():
    mesh = make_lshape_mesh()
    f_h = PwConstant(mesh, np.ones(mesh.num_triangles))
    prob = DiscreteProblem(mesh, OptimalDesignDensity(), f_h, space="p1")
    with pytest.raises(ValueError, match="dual"):
        gradient_flow_solve(prob)


def test_infinite_dual_never_stops_the_p1_kacanov_solve():
    mesh = make_lshape_mesh()
    f_h = PwConstant(mesh, np.ones(mesh.num_triangles))
    prob = DiscreteProblem(mesh, OptimalDesignDensity(), f_h, space="p1")
    _, rep = gradient_flow_solve(prob, dual=-np.inf, max_iter=5)
    assert not rep.converged and rep.iterations == 5
    assert rep.stop_reason == "iteration limit reached"


def test_flow_ignores_tau():
    mesh = make_lshape_mesh()
    f_h = PwConstant(mesh, np.ones(mesh.num_triangles))
    prob = DiscreteProblem(mesh, OptimalDesignDensity(), f_h, space="cr")
    u, rep = gradient_flow_solve(prob)
    u_tau, rep_tau = gradient_flow_solve(prob, tau=1e-3)
    assert np.array_equal(u, u_tau)
    assert rep.iterations == rep_tau.iterations


def test_kacanov_stops_on_guaranteed_discrete_gap(monkeypatch):
    mesh = uniform_refine(make_lshape_mesh(), 1)
    f_h = PwConstant(mesh, np.ones(mesh.num_triangles))
    density = OptimalDesignDensity()
    prob = DiscreteProblem(mesh, density, f_h, space="cr")
    u, rep = gradient_flow_solve(prob)
    assert rep.converged
    assert rep.stop_reason == "discrete gap below tolerance"
    u_cr = prob.function(u)
    z = marini_reconstruct(u_cr, density, f_h, stress=rep.stress)
    eta_lin = rep.energy - dual_energy(z, density, f_h, boundary_values=u,
                                       quadrature="mean")
    candidate = node_average(u_cr, dirichlet_values=np.zeros(
        mesh.num_vertices))
    eta_bar = eta_hat_sq(candidate, z, density, f_h).eta_hat_sq_total
    assert 0.0 <= eta_lin <= solvers.GAMMA * eta_bar
    # eta_lin bounds the energy error of the iterate; a tighter stop goes
    # on along the same path, to an energy at or above the minimum
    monkeypatch.setattr(solvers, "GAMMA", 1e-6)
    _, rep_min = gradient_flow_solve(prob, max_iter=5000)
    monkeypatch.undo()
    assert rep_min.converged
    assert 0.0 <= rep.energy - rep_min.energy <= eta_lin
    # the solve stops at the first step that meets the rule
    _, rep_short = gradient_flow_solve(prob, max_iter=rep.iterations - 1)
    assert not rep_short.converged
    assert rep_short.stop_reason == "iteration limit reached"


def test_infeasible_flux_never_stops_the_kacanov_solve(monkeypatch):
    # the flux of a stress that solves no linear CR problem fails the
    # feasibility test, so its dual value is -inf; the solve must not read
    # that as converged
    mesh = make_lshape_mesh()
    f_h = PwConstant(mesh, np.ones(mesh.num_triangles))
    prob = DiscreteProblem(mesh, OptimalDesignDensity(), f_h, space="cr")
    reconstruct, dual_value, duals = solvers.marini_reconstruct, \
        solvers.dual_energy, []

    def scaled_stress(u, density, load, stress):
        return reconstruct(u, density, load, stress=1.5 * stress)

    def record(*args, **kwargs):
        duals.append(dual_value(*args, **kwargs))
        return duals[-1]

    monkeypatch.setattr(solvers, "marini_reconstruct", scaled_stress)
    monkeypatch.setattr(solvers, "dual_energy", record)
    _, rep = gradient_flow_solve(prob, max_iter=5)
    assert not rep.converged and rep.iterations == 5
    assert duals == [-np.inf] * 5  # one stop test after every step


@pytest.mark.parametrize("solver", ["newton", "flow"])
@pytest.mark.parametrize("density", [PPowerDensity(1.6),
                                     OptimalDesignDensity()],
                         ids=["p1.6", "design"])
def test_single_step_flux_is_normal_continuous(solver, density):
    # Marini's identity for the last linear solve: one step from a random
    # start, far from the minimizer, gives a normal-continuous flux
    mesh = _corner_refined_lshape()
    rng = np.random.default_rng(31)
    f_h = PwConstant(mesh, rng.uniform(0.5, 2.0, size=mesh.num_triangles))
    prob = DiscreteProblem(mesh, density, f_h, space="cr",
                           dirichlet=0.05 * rng.normal(size=mesh.num_sides))
    u, rep = solve_problem(prob, solver=solver,
                           u0=rng.normal(size=mesh.num_sides), max_iter=1)
    assert rep.iterations == 1 and not rep.converged
    u_cr = prob.function(u)
    z = marini_reconstruct(u_cr, density, f_h, stress=rep.stress)
    assert np.max(np.abs(z.mismatch)) <= 1e-10 * np.max(np.abs(z.coeffs))
    assert _feasible(z, f_h)
    # the gradient stress of the same iterate is far from continuous
    assert not _feasible(marini_reconstruct(u_cr, density, f_h), f_h)


def test_newton_start_at_solution_still_hands_back_a_flux():
    mesh = make_lshape_mesh()
    f_h = PwConstant(mesh, np.ones(mesh.num_triangles))
    density = PPowerDensity(1.6)
    prob = DiscreteProblem(mesh, density, f_h, space="cr")
    u, _ = newton_solve(prob, tol_abs=1e-9)
    u_again, rep = newton_solve(prob, u0=u, tol_abs=1e-6)
    assert rep.converged and rep.iterations == 0
    assert np.array_equal(u_again, u)
    z = marini_reconstruct(prob.function(u), density, f_h, stress=rep.stress)
    assert _feasible(z, f_h)


def test_solve_problem_dispatch():
    prob = _lshape_problem(p=2.0)
    u_n, rep_n = solve_problem(prob, solver="newton")
    u_f, rep_f = solve_problem(prob, solver="flow")
    assert rep_n.method == "newton" and rep_f.method == "flow"
    with pytest.raises(ValueError):
        solve_problem(prob, solver="cg")
