"""Discrete convex minimization problems and their solvers.

:class:`DiscreteProblem` assembles the energy

    I(v) = sum_T |T| [ phi(grad v|_T) - f_T * v(x_T) ]

over the Crouzeix-Raviart space (``space="cr"``, one unknown per side
midpoint) or the conforming P1 space (``space="p1"``, one unknown per
vertex), with Dirichlet values eliminated.  Two solvers are provided:

* :func:`newton_solve` -- Newton with the density's (possibly regularized)
  Hessian, each step going to the energy's minimum along its direction: a
  regula falsi on the directional derivative until the strong Wolfe
  curvature condition holds, accepted under the Armijo condition;
* :func:`gradient_flow_solve` -- the Kacanov iteration, the tau -> infinity
  limit of the semi-implicit gradient flow: each step solves a
  weighted-Laplacian (secant slope) system.

On the CR space both report the elementwise stress of their last linear
solve (:attr:`SolverReport.stress`).  It solves a *linear* CR problem, so by
Marini's identity :func:`~pdgap.reconstruction.marini_reconstruct` turns it
into a flux in H(div) with ``div z = -f_h``, up to the linear solve's
backward error, however far the iterate is from the discrete minimizer.
The CR Kacanov solve stops on the guaranteed discrete gap of that flux,
and the P1 Kacanov solve once a step gains little against a given discrete
dual value; Newton keeps its residual test.

Every linear system either solver meets is symmetric positive definite.
All of them are factorized the same way: SuperLU in symmetric mode, with a
minimum-degree ordering of ``A + A^T`` and diagonal pivots, which gives
far less fill than the default column ordering.  It builds no relaxed
supernodes and no panels (``relax=1, panel_size=1``): the supernodes of
these 2-D finite-element matrices are tiny, so SciPy's defaults mostly add
BLAS call overhead, and at the same fill a factorization takes about a
third less time.  Every solve, direct or preconditioned CG, is then checked
against a 1e-12 backward-error bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .estimators import _guaranteed_parts, dual_energy, primal_energy
from .fespaces import CrFunction, P1Function, PwConstant, node_average
from .mesh import Triangulation
from .reconstruction import marini_reconstruct

__all__ = ["DiscreteProblem", "SolverReport", "newton_solve",
           "gradient_flow_solve", "solve_problem", "linear_solve"]


def _check_backward_error(A: sp.spmatrix, x: np.ndarray,
                          b: np.ndarray) -> None:
    """Raise :class:`ArithmeticError` unless ``x`` is finite and meets
    ``|A x - b| <= 1e-12 (1 + |b| + |A| |x|)``, with ``|A|`` the largest
    absolute row sum.

    The row sums are taken in ``A``'s own format: ``spla.norm`` would first
    convert a CSC matrix to CSR.
    """
    residual = np.linalg.norm(A @ x - b)
    scale = np.linalg.norm(b) + abs(A).sum(axis=1).max() * np.linalg.norm(x)
    if not np.isfinite(x).all() or residual > 1e-12 * (1.0 + scale):
        raise ArithmeticError(
            f"linear solve failed: residual {residual:.3e} vs scale {scale:.3e}")


def _spd_factor_solve(A: sp.spmatrix, b: np.ndarray):
    """Factorize the SPD matrix ``A`` and solve ``A x = b``.

    Symmetric-mode SuperLU with a minimum-degree ordering of ``A + A^T``,
    diagonal pivots, and neither relaxed supernodes nor panels
    (``relax=1, panel_size=1``).  The last two leave the fill unchanged
    and cut the factorization time by about a third: on p = 1.2 CR
    Hessians of the uniformly refined L-shape, 28 -> 17 ms at 9k,
    170 -> 107 ms at 37k and 0.90 -> 0.56 s at 147k unknowns (one thread,
    median of 5).  ``relax=2`` was no faster than SciPy's default.

    Returns the SuperLU factor and ``x``.  Raises :class:`ArithmeticError`
    if the factorization meets an exactly zero pivot or the solution misses
    the backward-error bound of :func:`_check_backward_error`.
    """
    A = sp.csc_matrix(A)
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       relax=1, panel_size=1,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise ArithmeticError(f"linear solve failed: {exc}") from exc
    x = lu.solve(b)
    _check_backward_error(A, x, b)
    return lu, x


def linear_solve(A: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """Direct solve of ``A x = b`` for a symmetric positive definite ``A``.

    ``A`` must be SPD: the symmetric-mode factorization takes its pivots
    from the diagonal in a minimum-degree order of ``A + A^T`` and does not
    pivot for stability.  A singular matrix, or a solution that fails the
    1e-12 backward-error check, raises :class:`ArithmeticError`.
    """
    return _spd_factor_solve(A, b)[1]


#: CG iterations after which :class:`_RecycledSpdSolver` drops its
#: factorization, so that the next system is factorized afresh.
_REFRESH_AFTER = 20


class _RecycledSpdSolver:
    """Direct solves with factorization reuse for slowly varying SPD systems.

    The first system is factorized as in :func:`linear_solve` (symmetric
    mode, minimum-degree ordering); subsequent ones are solved by conjugate
    gradients preconditioned with the retained factorization (consecutive
    gradient-flow matrices differ only through the lagged weights), and the
    factorization is refreshed once a solve takes more than
    :data:`_REFRESH_AFTER` iterations.  Every solve meets the same 1e-12
    backward-error contract as :func:`linear_solve`: a CG result whose true
    residual misses it is replaced by a fresh factorization's solve.
    """

    def __init__(self):
        self._lu = None

    def solve(self, A: sp.spmatrix, b: np.ndarray) -> np.ndarray:
        A = sp.csc_matrix(A)
        if self._lu is None:
            return self._factor_and_solve(A, b)
        count = 0

        def _tick(_):
            nonlocal count
            count += 1

        preconditioner = spla.LinearOperator(A.shape, self._lu.solve)
        x, info = spla.cg(A, b, x0=self._lu.solve(b), rtol=1e-12, atol=0.0,
                          maxiter=200, M=preconditioner, callback=_tick)
        if info != 0:
            return self._factor_and_solve(A, b)
        try:  # cg stops on its recursive residual, not the true one
            _check_backward_error(A, x, b)
        except ArithmeticError:
            return self._factor_and_solve(A, b)
        if count > _REFRESH_AFTER:
            self._lu = None
        return x

    def _factor_and_solve(self, A: sp.csc_matrix, b: np.ndarray) -> np.ndarray:
        self._lu, x = _spd_factor_solve(A, b)
        return x


class DiscreteProblem:
    """Energy, gradient, and Hessian of the discrete minimization problem.

    Parameters
    ----------
    mesh : the triangulation.
    density : convex density with ``phi``/``dphi``/``d2phi``/``slope_ratio``.
    load : elementwise-constant right-hand side ``f_h``.
    space : "cr" (side midpoint unknowns) or "p1" (vertex unknowns).
    dirichlet : optional full-length array of prescribed values; only the
        entries at constrained unknowns (Dirichlet sides resp. vertices) are
        used.  ``None`` means homogeneous data.
    """

    def __init__(self, mesh: Triangulation, density, load: PwConstant,
                 space: str = "cr", dirichlet=None):
        if space not in ("cr", "p1"):
            raise ValueError("space must be 'cr' or 'p1'")
        self.mesh = mesh
        self.density = density
        self.load = load
        self.space = space
        if space == "cr":
            self.dof_map = mesh.tri_sides
            self.basis_grads = mesh.cr_basis_gradients
            self.num_dofs = mesh.num_sides
            fixed = mesh.dirichlet_side_mask.copy()
        else:
            self.dof_map = mesh.triangles
            self.basis_grads = mesh.barycentric_gradients
            self.num_dofs = mesh.num_vertices
            fixed = mesh.dirichlet_vertex_mask.copy()
        self.fixed_mask = fixed
        self.free_mask = ~fixed
        self.dirichlet_values = np.zeros(self.num_dofs)
        if dirichlet is not None:
            diri = np.asarray(dirichlet, dtype=float)
            if diri.shape != (self.num_dofs,):
                raise ValueError("dirichlet array must cover every unknown")
            self.dirichlet_values[fixed] = diri[fixed]

    # -- state handling -----------------------------------------------------

    def initial_state(self) -> np.ndarray:
        """Zero on free unknowns, Dirichlet data on constrained ones."""
        u = np.zeros(self.num_dofs)
        u[self.fixed_mask] = self.dirichlet_values[self.fixed_mask]
        return u

    def impose_dirichlet(self, u: np.ndarray) -> np.ndarray:
        out = np.asarray(u, dtype=float).copy()
        out[self.fixed_mask] = self.dirichlet_values[self.fixed_mask]
        return out

    def function(self, u: np.ndarray):
        cls = CrFunction if self.space == "cr" else P1Function
        return cls(self.mesh, u)

    def broken_gradient(self, u: np.ndarray) -> np.ndarray:
        """(nt, 2) elementwise gradient of the function with values ``u``."""
        return self.function(u).gradients()

    # -- energy and derivatives --------------------------------------------

    def energy(self, u: np.ndarray) -> float:
        """:func:`~pdgap.estimators.primal_energy` of ``u``."""
        return primal_energy(self.function(u), self.density, self.load)

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """Full gradient vector (entries at constrained unknowns included)."""
        grads = self.broken_gradient(u)
        stress = self.density.dphi(grads)
        cell = self.mesh.areas[:, None] * (
            np.einsum("td,tjd->tj", stress, self.basis_grads)
            - self.load.values[:, None] / 3.0)
        out = np.zeros(self.num_dofs)
        np.add.at(out, self.dof_map.ravel(), cell.ravel())
        return out

    def hessian(self, u: np.ndarray) -> sp.csr_matrix:
        """Hessian restricted to the free unknowns (CSR)."""
        grads = self.broken_gradient(u)
        d2 = self.density.d2phi(grads)  # (nt, 2, 2)
        # batched B D B^T: about half the time of a three-operand einsum
        local = self.mesh.areas[:, None, None] * (
            self.basis_grads @ d2 @ self.basis_grads.transpose(0, 2, 1))
        return self._assemble_free(local)

    def weighted_stiffness(self, weights: np.ndarray) -> sp.csr_matrix:
        """Stiffness matrix with elementwise weights, on the free unknowns.

        The matrix is symmetric entry for entry, so its transpose is its CSC
        form.
        """
        local = (self.mesh.areas * weights)[:, None, None] * np.einsum(
            "tid,tjd->tij", self.basis_grads, self.basis_grads)
        return self._assemble_free(local)

    @cached_property
    def _free_pattern(self):
        """CSR pattern of the free-dof matrix and the slot of each entry.

        Returns ``(indptr, indices, entries, slots)``: the local entries at
        flat positions ``entries`` of the ``(nt, 3, 3)`` local matrices are
        those coupling two free unknowns, and each is summed into
        ``data[slots]`` of the CSR matrix with sorted column indices.  The
        index arrays already have SciPy's index dtype, so building a matrix
        from them converts nothing.
        """
        nfree = int(self.free_mask.sum())
        number = np.full(self.num_dofs, -1)
        number[self.free_mask] = np.arange(nfree)
        local_dofs = number[self.dof_map]
        rows = np.repeat(local_dofs, 3, axis=1).ravel()
        cols = np.tile(local_dofs, (1, 3)).ravel()
        entries = np.flatnonzero((rows >= 0) & (cols >= 0))
        keys = rows[entries] * nfree + cols[entries]
        unique, slots = np.unique(keys, return_inverse=True)
        indptr = np.zeros(nfree + 1, dtype=np.int64)
        np.cumsum(np.bincount(unique // nfree, minlength=nfree),
                  out=indptr[1:])
        pattern = sp.csr_matrix((np.empty(unique.size), unique % nfree,
                                 indptr), shape=(nfree, nfree))
        return pattern.indptr, pattern.indices, entries, slots

    def _assemble_free(self, local: np.ndarray) -> sp.csr_matrix:
        indptr, indices, entries, slots = self._free_pattern
        data = np.bincount(slots, weights=local.ravel()[entries],
                           minlength=indices.size)
        n = indptr.size - 1
        return sp.csr_matrix((data, indices.copy(), indptr.copy()),
                             shape=(n, n))

    def residual_norm(self, u: np.ndarray) -> float:
        return float(np.linalg.norm(self.gradient(u)[self.free_mask]))

    def increment_seminorm(self, delta: np.ndarray) -> float:
        """Broken H1 seminorm of an update given as a full dof vector."""
        g = self.broken_gradient(delta)
        return float(np.sqrt(self.mesh.areas @ np.einsum("td,td->t", g, g)))


@dataclass
class SolverReport:
    """Outcome of a nonlinear solve."""

    method: str
    converged: bool
    iterations: int
    energy: float
    residual_norms: list[float] = field(default_factory=list)
    energies: list[float] = field(default_factory=list)
    stop_reason: str = ""
    #: (nt, 2) elementwise stress of the last linear solve (CR space only):
    #: ``marini_reconstruct(u, density, f_h, stress=stress)`` is a flux in
    #: RT0 with ``div z = -f_h``, whether or not the solve converged.
    stress: np.ndarray | None = None


def newton_solve(problem: DiscreteProblem, u0=None, tol_abs: float = 1e-8,
                 tol_rel: float = 1e-10, max_iter: int = 60) -> tuple[np.ndarray, SolverReport]:
    """Newton iteration with a line search to the energy's minimum along
    each Newton direction.

    Stops once the free-residual norm drops below ``tol_abs`` or below
    ``tol_rel`` times its initial value.  Returns the final state and a
    report; a start at the exact solution reports zero iterations.  If the
    iteration limit is reached, the iterate with the smallest residual seen
    so far is returned (with ``converged=False``).  Each step length is
    chosen by :func:`_line_search`, and the full gradient it computes at the
    accepted iterate gives both the residual norm and the next right-hand
    side, so an iterate costs one gradient besides the search's trials.

    On the CR space the report's ``stress`` is that of the last Newton
    system ``D2I(u) delta = -DI(u)``: ``Dphi(grad u) + D2phi(grad u) grad
    delta``, taken for the full step ``delta`` whatever step length or
    descent fallback was then applied.  A start that meets the tolerance
    solves one such system for it.
    """
    u = problem.initial_state() if u0 is None else problem.impose_dirichlet(u0)
    free = problem.free_mask
    grad = problem.gradient(u)
    res0 = float(np.linalg.norm(grad[free]))
    norms = [res0]
    energies = [problem.energy(u)]
    threshold = max(tol_abs, tol_rel * res0)
    iterations = 0
    best_u, best_norm = u, res0
    reason = "residual below tolerance"
    linearized = None  # (u, step) of the last linear solve
    while norms[-1] > threshold:
        if iterations >= max_iter:
            reason = "iteration limit reached"
            u = best_u  # hand back the best iterate seen
            break
        residual = grad[free]
        step = linear_solve(problem.hessian(u), -residual)
        linearized = (u, step)
        slope = float(residual @ step)
        if slope >= 0:  # not a descent direction; fall back to steepest descent
            step = -residual
            slope = -float(residual @ residual)
        _, u, grad, energy = _line_search(problem, u, step, slope,
                                          energies[-1], norms[-1])
        iterations += 1
        norms.append(float(np.linalg.norm(grad[free])))
        energies.append(energy)
        if norms[-1] < best_norm:
            best_u, best_norm = u, norms[-1]
    final_norm = best_norm if reason == "iteration limit reached" else norms[-1]
    final_energy = problem.energy(u) if reason == "iteration limit reached" \
        else energies[-1]
    converged = final_norm <= threshold
    stress = None
    if problem.space == "cr":
        if linearized is None:  # no step taken: u is the start, grad its own
            linearized = (u, linear_solve(problem.hessian(u), -grad[free]))
        stress = _newton_stress(problem, *linearized)
    report = SolverReport(method="newton", converged=converged,
                          iterations=iterations, energy=final_energy,
                          residual_norms=norms, energies=energies,
                          stop_reason=reason, stress=stress)
    return u, report


#: Curvature factor of Newton's line search: a step length ``t < 1`` is
#: searched for until ``|g(t)| <= C2 |g(0)|``, with ``g(t) = DI(u + t
#: delta) . delta`` the energy's derivative along the direction ``delta``.
C2 = 0.1

#: Regula falsi trials after which Newton's line search takes the last one.
_SEARCH_TRIALS = 20


def _line_search(problem: DiscreteProblem, u: np.ndarray, step: np.ndarray,
                 slope: float, energy0: float, norm0: float):
    """Step length along the free-dof descent direction ``step`` from ``u``.

    ``slope = g(0) < 0`` is the energy's derivative along ``step`` at ``u``,
    ``energy0`` the energy and ``norm0`` the free-residual norm there.  The
    full step ``t = 1`` is tried first, and kept unless it overshoots the
    minimum along ``step``, that is unless ``g(1) > C2 |g(0)|``.  Then the
    convex energy's derivative ``g``, which is nondecreasing, is bracketed
    by ``[0, 1]``, and a safeguarded regula falsi (Illinois) searches it
    until ``|g(t)| <= C2 |g(0)|``: the strong Wolfe curvature condition
    (Nocedal and Wright, Numerical Optimization, 2006, Sec. 3.1).

    The step length found is accepted only if it meets the Armijo condition
    ``I(u + t step) <= energy0 + 1e-4 t slope``; otherwise ``t`` is halved
    until it does, for at most 39 halvings, the last trial being accepted
    regardless.  Once the Armijo decrease vanishes against the energy in
    floating point, the energy cannot rank the trials, and a trial is
    accepted if it lowers the free-residual norm below ``norm0`` instead.

    Every trial is evaluated through :meth:`DiscreteProblem.gradient` and
    :meth:`DiscreteProblem.energy`.  Returns the accepted step length and
    state, the state's full gradient vector and its energy.
    """
    free = problem.free_mask

    def trial(t):
        x = u.copy()
        x[free] += t * step
        return x

    tolerance = C2 * abs(slope)
    t = 1.0
    x = trial(t)
    grad = problem.gradient(x)
    g = float(grad[free] @ step)
    if g > tolerance:  # the full step overshoots the minimum along step
        low, g_low, high, g_high = 0.0, slope, 1.0, g
        kept = 0  # +1 (-1): the last trial replaced the upper (lower) end
        for _ in range(_SEARCH_TRIALS):
            t = (low * g_high - high * g_low) / (g_high - g_low)
            margin = 0.01 * (high - low)
            t = min(max(t, low + margin), high - margin)
            x = trial(t)
            grad = problem.gradient(x)
            g = float(grad[free] @ step)
            if abs(g) <= tolerance or not np.isfinite(g):
                break
            if g < 0:
                low, g_low = t, g
                if kept == -1:  # the upper end is kept a second time
                    g_high *= 0.5
                kept = -1
            else:
                high, g_high = t, g
                if kept == 1:
                    g_low *= 0.5
                kept = 1
    for halving in range(40):
        if halving:
            t *= 0.5
            x = trial(t)
            grad = None
        energy = problem.energy(x)
        target = energy0 + 1e-4 * t * slope
        if energy <= target:
            break
        if target == energy0:
            # the decrease is below the energy's roundoff, so Armijo
            # cannot decide; accept a trial that lowers the residual
            if grad is None:
                grad = problem.gradient(x)
            if np.linalg.norm(grad[free]) < norm0:
                break
    if grad is None:
        grad = problem.gradient(x)
    return t, x, grad, energy


def _newton_stress(problem: DiscreteProblem, u: np.ndarray,
                   step: np.ndarray) -> np.ndarray:
    """``Dphi(grad u) + D2phi(grad u) grad delta`` for the free-dof step."""
    delta = np.zeros(problem.num_dofs)
    delta[problem.free_mask] = step
    grads = problem.broken_gradient(u)
    return problem.density.dphi(grads) + np.einsum(
        "tde,te->td", problem.density.d2phi(grads),
        problem.broken_gradient(delta))


#: Stop factor of the Kacanov solve: on CR it stops once the discrete gap
#: of its iterate is at most ``GAMMA`` times the estimate that iterate
#: feeds, on P1 once a step lowers the energy by at most ``GAMMA`` times the
#: gap to the level's dual value that is left.
GAMMA = 0.01


def gradient_flow_solve(problem: DiscreteProblem, u0=None, tau: float = 1.0,
                        eps_stop: float | None = None, max_iter: int = 500,
                        vertex_dirichlet: np.ndarray | None = None,
                        dual: float | None = None,
                        ) -> tuple[np.ndarray, SolverReport]:
    """Kacanov iteration, the tau -> infinity limit of the gradient flow.

    Each step solves ``K(a_n) u^{n+1} = b`` on the free unknowns, where
    ``K(a_n)`` is the stiffness matrix weighted by the secant slopes
    ``a_n = psi'(|grad u^n|)/|grad u^n|`` and ``b`` the load (with Dirichlet
    elimination).  The energy never increases when ``psi'(t)/t`` is
    nonincreasing (optimal design, p <= 2).  ``tau``, the step size of the
    gradient flow, is accepted and ignored.

    On the CR space the step's stress ``a_n grad u^{n+1}`` is a linear CR
    solution's, so the flux ``z^{n+1} = a_n grad u^{n+1} - f_T (x - x_T)/2``
    is in RT0 with ``div z = -f_h`` (Marini's identity), and its discrete
    gap ``eta_lin = I_h(u^{n+1}) - D_h(z^{n+1})`` (``D_h``: the
    ``quadrature="mean"`` dual energy) bounds ``I_h(u^{n+1}) - min I_h``.
    Unless ``eps_stop`` is given, the solve stops once ``eta_lin <= GAMMA
    eta_bar^2`` (up to roundoff) with ``GAMMA = 0.01``, where ``eta_bar^2``
    is the :func:`~pdgap.estimators.eta_hat_sq` total of the vertex average of
    ``u^{n+1}`` (Dirichlet vertices set to ``vertex_dirichlet``, default
    zero) against ``z^{n+1}``.  The report's ``stress`` is the last step's.

    On the P1 space ``dual`` is a fixed discrete dual value ``D_h(z)`` of
    the level, e.g. the CR flux's: by discrete weak duality ``D_h(z) <=
    min I_CR <= min I_P1``, so ``I_h(u^n) - D_h(z)`` bounds what any further
    step can still gain.  Unless ``eps_stop`` is given, the solve stops once
    a step gains at most ``GAMMA`` of that gap, ``I_h(u^{n-1}) - I_h(u^n)
    <= GAMMA (I_h(u^n) - D_h(z)) + 1e-12 (|I_h(u^n)| + |D_h(z)|)``; a
    non-finite ``dual`` never stops it.  A P1 solve given neither
    ``eps_stop`` nor ``dual`` raises :class:`ValueError`.

    With ``eps_stop``, on either space, the solve stops once the broken H1
    seminorm of the increment is at most ``eps_stop``.
    """
    if eps_stop is not None:
        rule = "increment"
    elif problem.space == "cr":
        rule = "gap"
    elif dual is not None:
        rule = "decrease"
    else:
        raise ValueError("a P1 flow solve needs eps_stop or the level's dual")
    mesh = problem.mesh
    u = problem.initial_state() if u0 is None else problem.impose_dirichlet(u0)
    free = np.flatnonzero(problem.free_mask)
    load_vec = np.zeros(problem.num_dofs)
    np.add.at(load_vec, problem.dof_map.ravel(),
              np.repeat(mesh.areas * problem.load.values / 3.0, 3))

    coupling = _fixed_value_coupling(problem)

    energies = [problem.energy(u)]
    steps = 0
    stress = None
    step_solver = _RecycledSpdSolver()
    while True:
        slopes = problem.density.slope_ratio(
            np.sqrt(np.sum(problem.broken_gradient(u) ** 2, axis=-1)))
        A = problem.weighted_stiffness(slopes)
        # couplings across right angles vanish exactly; stored zeros would
        # still enter the fill-reducing ordering
        A.eliminate_zeros()
        rhs = load_vec[free]
        if coupling is not None:
            rhs -= _weighted_form_fixed_part(problem, slopes, coupling)
        unew = u.copy()
        unew[free] = step_solver.solve(A.T, rhs)  # A is symmetric
        steps += 1
        energies.append(problem.energy(unew))
        if problem.space == "cr":
            stress = slopes[:, None] * problem.broken_gradient(unew)
        if rule == "gap":
            converged = _gap_below_tolerance(problem, unew, stress,
                                             energies[-1], vertex_dirichlet)
        elif rule == "decrease":
            roundoff = 1e-12 * (abs(energies[-1]) + abs(dual))
            converged = bool(np.isfinite(dual)) and (
                energies[-2] - energies[-1]
                <= GAMMA * (energies[-1] - dual) + roundoff)
        else:
            converged = problem.increment_seminorm(unew - u) <= eps_stop
        u = unew
        if converged or steps >= max_iter:
            break
    reason = ("iteration limit reached" if not converged
              else {"gap": "discrete gap below tolerance",
                    "decrease": "energy decrease below tolerance",
                    "increment": "increment below tolerance"}[rule])
    report = SolverReport(method="flow", converged=converged,
                          iterations=steps, energy=energies[-1],
                          energies=energies,
                          residual_norms=[problem.residual_norm(u)],
                          stop_reason=reason, stress=stress)
    return u, report


def _gap_below_tolerance(problem: DiscreteProblem, u: np.ndarray,
                         stress: np.ndarray, energy: float,
                         vertex_dirichlet: np.ndarray | None) -> bool:
    """The stop test ``eta_lin <= GAMMA eta_bar^2`` of the CR Kacanov solve
    (see :func:`gradient_flow_solve`); ``energy`` is ``I_h(u)``.

    A roundoff allowance of ``1e-12 (|I_h| + |D_h|)`` lets a level that is
    solved exactly (``eta_bar^2 = 0``, e.g. an affine solution) stop.  A
    flux that fails the feasibility test never stops the solve.
    """
    u_cr = CrFunction(problem.mesh, u)
    z = marini_reconstruct(u_cr, problem.density, problem.load, stress=stress)
    dual = dual_energy(z, problem.density, problem.load, boundary_values=u,
                       quadrature="mean")
    if not np.isfinite(dual):
        return False
    gv = (np.zeros(problem.mesh.num_vertices) if vertex_dirichlet is None
          else vertex_dirichlet)
    # eta_hat_sq of the averaged candidate, without the diagnostic parts
    eta_A, eta_D_hat, _ = _guaranteed_parts(
        node_average(u_cr, dirichlet_values=gv), z, problem.density)
    roundoff = 1e-12 * (abs(energy) + abs(dual))
    return energy - dual <= GAMMA * float(np.sum(eta_A + eta_D_hat)) + roundoff


def _fixed_value_coupling(problem: DiscreteProblem) -> np.ndarray | None:
    """(nt, 3) unweighted local stiffness applied to the fixed values.

    ``None`` when every fixed value is zero, so that the coupling vanishes.
    """
    fixed_vals = np.where(problem.fixed_mask, problem.dirichlet_values, 0.0)
    if not np.any(fixed_vals):
        return None
    grads = problem.broken_gradient(fixed_vals)
    return np.einsum("td,tjd->tj", grads, problem.basis_grads)


def _weighted_form_fixed_part(problem: DiscreteProblem, weights: np.ndarray,
                              coupling: np.ndarray) -> np.ndarray:
    """Free-row entries of the weighted stiffness applied to the fixed values.

    ``coupling`` is :func:`_fixed_value_coupling` of ``problem``.
    """
    cell = (problem.mesh.areas * weights)[:, None] * coupling
    out = np.zeros(problem.num_dofs)
    np.add.at(out, problem.dof_map.ravel(), cell.ravel())
    return out[problem.free_mask]


def solve_problem(problem: DiscreteProblem, solver: str = "newton", **kwargs):
    """Dispatch to :func:`newton_solve` or :func:`gradient_flow_solve`."""
    if solver == "newton":
        return newton_solve(problem, **kwargs)
    if solver == "flow":
        return gradient_flow_solve(problem, **kwargs)
    raise ValueError(f"unknown solver {solver!r}")
