"""Discrete convex minimization problems and their solvers.

:class:`DiscreteProblem` assembles the energy

    I(v) = sum_T |T| [ phi(grad v|_T) - f_T * v(x_T) ]

over the Crouzeix-Raviart space (``space="cr"``, one unknown per side
midpoint) or the conforming P1 space (``space="p1"``, one unknown per
vertex), with Dirichlet values eliminated.  Both solvers run one descent
loop with one step-length rule: ``u <- u + t delta`` with ``A(u) delta =
-DI(u)`` on the free unknowns, and ``t`` from a line search to the energy's
minimum along ``delta`` (a regula falsi on the directional derivative until
the strong Wolfe curvature condition holds, accepted under Armijo).  They
differ in the linearization ``A`` and the stop rule:

* :func:`newton_solve` -- the density's (possibly regularized) Hessian,
  stopped on the residual;
* :func:`gradient_flow_solve` -- the Kacanov iteration, the tau -> infinity
  limit of the semi-implicit gradient flow: the stiffness matrix weighted
  by the secant slopes, stopped on CR by the guaranteed discrete gap of its
  flux and on P1 once a step gains little against a given dual value.

On the CR space both report the elementwise stress of their last linear
solve (:attr:`SolverReport.stress`).  It solves a *linear* CR problem, so by
Marini's identity :func:`~pdgap.reconstruction.marini_reconstruct` turns it
into a flux in H(div) with ``div z = -f_h``, up to the linear solve's
backward error, however far the iterate is from the discrete minimizer.

Every linear system either solver meets is symmetric positive definite,
is assembled without stored zeros, and is factorized the same way
(:func:`_spd_factor_solve`): the first system of a nonlinear solve on a
minimum-degree ordering, the later ones on that same ordering while the
sparsity pattern stays.  Every solve, direct or preconditioned CG, is
checked against a 1e-12 backward-error bound on the unpermuted matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .estimators import _guaranteed_parts, dual_energy, primal_energy
from .fespaces import CrFunction, P1Function, PwConstant, node_average
from .mesh import Triangulation
from .reconstruction import marini_reconstruct

__all__ = ["DiscreteProblem", "SolverReport", "newton_solve",
           "gradient_flow_solve", "solve_problem"]


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


class _Ordering:
    """A fill-reducing symmetric permutation of one CSC sparsity pattern.

    ``perm_c`` is the column permutation of a SuperLU factor of a matrix
    with this pattern: unknown ``j`` goes to position ``perm_c[j]``.  The
    inverse and the map that gathers ``P A P^T`` from ``A.data`` are built
    on the first :meth:`permute`, so an ordering that is never reused
    costs nothing.
    """

    def __init__(self, A: sp.csc_matrix, perm_c: np.ndarray):
        self.indptr, self.indices = A.indptr, A.indices
        self.perm_c = perm_c

    @cached_property
    def order(self) -> np.ndarray:
        """The unknown at each position: the inverse of ``perm_c``."""
        order = np.empty_like(self.perm_c)
        order[self.perm_c] = np.arange(self.perm_c.size)
        return order

    def fits(self, A: sp.csc_matrix) -> bool:
        """Whether ``A`` has this ordering's pattern."""
        return (np.array_equal(A.indptr, self.indptr)
                and np.array_equal(A.indices, self.indices))

    @cached_property
    def _gather(self):
        """``(slots, indptr, indices)`` of ``P A P^T`` in CSC form, with
        ``(P A P^T).data = A.data[slots]``."""
        n = self.indptr.size - 1
        cols = np.repeat(self.perm_c.astype(np.int64), np.diff(self.indptr))
        rows = self.perm_c[self.indices]
        slots = np.argsort(cols * n + rows)
        indptr = np.zeros(n + 1, dtype=self.indptr.dtype)
        np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
        return slots, indptr, rows[slots].astype(self.indices.dtype)

    def permute(self, A: sp.csc_matrix) -> sp.csc_matrix:
        """``P A P^T`` for ``A`` with this ordering's pattern."""
        slots, indptr, indices = self._gather
        return sp.csc_matrix((A.data[slots], indices, indptr), shape=A.shape)


class _PermutedFactor:
    """SuperLU factor of ``P A P^T`` whose ``solve`` takes and returns
    vectors in ``A``'s numbering; other attributes are the factor's."""

    def __init__(self, lu, ordering: _Ordering):
        self._lu = lu
        self._ordering = ordering

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(b[self._ordering.order])[self._ordering.perm_c]

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _spd_factor_solve(A: sp.spmatrix, b: np.ndarray,
                      ordering: _Ordering | None = None):
    """Factorize the SPD matrix ``A`` and solve ``A x = b``.

    Symmetric-mode SuperLU with diagonal pivots and with neither relaxed
    supernodes nor panels (``relax=1, panel_size=1``): the supernodes of
    these 2-D finite-element matrices are tiny, so SciPy's defaults mostly
    add BLAS call overhead.  The last two leave the fill unchanged and cut
    the factorization time by about a third: on p = 1.2 CR Hessians of the
    uniformly refined L-shape, 28 -> 17 ms at 9k, 170 -> 107 ms at 37k and
    0.90 -> 0.56 s at 147k unknowns (one thread, median of 5).  ``relax=2``
    was no faster than SciPy's default.

    The fill-reducing ordering is a minimum-degree ordering of ``A + A^T``,
    which gives far less fill than the default column ordering.  Given the
    ``ordering`` of an earlier factorization and a matrix of its pattern,
    ``P A P^T`` is factorized in its natural order instead, with the same
    fill and without a new minimum-degree pass: on p = 1.2 CR Hessians,
    12 -> 10 ms at 9k, 81 -> 66 ms at 37k and 0.49 -> 0.45 s at 147k
    unknowns (one thread, median of 21, 21 and 9).  The matrices the
    solvers meet store no zeros (see :meth:`DiscreteProblem._assemble_free`),
    which would enter the ordering and the fill.

    Returns the factor, whose ``solve`` takes ``A``'s numbering, ``x`` and
    the ordering.  Raises :class:`ArithmeticError` if the factorization
    meets an exactly zero pivot or the solution misses the backward-error
    bound of :func:`_check_backward_error`.
    """
    A = sp.csc_matrix(A)
    reuse = ordering is not None and ordering.fits(A)
    try:
        lu = spla.splu(ordering.permute(A) if reuse else A,
                       permc_spec="NATURAL" if reuse else "MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, relax=1, panel_size=1,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise ArithmeticError(f"linear solve failed: {exc}") from exc
    if reuse:
        lu = _PermutedFactor(lu, ordering)
    else:
        # a copy: SciPy's perm_c is a view that keeps the whole factor alive
        ordering = _Ordering(A, lu.perm_c.copy())
    x = lu.solve(b)
    _check_backward_error(A, x, b)
    return lu, x, ordering


class _SpdSolver:
    """Direct solves of the SPD systems of one nonlinear solve.

    Every system is factorized by :func:`_spd_factor_solve`, on the
    ordering of the first one as long as the sparsity pattern stays.  The
    factor is not kept, so that it is freed before the next one is made.
    """

    def __init__(self):
        self._ordering = None

    def solve(self, A: sp.spmatrix, b: np.ndarray) -> np.ndarray:
        return self._factor(A, b)[1]

    def _factor(self, A: sp.spmatrix, b: np.ndarray):
        lu, x, self._ordering = _spd_factor_solve(A, b, self._ordering)
        return lu, x


#: CG iterations after which :class:`_RecycledSpdSolver` drops its
#: factorization, so that the next system is factorized afresh.
_REFRESH_AFTER = 20


class _RecycledSpdSolver(_SpdSolver):
    """Direct solves with factorization reuse for slowly varying SPD systems.

    The first system is factorized as in :class:`_SpdSolver`; later ones
    are solved by CG preconditioned with the retained factorization
    (consecutive Kacanov matrices differ only through the lagged weights),
    and the factorization is refreshed once a solve takes more than
    :data:`_REFRESH_AFTER` iterations.  A CG result that misses the 1e-12
    backward-error bound of :func:`_check_backward_error` is replaced by a
    fresh factorization's solve.
    """

    def __init__(self):
        super().__init__()
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
        self._lu, x = self._factor(A, b)
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
        """Sum the ``(nt, 3, 3)`` local matrices into the free-dof matrix.

        Exact zeros are not stored: at p = 2 and in the Kacanov stiffness
        every CR coupling across a right angle vanishes, and a stored zero
        would still enter the fill-reducing ordering and the fill.
        """
        indptr, indices, entries, slots = self._free_pattern
        data = np.bincount(slots, weights=local.ravel()[entries],
                           minlength=indices.size)
        n = indptr.size - 1
        A = sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))
        A.eliminate_zeros()
        return A


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


@dataclass
class _Descent:
    """What a stop rule sees: iterate, norms, energies, lazy stress."""

    u: np.ndarray
    norms: list[float]
    energies: list[float]
    stress: Callable[[], np.ndarray] | None = None


def _descend(problem: DiscreteProblem, u0, method: str, linearize, stop,
             reason: str, max_iter: int) -> tuple[np.ndarray, SolverReport]:
    """The one descent loop: ``u <- u + t delta``, ``A(u) delta = -DI(u)``.

    ``linearize(u)`` returns the free-dof matrix ``A``, the linear solver
    ``solve(A, b)`` and ``stress(delta)``, the stress of the linear problem
    that the step ``delta`` solves; ``t`` comes from :func:`_line_search`.
    The solve ends with ``reason`` once ``stop(state)`` holds before a step,
    or after ``max_iter`` steps.  On CR, a solve without a step makes one
    linear solve for the report's stress."""
    u = problem.initial_state() if u0 is None else problem.impose_dirichlet(u0)
    free = problem.free_mask
    grad = problem.gradient(u)
    state = _Descent(u, [float(np.linalg.norm(grad[free]))],
                     [problem.energy(u)])
    while not (met := stop(state)) and len(state.energies) <= max_iter:
        A, solve, stress = linearize(state.u)
        residual = grad[free]
        step = solve(A, -residual)
        state.stress = cache(partial(stress, step))
        slope = float(residual @ step)
        if slope >= 0:  # not a descent direction; fall back to steepest descent
            step = -residual
            slope = -float(residual @ residual)
        _, state.u, grad, energy = _line_search(
            problem, state.u, step, slope, state.energies[-1], state.norms[-1])
        state.norms.append(float(np.linalg.norm(grad[free])))
        state.energies.append(energy)
    if problem.space == "cr" and state.stress is None:
        A, solve, stress = linearize(state.u)
        state.stress = partial(stress, solve(A, -grad[free]))
    report = SolverReport(
        method=method, converged=bool(met),
        iterations=len(state.energies) - 1, energy=state.energies[-1],
        residual_norms=state.norms, energies=state.energies,
        stop_reason=reason if met else "iteration limit reached",
        stress=state.stress() if problem.space == "cr" else None)
    return state.u, report


#: Curvature factor of the line search: a step length ``t < 1`` is
#: searched for until ``|g(t)| <= C2 |g(0)|``, with ``g(t) = DI(u + t
#: delta) . delta`` the energy's derivative along the direction ``delta``.
C2 = 0.1

#: Regula falsi trials after which the line search takes the last one.
_SEARCH_TRIALS = 20


def _line_search(problem: DiscreteProblem, u: np.ndarray, step: np.ndarray,
                 slope: float, energy0: float, norm0: float):
    """Step length along the free-dof descent direction ``step`` from ``u``.

    ``slope = g(0) < 0`` is the energy's derivative along ``step`` at ``u``,
    ``energy0`` the energy and ``norm0`` the free-residual norm there.  The
    full step ``t = 1`` is kept unless it overshoots the minimum along
    ``step``, that is unless ``g(1) > C2 |g(0)|``.  Then a safeguarded
    regula falsi (Illinois) searches the bracket ``[0, 1]`` of the convex
    energy's nondecreasing ``g`` until ``|g(t)| <= C2 |g(0)|``: the strong
    Wolfe curvature condition (Nocedal and Wright, Numerical Optimization,
    2006, Sec. 3.1).

    ``t`` is then halved until the Armijo condition ``I(u + t step) <=
    energy0 + 1e-4 t slope`` holds, for at most 39 halvings, the last trial
    being accepted regardless.  Once the Armijo decrease vanishes against
    the energy in floating point, a trial is accepted if it lowers the
    free-residual norm below ``norm0`` instead.  Returns the accepted step
    length and state, the state's full gradient vector and its energy, each
    computed through :class:`DiscreteProblem`.
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


def newton_solve(problem: DiscreteProblem, u0=None, tol_abs: float = 1e-8,
                 tol_rel: float = 1e-10, max_iter: int = 60) -> tuple[np.ndarray, SolverReport]:
    """Newton iteration: :func:`_descend` with the Hessian for ``A``,
    solved by one :class:`_SpdSolver`.

    Stops once the free-residual norm drops below ``tol_abs`` or below
    ``tol_rel`` times its initial value, so a start at the exact solution
    takes no step.  On the CR space the report's ``stress`` is that of the
    last Newton system: ``Dphi(grad u) + D2phi(grad u) grad delta``.
    """
    free = problem.free_mask
    step_solver = _SpdSolver()

    def linearize(u):
        def stress(step):
            delta = np.zeros(problem.num_dofs)
            delta[free] = step
            grads = problem.broken_gradient(u)
            return problem.density.dphi(grads) + np.einsum(
                "tde,te->td", problem.density.d2phi(grads),
                problem.broken_gradient(delta))
        return problem.hessian(u), step_solver.solve, stress

    def stop(state):
        return state.norms[-1] <= max(tol_abs, tol_rel * state.norms[0])

    return _descend(problem, u0, "newton", linearize, stop,
                    "residual below tolerance", max_iter)


#: Stop factor of the Kacanov solve: against the estimate on CR, against
#: the gap to the level's dual value that is left on P1.
GAMMA = 0.01


def gradient_flow_solve(problem: DiscreteProblem, u0=None, tau: float = 1.0,
                        max_iter: int = 500,
                        vertex_dirichlet: np.ndarray | None = None,
                        dual: float | None = None,
                        ) -> tuple[np.ndarray, SolverReport]:
    """Kacanov iteration, the tau -> infinity limit of the gradient flow.

    :func:`_descend` with ``A = K(a_n)``, the stiffness matrix weighted by
    the secant slopes ``a_n = psi'(|grad u^n|)/|grad u^n|``, solved by one
    :class:`_RecycledSpdSolver`.  Since ``Dphi(a) = (psi'(|a|)/|a|) a``,
    ``u^n + delta`` solves ``K(a_n) v = b`` (load ``b``, Dirichlet values
    eliminated) up to roundoff and the p-power ``slope_ratio``'s
    regularization.  When ``psi'(t)/t`` is nonincreasing (optimal design,
    p <= 2) that step passes the line search's Armijo test: it lowers the
    energy by at least ``|DI(u^n) . delta| / 2``.  ``tau`` is accepted and
    ignored: ``pdbench/workloads.py`` passes it.

    On the CR space the step's stress ``a_n grad(u^n + delta)`` is a linear
    CR solution's, so its flux ``z`` is in RT0 with ``div z = -f_h``
    (Marini's identity), and the discrete gap ``eta_lin = I_h(u^{n+1}) -
    D_h(z)`` (``D_h``: the ``quadrature="mean"`` dual energy) bounds
    ``I_h(u^{n+1}) - min I_h``.  The solve stops once ``eta_lin <= GAMMA
    eta_bar^2`` (up to roundoff), where ``eta_bar^2`` is the
    :func:`~pdgap.estimators.eta_hat_sq` total of the vertex average of
    ``u^{n+1}`` (Dirichlet vertices set to ``vertex_dirichlet``, default
    zero) against ``z``.

    On the P1 space ``dual`` is a discrete dual value ``D_h(z)`` of the
    level, e.g. the CR flux's, so by weak duality ``I_h(u^n) - D_h(z)``
    bounds what any further step can gain.  The solve stops once a step
    gains at most ``GAMMA`` of that gap, up to ``1e-12 (|I_h(u^n)| +
    |D_h(z)|)``; a non-finite ``dual`` never stops it, and a P1 solve
    without ``dual`` raises :class:`ValueError`.
    """
    if problem.space == "p1" and dual is None:
        raise ValueError("a P1 flow solve needs the level's dual value")
    free = problem.free_mask
    step_solver = _RecycledSpdSolver()
    last = [None, None]  # u^n + delta and its gradient: after t = 1, u^n+1

    def linearize(u):
        grads = (last[1] if np.array_equal(last[0], u)
                 else problem.broken_gradient(u))
        slopes = problem.density.slope_ratio(
            np.sqrt(np.sum(grads ** 2, axis=-1)))
        A = problem.weighted_stiffness(slopes)

        def stress(step):
            last[0] = u.copy()
            last[0][free] += step
            last[1] = problem.broken_gradient(last[0])
            return slopes[:, None] * last[1]
        # A is symmetric, so A.T is its CSC form
        return A.T, step_solver.solve, stress

    def gap_stop(state):
        return state.stress is not None and _gap_below_tolerance(
            problem, state.u, state.stress(), state.energies[-1],
            vertex_dirichlet)

    def decrease_stop(state):
        energies = state.energies
        return len(energies) > 1 and bool(np.isfinite(dual)) and (
            energies[-2] - energies[-1] <= GAMMA * (energies[-1] - dual)
            + 1e-12 * (abs(energies[-1]) + abs(dual)))

    if problem.space == "cr":
        return _descend(problem, u0, "flow", linearize, gap_stop,
                        "discrete gap below tolerance", max_iter)
    return _descend(problem, u0, "flow", linearize, decrease_stop,
                    "energy decrease below tolerance", max_iter)


def _gap_below_tolerance(problem: DiscreteProblem, u: np.ndarray,
                         stress: np.ndarray, energy: float,
                         vertex_dirichlet: np.ndarray | None) -> bool:
    """The stop test ``eta_lin <= GAMMA eta_bar^2`` of the CR Kacanov solve
    (see :func:`gradient_flow_solve`); ``energy`` is ``I_h(u)``.  Its
    roundoff allowance ``1e-12 (|I_h| + |D_h|)`` lets an exactly solved
    level stop; a flux that fails the feasibility test never stops it."""
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


def solve_problem(problem: DiscreteProblem, solver: str = "newton", **kwargs):
    """Dispatch to :func:`newton_solve` or :func:`gradient_flow_solve`."""
    if solver == "newton":
        return newton_solve(problem, **kwargs)
    if solver == "flow":
        return gradient_flow_solve(problem, **kwargs)
    raise ValueError(f"unknown solver {solver!r}")
