"""Discrete convex minimization problems and their solvers.

:class:`DiscreteProblem` assembles the energy

    I(v) = sum_T |T| [ phi(grad v|_T) - f_T * v(x_T) ]

over the Crouzeix-Raviart space (``space="cr"``, one unknown per side
midpoint) or the conforming P1 space (``space="p1"``, one unknown per
vertex), with Dirichlet values eliminated.  Both solvers run one descent
loop with one linearisation and one step-length rule: ``u <- u + t delta``
with ``H_floor(u) delta = -DI(u)`` on the free unknowns (the density's
``d2phi(grad u, floor)`` assembled by :meth:`DiscreteProblem.hessian`),
and ``t`` from a line search to the energy's minimum along ``delta`` (a
regula falsi on the directional derivative until the strong Wolfe
curvature condition holds, accepted under Armijo).  They differ in the
floor and the stop rule:

* :func:`newton_solve` -- floor 0, the density's (possibly regularized)
  Hessian, stopped on the residual;
* :func:`gradient_flow_solve` -- floor :data:`FLOOR`, which makes the
  optimal-design Hessian SPD on its plateau, stopped on CR by the
  guaranteed discrete gap of its flux and on P1 once a step gains little
  against a given dual value.

On the CR space both report the elementwise stress of their last linear
solve (:attr:`SolverReport.stress`).  It solves a *linear* CR problem, so by
Marini's identity :func:`~pdgap.reconstruction.marini_reconstruct` turns it
into a flux in H(div) with ``div z = -f_h``, up to the linear solve's
backward error, however far the iterate is from the discrete minimizer.

Every linear system either solver meets is symmetric positive definite,
is assembled in CSC form without stored zeros, and is factorized by one
:class:`_SpdSolver` per nonlinear solve: the first system on a
minimum-degree ordering, the later ones on that same ordering while the
sparsity pattern stays.  Every flow step assembles and factorizes its
system afresh.  A Newton step does too, unless the step before halved the
residual norm: then it is a chord step on the kept factor of the last
fresh Hessian ``H(u_f)``, whose stress ``Dphi(grad u) + d2phi(grad u_f)
grad delta`` again solves a linear CR problem.  Every step is one direct
solve, checked against a 1e-12 backward-error bound on the unpermuted
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .estimators import dual_energy, eta_hat_sq, primal_energy
from .fespaces import CrFunction, P1Function, PwConstant, node_average
from .mesh import Triangulation
from .reconstruction import marini_reconstruct

__all__ = ["DiscreteProblem", "SolverReport", "newton_solve",
           "gradient_flow_solve", "solve_problem"]


def _largest_row_sum(A: sp.csc_matrix) -> float:
    """Largest absolute row sum of the CSC matrix ``A`` (zero if empty),
    summed from ``|A.data|`` by row index without a copy of ``A``."""
    if not A.shape[0]:
        return 0.0
    return float(np.bincount(A.indices, weights=np.abs(A.data),
                             minlength=A.shape[0]).max())


def _check_backward_error(A: sp.spmatrix, row_sum: float, x: np.ndarray,
                          b: np.ndarray) -> None:
    """Raise :class:`ArithmeticError` unless ``x`` is finite and meets
    ``|A x - b| <= 1e-12 (1 + |b| + |A| |x|)``, with ``|A| = row_sum`` the
    largest absolute row sum (:func:`_largest_row_sum`)."""
    residual = np.linalg.norm(A @ x - b)
    scale = np.linalg.norm(b) + row_sum * np.linalg.norm(x)
    if not np.isfinite(x).all() or residual > 1e-12 * (1.0 + scale):
        raise ArithmeticError(
            f"linear solve failed: residual {residual:.3e} vs scale {scale:.3e}")


#: Options of every SuperLU factorization (see :class:`_SpdSolver`).
_SUPERLU_OPTIONS = dict(diag_pivot_thresh=0.0, relax=1, panel_size=1,
                        options={"SymmetricMode": True})


class _SpdSolver:
    """Direct solves of the SPD systems of one nonlinear solve.

    Every system is factorized by symmetric-mode SuperLU with diagonal
    pivots and with neither relaxed supernodes nor panels (``relax=1,
    panel_size=1``): the supernodes of these 2-D finite-element matrices
    are tiny, so SciPy's defaults mostly add BLAS call overhead.  The last
    two leave the fill unchanged and cut the factorization time by about a
    third: on p = 1.2 CR Hessians of the uniformly refined L-shape, 28 ->
    17 ms at 9k, 170 -> 107 ms at 37k and 0.90 -> 0.56 s at 147k unknowns
    (one thread, median of 5).  ``relax=2`` was no faster than SciPy's
    default.

    The first system is factorized on a minimum-degree ordering of ``A +
    A^T``, which gives far less fill than the default column ordering.  A
    later system of the same sparsity pattern is factorized as ``P A P^T``
    in its natural order, with the same fill and without a new
    minimum-degree pass: on p = 1.2 CR Hessians, 12 -> 10 ms at 9k, 81 ->
    66 ms at 37k and 0.49 -> 0.45 s at 147k unknowns (one thread, median of
    21, 21 and 9).  The matrices the solvers meet are CSC, SuperLU's own
    format, and store no zeros (see :meth:`DiscreteProblem._assemble_free`),
    which would enter the ordering and the fill.

    The solver keeps the pattern, a copy of the ordering's ``perm_c``
    (SciPy's is a view that keeps the whole factor alive) and, from the
    first reuse on, the map that gathers ``P A P^T`` from ``A.data``.  It
    also keeps one factor: the object ``spla.splu`` returned for the last
    system, that system's matrix and its largest absolute row sum, so that
    :meth:`solve_kept` can solve again with that matrix.  :meth:`drop`
    frees it; :meth:`solve` drops it before it factorizes.
    """

    def __init__(self):
        self._pattern = self._perm_c = self._gather = None
        self._kept = None  # (factor, matrix, row sum, permuted?)

    @property
    def kept(self) -> bool:
        """Whether a factor is kept for :meth:`solve_kept`."""
        return self._kept is not None

    def drop(self) -> None:
        """Free the kept factor, e.g. before the next matrix is assembled."""
        self._kept = None

    def solve(self, A: sp.csc_matrix, b: np.ndarray) -> np.ndarray:
        """``x`` with ``A x = b`` for the SPD matrix ``A``, from a fresh
        factor that is then kept, checked by :func:`_check_backward_error`.
        Raises :class:`ArithmeticError` on an exactly zero pivot."""
        self._kept = None
        pattern = self._pattern
        reuse = (pattern is not None and np.array_equal(A.indptr, pattern[0])
                 and np.array_equal(A.indices, pattern[1]))
        factored = A
        if reuse:
            if self._gather is None:
                self._gather = self._gather_map()
            slots, indptr, indices, order = self._gather
            factored = sp.csc_matrix((A.data[slots], indices, indptr),
                                     shape=A.shape)
        try:
            lu = spla.splu(factored, permc_spec="NATURAL" if reuse
                           else "MMD_AT_PLUS_A", **_SUPERLU_OPTIONS)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise ArithmeticError(f"linear solve failed: {exc}") from exc
        if not reuse:
            self._pattern = A.indptr, A.indices
            self._perm_c = lu.perm_c.copy()
            self._gather = None
        self._kept = lu, A, _largest_row_sum(A), reuse
        return self.solve_kept(b)

    def solve_kept(self, b: np.ndarray) -> np.ndarray:
        """``x`` with ``A x = b`` for the kept factor's matrix ``A``,
        checked by :func:`_check_backward_error`."""
        lu, A, row_sum, permuted = self._kept
        if permuted:
            x = lu.solve(b[self._gather[3]])[self._perm_c]
        else:
            x = lu.solve(b)
        _check_backward_error(A, row_sum, x, b)
        return x

    def _gather_map(self):
        """``(slots, indptr, indices, order)``: ``P A P^T`` in CSC form has
        ``data = A.data[slots]``, and ``order`` is the inverse of
        ``perm_c``, which sends unknown ``j`` to position ``perm_c[j]``."""
        (A_indptr, A_indices), perm_c = self._pattern, self._perm_c
        n = A_indptr.size - 1
        cols = np.repeat(perm_c.astype(np.int64), np.diff(A_indptr))
        rows = perm_c[A_indices]
        slots = np.argsort(cols * n + rows)
        indptr = np.zeros(n + 1, dtype=A_indptr.dtype)
        np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
        order = np.empty_like(perm_c)
        order[perm_c] = np.arange(n)
        return slots, indptr, rows[slots].astype(A_indices.dtype), order


class DiscreteProblem:
    """Energy, gradient, and Hessian of the discrete minimization problem.

    Parameters
    ----------
    mesh : the triangulation.
    density : convex density with ``phi``/``dphi``/``phi_star`` and
        ``d2phi(a, floor)``, the Hessian at floor 0 (:mod:`.energy_models`).
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

    def hessian(self, u: np.ndarray, floor: float = 0.0) -> sp.csc_matrix:
        """Free-dof matrix (CSC) of the elementwise tensor
        ``density.d2phi(grad u, floor)``; the Hessian at ``floor = 0``."""
        tensor = self.density.d2phi(self.broken_gradient(u), floor)
        # batched B D B^T: about half the time of a three-operand einsum
        local = self.mesh.areas[:, None, None] * (
            self.basis_grads @ tensor @ self.basis_grads.transpose(0, 2, 1))
        return self._assemble_free(local)

    def weighted_stiffness(self, weights: np.ndarray) -> sp.csc_matrix:
        """Weighted stiffness; kept for pdbench/tracer.py, see ROADMAP 2(b)."""
        local = (self.mesh.areas * weights)[:, None, None] * np.einsum(
            "tid,tjd->tij", self.basis_grads, self.basis_grads)
        return self._assemble_free(local)

    @cached_property
    def _free_pattern(self):
        """CSC pattern of the free-dof matrix and the slot of each entry.

        Returns ``(indptr, indices, entries, slots)``: the local entries at
        flat positions ``entries`` of the ``(nt, 3, 3)`` local matrices are
        those coupling two free unknowns, and each is summed into
        ``data[slots]`` of the CSC matrix with sorted row indices.  The
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
        keys = cols[entries] * nfree + rows[entries]
        unique, slots = np.unique(keys, return_inverse=True)
        indptr = np.zeros(nfree + 1, dtype=np.int64)
        np.cumsum(np.bincount(unique // nfree, minlength=nfree),
                  out=indptr[1:])
        pattern = sp.csc_matrix((np.empty(unique.size), unique % nfree,
                                 indptr), shape=(nfree, nfree))
        return pattern.indptr, pattern.indices, entries, slots

    def _assemble_free(self, local: np.ndarray) -> sp.csc_matrix:
        """Sum the ``(nt, 3, 3)`` local matrices into the free-dof matrix.

        Exact zeros are not stored: where the tensor is a multiple of the
        identity (p = 2, the design density's quadratic branches) every CR
        coupling across a right angle vanishes, and a stored zero would
        still enter the fill-reducing ordering and the fill.
        """
        indptr, indices, entries, slots = self._free_pattern
        data = np.bincount(slots, weights=local.ravel()[entries],
                           minlength=indices.size)
        n = indptr.size - 1
        A = sp.csc_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))
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
    #: fresh factorizations of the solve's linear systems: one per step of
    #: the flow; Newton's kept-factor steps make none (see :func:`_descend`).
    factorizations: int = 0
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


#: Contraction of the free-residual norm under which a Newton step keeps the
#: factor: the next step reuses it if the last one cut the norm to at most
#: this fraction (the refresh rule of Kelley's ``nsold``, Solving Nonlinear
#: Equations with Newton's Method, SIAM 2003, Sec. 2.5).
REFRESH = 0.5


def _descend(problem: DiscreteProblem, u0, method: str, floor: float, stop,
             reason: str, max_iter: int,
             chord: bool = False) -> tuple[np.ndarray, SolverReport]:
    """The one descent loop: ``u <- u + t delta``, ``H delta = -DI(u)``.

    ``H = problem.hessian(u_f, floor)`` for an iterate ``u_f``, and the
    stress of the linear problem that ``delta`` solves is ``Dphi(grad u) +
    T grad delta``, with ``T = d2phi(grad u_f, floor)`` the tensor ``H``
    assembles.  Every ``delta`` is a direct solve of one
    :class:`_SpdSolver`, which keeps its ordering while the pattern of
    ``H`` stays; ``t`` comes from :func:`_line_search`.

    A step assembles and factorizes ``H`` at ``u_f = u``, except that with
    ``chord`` (Newton) it solves on the kept factor of the last such ``H``
    (a chord step) when the last step cut the free-residual norm to at most
    :data:`REFRESH` of its value and Armijo can decide the chord direction's
    full step in floating point, ``I(u) + 1e-4 slope < I(u)``.  The kept
    factor is dropped before the next ``H`` is assembled, so that at most
    one is alive.

    The solve ends with ``reason`` once ``stop(state)`` holds before a step,
    or after ``max_iter`` steps.  On CR, a solve without a step makes one
    linear solve for the report's stress."""
    u = problem.initial_state() if u0 is None else problem.impose_dirichlet(u0)
    free = problem.free_mask
    grad = problem.gradient(u)
    state = _Descent(u, [float(np.linalg.norm(grad[free]))],
                     [problem.energy(u)])
    solver = _SpdSolver()
    factorizations = 0
    origin = None  # u_f, the iterate the kept factor's H was assembled at

    def stress(u, origin, step):
        delta = np.zeros(problem.num_dofs)
        delta[free] = step
        grads = problem.broken_gradient(u)
        at = grads if origin is u else problem.broken_gradient(origin)
        return problem.density.dphi(grads) + np.einsum(
            "tde,te->td", problem.density.d2phi(at, floor),
            problem.broken_gradient(delta))

    def fresh(residual):
        nonlocal origin, factorizations
        solver.drop()
        origin = state.u
        factorizations += 1
        return solver.solve(problem.hessian(origin, floor), -residual)

    while not (met := stop(state)) and len(state.energies) <= max_iter:
        residual = grad[free]
        step = None
        if (chord and solver.kept
                and state.norms[-1] <= REFRESH * state.norms[-2]):
            step = solver.solve_kept(-residual)
            energy = state.energies[-1]
            if not energy + 1e-4 * float(residual @ step) < energy:
                step = None
        if step is None:
            step = fresh(residual)
        slope = float(residual @ step)
        state.stress = partial(stress, state.u, origin, step)
        if slope >= 0:  # not a descent direction; fall back to steepest descent
            step = -residual
            slope = -float(residual @ residual)
        _, state.u, grad, energy = _line_search(
            problem, state.u, step, slope, state.energies[-1], state.norms[-1])
        state.norms.append(float(np.linalg.norm(grad[free])))
        state.energies.append(energy)
    if problem.space == "cr" and state.stress is None:
        state.stress = partial(stress, state.u, state.u, fresh(grad[free]))
    report = SolverReport(
        method=method, converged=bool(met),
        iterations=len(state.energies) - 1, energy=state.energies[-1],
        residual_norms=state.norms, energies=state.energies,
        stop_reason=reason if met else "iteration limit reached",
        factorizations=factorizations,
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
        if energy <= target < energy0:
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
    """Newton iteration: :func:`_descend` with floor 0, the Hessian.

    Stops once the free-residual norm drops below ``tol_abs`` or below
    ``tol_rel`` times its initial value, so a start at the exact solution
    takes no step.  A step that follows one which cut the residual norm to
    at most :data:`REFRESH` of its value solves on the kept factor of the
    last Hessian, ``H(u_f) delta = -DI(u)`` (a chord step), if Armijo can
    decide that direction's full step; any other step factorizes ``H(u)``.
    On the CR space the report's ``stress`` is that of the last Newton
    system: ``Dphi(grad u) + D2phi(grad u_f) grad delta``, with ``u_f = u``
    after a fresh factorization.
    """
    def stop(state):
        return state.norms[-1] <= max(tol_abs, tol_rel * state.norms[0])

    return _descend(problem, u0, "newton", 0.0, stop,
                    "residual below tolerance", max_iter, chord=True)


#: Floor of the flow's Hessian ``d2phi(a, FLOOR)``, chosen by the CR step
#: count of the design-flow benchmark workload.
FLOOR = 0.1

#: Stop factor of the flow solve: against the estimate on CR, against the
#: gap to the level's dual value that is left on P1.
GAMMA = 0.01


def gradient_flow_solve(problem: DiscreteProblem, u0=None, tau: float = 1.0,
                        max_iter: int = 500,
                        vertex_dirichlet: np.ndarray | None = None,
                        dual: float | None = None,
                        ) -> tuple[np.ndarray, SolverReport]:
    """Floored Newton iteration with a gap stop rule.

    :func:`_descend` with floor :data:`FLOOR`: each step solves
    ``hessian(u, FLOOR) delta = -DI(u)``, which is SPD also where the
    optimal-design Hessian is singular, and the line search keeps the
    energy monotone.  ``tau`` is accepted and ignored:
    ``pdbench/workloads.py`` passes it.

    On the CR space the step's stress ``Dphi(grad u^n) + T grad delta`` is a
    linear CR solution's, so its flux ``z`` is in RT0 with ``div z = -f_h``
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
        return _descend(problem, u0, "flow", FLOOR, gap_stop,
                        "discrete gap below tolerance", max_iter)
    return _descend(problem, u0, "flow", FLOOR, decrease_stop,
                    "energy decrease below tolerance", max_iter)


def _gap_below_tolerance(problem: DiscreteProblem, u: np.ndarray,
                         stress: np.ndarray, energy: float,
                         vertex_dirichlet: np.ndarray | None) -> bool:
    """The stop test ``eta_lin <= GAMMA eta_bar^2`` of the CR flow solve
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
    eta_bar_sq = eta_hat_sq(node_average(u_cr, dirichlet_values=gv), z,
                            problem.density, problem.load).eta_hat_sq_total
    roundoff = 1e-12 * (abs(energy) + abs(dual))
    return energy - dual <= GAMMA * eta_bar_sq + roundoff


def solve_problem(problem: DiscreteProblem, solver: str = "newton", **kwargs):
    """Dispatch to :func:`newton_solve` or :func:`gradient_flow_solve`."""
    if solver == "newton":
        return newton_solve(problem, **kwargs)
    if solver == "flow":
        return gradient_flow_solve(problem, **kwargs)
    raise ValueError(f"unknown solver {solver!r}")
