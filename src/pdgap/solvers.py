"""Discrete convex minimization problems and their solvers.

:class:`DiscreteProblem` assembles the energy

    I(v) = sum_T |T| [ phi(grad v|_T) - f_T * v(x_T) ]

over the Crouzeix-Raviart space (``space="cr"``, one unknown per side
midpoint) or the conforming P1 space (``space="p1"``, one unknown per
vertex), with Dirichlet values eliminated.  Two solvers are provided:

* :func:`newton_solve` -- damped Newton with Armijo backtracking on the
  energy, using the density's (possibly regularized) Hessian;
* :func:`gradient_flow_solve` -- semi-implicit discrete gradient flow: a
  lumped mass matrix damps a weighted-Laplacian (secant slope) iteration,
  which decreases the energy monotonically for the densities used here.

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

from .fespaces import CrFunction, P1Function, PwConstant
from .mesh import Triangulation

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


class _RecycledSpdSolver:
    """Direct solves with factorization reuse for slowly varying SPD systems.

    The first system is factorized as in :func:`linear_solve` (symmetric
    mode, minimum-degree ordering); subsequent ones are solved by conjugate
    gradients preconditioned with the retained factorization (consecutive
    gradient-flow matrices differ only through the lagged weights), and the
    factorization is refreshed once it degrades.  Every solve meets the same
    1e-12 backward-error contract as :func:`linear_solve`: a CG result whose
    true residual misses it is replaced by a fresh factorization's solve.
    """

    def __init__(self, refresh_after: int = 20):
        self._lu = None
        self._refresh_after = refresh_after

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
        if count > self._refresh_after:
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
            self.basis_grads = -2.0 * mesh.barycentric_gradients[:, [2, 0, 1], :]
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
        return np.einsum("tj,tjd->td", u[self.dof_map], self.basis_grads)

    # -- energy and derivatives --------------------------------------------

    def energy(self, u: np.ndarray) -> float:
        grads = self.broken_gradient(u)
        means = u[self.dof_map].mean(axis=1)
        return float(self.mesh.areas @ (self.density.phi(grads)
                                        - self.load.values * means))

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
        local = self.mesh.areas[:, None, None] * np.einsum(
            "tid,tde,tje->tij", self.basis_grads, d2, self.basis_grads)
        return self._assemble_free(local)

    def weighted_stiffness(self, weights: np.ndarray,
                           shift: np.ndarray) -> sp.csr_matrix:
        """Stiffness matrix with elementwise weights, on the free unknowns,
        plus ``shift`` (one value per free unknown) on the diagonal.

        The matrix is symmetric entry for entry, so its transpose is its CSC
        form.
        """
        local = (self.mesh.areas * weights)[:, None, None] * np.einsum(
            "tid,tjd->tij", self.basis_grads, self.basis_grads)
        return self._assemble_free(local, shift)

    @cached_property
    def _free_pattern(self):
        """CSR pattern of the free-dof matrix and the slot of each entry.

        Returns ``(indptr, indices, entries, slots, diagonal)``: the local
        entries at flat positions ``entries`` of the ``(nt, 3, 3)`` local
        matrices are those coupling two free unknowns, and each is summed
        into ``data[slots]`` of the CSR matrix with sorted column indices;
        ``data[diagonal]`` is the diagonal.  The index arrays already have
        SciPy's index dtype, so building a matrix from them converts
        nothing.
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
        diagonal = np.flatnonzero(unique // nfree == unique % nfree)
        return pattern.indptr, pattern.indices, entries, slots, diagonal

    def _assemble_free(self, local: np.ndarray,
                       shift: np.ndarray | None = None) -> sp.csr_matrix:
        indptr, indices, entries, slots, diagonal = self._free_pattern
        data = np.bincount(slots, weights=local.ravel()[entries],
                           minlength=indices.size)
        if shift is not None:
            data[diagonal] += shift
        n = indptr.size - 1
        return sp.csr_matrix((data, indices.copy(), indptr.copy()),
                             shape=(n, n))

    def lumped_mass(self) -> np.ndarray:
        """Diagonal (lumped) mass: |T|/3 from each incident element."""
        out = np.zeros(self.num_dofs)
        np.add.at(out, self.dof_map.ravel(),
                  np.repeat(self.mesh.areas / 3.0, 3))
        return out

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


def newton_solve(problem: DiscreteProblem, u0=None, tol_abs: float = 1e-8,
                 tol_rel: float = 1e-10, max_iter: int = 60) -> tuple[np.ndarray, SolverReport]:
    """Damped Newton iteration with Armijo backtracking on the energy.

    Stops once the free-residual norm drops below ``tol_abs`` or below
    ``tol_rel`` times its initial value.  Returns the final state and a
    report; a start at the exact solution reports zero iterations.  If the
    iteration limit is reached, the iterate with the smallest residual seen
    so far is returned (with ``converged=False``).  Once the Armijo decrease
    ``1e-4 * t * slope`` vanishes against the energy in floating point, the
    energy cannot rank the trials, and a trial is accepted if it lowers the
    free-residual norm instead.
    """
    u = problem.initial_state() if u0 is None else problem.impose_dirichlet(u0)
    free = problem.free_mask
    res0 = problem.residual_norm(u)
    norms = [res0]
    energies = [problem.energy(u)]
    threshold = max(tol_abs, tol_rel * res0)
    iterations = 0
    best_u, best_norm = u, res0
    reason = "residual below tolerance"
    while norms[-1] > threshold:
        if iterations >= max_iter:
            reason = "iteration limit reached"
            u = best_u  # hand back the best iterate seen
            break
        grad = problem.gradient(u)[free]
        step = linear_solve(problem.hessian(u), -grad)
        slope = float(grad @ step)
        if slope >= 0:  # not a descent direction; fall back to steepest descent
            step = -grad
            slope = -float(grad @ grad)
        energy0 = energies[-1]
        t = 1.0
        for _ in range(40):
            trial = u.copy()
            trial[free] += t * step
            trial_energy = problem.energy(trial)
            trial_norm = None
            target = energy0 + 1e-4 * t * slope
            if trial_energy <= target:
                break
            if target == energy0:
                # the decrease is below the energy's roundoff, so Armijo
                # cannot decide; accept a trial that lowers the residual
                trial_norm = problem.residual_norm(trial)
                if trial_norm < norms[-1]:
                    break
            t *= 0.5
        u = trial
        iterations += 1
        norms.append(problem.residual_norm(u) if trial_norm is None
                     else trial_norm)
        energies.append(trial_energy)
        if norms[-1] < best_norm:
            best_u, best_norm = u, norms[-1]
    final_norm = best_norm if reason == "iteration limit reached" else norms[-1]
    final_energy = problem.energy(u) if reason == "iteration limit reached" \
        else energies[-1]
    converged = final_norm <= threshold
    report = SolverReport(method="newton", converged=converged,
                          iterations=iterations, energy=final_energy,
                          residual_norms=norms, energies=energies,
                          stop_reason=reason)
    return u, report


def gradient_flow_solve(problem: DiscreteProblem, u0=None, tau: float = 1.0,
                        eps_stop: float | None = None,
                        max_iter: int = 500) -> tuple[np.ndarray, SolverReport]:
    """Semi-implicit gradient flow / damped secant-slope iteration.

    Each step solves ``(M/tau + K_n) u^{n+1} = (M/tau) u^n + b`` on the free
    unknowns, where ``M`` is the lumped mass matrix, ``K_n`` the stiffness
    matrix weighted by the secant slopes ``psi'(|grad u^n|)/|grad u^n|``, and
    ``b`` the load (with Dirichlet elimination).  Stops when the broken H1
    seminorm of the increment per unit time drops below ``eps_stop``
    (default: the squared average element diameter divided by 20).
    """
    mesh = problem.mesh
    if eps_stop is None:
        eps_stop = float(mesh.diameters.mean()) ** 2 / 20.0
    u = problem.initial_state() if u0 is None else problem.impose_dirichlet(u0)
    free = np.flatnonzero(problem.free_mask)
    mass = problem.lumped_mass()[free]
    load_vec = np.zeros(problem.num_dofs)
    np.add.at(load_vec, problem.dof_map.ravel(),
              np.repeat(mesh.areas * problem.load.values / 3.0, 3))

    coupling = _fixed_value_coupling(problem)

    energies = [problem.energy(u)]
    rate = np.inf
    steps = 0
    reason = "increment rate below tolerance"
    step_solver = _RecycledSpdSolver()
    while True:
        slopes = problem.density.slope_ratio(
            np.sqrt(np.sum(problem.broken_gradient(u) ** 2, axis=-1)))
        A = problem.weighted_stiffness(slopes, mass / tau)
        # couplings across right angles vanish exactly; stored zeros would
        # still enter the fill-reducing ordering
        A.eliminate_zeros()
        rhs = load_vec[free] + mass * u[free] / tau
        if coupling is not None:
            rhs -= _weighted_form_fixed_part(problem, slopes, coupling)
        unew = u.copy()
        unew[free] = step_solver.solve(A.T, rhs)  # A is symmetric
        delta = unew - u
        rate = problem.increment_seminorm(delta) / tau
        u = unew
        steps += 1
        energies.append(problem.energy(u))
        if rate <= eps_stop:
            break
        if steps >= max_iter:
            reason = "iteration limit reached"
            break
    report = SolverReport(method="flow", converged=rate <= eps_stop,
                          iterations=steps, energy=energies[-1],
                          energies=energies,
                          residual_norms=[problem.residual_norm(u)],
                          stop_reason=reason)
    return u, report


def _fixed_value_coupling(problem: DiscreteProblem) -> np.ndarray | None:
    """(nt, 3) unweighted local stiffness applied to the fixed values.

    ``None`` when every fixed value is zero, so that the coupling vanishes.
    """
    fixed_vals = np.where(problem.fixed_mask, problem.dirichlet_values, 0.0)
    if not np.any(fixed_vals):
        return None
    grads = np.einsum("tj,tjd->td", fixed_vals[problem.dof_map],
                      problem.basis_grads)
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
