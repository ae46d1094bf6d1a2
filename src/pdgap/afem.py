"""Adaptive solve-estimate-mark-refine loop with Doerfler marking.

Each iteration computes a nonconforming minimizer, its explicit flux
reconstruction, and a conforming candidate; evaluates the guaranteed gap
indicators; records a trace row; and refines a minimal marked set (or all
elements when running the uniform baseline).

The trace schema is :class:`AfemRecord`: its fields, in order, are the
columns of ``trace.csv`` and their annotations the cell types, which the
writer, :func:`read_trace_csv` and :meth:`AfemTrace.column` all follow.
:func:`write_csv` writes that file and every per-level dump.
"""

from __future__ import annotations

import csv
import time
from dataclasses import astuple, dataclass, field, fields
from typing import Any, Callable, get_type_hints

import numpy as np

from .energy_models import OptimalDesignDensity
from .estimators import (GapIndicators, ResidualIndicators, dual_energy,
                         eta_hat_sq, eta_res_sq, primal_energy, rho_F_sq,
                         rho_I_sq)
from .fespaces import (CrFunction, P1Function, PwConstant, node_average,
                       prolong_cr)
from .mesh import Triangulation, refine
from .quadrature import RULE_ORDER4
from .reconstruction import MariniField, marini_reconstruct
from .solvers import DiscreteProblem, SolverReport, solve_problem

__all__ = [
    "AfemConfig", "AfemProblem", "AfemRecord", "AfemTrace", "LevelState",
    "afem_run", "conforming_candidate", "dorfler_mark", "read_trace_csv",
    "write_csv",
]

_CONFORMING_MODES = ("minimize", "average")
_SOLVERS = ("newton", "flow")
_MARKERS = ("pd", "residual")


@dataclass(frozen=True)
class AfemConfig:
    """Parameters of one adaptive run.

    ``theta`` is the bulk-marking parameter in (0,1); the loop runs
    ``max_iterations`` levels unless a solver fails, a flux fails the dual
    feasibility test or nothing is marked.
    ``conforming`` selects how the conforming candidate is built
    ("minimize": solve the conforming minimization problem; "average":
    vertex-average the nonconforming minimizer).  ``solver``/
    ``solver_options`` configure the nonlinear solver used at every level;
    ``mark_with`` chooses the marking indicators ("pd": guaranteed gap
    indicators, "residual": residual indicators); ``uniform`` replaces
    marking by all elements; ``interior_node`` also splits marked elements
    at their barycenter during refinement.
    """

    theta: float = 0.5
    max_iterations: int = 20
    conforming: str = "minimize"
    solver: str = "newton"
    solver_options: dict = field(default_factory=dict)
    mark_with: str = "pd"
    uniform: bool = False
    interior_node: bool = False

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.conforming not in _CONFORMING_MODES:
            raise ValueError(f"conforming must be one of {_CONFORMING_MODES}")
        if self.solver not in _SOLVERS:
            raise ValueError(f"solver must be one of {_SOLVERS}")
        if self.mark_with not in _MARKERS:
            raise ValueError(f"mark_with must be one of {_MARKERS}")


@dataclass(frozen=True)
class AfemProblem:
    """Problem description consumed by :func:`afem_run`.

    ``load`` is either a constant or a callable on point arrays; it is
    projected to its elementwise integral means on every mesh.  ``dirichlet``
    (callable or ``None`` for homogeneous data) supplies boundary values,
    evaluated at the Dirichlet side midpoints for the nonconforming space
    and at the Dirichlet vertices for the conforming one.
    ``exact_gradient`` enables the two distance-to-exact error columns:
    ``rho_sq``, the F-metric error (:func:`~pdgap.estimators.rho_F_sq`),
    and ``rho_I_sq``, the energy distance
    (:func:`~pdgap.estimators.rho_I_sq`).  The constant-free gap
    bound is about ``rho_I_sq``; for p < 2 ``rho_sq`` may exceed the
    estimator; without it both columns are not-a-number.  The residual
    indicators and the F-metric use the density's exponent ``p``, or 2.
    """

    mesh: Triangulation
    density: Any
    load: Any
    dirichlet: Callable | None = None
    exact_gradient: Callable | None = None
    label: str = ""

    def load_means(self, mesh: Triangulation, points) -> PwConstant:
        """Elementwise integral means of the load; a callable load is
        integrated at ``points``, the order-4 rule's points on ``mesh``
        (unused, and may be ``None``, for a constant load)."""
        if callable(self.load):
            return PwConstant(mesh, self.load(points) @ RULE_ORDER4.weights)
        return PwConstant(mesh, np.full(mesh.num_triangles, float(self.load)))

    def side_dirichlet(self, mesh: Triangulation) -> np.ndarray:
        return self._dirichlet_at(mesh.side_midpoints,
                                  mesh.dirichlet_side_mask)

    def vertex_dirichlet(self, mesh: Triangulation) -> np.ndarray:
        return self._dirichlet_at(mesh.vertices, mesh.dirichlet_vertex_mask)

    def _dirichlet_at(self, points: np.ndarray,
                      mask: np.ndarray) -> np.ndarray:
        """The data at the ``points`` where ``mask`` holds, the only entries
        a solver or an average reads; zero elsewhere and for ``None``."""
        values = np.zeros(mask.size)
        if self.dirichlet is not None:
            values[mask] = self.dirichlet(points[mask])
        return values

    def growth_exponent(self) -> float:
        return float(getattr(self.density, "p", 2.0))


@dataclass(frozen=True)
class AfemRecord:
    """One trace row: the fields, in order, are the trace CSV's columns,
    and each annotation is the type of that column's cells."""

    k: int
    N: int
    elements: int
    eta_hat_sq: float
    eta_res_sq: float
    rho_sq: float
    rho_I_sq: float
    I_primal: float
    D_dual: float
    discrete_gap: float
    seconds: float


#: Trace CSV column names, in file order.
CSV_COLUMNS = tuple(f.name for f in fields(AfemRecord))
#: The cell type of each trace column.
_CELL_TYPES = get_type_hints(AfemRecord)


def write_csv(path, header, rows) -> None:
    """Write a CSV file: the ``header`` names, then one line per row.

    Every cell is formatted with ``format(cell, ".17g")``: floats round-trip
    exactly and integers print as plain digits.
    """
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(cell, ".17g") for cell in row) + "\n")


@dataclass
class LevelState:
    """Discrete fields of the last completed iteration (for dumps/tests):
    the level's gap indicators of ``candidate`` and ``flux``, and the
    residual indicators of ``candidate``."""

    mesh: Triangulation
    f_h: PwConstant
    u_cr: CrFunction
    flux: MariniField
    candidate: P1Function
    indicators: GapIndicators
    residual: ResidualIndicators


@dataclass
class AfemTrace:
    """Recorded adaptive run: per-iteration rows plus metadata.

    ``problem`` is the problem's label.  ``cr_energies`` holds the
    nonconforming minimal energies (one per recorded iteration; not a CSV
    column).  ``failed``/``failure_reason`` flag a solver breakdown or an
    infeasible flux, in which case the rows cover only the recorded
    iterations.  ``final`` keeps the discrete fields of the last recorded
    iteration.
    """

    problem: str = ""
    records: list[AfemRecord] = field(default_factory=list)
    cr_energies: list[float] = field(default_factory=list)
    failed: bool = False
    failure_reason: str = ""
    final: LevelState | None = None

    def column(self, name: str) -> np.ndarray:
        """Values of one trace column over all rows, as an array of the
        column's cell type; :class:`KeyError` if ``name`` is no column."""
        dtype = _CELL_TYPES[name]
        return np.array([getattr(r, name) for r in self.records], dtype=dtype)

    def to_csv(self, path) -> None:
        write_csv(path, CSV_COLUMNS, map(astuple, self.records))


def read_trace_csv(path) -> list[AfemRecord]:
    """Read trace rows back; floats round-trip exactly (17 significant
    digits)."""
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != CSV_COLUMNS:
        raise ValueError("trace file header does not match the trace schema")
    types = [_CELL_TYPES[name] for name in CSV_COLUMNS]
    out = []
    for row in rows[1:]:
        if len(row) != len(CSV_COLUMNS):
            raise ValueError("malformed trace row")
        out.append(AfemRecord(*(cast(cell) for cast, cell in zip(types, row))))
    return out


def dorfler_mark(indicators, theta: float) -> np.ndarray:
    """Minimal-cardinality bulk marking.

    Returns the smallest set ``M`` of element ids (ascending) whose
    indicator sum reaches ``theta**2`` times the total, realized by a
    descending sort with ties broken toward smaller ids and a greedy prefix.
    All-zero indicators give an empty set; a negative or non-finite
    indicator raises :class:`ValueError`.
    """
    vals = np.asarray(indicators, dtype=float)
    if vals.ndim != 1:
        raise ValueError("indicators must be a flat per-element array")
    if not np.all(np.isfinite(vals) & (vals >= 0.0)):
        raise ValueError("indicators must be finite and nonnegative")
    total = float(vals.sum())
    if total <= 0.0:
        return np.empty(0, dtype=int)
    order = np.argsort(-vals, kind="stable")
    csum = np.cumsum(vals[order])
    target = theta ** 2 * total
    first = int(np.searchsorted(csum, target, side="left"))
    count = min(first + 1, int(np.count_nonzero(vals)))
    return np.sort(order[:count])


def conforming_candidate(u: CrFunction, density, f_h: PwConstant,
                         mode: str = "minimize",
                         vertex_dirichlet: np.ndarray | None = None,
                         solver: str = "newton", solver_options=None,
                         flux: MariniField | None = None,
                         ) -> tuple[P1Function, SolverReport | None]:
    """Conforming approximation from a nonconforming minimizer.

    ``"average"`` vertex-averages ``u`` and overrides Dirichlet vertices
    with the supplied boundary values (zero if omitted), so the result
    always satisfies the boundary condition.  ``"minimize"`` solves the
    conforming minimization problem (same density and load), started from
    the vertex average, and returns its solver report alongside.  With the
    flow solver it needs ``flux``, a feasible dual field of the level: its
    discrete dual value ``dual_energy(flux, ..., boundary_values=<side
    means of the averaged trace>, quadrature="mean")``, computed once,
    lower-bounds the conforming energy and stops the P1 flow solve (see
    :func:`~pdgap.solvers.gradient_flow_solve`).
    """
    mesh = u.mesh
    gv = (np.zeros(mesh.num_vertices) if vertex_dirichlet is None
          else np.asarray(vertex_dirichlet, dtype=float))
    averaged = node_average(u, dirichlet_values=gv)
    if mode == "average":
        return averaged, None
    if mode == "minimize":
        problem = DiscreteProblem(mesh, density, f_h, space="p1",
                                  dirichlet=gv)
        options = dict(solver_options or {})
        if solver == "flow" and flux is not None:
            options["dual"] = dual_energy(
                flux, density, f_h,
                boundary_values=_trace_side_means(averaged),
                quadrature="mean")
        state, report = solve_problem(problem, solver=solver,
                                      u0=averaged.values, **options)
        return P1Function(mesh, state), report
    raise ValueError(f"unknown conforming mode {mode!r}")


def _trace_side_means(v: P1Function) -> np.ndarray:
    """Side means of a conforming function (exact: endpoint average)."""
    mesh = v.mesh
    return 0.5 * (v.values[mesh.sides[:, 0]] + v.values[mesh.sides[:, 1]])


def _error_columns(problem: AfemProblem, candidate: P1Function,
                   points: np.ndarray | None) -> tuple[float, float]:
    """The ``rho_sq`` and ``rho_I_sq`` columns of one level.  The exact
    gradient is evaluated once, at the order-4 ``points`` of the level
    (built here if ``None``), and shared by both measures."""
    if problem.exact_gradient is None:
        return float("nan"), float("nan")
    if points is None:
        points = RULE_ORDER4.points(candidate.mesh.triangle_coords)
    exact = np.asarray(problem.exact_gradient(points), dtype=float)
    return (rho_F_sq(candidate, exact, problem.growth_exponent()),
            rho_I_sq(candidate, exact, problem.density))


def afem_run(problem: AfemProblem, cfg: AfemConfig) -> AfemTrace:
    """Run the adaptive loop and record one trace row per iteration.

    Per iteration: minimize over the nonconforming space (warm-started from
    the previous level by midpoint evaluation), reconstruct the dual flux
    from the stress of the solver's last linear solve (feasible whether or
    not that solve reached the minimizer), build the conforming candidate
    (the flow solver's P1 solve stops against that flux's discrete dual
    value), evaluate the guaranteed indicators and energies, and record.
    Unless it was the last level, the loop then marks (Doerfler on the
    configured indicators, or every element with ``cfg.uniform``) and
    refines.  A solver failure at any level stops the run with the rows
    recorded so far and ``failed`` set; so does a flux that fails the
    dual feasibility test, after its level's row (``eta_hat_sq`` +inf,
    ``D_dual`` -inf) is recorded.  The run is deterministic: the
    ``seconds`` column, the solve-to-estimate span of each iteration, is
    the only run-to-run-dependent column.  Newton on the optimal-design
    density raises ``ValueError`` before any level: its plateau Hessian is
    singular, so the last Newton system may have no solution.
    """
    if cfg.solver == "newton" and isinstance(problem.density,
                                             OptimalDesignDensity):
        raise ValueError('the optimal-design density needs solver="flow": '
                         "its Hessian is singular on the plateau")
    trace = AfemTrace(problem=problem.label)
    mesh = problem.mesh
    previous: CrFunction | None = None

    for k in range(cfg.max_iterations):
        started = time.perf_counter()
        # the level's order-4 points (built later if only rho needs them)
        points = (RULE_ORDER4.points(mesh.triangle_coords)
                  if callable(problem.load) else None)
        f_h = problem.load_means(mesh, points)
        cr_problem = DiscreteProblem(mesh, problem.density, f_h, space="cr",
                                     dirichlet=problem.side_dirichlet(mesh))
        warm = (None if previous is None
                else prolong_cr(previous, mesh).values)
        vertex_dirichlet = problem.vertex_dirichlet(mesh)
        options = dict(cfg.solver_options)
        if cfg.solver == "flow":  # its stop test averages the iterate
            options["vertex_dirichlet"] = vertex_dirichlet
        state, report = solve_problem(cr_problem, solver=cfg.solver,
                                      u0=warm, **options)
        if not report.converged:
            trace.failed = True
            trace.failure_reason = (
                f"{cfg.solver} solver did not converge at iteration {k} "
                f"({report.stop_reason}, residual {report.residual_norms[-1]:.3e})")
            break
        u_cr = CrFunction(mesh, state)
        flux = marini_reconstruct(report.stress, f_h)
        candidate, conf_report = conforming_candidate(
            u_cr, problem.density, f_h, mode=cfg.conforming,
            vertex_dirichlet=vertex_dirichlet,
            solver=cfg.solver, solver_options=cfg.solver_options, flux=flux)
        if conf_report is not None and not conf_report.converged:
            trace.failed = True
            trace.failure_reason = (
                f"conforming {cfg.solver} solver did not converge at "
                f"iteration {k} ({conf_report.stop_reason})")
            break

        indicators = eta_hat_sq(candidate, flux, problem.density, f_h)
        residual = eta_res_sq(candidate, f_h, problem.growth_exponent())
        primal = primal_energy(candidate, problem.density, f_h)
        dual = dual_energy(flux, problem.density, f_h,
                           boundary_values=_trace_side_means(candidate))
        seconds = time.perf_counter() - started
        rho, rho_I = _error_columns(problem, candidate, points)

        trace.records.append(AfemRecord(
            k=k, N=mesh.num_vertices, elements=mesh.num_triangles,
            eta_hat_sq=indicators.eta_hat_sq_total,
            eta_res_sq=residual.eta_res_sq_total,
            rho_sq=rho, rho_I_sq=rho_I,
            I_primal=primal, D_dual=dual, discrete_gap=primal - dual,
            seconds=seconds))
        trace.cr_energies.append(report.energy)
        trace.final = LevelState(mesh=mesh, f_h=f_h, u_cr=u_cr, flux=flux,
                                 candidate=candidate, indicators=indicators,
                                 residual=residual)
        if not np.isfinite(dual):
            trace.failed = True
            trace.failure_reason = (
                f"the flux of iteration {k} fails the dual feasibility test "
                "(divergence, normal continuity or Neumann flux)")
            break

        if k == cfg.max_iterations - 1:
            break

        if cfg.uniform:
            marked = np.arange(mesh.num_triangles)
        else:
            mark_values = (indicators.eta_hat_sq if cfg.mark_with == "pd"
                           else residual.eta_res_sq)
            marked = dorfler_mark(mark_values, cfg.theta)
            if marked.size == 0:
                break
            # minimality: dropping the smallest marked indicator must break
            # the bulk inequality (holds by construction of the greedy prefix)
            bulk = cfg.theta ** 2 * float(np.sum(mark_values))
            in_set = float(np.sum(mark_values[marked]))
            if in_set < bulk:
                raise RuntimeError(
                    f"marked set at iteration {k} misses the bulk criterion")
            if (in_set - float(np.min(mark_values[marked])) >= bulk
                    and marked.size > 1):
                raise RuntimeError(
                    f"marked set at iteration {k} is not minimal")

        refined = refine(mesh, marked, interior_node=cfg.interior_node)
        if refined.num_vertices <= mesh.num_vertices:
            raise RuntimeError(
                f"refinement at iteration {k} added no vertices")
        previous = u_cr
        mesh = refined

    return trace
