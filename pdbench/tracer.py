"""Per-layer tracing of one study, from outside the ``pdgap`` package.

:meth:`Tracer.install` rebinds the public entry points of every ``pdgap``
module (module attributes such as ``pdgap.afem.refine``, methods of
``DiscreteProblem``, ``Triangulation`` and the densities, and the
``scipy.sparse.linalg`` entry points as ``pdgap.solvers`` sees them) to
wrappers that record a span per call.  Spans are kept in memory as
``(name, start, end, parent)`` rows and written out once the study ends.
:meth:`Tracer.metrics` turns them into per-layer self times, counts and
ratios.  Nothing under ``src/`` is modified; the wrappers live only in the
process that imports this module.
"""

from __future__ import annotations

import functools
import time
import types
from collections import Counter

#: Per-layer metrics, in print order: name -> (unit, what it measures).
LAYER_METRICS = {
    "afem.mark_s": ("s", "dorfler_mark"),
    "afem.marked": ("count", "elements marked, summed over levels"),
    "afem.levels": ("count", "adaptive levels completed"),
    "afem.loop_self_s": ("s", "afem_run minus its child spans"),
    "mesh.build_s": ("s", "Triangulation.__init__"),
    "mesh.refine_s": ("s", "refine minus its builds"),
    "mesh.closure_ratio": ("1", "elements added per element marked"),
    "mesh.elements_final": ("count", "elements at the last level"),
    "quadrature.points_s": ("s", "TriangleRule.points"),
    "fespaces.project_s": ("s", "AfemProblem.load_means (project_pw)"),
    "fespaces.prolong_s": ("s", "prolong_cr"),
    "fespaces.average_s": ("s", "node_average"),
    "energy_models.phi_s": ("s", "density phi"),
    "energy_models.dphi_s": ("s", "density dphi"),
    "energy_models.phi_star_s": ("s", "density phi_star"),
    "energy_models.linearize_s": ("s", "density d2phi and slope_ratio"),
    "energy_models.calls": ("count", "density method calls"),
    "solvers.cr_solve_s": ("s", "nonconforming solve, inclusive"),
    "solvers.conforming_solve_s": ("s", "conforming_candidate, inclusive"),
    "solvers.loop_self_s": ("s", "Newton/flow loops outside the kernels"),
    "solvers.assembly_s": ("s", "hessian and weighted_stiffness"),
    "solvers.energy_s": ("s", "DiscreteProblem.energy"),
    "solvers.gradient_s": ("s", "DiscreteProblem.gradient"),
    "solvers.linear_solve_s": ("s", "spsolve, splu, cg and LU solves"),
    "solvers.direct_solve_s": ("s", "SuperLU: spsolve, splu, LU solves"),
    "solvers.assemblies": ("count", "hessian and weighted_stiffness calls"),
    "solvers.energy_evals": ("count", "DiscreteProblem.energy calls"),
    "solvers.newton_iters": ("count", "Newton iterations"),
    "solvers.backtracks": ("count", "rejected line-search trials"),
    "solvers.flow_steps": ("count", "gradient-flow steps"),
    "solvers.direct_solves": ("count", "spsolve calls and LU solves"),
    "solvers.factorizations": ("count", "splu calls"),
    "solvers.pcg_iters": ("count", "cg iterations"),
    "solvers.pcg_fallbacks": ("count", "cg calls returning info != 0"),
    "solvers.reuse_ratio": ("1", "flow systems solved without a new LU"),
    "reconstruction.marini_s": ("s", "marini_reconstruct"),
    "reconstruction.max_mismatch": ("1", "max |flux_mismatch| over levels"),
    "estimators.eta_s": ("s", "eta_hat_sq"),
    "estimators.eta_res_s": ("s", "eta_res_sq"),
    "estimators.energy_s": ("s", "primal_energy and dual_energy"),
    "estimators.rho_s": ("s", "rho_F_sq and aitken_extrapolate"),
    "cli.report_s": ("s", "fill_reference_error, to_csv, emit_plot"),
    "trace.overhead_s": ("s", "traced study_s minus untraced median"),
    "trace.coverage": ("1", "named layer self time / traced study_s"),
    "trace.spans": ("count", "spans recorded"),
}

#: Span name -> self-time metric it adds to.
_SELF_TIME = {
    "afem.mark": "afem.mark_s",
    "afem.run": "afem.loop_self_s",
    "mesh.build": "mesh.build_s",
    "mesh.refine": "mesh.refine_s",
    "quadrature.points": "quadrature.points_s",
    "fespaces.project": "fespaces.project_s",
    "fespaces.prolong": "fespaces.prolong_s",
    "fespaces.average": "fespaces.average_s",
    "energy_models.phi": "energy_models.phi_s",
    "energy_models.dphi": "energy_models.dphi_s",
    "energy_models.phi_star": "energy_models.phi_star_s",
    "energy_models.linearize": "energy_models.linearize_s",
    "solvers.cr_solve": "solvers.loop_self_s",
    "solvers.conforming": "solvers.loop_self_s",
    "solvers.p1_solve": "solvers.loop_self_s",
    "solvers.assembly": "solvers.assembly_s",
    "solvers.energy": "solvers.energy_s",
    "solvers.gradient": "solvers.gradient_s",
    "solvers.direct": "solvers.direct_solve_s",
    "solvers.pcg": "solvers.linear_solve_s",
    "reconstruction.marini": "reconstruction.marini_s",
    "estimators.eta": "estimators.eta_s",
    "estimators.eta_res": "estimators.eta_res_s",
    "estimators.energy": "estimators.energy_s",
    "estimators.rho": "estimators.rho_s",
    "cli.report": "cli.report_s",
}

#: Spans whose inclusive time is a phase metric.
_INCLUSIVE = {"solvers.cr_solve": "solvers.cr_solve_s",
              "solvers.conforming": "solvers.conforming_solve_s"}

#: Spans that are not layer work: the study root, the afem loop itself and
#: the tracer's own probes.  Everything else counts towards coverage.
_NOT_LAYER = ("study", "afem.run", "trace.probe")

#: Counts that must repeat exactly between traced studies of one seed.
EXACT_COUNTS = ("solvers.newton_iters", "solvers.flow_steps",
                "solvers.factorizations", "solvers.pcg_iters",
                "solvers.direct_solves", "mesh.elements_final")


class _TracedFactor:
    """A SuperLU factor whose ``solve`` records a span per call."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Span recorder for one study in this process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_mismatch = 0.0

    # -- recording ------------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` recording a span per call.

        ``name`` is a string or a callable of the call's arguments;
        ``before(args, kwargs)`` runs before the call and its result is
        handed to ``after(result, args, kwargs, token)``, which runs after
        the span has closed.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            token = before(args, kwargs) if before else None
            index = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after:
                after(result, args, kwargs, token)
            return result

        return traced

    def probe(self, fn):
        """Run ``fn()`` inside a ``trace.probe`` span (tracer's own work)."""
        return self.wrap("trace.probe", fn)()

    def _rebind(self, owner, attr, name, before=None, after=None):
        setattr(owner, attr,
                self.wrap(name, getattr(owner, attr), before, after))

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Rebind the entry points of every ``pdgap`` module."""
        import pdgap.afem as afem
        import pdgap.cli as cli
        import pdgap.energy_models as energy_models
        import pdgap.mesh as mesh
        import pdgap.quadrature as quadrature
        import pdgap.solvers as solvers
        from pdgap.reconstruction import flux_mismatch

        counts = self.counts

        def tally(key):
            def after(result, args, kwargs, token):
                counts[key] += 1
            return after

        # afem: the loop itself and marking
        def count_marked(result, args, kwargs, token):
            counts["afem.marked"] += len(result)
        self._rebind(cli, "afem_run", "afem.run")
        self._rebind(afem, "dorfler_mark", "afem.mark", after=count_marked)

        # mesh: builds (also inside refine) and refinement with closure
        def refine_before(args, kwargs):
            mesh_in, marked = args[:2]
            return mesh_in.num_triangles, len(marked)

        def refine_after(result, args, kwargs, token):
            before_count, marked = token
            counts["mesh.added"] += result.num_triangles - before_count
            counts["mesh.refined_marked"] += marked
        self._rebind(mesh.Triangulation, "__init__", "mesh.build")
        self._rebind(afem, "refine", "mesh.refine", refine_before,
                     refine_after)

        self._rebind(quadrature.TriangleRule, "points", "quadrature.points")

        # fespaces, as afem calls them
        self._rebind(afem.AfemProblem, "load_means", "fespaces.project")
        self._rebind(afem, "prolong_cr", "fespaces.prolong")
        self._rebind(afem, "node_average", "fespaces.average")

        # energy_models: every density method the study calls
        for cls in (energy_models.PPowerDensity,
                    energy_models.OptimalDesignDensity):
            for attr, name in (("phi", "energy_models.phi"),
                               ("dphi", "energy_models.dphi"),
                               ("phi_star", "energy_models.phi_star"),
                               ("d2phi", "energy_models.linearize"),
                               ("slope_ratio", "energy_models.linearize")):
                self._rebind(cls, attr, name,
                             after=tally("energy_models.calls"))

        # solvers: phases, kernels and linear algebra
        def solve_name(args, kwargs):
            return ("solvers.cr_solve" if args[0].space == "cr"
                    else "solvers.p1_solve")

        def solve_before(args, kwargs):
            return counts["solvers.energy_evals"]

        def solve_after(result, args, kwargs, energy_evals_before):
            report = result[1]
            if report.method == "newton":
                evals = counts["solvers.energy_evals"] - energy_evals_before
                limit = report.stop_reason == "iteration limit reached"
                counts["solvers.newton_iters"] += report.iterations
                counts["solvers.backtracks"] += (
                    evals - 1 - report.iterations - int(limit))
            else:
                counts["solvers.flow_steps"] += report.iterations
        self._rebind(afem, "solve_problem", solve_name, solve_before,
                     solve_after)
        self._rebind(afem, "conforming_candidate", "solvers.conforming")

        problem = solvers.DiscreteProblem
        self._rebind(problem, "hessian", "solvers.assembly",
                     after=tally("solvers.assemblies"))
        self._rebind(problem, "weighted_stiffness", "solvers.assembly",
                     after=tally("solvers.assemblies"))
        self._rebind(problem, "energy", "solvers.energy",
                     after=tally("solvers.energy_evals"))
        self._rebind(problem, "gradient", "solvers.gradient")

        spla = solvers.spla
        view = types.SimpleNamespace(**{k: getattr(spla, k)
                                        for k in dir(spla)
                                        if not k.startswith("_")})
        view.spsolve = self.wrap("solvers.direct", spla.spsolve,
                                 after=tally("solvers.direct_solves"))
        lu_solve_after = tally("solvers.direct_solves")

        def splu(*args, **kwargs):
            lu = spla.splu(*args, **kwargs)
            return _TracedFactor(lu, self.wrap("solvers.direct", lu.solve,
                                               after=lu_solve_after))
        view.splu = self.wrap("solvers.direct", splu,
                              after=tally("solvers.factorizations"))

        def cg(*args, callback=None, **kwargs):
            def step(xk):
                counts["solvers.pcg_iters"] += 1
                if callback is not None:
                    callback(xk)
            counts["solvers.pcg_calls"] += 1
            x, info = spla.cg(*args, callback=step, **kwargs)
            if info != 0:
                counts["solvers.pcg_fallbacks"] += 1
            return x, info
        view.cg = self.wrap("solvers.pcg", cg)
        solvers.spla = view

        # reconstruction, with the normal-flux mismatch probed per level
        def mismatch_after(result, args, kwargs, token):
            worst = self.probe(lambda: float(abs(flux_mismatch(result)).max(
                initial=0.0)))
            self.max_mismatch = max(self.max_mismatch, worst)
        self._rebind(afem, "marini_reconstruct", "reconstruction.marini",
                     after=mismatch_after)

        # estimators, as afem and cli call them
        self._rebind(afem, "eta_hat_sq", "estimators.eta")
        self._rebind(afem, "eta_res_sq", "estimators.eta_res")
        self._rebind(afem, "primal_energy", "estimators.energy")
        self._rebind(afem, "dual_energy", "estimators.energy")
        self._rebind(afem, "rho_F_sq", "estimators.rho")
        self._rebind(cli, "aitken_extrapolate", "estimators.rho")

        # cli reporting
        self._rebind(cli.BenchmarkSpec, "fill_reference_error", "cli.report")
        self._rebind(afem.AfemTrace, "to_csv", "cli.report")
        self._rebind(cli, "emit_plot", "cli.report")

    # -- results --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its children's."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def metrics(self, study_s: float, levels: int,
                elements_final: int) -> dict:
        """Per-layer metrics of the traced study (``trace.overhead_s`` is
        left to the caller, which knows the untraced times)."""
        values = dict.fromkeys([*_SELF_TIME.values(), *_INCLUSIVE.values()],
                               0.0)
        covered = 0.0
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            metric = _SELF_TIME.get(name)
            if metric is not None:
                values[metric] += own
            if name in _INCLUSIVE:
                values[_INCLUSIVE[name]] += end - start
            if name not in _NOT_LAYER:
                covered += own
        # cg's self time so far; the LU solves inside it are direct work
        values["solvers.linear_solve_s"] += values["solvers.direct_solve_s"]

        c = self.counts
        flow_systems = c["solvers.flow_steps"]
        reused = c["solvers.pcg_calls"] - c["solvers.pcg_fallbacks"]
        values.update({
            "afem.marked": c["afem.marked"],
            "afem.levels": levels,
            "mesh.closure_ratio": (c["mesh.added"] / c["mesh.refined_marked"]
                                   if c["mesh.refined_marked"] else 0.0),
            "mesh.elements_final": elements_final,
            "energy_models.calls": c["energy_models.calls"],
            "reconstruction.max_mismatch": self.max_mismatch,
            "trace.coverage": covered / study_s,
            "trace.spans": len(self.spans),
        })
        for key in ("solvers.assemblies", "solvers.energy_evals",
                    "solvers.newton_iters", "solvers.backtracks",
                    "solvers.flow_steps", "solvers.direct_solves",
                    "solvers.factorizations", "solvers.pcg_iters",
                    "solvers.pcg_fallbacks"):
            values[key] = c[key]
        values["solvers.reuse_ratio"] = (reused / flow_systems
                                         if flow_systems else 0.0)
        return values

    def write_spans(self, path) -> None:
        """Write the spans as CSV: run id, index, name, start, end, parent."""
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write("run_id,span,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{self.run_id},{i},{name},{start!r},{end!r},"
                         f"{parent}\n")
