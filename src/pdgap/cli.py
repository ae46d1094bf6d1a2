"""Command-line driver: benchmark problems, adaptive runs, traces, plots.

Defines the two L-shape benchmarks (the p-power model with a known singular
solution and the two-phase optimal design model), runs the adaptive or
uniform loop on them, and writes ``trace.csv``, two SVG convergence plots
and, on request, CSV dumps of the final level's indicators, flux and
nonconforming solution.  Every CSV goes through :func:`pdgap.afem.write_csv`
and the SVG output is generated directly (no plotting library), so
identical runs produce byte-identical files apart from ``trace.csv``'s
``seconds`` column.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .afem import AfemConfig, AfemProblem, AfemTrace, afem_run, write_csv
from .energy_models import OptimalDesignDensity, PPowerDensity
from .estimators import aitken_extrapolate
from .mesh import Triangulation, load_mesh, make_lshape_mesh

__all__ = [
    "BenchmarkSpec", "PDirichletExact", "build_parser",
    "exact_solution_pdirichlet", "emit_plot", "main", "run_benchmark",
]


# ---------------------------------------------------------------------------
# Exact singular solution on the L-shaped domain
# ---------------------------------------------------------------------------

class PDirichletExact(NamedTuple):
    """Evaluators of the exact solution ``r^delta sin(delta theta)``.

    The callables accept point arrays of shape (..., 2); ``value`` and
    ``load`` return shape (...), ``gradient`` returns (..., 2); a vanishing
    load is the constant 0.0 instead.  The angle is measured in (0, 2pi)
    around the reentrant corner at the origin, with the branch cut along
    the positive x-axis (the slit edge of the removed quadrant).  At the
    corner itself the value, gradient, and load are returned as 0 by
    convention -- quadrature points never land there.
    """

    value: Callable
    gradient: Callable
    load: Callable | float
    delta: float


def _polar(points):
    pts = np.asarray(points, dtype=float)
    x, y = pts[..., 0], pts[..., 1]
    r = np.hypot(x, y)
    theta = np.arctan2(y, x)
    theta = np.where(theta < 0.0, theta + 2.0 * np.pi, theta)
    return r, theta


def exact_solution_pdirichlet(p: float) -> PDirichletExact:
    """Exact solution, gradient, and load of the singular benchmark.

    ``u(r, theta) = r^delta sin(delta theta)`` with ``delta = (6/5)(1-1/p)``
    and the matching load ``f(r, theta) = -(2-p) delta^(p-1) (1-delta)
    r^((delta-1)(p-1)-1) sin(delta theta)``; the load vanishes identically
    at p=2, where u is harmonic, and is then the constant 0.0.
    """
    if p <= 1.0:
        raise ValueError("the exponent must satisfy p > 1")
    delta = 1.2 * (1.0 - 1.0 / p)

    # whole-array evaluation, corner zeroed afterwards: the boundary data,
    # the load and the error columns call these on every level
    def value(points):
        r, theta = _polar(points)
        return r ** delta * np.sin(delta * theta)  # 0 at the corner

    def gradient(points):
        r, theta = _polar(points)
        angle = (delta - 1.0) * theta
        with np.errstate(divide="ignore", invalid="ignore"):
            radial = delta * r ** (delta - 1.0)
            out = np.stack((radial * np.sin(angle), radial * np.cos(angle)),
                           axis=-1)
        out[r == 0.0] = 0.0
        return out

    coefficient = -(2.0 - p) * delta ** (p - 1.0) * (1.0 - delta)
    exponent = (delta - 1.0) * (p - 1.0) - 1.0

    def load(points):
        r, theta = _polar(points)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = coefficient * r ** exponent * np.sin(delta * theta)
        return np.where(r > 0.0, out, 0.0)

    return PDirichletExact(value, gradient, load if coefficient else 0.0,
                           delta)


# ---------------------------------------------------------------------------
# Benchmark definitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark problem: model parameters plus domain.

    ``p-dirichlet`` carries the exact solution (value, gradient, load, and
    boundary data by restriction); ``optimal-design`` instead estimates its
    reference energy from the recorded primal energies by Aitken
    extrapolation (see :meth:`fill_reference_error`).  ``mesh`` overrides
    the default initial L-shape triangulation.
    """

    problem: str
    p: float = 2.0
    mu1: float = 1.0
    mu2: float = 2.0
    lam: float = 0.0145
    mesh: Triangulation | None = None

    def __post_init__(self):
        if self.problem not in ("p-dirichlet", "optimal-design"):
            raise ValueError(f"unknown problem {self.problem!r}")
        self._density()  # the density validates the model parameters
        if self.mesh is not None and not self.mesh.dirichlet_side_mask.any():
            raise ValueError("the mesh has no Dirichlet side")

    def _density(self):
        if self.problem == "p-dirichlet":
            return PPowerDensity(self.p)
        return OptimalDesignDensity(self.mu1, self.mu2, self.lam)

    def initial_mesh(self) -> Triangulation:
        return self.mesh if self.mesh is not None else make_lshape_mesh()

    def make_problem(self) -> AfemProblem:
        if self.problem == "p-dirichlet":
            exact = exact_solution_pdirichlet(self.p)
            return AfemProblem(
                mesh=self.initial_mesh(), density=self._density(),
                load=exact.load, dirichlet=exact.value,
                exact_gradient=exact.gradient,
                label=f"p-dirichlet p={self.p:g}")
        return AfemProblem(
            mesh=self.initial_mesh(),
            density=self._density(),
            load=1.0,
            label=(f"optimal-design mu1={self.mu1:g} mu2={self.mu2:g} "
                   f"lambda={self.lam:g}"))

    def fill_reference_error(self, trace: AfemTrace) -> AfemTrace:
        """Populate the error column for runs without an exact solution.

        Extrapolates the recorded primal energies (Aitken) and rewrites
        ``rho_sq`` as the energy distance to that limit.  No-op when the
        exact solution is known or the extrapolation is degenerate.
        """
        if self.problem != "optimal-design" or len(trace.records) < 3:
            return trace
        limit = aitken_extrapolate([r.I_primal for r in trace.records])
        if limit.degenerate:
            return trace
        trace.records = [replace(r, rho_sq=r.I_primal - limit.value)
                         for r in trace.records]
        return trace


# ---------------------------------------------------------------------------
# Deterministic SVG plots
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_WIDTH, _HEIGHT = 720.0, 540.0
_LEFT, _RIGHT, _TOP, _BOTTOM = 80.0, 560.0, 40.0, 480.0


def _log_ticks(lo: float, hi: float) -> list[float]:
    first = int(np.ceil(np.log10(lo) - 1e-9))
    last = int(np.floor(np.log10(hi) + 1e-9))
    return [10.0 ** k for k in range(first, last + 1)]


def _linear_ticks(lo: float, hi: float) -> list[float]:
    return [lo + i * (hi - lo) / 4.0 for i in range(5)]


def emit_plot(trace, columns, path, logy: bool = True,
              guide_slope: float | None = -0.5, title: str = "") -> None:
    """Write a deterministic SVG convergence plot.

    One polyline (with point markers) per selected column of
    ``trace.records`` versus N, on a log-log scale by default, plus a
    dashed guide line of the given slope (pass ``guide_slope=None`` to omit
    it).  ``logy=False`` switches to a linear vertical axis (for energy
    curves, which may be negative).  Rows whose value is not plottable
    (non-finite, or nonpositive on a log axis) are skipped.  An empty trace
    is an error.
    """
    records = trace.records
    if not records:
        raise ValueError("cannot plot an empty trace")
    series = []
    for name, color in zip(columns, _PALETTE):
        pts = [(float(r.N), float(getattr(r, name))) for r in records]
        pts = [(x, y) for x, y in pts
               if np.isfinite(y) and (y > 0.0 or not logy)]
        if pts:
            series.append((name, color, pts))
    if not series:
        raise ValueError("no plottable data in the selected columns")

    xs = [x for _, _, pts in series for x, _ in pts]
    ys = [y for _, _, pts in series for _, y in pts]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    if xlo == xhi:
        xlo, xhi = xlo / 2.0, xhi * 2.0
    if ylo == yhi:
        ylo, yhi = (ylo / 2.0, yhi * 2.0) if logy else (ylo - 1.0, yhi + 1.0)
    lxlo, lxhi = np.log10(xlo), np.log10(xhi)

    def sx(v: float) -> float:
        return _LEFT + (np.log10(v) - lxlo) / (lxhi - lxlo) * (_RIGHT - _LEFT)

    if logy:
        lylo, lyhi = np.log10(ylo), np.log10(yhi)

        def sy(v: float) -> float:
            return _BOTTOM - (np.log10(v) - lylo) / (lyhi - lylo) \
                * (_BOTTOM - _TOP)
    else:
        def sy(v: float) -> float:
            return _BOTTOM - (v - ylo) / (yhi - ylo) * (_BOTTOM - _TOP)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" '
           f'viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
           '<rect width="100%" height="100%" fill="white"/>',
           '<defs><clipPath id="plotarea">'
           f'<rect x="{_LEFT:.1f}" y="{_TOP:.1f}" '
           f'width="{_RIGHT - _LEFT:.1f}" height="{_BOTTOM - _TOP:.1f}"/>'
           '</clipPath></defs>',
           f'<rect x="{_LEFT:.1f}" y="{_TOP:.1f}" '
           f'width="{_RIGHT - _LEFT:.1f}" height="{_BOTTOM - _TOP:.1f}" '
           'fill="none" stroke="black"/>']
    if title:
        out.append(f'<text x="{(_LEFT + _RIGHT) / 2:.1f}" y="25" '
                   'text-anchor="middle" font-size="15">'
                   f'{title}</text>')

    for tick in _log_ticks(xlo, xhi):
        x = sx(tick)
        out.append(f'<line x1="{x:.2f}" y1="{_BOTTOM:.1f}" x2="{x:.2f}" '
                   f'y2="{_BOTTOM + 5:.1f}" stroke="black"/>')
        out.append(f'<text x="{x:.2f}" y="{_BOTTOM + 20:.1f}" '
                   f'text-anchor="middle" font-size="12">{tick:g}</text>')
    yticks = _log_ticks(ylo, yhi) if logy else _linear_ticks(ylo, yhi)
    for tick in yticks:
        y = sy(tick)
        out.append(f'<line x1="{_LEFT - 5:.1f}" y1="{y:.2f}" '
                   f'x2="{_LEFT:.1f}" y2="{y:.2f}" stroke="black"/>')
        out.append(f'<text x="{_LEFT - 8:.1f}" y="{y + 4:.2f}" '
                   f'text-anchor="end" font-size="12">{tick:.4g}</text>')
    out.append(f'<text x="{(_LEFT + _RIGHT) / 2:.1f}" '
               f'y="{_BOTTOM + 40:.1f}" text-anchor="middle" '
               'font-size="13">N</text>')

    if guide_slope is not None and logy:
        x0, y0 = series[0][2][0]
        scale = 0.6 * y0 / x0 ** guide_slope
        gx = (xlo, xhi)
        gy = tuple(scale * x ** guide_slope for x in gx)
        out.append('<line clip-path="url(#plotarea)" '
                   f'x1="{sx(gx[0]):.2f}" y1="{sy(gy[0]):.2f}" '
                   f'x2="{sx(gx[1]):.2f}" y2="{sy(gy[1]):.2f}" '
                   'stroke="gray" stroke-dasharray="6 4"/>')
        out.append(f'<text x="{_RIGHT + 10:.1f}" '
                   f'y="{_TOP + 20 * (len(series) + 1):.1f}" '
                   f'font-size="12" fill="gray">slope {guide_slope:g}</text>')

    for idx, (name, color, pts) in enumerate(series):
        if len(pts) > 1:
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            out.append(f'<polyline fill="none" stroke="{color}" '
                       f'stroke-width="1.5" points="{coords}"/>')
        for x, y in pts:
            out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" '
                       f'fill="{color}"/>')
        ly = _TOP + 20.0 * idx
        out.append(f'<line x1="{_RIGHT + 10:.1f}" y1="{ly + 6:.1f}" '
                   f'x2="{_RIGHT + 30:.1f}" y2="{ly + 6:.1f}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{_RIGHT + 35:.1f}" y="{ly + 10:.1f}" '
                   f'font-size="12">{name}</text>')

    out.append("</svg>")
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# Benchmark driver
# ---------------------------------------------------------------------------

def run_benchmark(spec: BenchmarkSpec, cfg: AfemConfig, out_dir,
                  seed: int = 0, dump: bool = False) -> int:
    """Run one benchmark and write ``trace.csv`` plus the two SVG plots.

    The estimator plot shows the gap ``eta_hat_sq``, the residual
    ``eta_res_sq`` and the error ``rho_sq``.  ``dump`` adds three CSVs of
    the final level to ``out_dir``: ``indicators.csv``, per element
    ``eta_A``, ``eta_D_hat`` (they sum to the gap indicator) and
    ``eta_res_sq``; ``flux.csv``, per side the flux coefficient; and
    ``fields.csv``, per unknown the nonconforming solution.
    Returns 0 on success and 1 (with a diagnostic on stderr) when the
    run failed (a nonlinear solver, or an infeasible flux); the partial
    trace is still written.
    ``seed`` is accepted and ignored: the run is deterministic.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace = afem_run(spec.make_problem(), cfg)
    trace = spec.fill_reference_error(trace)

    trace.to_csv(out / "trace.csv")
    if trace.records:
        emit_plot(trace, ["eta_hat_sq", "eta_res_sq", "rho_sq"],
                  out / "estimator_vs_N.svg", logy=True,
                  title=f"estimators vs N ({trace.problem})")
        emit_plot(trace, ["I_primal", "D_dual"],
                  out / "energies_vs_N.svg", logy=False, guide_slope=None,
                  title=f"energies vs N ({trace.problem})")
    level = trace.final
    if dump and level is not None:
        dumps = (("indicators.csv", ("element_id", "eta_A", "eta_D_hat",
                                     "eta_res_sq"),
                  (level.indicators.eta_A_sq, level.indicators.eta_D_hat_sq,
                   level.residual.eta_res_sq)),
                 ("flux.csv", ("side_id", "coeff"), (level.flux.coeffs,)),
                 ("fields.csv", ("dof_id", "value"), (level.u_cr.values,)))
        for name, header, columns in dumps:
            write_csv(out / name, header,
                      zip(range(len(columns[0])), *columns))
    if trace.failed:
        print(f"error: {trace.failure_reason}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdgap",
        description="Adaptive finite elements with guaranteed primal-dual "
                    "gap error estimation.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a benchmark study")
    run.add_argument("--problem", required=True,
                     choices=["p-dirichlet", "optimal-design"])
    run.add_argument("--p", type=float, default=2.0,
                     help="growth exponent of the p-power model")
    run.add_argument("--mu1", type=float, default=1.0)
    run.add_argument("--mu2", type=float, default=2.0)
    run.add_argument("--lambda", dest="lam", type=float, default=0.0145)
    run.add_argument("--theta", type=float, default=0.5,
                     help="bulk marking parameter")
    run.add_argument("--iters", type=int, default=20)
    run.add_argument("--uniform", action="store_true",
                     help="refine every element instead of marking")
    run.add_argument("--conforming", choices=["minimize", "average"],
                     default="minimize")
    run.add_argument("--mark-with", dest="mark_with",
                     choices=["pd", "residual"], default="pd")
    run.add_argument("--mesh", default=None,
                     help="initial mesh file (default: L-shape)")
    run.add_argument("--out-dir", dest="out_dir", default=".")
    run.add_argument("--dump", action="store_true",
                     help="also write the final level's indicators.csv, "
                          "flux.csv and fields.csv to --out-dir")
    run.add_argument("--interior-node", dest="interior_node",
                     action="store_true")
    run.add_argument("--tol-abs", dest="tol_abs", type=float, default=None,
                     help="Newton (p-dirichlet) only; default 1e-8")
    run.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    return parser


def _config_from_args(args) -> AfemConfig:
    """The run's configuration.  The problem fixes the solver: the flow
    for optimal design, whose density is degenerate on its plateau, and
    Newton for the p-power model, with ``tol_rel = 1e-10`` and ``tol_abs``
    from ``--tol-abs`` (default 1e-8).  ``--tol-abs`` with optimal design,
    a non-finite or negative ``--tol-abs`` and a negative ``--max-iter``
    raise :class:`ValueError`."""
    flow = args.problem == "optimal-design"
    if args.tol_abs is not None:
        if flow:
            raise ValueError("--tol-abs is a Newton tolerance; the flow "
                             "solver of optimal design stops on its own rules")
        if not (np.isfinite(args.tol_abs) and args.tol_abs >= 0.0):
            raise ValueError("--tol-abs must be finite and nonnegative")
    if args.max_iter is not None and args.max_iter < 0:
        raise ValueError("--max-iter must be nonnegative")
    options = {}
    if not flow:
        options = {"tol_abs": 1e-8 if args.tol_abs is None else args.tol_abs,
                   "tol_rel": 1e-10}
    if args.max_iter is not None:
        options["max_iter"] = args.max_iter
    return AfemConfig(theta=args.theta, max_iterations=args.iters,
                      conforming=args.conforming,
                      solver="flow" if flow else "newton",
                      solver_options=options, mark_with=args.mark_with,
                      uniform=args.uniform, interior_node=args.interior_node)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # rejected input: one line and status 2, before any output
        mesh = load_mesh(args.mesh) if args.mesh else None
        spec = BenchmarkSpec(problem=args.problem, p=args.p, mu1=args.mu1,
                             mu2=args.mu2, lam=args.lam, mesh=mesh)
        cfg = _config_from_args(args)
    except (OSError, ValueError) as exc:
        print(f"pdgap run: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    return run_benchmark(spec, cfg, args.out_dir, dump=args.dump)


if __name__ == "__main__":
    sys.exit(main())
