"""Tests for the benchmark driver: exact solution, plots, CSV dumps, args."""

import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest

from pdgap.afem import (AfemConfig, AfemRecord, AfemTrace, read_trace_csv,
                        write_csv)
from pdgap.cli import (BenchmarkSpec, _config_from_args, build_parser,
                       emit_plot, exact_solution_pdirichlet, main,
                       run_benchmark)
from pdgap.energy_models import OptimalDesignDensity, PPowerDensity
from pdgap.mesh import (make_lshape_mesh, make_square_mesh, save_mesh,
                        uniform_refine)
from pdgap.quadrature import RULE_ORDER8, integrate


# ---------------------------------------------------------------------------
# Exact singular solution
# ---------------------------------------------------------------------------

def test_singularity_exponent_values():
    # delta = (6/5)(1 - 1/p)
    assert exact_solution_pdirichlet(1.6).delta == pytest.approx(0.45)
    assert exact_solution_pdirichlet(1.2).delta == pytest.approx(0.2)
    assert exact_solution_pdirichlet(2.0).delta == pytest.approx(0.6)


def test_exponent_must_exceed_one():
    with pytest.raises(ValueError):
        exact_solution_pdirichlet(1.0)
    with pytest.raises(ValueError):
        exact_solution_pdirichlet(0.5)


def test_value_on_positive_y_axis():
    # r=1, theta=pi/2: u = sin(delta*pi/2)
    exact = exact_solution_pdirichlet(2.0)
    got = exact.value(np.array([[0.0, 1.0]]))
    assert got[0] == pytest.approx(np.sin(0.3 * np.pi), abs=1e-14)


def test_value_vanishes_on_positive_x_axis():
    # theta = 0 along the slit edge
    exact = exact_solution_pdirichlet(1.6)
    pts = np.array([[0.25, 0.0], [1.0, 0.0]])
    assert np.allclose(exact.value(pts), 0.0, atol=1e-14)


def test_branch_cut_below_the_slit():
    # (0, -1/2) has theta = 3*pi/2, not -pi/2
    exact = exact_solution_pdirichlet(1.6)
    d = exact.delta
    expected = 0.5 ** d * np.sin(d * 1.5 * np.pi)
    assert exact.value(np.array([[0.0, -0.5]]))[0] == pytest.approx(expected)


def test_origin_evaluates_to_zero():
    origin = np.zeros((1, 2))
    exact = exact_solution_pdirichlet(1.6)
    assert exact.value(origin)[0] == 0.0
    assert np.all(exact.gradient(origin)[0] == 0.0)
    assert exact.load(origin)[0] == 0.0


def test_gradient_matches_finite_differences():
    exact = exact_solution_pdirichlet(1.6)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.9, -0.1, size=(40, 2))  # left column, away from cut
    h = 1e-6
    for axis in range(2):
        step = np.zeros(2)
        step[axis] = h
        fd = (exact.value(pts + step) - exact.value(pts - step)) / (2 * h)
        assert np.allclose(exact.gradient(pts)[:, axis], fd, atol=5e-8)


def test_load_vanishes_identically_for_quadratic_growth():
    # p=2 is the harmonic case: the load is the constant 0, whose means are
    # exact zeros
    assert exact_solution_pdirichlet(2.0).load == 0.0
    problem = BenchmarkSpec(problem="p-dirichlet", p=2.0).make_problem()
    means = problem.load_means(problem.mesh, None).values
    assert np.array_equal(means, np.zeros(problem.mesh.num_triangles))


def test_gradient_magnitude_is_radial_power():
    # |grad u| = delta * r^(delta-1) independent of the angle
    exact = exact_solution_pdirichlet(1.2)
    d = exact.delta
    rng = np.random.default_rng(5)
    r = rng.uniform(0.1, 1.0, size=30)
    th = rng.uniform(0.05, 1.45, size=30) * np.pi
    pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
    mag = np.linalg.norm(exact.gradient(pts), axis=-1)
    assert np.allclose(mag, d * r ** (d - 1.0), rtol=1e-12)


def _bump(center, radius):
    c = np.asarray(center, dtype=float)

    def w(x):
        s = np.sum((x - c) ** 2, axis=-1) / radius ** 2
        return np.where(s < 1.0, (1.0 - np.minimum(s, 1.0)) ** 3, 0.0)

    def gw(x):
        s = np.sum((x - c) ** 2, axis=-1) / radius ** 2
        fac = np.where(s < 1.0,
                       -6.0 * (1.0 - np.minimum(s, 1.0)) ** 2 / radius ** 2,
                       0.0)
        return fac[..., None] * (x - c)

    return w, gw


def _random_bump(rng):
    # center inside one of the three unit quadrants, support inside the
    # domain and away from the reentrant corner
    base = [(-1, 0), (-1, -1), (0, 0)][rng.integers(3)]
    radius = rng.uniform(0.15, 0.35)
    c = (rng.uniform(base[0] + radius + 0.05, base[0] + 1 - radius - 0.05),
         rng.uniform(base[1] + radius + 0.05, base[1] + 1 - radius - 0.05))
    if np.hypot(*c) < radius + 0.05:
        return _random_bump(rng)
    return _bump(c, radius)


@pytest.mark.parametrize("p", [1.6, 1.2])
def test_load_is_consistent_with_value_and_gradient(p):
    # int |grad u|^(p-2) grad u . grad w dx == int f w dx for smooth w with
    # compact support: ties the three evaluators together through the
    # divergence theorem (measured residual ~2e-6, quadrature-limited)
    mesh = uniform_refine(make_lshape_mesh(), 3)
    pts = RULE_ORDER8.points(mesh.triangle_coords)
    exact = exact_solution_pdirichlet(p)
    g = np.asarray(exact.gradient(pts))
    f = np.asarray(exact.load(pts))
    mag = np.linalg.norm(g, axis=-1)
    dphi = np.where(mag > 0.0, mag ** (p - 2.0), 0.0)[..., None] * g
    rng = np.random.default_rng(11)
    for _ in range(6):
        w, gw = _random_bump(rng)
        lhs = float(np.sum(integrate(RULE_ORDER8, mesh.areas,
                                     np.sum(dphi * gw(pts), axis=-1))))
        rhs = float(np.sum(integrate(RULE_ORDER8, mesh.areas, f * w(pts))))
        assert abs(lhs - rhs) <= 1e-5 * (1.0 + abs(rhs))


# ---------------------------------------------------------------------------
# Benchmark specification
# ---------------------------------------------------------------------------

def test_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        BenchmarkSpec(problem="heat-equation")
    with pytest.raises(ValueError):
        BenchmarkSpec(problem="p-dirichlet", p=1.0)
    with pytest.raises(ValueError):
        BenchmarkSpec(problem="optimal-design", mu1=2.0, mu2=1.0)
    with pytest.raises(ValueError):
        BenchmarkSpec(problem="optimal-design", lam=0.0)
    with pytest.raises(ValueError, match="p > 1"):
        BenchmarkSpec(problem="p-dirichlet", p=float("inf"))
    with pytest.raises(ValueError):
        BenchmarkSpec(problem="optimal-design", lam=float("nan"))
    with pytest.raises(ValueError):
        BenchmarkSpec(problem="optimal-design", mu2=float("inf"))


def test_spec_builds_power_model_problem():
    spec = BenchmarkSpec(problem="p-dirichlet", p=1.6)
    problem = spec.make_problem()
    assert isinstance(problem.density, PPowerDensity)
    assert problem.density.p == 1.6
    assert problem.mesh.num_triangles == 96
    pts = np.array([[0.0, 1.0], [-1.0, 0.5]])
    assert np.allclose(problem.dirichlet(pts),
                       exact_solution_pdirichlet(1.6).value(pts))
    assert problem.exact_gradient is not None


def test_spec_builds_two_phase_problem():
    spec = BenchmarkSpec(problem="optimal-design")
    problem = spec.make_problem()
    assert isinstance(problem.density, OptimalDesignDensity)
    assert problem.load == 1.0
    assert problem.dirichlet is None
    assert problem.exact_gradient is None


def test_spec_mesh_override():
    square = make_square_mesh(2)
    spec = BenchmarkSpec(problem="p-dirichlet", p=2.0, mesh=square)
    assert spec.make_problem().mesh is square


def _fake_trace(primal_energies):
    records = [AfemRecord(k=k, N=10 * (k + 1), elements=20 * (k + 1),
                          eta_hat_sq=1.0, eta_res_sq=2.0,
                          rho_sq=float("nan"), rho_I_sq=float("nan"),
                          I_primal=e, D_dual=e - 0.1,
                          discrete_gap=0.1, seconds=0.0)
               for k, e in enumerate(primal_energies)]
    return AfemTrace(problem="fake", records=records)


def test_reference_error_fill_from_energy_extrapolation():
    # geometric approach to -1: extrapolation recovers the limit exactly
    energies = [-1.0 + 0.5 ** k for k in range(5)]
    trace = _fake_trace(energies)
    BenchmarkSpec(problem="optimal-design").fill_reference_error(trace)
    rho = trace.column("rho_sq")
    assert np.allclose(rho, [e + 1.0 for e in energies], rtol=1e-10)


def test_reference_error_fill_skips_short_or_flat_traces():
    short = _fake_trace([-1.0, -0.9])
    BenchmarkSpec(problem="optimal-design").fill_reference_error(short)
    assert np.all(np.isnan(short.column("rho_sq")))
    flat = _fake_trace([-1.0, -1.0, -1.0, -1.0])
    BenchmarkSpec(problem="optimal-design").fill_reference_error(flat)
    assert np.all(np.isnan(flat.column("rho_sq")))


def test_reference_error_fill_ignores_power_model_runs():
    trace = _fake_trace([-1.0 + 0.5 ** k for k in range(5)])
    BenchmarkSpec(problem="p-dirichlet", p=1.6).fill_reference_error(trace)
    assert np.all(np.isnan(trace.column("rho_sq")))


# ---------------------------------------------------------------------------
# SVG plots
# ---------------------------------------------------------------------------

def _rows(values):
    return SimpleNamespace(records=[SimpleNamespace(N=n, y=v)
                                    for n, v in values])


def test_plot_rejects_empty_or_unplottable_input(tmp_path):
    with pytest.raises(ValueError):
        emit_plot(_rows([]), ["y"], tmp_path / "a.svg")
    with pytest.raises(ValueError):
        emit_plot(_rows([(10, -1.0), (20, 0.0)]), ["y"], tmp_path / "b.svg",
                  logy=True)


def test_plot_writes_parseable_svg_with_series_and_legend(tmp_path):
    rows = _rows([(10, 1.0), (20, 0.5), (40, 0.25)])
    path = tmp_path / "plot.svg"
    emit_plot(rows, ["y"], path)
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    polylines = root.findall(f"{ns}polyline")
    circles = root.findall(f"{ns}circle")
    texts = [t.text for t in root.iter(f"{ns}text")]
    assert len(polylines) == 1
    assert len(circles) == 3
    assert "y" in texts
    assert any(t and "slope" in t for t in texts)


def test_plot_single_row_draws_marker_only(tmp_path):
    path = tmp_path / "one.svg"
    emit_plot(_rows([(10, 1.0)]), ["y"], path, guide_slope=None)
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f"{ns}polyline")) == 0
    assert len(root.findall(f"{ns}circle")) == 1


def test_plot_linear_axis_accepts_negative_values(tmp_path):
    path = tmp_path / "lin.svg"
    emit_plot(_rows([(10, -1.0), (20, -2.0)]), ["y"], path, logy=False,
              guide_slope=None)
    assert ET.parse(path).getroot() is not None


def test_plot_output_is_byte_deterministic(tmp_path):
    rows = _rows([(10, 1.0), (20, 0.37), (40, 0.11)])
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_plot(rows, ["y"], a)
    emit_plot(rows, ["y"], b)
    assert a.read_bytes() == b.read_bytes()


def test_plot_skips_nonfinite_rows(tmp_path):
    rows = SimpleNamespace(records=[
        SimpleNamespace(N=10, y=1.0, z=float("nan")),
        SimpleNamespace(N=20, y=0.5, z=0.25)])
    path = tmp_path / "skip.svg"
    emit_plot(rows, ["y", "z"], path)
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    # the z series keeps its single finite row as a lone marker
    assert len(root.findall(f"{ns}polyline")) == 1
    assert len(root.findall(f"{ns}circle")) == 3


# ---------------------------------------------------------------------------
# End-to-end driver
# ---------------------------------------------------------------------------

def test_run_benchmark_writes_trace_plots_and_dumps(tmp_path):
    spec = BenchmarkSpec(problem="p-dirichlet", p=2.0)
    cfg = AfemConfig(max_iterations=3)
    code = run_benchmark(spec, cfg, tmp_path,
                         dump_indicators=tmp_path / "indicators.csv",
                         dump_flux=tmp_path / "flux.csv",
                         dump_fields=tmp_path / "fields.csv")
    assert code == 0
    records = read_trace_csv(tmp_path / "trace.csv")
    assert len(records) == 3
    assert records[0].N < records[1].N < records[2].N
    for name in ("estimator_vs_N.svg", "energies_vs_N.svg"):
        assert ET.parse(tmp_path / name).getroot() is not None

    ind_lines = (tmp_path / "indicators.csv").read_text().splitlines()
    assert ind_lines[0] == "element_id,eta_A,eta_D_hat,eta_res_sq"
    assert len(ind_lines) - 1 == records[-1].elements
    flux_lines = (tmp_path / "flux.csv").read_text().splitlines()
    assert flux_lines[0] == "side_id,coeff"
    field_lines = (tmp_path / "fields.csv").read_text().splitlines()
    assert field_lines[0] == "dof_id,value"
    # one nonconforming unknown per side
    assert len(field_lines) == len(flux_lines)


def _without_seconds(trace_text: str) -> list[list[str]]:
    rows = [line.split(",") for line in trace_text.splitlines()]
    drop = rows[0].index("seconds")
    return [row[:drop] + row[drop + 1:] for row in rows]


def test_identical_runs_write_byte_identical_files(tmp_path):
    spec = BenchmarkSpec(problem="p-dirichlet", p=1.6)
    cfg = AfemConfig(max_iterations=3)
    for run in ("a", "b"):
        out = tmp_path / run
        assert run_benchmark(spec, cfg, out,
                             dump_indicators=out / "indicators.csv",
                             dump_flux=out / "flux.csv",
                             dump_fields=out / "fields.csv") == 0
    names = sorted(path.name for path in (tmp_path / "a").iterdir())
    assert names == ["energies_vs_N.svg", "estimator_vs_N.svg", "fields.csv",
                     "flux.csv", "indicators.csv", "trace.csv"]
    for name in names:
        a, b = ((tmp_path / run / name).read_bytes() for run in ("a", "b"))
        if name == "trace.csv":  # the wall time is the one run-dependent cell
            a, b = _without_seconds(a.decode()), _without_seconds(b.decode())
            assert len(a) == 4
        assert a == b, name


def test_run_benchmark_fills_two_phase_reference_error(tmp_path):
    spec = BenchmarkSpec(problem="optimal-design")
    cfg = AfemConfig(max_iterations=4, solver="flow")
    assert run_benchmark(spec, cfg, tmp_path) == 0
    records = read_trace_csv(tmp_path / "trace.csv")
    rho = np.array([r.rho_sq for r in records])
    assert np.all(np.isfinite(rho))
    assert np.all(rho > 0.0)
    assert rho[-1] < rho[0]


def test_run_benchmark_reports_solver_failure(tmp_path, capsys):
    spec = BenchmarkSpec(problem="p-dirichlet", p=1.6)
    cfg = AfemConfig(max_iterations=2, solver_options={"max_iter": 0})
    assert run_benchmark(spec, cfg, tmp_path) == 1
    assert "did not converge" in capsys.readouterr().err
    assert read_trace_csv(tmp_path / "trace.csv") == []
    assert not (tmp_path / "estimator_vs_N.svg").exists()


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def test_parser_requires_problem():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--problem", "wave-equation"])


def test_solver_defaults_follow_the_problem():
    parser = build_parser()
    cfg = _config_from_args(parser.parse_args(
        ["run", "--problem", "p-dirichlet"]))
    assert cfg.solver == "newton"
    assert cfg.solver_options == {"tol_abs": 1e-8, "tol_rel": 1e-10}
    cfg = _config_from_args(parser.parse_args(
        ["run", "--problem", "optimal-design"]))
    assert cfg.solver == "flow"
    assert cfg.solver_options == {}


def test_newton_tolerance_flags_pass_through():
    cfg = _config_from_args(build_parser().parse_args(
        ["run", "--problem", "p-dirichlet", "--tol-abs", "5e-6"]))
    assert cfg.solver_options == {"tol_abs": 5e-6, "tol_rel": 1e-10}


def test_iteration_cap_flag_passes_through():
    cfg = _config_from_args(build_parser().parse_args(
        ["run", "--problem", "optimal-design", "--max-iter", "7"]))
    assert cfg.solver_options == {"max_iter": 7}


def test_config_flags_map_onto_run_options():
    cfg = _config_from_args(build_parser().parse_args(
        ["run", "--problem", "p-dirichlet", "--theta", "0.3", "--iters", "5",
         "--uniform", "--conforming", "average", "--mark-with", "residual",
         "--interior-node"]))
    assert cfg.theta == 0.3
    assert cfg.max_iterations == 5
    assert cfg.uniform
    assert cfg.conforming == "average"
    assert cfg.mark_with == "residual"
    assert cfg.interior_node


def test_main_end_to_end(tmp_path):
    code = main(["run", "--problem", "p-dirichlet", "--p", "2",
                 "--iters", "2", "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "trace.csv").exists()


def _rejected(tmp_path, capsys, *flags):
    """The stderr of a ``pdgap run`` whose input is rejected: exit status
    2, and no ``--out-dir`` made."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", *flags, "--out-dir", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("pdgap run: error: ") and err.count("\n") == 1
    return err


def test_main_rejects_newton_for_optimal_design(tmp_path, capsys):
    err = _rejected(tmp_path, capsys, "--problem", "optimal-design",
                    "--solver", "newton")
    assert 'solver="flow"' in err


def test_main_rejects_a_bad_benchmark_parameter(tmp_path, capsys):
    err = _rejected(tmp_path, capsys, "--problem", "p-dirichlet", "--p", "1")
    assert "p > 1" in err


@pytest.mark.parametrize("flags", [("p-dirichlet", "--p", "inf"),
                                   ("optimal-design", "--lambda", "nan")],
                         ids=["p-inf", "lambda-nan"])
def test_main_rejects_a_non_finite_parameter(tmp_path, capsys, flags):
    problem, *parameter = flags
    _rejected(tmp_path, capsys, "--problem", problem, *parameter)


_UNUSED_VERTEX = "4 1 3\n0 0\n1 0\n0 1\n5 5\n0 1 2\n0 1 D\n1 2 D\n0 2 D\n"
_ALL_NEUMANN = "3 1 3\n0 0\n1 0\n0 1\n0 1 2\n0 1 N\n1 2 N\n0 2 N\n"


@pytest.mark.parametrize(
    "content", [None, "3 1 0\n0 0\n1 0\n", _UNUSED_VERTEX, _ALL_NEUMANN],
    ids=["missing", "malformed", "unused-vertex", "no-dirichlet-side"])
def test_main_rejects_an_unreadable_mesh_file(tmp_path, capsys, content):
    mesh_file = tmp_path / "bad.mesh"
    if content is not None:
        mesh_file.write_text(content)
    _rejected(tmp_path, capsys, "--problem", "p-dirichlet", "--mesh",
              str(mesh_file))


@pytest.mark.parametrize("flags", [("--tol-abs", "nan"), ("--tol-rel", "inf"),
                                   ("--tol-abs", "-1"), ("--max-iter", "-1")],
                         ids=["tol-abs-nan", "tol-rel-inf", "tol-abs-negative",
                              "max-iter-negative"])
def test_main_rejects_a_bad_solver_option(tmp_path, capsys, flags):
    err = _rejected(tmp_path, capsys, "--problem", "p-dirichlet", "--p", "1.6",
                    *flags)
    assert flags[0] in err


@pytest.mark.parametrize("flags", [
    ("optimal-design", "--tol-abs", "1e-8"),
    ("p-dirichlet", "--solver", "flow", "--tol-rel", "1e-3")],
    ids=["tol-abs-design", "tol-rel-flow"])
def test_main_rejects_a_newton_tolerance_for_the_flow(tmp_path, capsys, flags):
    # the flow stops on its own gap and decrease rules, so a tolerance
    # given with it would be ignored
    problem, *rest = flags
    err = _rejected(tmp_path, capsys, "--problem", problem, *rest)
    assert rest[-2] in err and "flow" in err


def test_main_reports_a_solver_failure_with_status_1(tmp_path):
    code = main(["run", "--problem", "p-dirichlet", "--p", "1.6", "--iters",
                 "2", "--max-iter", "0", "--out-dir", str(tmp_path)])
    assert code == 1
    assert read_trace_csv(tmp_path / "trace.csv") == []


def test_main_accepts_mesh_file(tmp_path):
    mesh_file = tmp_path / "square.mesh"
    save_mesh(make_square_mesh(2), mesh_file)
    code = main(["run", "--problem", "p-dirichlet", "--p", "2", "--iters", "1",
                 "--mesh", str(mesh_file), "--out-dir", str(tmp_path)])
    assert code == 0
    records = read_trace_csv(tmp_path / "trace.csv")
    assert records[0].elements == 8
