"""Tests for the adaptive loop: marking, trace recording, CSV round trip."""

import numpy as np
import pytest

import pdgap.afem as afem
from pdgap.afem import (CSV_COLUMNS, AfemConfig, AfemProblem, AfemRecord,
                        AfemTrace, afem_run, conforming_candidate,
                        dorfler_mark, read_trace_csv, write_csv)
from pdgap.cli import BenchmarkSpec
from pdgap.energy_models import OptimalDesignDensity, PPowerDensity
from pdgap.estimators import primal_energy
from pdgap.fespaces import PwConstant, node_average
from pdgap.mesh import make_lshape_mesh, make_square_mesh
from pdgap.quadrature import RULE_ORDER4, TriangleRule
from pdgap.solvers import DiscreteProblem, newton_solve

P2 = PPowerDensity(2.0)


def _lshape_problem(p=2.0, f=1.0):
    return AfemProblem(mesh=make_lshape_mesh(), density=PPowerDensity(p),
                       load=f, label="lshape")


# ---------------------------------------------------------------------------
# The load means and the quadrature points of a level
# ---------------------------------------------------------------------------

def _affine(x):
    return 2.0 * x[..., 0] - 3.0 * x[..., 1] + 1.0


def test_load_means_are_exact_for_affine_and_constant_loads():
    mesh = make_lshape_mesh()
    points = RULE_ORDER4.points(mesh.triangle_coords)
    means = _lshape_problem(f=_affine).load_means(mesh, points)
    assert np.allclose(means.values, _affine(mesh.barycenters))
    ones = _lshape_problem(f=lambda x: np.ones(x.shape[:-1]))
    assert np.isclose(mesh.areas @ ones.load_means(mesh, points).values, 3.0)
    constant = _lshape_problem(f=2.5).load_means(mesh, None)
    assert np.array_equal(constant.values, np.full(mesh.num_triangles, 2.5))


@pytest.mark.parametrize("spec, solver, per_level", [
    (dict(problem="p-dirichlet", p=1.2), "newton", 1),  # load and rho
    (dict(problem="p-dirichlet", p=2.0), "newton", 1),  # rho alone
    (dict(problem="optimal-design"), "flow", 0),
], ids=["p1.2", "p2", "design"])
def test_a_level_builds_its_quadrature_points_at_most_once(
        monkeypatch, spec, solver, per_level):
    built = []  # the element count of every point set
    points = TriangleRule.points

    def spy(rule, vertices):
        built.append(len(vertices))
        return points(rule, vertices)

    monkeypatch.setattr(TriangleRule, "points", spy)
    trace = afem_run(BenchmarkSpec(**spec).make_problem(),
                     AfemConfig(max_iterations=3, solver=solver))
    assert not trace.failed and len(trace.records) == 3
    assert built == per_level * trace.column("elements").tolist()


# ---------------------------------------------------------------------------
# Doerfler marking
# ---------------------------------------------------------------------------

def test_mark_picks_single_dominant_element():
    # total 20, theta^2 * total = 5: the 9 alone crosses the threshold
    marked = dorfler_mark([9.0, 4.0, 3.0, 2.0, 1.0, 1.0], 0.5)
    assert marked.tolist() == [0]


def test_mark_equal_indicators_prefix_count():
    # 16 equal values, theta = 1/2: a quarter of the mass needs ceil(4) ids
    marked = dorfler_mark(np.ones(16), 0.5)
    assert marked.tolist() == [0, 1, 2, 3]


def test_mark_ties_break_toward_smaller_id():
    marked = dorfler_mark([4.0, 4.0, 4.0, 4.0], 0.5)
    assert marked.tolist() == [0]


def test_mark_theta_near_one_marks_all_positive():
    marked = dorfler_mark([1.0, 0.0, 2.0, 0.0], 0.9999999)
    assert marked.tolist() == [0, 2]


def test_mark_all_zero_gives_empty_set():
    assert dorfler_mark(np.zeros(5), 0.5).size == 0
    assert dorfler_mark([], 0.5).size == 0


def test_mark_rejects_bad_input():
    with pytest.raises(ValueError):
        dorfler_mark([1.0, -0.5], 0.5)
    with pytest.raises(ValueError):
        dorfler_mark(np.ones((2, 2)), 0.5)


@pytest.mark.parametrize("vals", [np.full(5, np.inf), [1.0, np.nan, 2.0]],
                         ids=["all-inf", "nan"])
def test_mark_rejects_non_finite_indicators(vals):
    # inf - inf and NaN comparisons would otherwise mark one element or all
    with pytest.raises(ValueError, match="nonnegative"):
        dorfler_mark(vals, 0.5)


def test_mark_minimal_cardinality_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        vals = rng.random(rng.integers(1, 40)) * rng.random()
        theta = rng.uniform(0.05, 0.95)
        marked = dorfler_mark(vals, theta)
        target = theta ** 2 * vals.sum()
        assert vals[marked].sum() >= target
        # dropping the weakest marked element must break the inequality
        assert vals[marked].sum() - vals[marked].min() < target


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    dict(theta=0.0), dict(theta=1.0), dict(theta=-0.2),
    dict(max_iterations=0),
    dict(conforming="project"), dict(solver="lbfgs"), dict(mark_with="h"),
])
def test_config_rejects_invalid_values(bad):
    with pytest.raises(ValueError):
        AfemConfig(**bad)


def test_config_defaults():
    cfg = AfemConfig()
    assert cfg.theta == 0.5
    assert cfg.max_iterations == 20 and not cfg.uniform


# ---------------------------------------------------------------------------
# adaptive runs
# ---------------------------------------------------------------------------

def test_zero_problem_stops_immediately():
    problem = AfemProblem(mesh=make_square_mesh(2), density=P2, load=0.0)
    trace = afem_run(problem, AfemConfig(max_iterations=20))
    assert len(trace.records) == 1
    row = trace.records[0]
    assert row.k == 0 and row.eta_hat_sq == 0.0 and row.discrete_gap == 0.0
    assert not trace.failed


def test_adaptive_run_basic_properties():
    trace = afem_run(_lshape_problem(), AfemConfig(max_iterations=5))
    assert not trace.failed and len(trace.records) == 5
    k = trace.column("k")
    assert k.tolist() == [0, 1, 2, 3, 4]
    N = trace.column("N")
    assert np.all(np.diff(N) > 0)
    assert np.all(np.diff(trace.column("elements")) > 0)
    eta_hat = trace.column("eta_hat_sq")
    assert np.all(eta_hat > 0.0)
    assert eta_hat[-1] < eta_hat[0]
    res = trace.column("eta_res_sq")
    assert np.all(np.isfinite(res)) and np.all(res > 0.0)
    # no exact solution supplied: the error columns are not-a-number
    assert np.all(np.isnan(trace.column("rho_sq")))
    assert np.all(np.isnan(trace.column("rho_I_sq")))


def test_gap_equals_estimator_total_along_run():
    trace = afem_run(_lshape_problem(), AfemConfig(max_iterations=4))
    for row in trace.records:
        assert row.discrete_gap == row.I_primal - row.D_dual
        scale = max(1.0, abs(row.I_primal), abs(row.D_dual))
        assert row.discrete_gap > 0.0
        assert abs(row.discrete_gap - row.eta_hat_sq) <= 1e-9 * scale


def test_energy_monotonicity_along_refinement():
    # conforming minima do not increase (nested spaces with zero data);
    # nonconforming minima sit below the limit and approach it from below
    trace = afem_run(_lshape_problem(), AfemConfig(max_iterations=5))
    conf = trace.column("I_primal")
    tol = 1e-10 * np.abs(conf).max()
    assert np.all(np.diff(conf) <= tol)
    noncf = np.array(trace.cr_energies)
    assert noncf.size == 5
    assert np.all(np.diff(noncf) >= -tol)
    assert np.all(noncf <= conf + tol)


def test_final_level_state_matches_last_row():
    trace = afem_run(_lshape_problem(), AfemConfig(max_iterations=3))
    last = trace.records[-1]
    assert trace.final is not None
    assert trace.final.mesh.num_triangles == last.elements
    assert trace.final.mesh.num_vertices == last.N
    assert trace.final.indicators.eta_hat_sq.shape == (last.elements,)
    assert trace.final.residual.eta_res_sq.shape == (last.elements,)
    assert primal_energy(trace.final.candidate, P2,
                         trace.final.f_h) == last.I_primal


def test_uniform_flag_quadruples_elements():
    problem = AfemProblem(mesh=make_square_mesh(2), density=P2, load=1.0)
    trace = afem_run(problem, AfemConfig(max_iterations=3, uniform=True))
    assert trace.column("elements").tolist() == [8, 32, 128]


def test_solver_failure_flags_partial_trace():
    cfg = AfemConfig(max_iterations=5, solver_options=dict(max_iter=0))
    trace = afem_run(_lshape_problem(p=1.6), cfg)
    assert trace.failed and "did not converge at iteration 0" in trace.failure_reason
    assert len(trace.records) == 0


def test_infeasible_flux_stops_the_run_after_its_row(monkeypatch):
    # the flux of a stress that solves no linear CR problem fails the
    # feasibility test: the level's row is recorded, then the run stops
    reconstruct = afem.marini_reconstruct

    def scaled_stress(u, density, load, stress):
        return reconstruct(u, density, load, stress=1.5 * stress)

    monkeypatch.setattr(afem, "marini_reconstruct", scaled_stress)
    trace = afem_run(_lshape_problem(p=1.6), AfemConfig(max_iterations=3))
    assert trace.failed and "feasibility test" in trace.failure_reason
    assert len(trace.records) == 1
    row = trace.records[0]
    assert row.eta_hat_sq == np.inf and row.D_dual == -np.inf


def test_refinement_without_new_vertices_raises(monkeypatch):
    # an explicit error, not an assert, so that it survives python -O
    monkeypatch.setattr("pdgap.afem.refine", lambda mesh, marked, **kw: mesh)
    with pytest.raises(RuntimeError, match="added no vertices"):
        afem_run(_lshape_problem(), AfemConfig(max_iterations=3))


def test_residual_marking_runs():
    cfg = AfemConfig(max_iterations=3, mark_with="residual")
    trace = afem_run(_lshape_problem(), cfg)
    assert not trace.failed and len(trace.records) == 3
    assert np.all(np.diff(trace.column("N")) > 0)


def test_average_mode_and_interior_node_run():
    cfg = AfemConfig(max_iterations=3, conforming="average",
                     interior_node=True)
    trace = afem_run(_lshape_problem(), cfg)
    assert not trace.failed and len(trace.records) == 3
    assert np.all(trace.column("discrete_gap") > 0.0)


def test_flow_solver_keeps_weak_duality():
    # both flow solves stop early, on their gap rules, yet the
    # reconstruction stays feasible, so the gap must remain nonnegative
    problem = AfemProblem(mesh=make_lshape_mesh(),
                          density=OptimalDesignDensity(1.0, 2.0, 0.0145),
                          load=1.0)
    cfg = AfemConfig(max_iterations=2, solver="flow")
    trace = afem_run(problem, cfg)
    assert not trace.failed and len(trace.records) == 2
    assert np.all(trace.column("discrete_gap") >= 0.0)
    assert np.all(np.isfinite(trace.column("D_dual")))


def test_newton_on_optimal_design_is_rejected_before_any_level(monkeypatch):
    # the plateau Hessian is singular, so Newton cannot promise a bracket
    def no_solve(*args, **kwargs):
        raise AssertionError("a level ran")

    monkeypatch.setattr("pdgap.afem.solve_problem", no_solve)
    problem = AfemProblem(mesh=make_lshape_mesh(),
                          density=OptimalDesignDensity(1.0, 2.0, 0.0145),
                          load=1.0)
    with pytest.raises(ValueError, match='solver="flow"'):
        afem_run(problem, AfemConfig(solver="newton"))


def test_flow_study_energies_fall_and_bracket_holds():
    # the P1 solve stops once a step gains little against the CR flux's
    # dual value; the candidates must still improve from level to level
    problem = AfemProblem(mesh=make_lshape_mesh(),
                          density=OptimalDesignDensity(1.0, 2.0, 0.0145),
                          load=1.0)
    trace = afem_run(problem, AfemConfig(max_iterations=6, solver="flow"))
    assert not trace.failed and len(trace.records) == 6
    primal = trace.column("I_primal")
    dual = trace.column("D_dual")
    assert np.all(np.diff(primal) <= 0.0)
    assert np.all(np.isfinite(dual)) and np.all(dual <= primal)
    assert np.all(trace.column("discrete_gap") >= 0.0)


def test_flow_level_without_free_vertices_runs():
    # the two-triangle square has no interior vertex, so the P1 flow
    # steps solve empty systems
    problem = AfemProblem(mesh=make_square_mesh(1),
                          density=OptimalDesignDensity(), load=1.0)
    trace = afem_run(problem, AfemConfig(max_iterations=1, solver="flow"))
    assert not trace.failed and len(trace.records) == 1
    assert trace.column("D_dual")[0] <= trace.column("I_primal")[0]


def test_flow_solver_stops_on_an_exactly_solved_level():
    # affine boundary data and no load: every level is solved exactly, so
    # the estimate is roundoff and the stop rule must allow for it
    def affine(x):
        return 0.3 * x[..., 0] - 0.7 * x[..., 1] + 0.2

    problem = AfemProblem(mesh=make_lshape_mesh(),
                          density=OptimalDesignDensity(1.0, 2.0, 0.0145),
                          load=0.0, dirichlet=affine)
    cfg = AfemConfig(max_iterations=3, solver="flow",
                     solver_options={"max_iter": 50})
    trace = afem_run(problem, cfg)
    assert not trace.failed and len(trace.records) == 3
    assert np.all(np.abs(trace.column("discrete_gap")) <= 1e-12)
    assert np.all(trace.column("eta_hat_sq") <= 1e-12)


def test_exact_gradient_populates_both_error_columns():
    # at p = 2 the F-metric error is exactly twice the energy distance
    problem = BenchmarkSpec(problem="p-dirichlet", p=2.0).make_problem()
    trace = afem_run(problem, AfemConfig(max_iterations=3))
    rho_F = trace.column("rho_sq")
    rho_I = trace.column("rho_I_sq")
    assert np.all(rho_I > 0.0)
    assert np.allclose(rho_I, 0.5 * rho_F, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# conforming candidate helper
# ---------------------------------------------------------------------------

def _cr_minimizer(mesh, density, f_h):
    state, rep = newton_solve(DiscreteProblem(mesh, density, f_h, space="cr"),
                              tol_abs=1e-12)
    assert rep.converged
    return DiscreteProblem(mesh, density, f_h, space="cr").function(state)


def test_conforming_average_matches_node_average():
    mesh = make_lshape_mesh()
    f_h = PwConstant(mesh, np.ones(mesh.num_triangles))
    u = _cr_minimizer(mesh, P2, f_h)
    cand, report = conforming_candidate(u, P2, f_h, mode="average")
    assert report is None
    direct = node_average(u, dirichlet_values=np.zeros(mesh.num_vertices))
    assert np.array_equal(cand.values, direct.values)
    assert np.all(cand.values[mesh.dirichlet_vertex_mask] == 0.0)


def test_conforming_minimize_beats_average():
    mesh = make_lshape_mesh()
    f_h = PwConstant(mesh, np.ones(mesh.num_triangles))
    u = _cr_minimizer(mesh, P2, f_h)
    avg, _ = conforming_candidate(u, P2, f_h, mode="average")
    opt, report = conforming_candidate(u, P2, f_h, mode="minimize")
    assert report is not None and report.converged
    assert primal_energy(opt, P2, f_h) <= primal_energy(avg, P2, f_h)


def test_conforming_unknown_mode_raises():
    mesh = make_square_mesh(1)
    f_h = PwConstant(mesh, np.ones(mesh.num_triangles))
    u = _cr_minimizer(mesh, P2, f_h)
    with pytest.raises(ValueError):
        conforming_candidate(u, P2, f_h, mode="clip")


# ---------------------------------------------------------------------------
# trace serialization and reproducibility
# ---------------------------------------------------------------------------

def _records_equal(a: AfemRecord, b: AfemRecord, skip_seconds=False) -> bool:
    for name in CSV_COLUMNS:
        if skip_seconds and name == "seconds":
            continue
        x, y = getattr(a, name), getattr(b, name)
        if not (x == y or (np.isnan(x) and np.isnan(y))):
            return False
    return True


def test_trace_csv_round_trip(tmp_path):
    trace = afem_run(_lshape_problem(), AfemConfig(max_iterations=3))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    back = read_trace_csv(path)
    assert len(back) == len(trace.records)
    for got, expected in zip(back, trace.records):
        assert _records_equal(got, expected)


def test_write_csv_formats_every_cell_with_17_digits(tmp_path):
    path = tmp_path / "cells.csv"
    write_csv(path, ("i", "x", "y", "u", "v"),
              [(7, 0.1, np.float64(1.0) / 3.0, np.nan, np.inf)])
    assert path.read_bytes() == (
        b"i,x,y,u,v\n7,0.10000000000000001,0.33333333333333331,nan,inf\n")


def test_trace_csv_rejects_bad_header(tmp_path):
    # the second header is the schema before the order-4 eta_sq column
    # was dropped
    old = ("k,N,elements,eta_hat_sq,eta_sq,eta_res_sq,rho_sq,rho_I_sq,"
           "I_primal,D_dual,discrete_gap,seconds")
    path = tmp_path / "bad.csv"
    for text in ("k,N,elements\n0,1,2\n",
                 old + "\n0,3,1" + ",1.0" * 9 + "\n"):
        path.write_text(text)
        with pytest.raises(ValueError):
            read_trace_csv(path)


def test_identical_config_reproduces_trace():
    cfg = AfemConfig(max_iterations=4)
    first = afem_run(_lshape_problem(), cfg)
    second = afem_run(_lshape_problem(), cfg)
    assert len(first.records) == len(second.records)
    for a, b in zip(first.records, second.records):
        assert _records_equal(a, b, skip_seconds=True)


def test_trace_column_accessor_validates_name():
    trace = AfemTrace()
    with pytest.raises(KeyError):
        trace.column("nope")
    assert trace.column("k").size == 0
