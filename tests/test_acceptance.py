"""End-to-end acceptance suite: eight numbered guarantees, one verdict each.

Each test prints a single ``[acceptance] <n> ...: PASS/FAIL`` line with the
measured wall time and, on failure, the violated sub-checks.  Guarantees 1,
2, 3 and 8 are cheap and assert their wall-clock budget; the adaptive runs
behind 4-7 report their timing without asserting it (hardware dependent).

The four adaptive benchmark runs (p = 1.6 and p = 1.2, conforming candidate
by minimization and by vertex averaging) and the optimal-design gradient-flow
run are shared module-scoped fixtures, so the whole suite performs each run
exactly once.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from pdgap.afem import AfemConfig, afem_run
from pdgap.cli import BenchmarkSpec
from pdgap.energy_models import (OptimalDesignDensity, PPowerDensity,
                                 check_fenchel_young)
from pdgap.estimators import aitken_extrapolate
from pdgap.fespaces import (CrFunction, PwConstant, PwConstantVector,
                            Rt0Field, ibp_residual, side_jump, vector_jump)
from pdgap.mesh import make_lshape_mesh, make_square_mesh, uniform_refine
from pdgap.reconstruction import marini_reconstruct, verify_discrete_optimality
from pdgap.solvers import DiscreteProblem, newton_solve

# Newton residual targets for the duality round trip; the p = 1.2 problem is
# degenerate at the re-entrant corner and stalls slightly above 1e-6.
NEWTON_TOL = {1.2: 5e-6, 1.6: 1e-10, 2.0: 1e-10}

DESIGN_REFERENCE_ENERGY = -0.0745503


def _verdict(label: str, checks, elapsed: float,
             budget: float | None = None) -> None:
    """Print one pass/fail line for a numbered guarantee, then assert it."""
    rows = list(checks)
    if budget is not None:
        rows.append((f"wall {elapsed:.1f}s within {budget:.0f}s budget",
                     elapsed <= budget))
    failed = [msg for msg, ok in rows if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"[acceptance] {label}: {status} ({elapsed:.1f}s)"
          + (" -- " + "; ".join(failed) if failed else ""))
    if failed:
        pytest.fail(f"{label}: " + "; ".join(failed), pytrace=False)


def _slope(trace, column: str, window: int = 8) -> float:
    """Least-squares slope of log(column) against log(N) over the last
    ``window`` adaptive iterations."""
    n = np.log(trace.column("N")[-window:])
    y = np.log(trace.column(column)[-window:])
    return float(np.polyfit(n, y, 1)[0])


def _energy_distance_check(p: float, trace) -> tuple[str, bool]:
    """The constant-free reliability sub-check of checks 4 and 6.

    The gap estimator bounds the energy distance rho_I^2 (the ``rho_I_sq``
    column) with constant 1.  It does not bound the F-metric error in
    ``rho_sq`` with constant 1: for p < 2 the two measures differ by a
    p-dependent factor (exactly 2 at p = 2).  The paper's bound also adds
    data terms, which the estimator column leaves out, so this check is the
    stricter one.  The worst F-metric ratio is reported alongside.
    """
    rho_I = trace.column("rho_I_sq")
    eta = trace.column("eta_hat_sq")
    violations = int(np.sum(~(rho_I <= eta)))
    worst = float(np.max(rho_I / eta))
    worst_F = float(np.max(trace.column("rho_sq") / eta))
    return (f"p={p}: squared energy distance <= squared estimator at every "
            f"level (violated at {violations}/20, worst ratio {worst:.3f}; "
            f"F-metric worst ratio {worst_F:.3f})", violations == 0)


def _adaptive_run(*, problem: str = "p-dirichlet", p: float | None = None,
                  conforming: str = "minimize", solver: str = "newton",
                  solver_options: dict | None = None):
    spec = (BenchmarkSpec(problem=problem, p=p) if p is not None
            else BenchmarkSpec(problem=problem))
    cfg = AfemConfig(max_iterations=20, theta=0.5, conforming=conforming,
                     solver=solver, solver_options=solver_options or {})
    t0 = time.perf_counter()
    trace = afem_run(spec.make_problem(), cfg)
    return trace, time.perf_counter() - t0


@pytest.fixture(scope="module")
def power_runs():
    """The four 20-iteration adaptive runs on the singular benchmark."""
    runs = {}
    for p in (1.6, 1.2):
        # keep the Newton target above the p = 1.2 stall level
        options = {"tol_abs": NEWTON_TOL[p]} if p == 1.2 else None
        for mode in ("minimize", "average"):
            runs[p, mode] = _adaptive_run(p=p, conforming=mode,
                                          solver_options=options)
    return runs


@pytest.fixture(scope="module")
def design_run():
    """20-iteration adaptive optimal-design run driven by the flow solver
    (the Kacanov iteration).

    ``max_iter`` only raises the per-level iteration cap; the stop rules
    keep their defaults (the discrete-gap rule on CR; on P1, a step that
    lowers the energy by at most ``GAMMA`` of its gap to the CR flux's
    discrete dual value).
    """
    return _adaptive_run(problem="optimal-design", solver="flow",
                         solver_options={"max_iter": 3000})


# ---------------------------------------------------------------------------
# 1. discrete identities
# ---------------------------------------------------------------------------

def test_1_discrete_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    meshes = [make_lshape_mesh(), make_square_mesh(3),
              uniform_refine(make_lshape_mesh(), 1)]
    pair_counts = [34, 33, 33]  # 100 random flux/function pairs in total

    worst_ibp = worst_mean = worst_kron = worst_jump = 0.0
    for mesh, n_pairs in zip(meshes, pair_counts):
        interior = mesh.interior_side_ids
        for _ in range(n_pairs):
            z = Rt0Field(mesh, rng.standard_normal(mesh.num_sides))
            v = CrFunction(mesh, rng.standard_normal(mesh.num_sides))
            a, b = z.element_linear()
            bulk_div = abs(float(mesh.areas @ (2.0 * b * v.element_means())))
            bulk_grad = abs(float(
                mesh.areas @ np.einsum("td,td->t", a, v.gradients())))
            scale = 1.0 + bulk_div + bulk_grad
            worst_ibp = max(worst_ibp, abs(ibp_residual(z, v)) / scale)

        v = CrFunction(mesh, rng.standard_normal(mesh.num_sides))
        mean_jump = side_jump(v).mean(axis=1)[interior]
        worst_mean = max(worst_mean, float(np.abs(mean_jump).max())
                         / (1.0 + float(np.abs(v.values).max())))

        for j in rng.choice(mesh.num_sides, size=8, replace=False):
            unit = np.zeros(mesh.num_sides)
            unit[j] = 1.0
            a, b = Rt0Field(mesh, unit).element_linear()
            for col in (0, 1):
                tris = mesh.side_tris[:, col]
                valid = tris >= 0
                at_mid = a[tris[valid]] + b[tris[valid], None] * (
                    mesh.side_midpoints[valid]
                    - mesh.barycenters[tris[valid]])
                trace = np.einsum("sd,sd->s", at_mid,
                                  mesh.side_normals[valid])
                worst_kron = max(worst_kron,
                                 float(np.abs(trace - unit[valid]).max()))

        v = CrFunction(mesh, rng.standard_normal(mesh.num_sides))
        grad_jump = vector_jump(PwConstantVector(mesh, v.gradients()))
        endpoint_jump = side_jump(v)
        for col in (0, 1):
            offset = mesh.vertices[mesh.sides[:, col]] - mesh.side_midpoints
            predicted = np.einsum("sd,sd->s", grad_jump, offset)
            defect = np.abs(endpoint_jump[:, col] - predicted)[interior]
            worst_jump = max(worst_jump, float(defect.max())
                             / (1.0 + float(np.abs(grad_jump).max())))

    elapsed = time.perf_counter() - t0
    _verdict("1 discrete identities", [
        (f"integration-by-parts residual {worst_ibp:.2e} <= 1e-12 "
         "relative to the bulk terms", worst_ibp <= 1e-12),
        (f"nonconforming side-mean jump {worst_mean:.2e} <= 1e-12",
         worst_mean <= 1e-12),
        (f"flux basis Kronecker defect {worst_kron:.2e} <= 1e-12",
         worst_kron <= 1e-12),
        (f"endpoint jump vs gradient-jump identity defect {worst_jump:.2e} "
         "<= 1e-12", worst_jump <= 1e-12),
    ], elapsed, budget=10.0)


# ---------------------------------------------------------------------------
# 2. convex analysis
# ---------------------------------------------------------------------------

def test_2_convex_analysis():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    n = 10_000
    densities = [PPowerDensity(1.2), PPowerDensity(1.6), PPowerDensity(2.0),
                 OptimalDesignDensity()]

    fy_violation = 0.0       # how far below zero the defect ever dips
    pair_defect = 0.0        # defect at b = dphi(a), should vanish
    for density in densities:
        a = rng.standard_normal((n, 2)) * np.exp(rng.uniform(-3, 1, (n, 1)))
        b = rng.standard_normal((n, 2)) * np.exp(rng.uniform(-3, 1, (n, 1)))
        fy_violation = max(fy_violation,
                           -float(check_fenchel_young(density, a, b).min()))
        pair_defect = max(pair_defect, float(np.abs(
            check_fenchel_young(density, a, density.dphi(a))).max()))

    od = OptimalDesignDensity()
    a = rng.standard_normal((n, 2)) * rng.uniform(0.0, 0.6, (n, 1))
    b = rng.standard_normal((n, 2)) * rng.uniform(0.0, 0.6, (n, 1))
    bregman = od.phi(a) - od.phi(b) - np.sum(od.dphi(b) * (a - b), axis=-1)
    lower = (np.sum((od.dphi(a) - od.dphi(b)) ** 2, axis=-1)
             / (2.0 * od.grad_lipschitz))
    coco_violation = -float((bregman - lower).min())

    def grid_sup(profile, s, tmax, points=400_001):
        t = np.linspace(0.0, tmax, points)
        return float(np.max(s * t - profile(t)))

    sup_defect = 0.0
    for p in (1.2, 1.6, 2.0):
        d = PPowerDensity(p)
        for s in np.linspace(0.05, 1.5, 15):
            tstar = s ** (d.q - 1.0)
            got = grid_sup(lambda t: t ** p / p, s, max(2.0 * tstar, 1.0))
            sup_defect = max(sup_defect, abs(got - s ** d.q / d.q))
    for s in np.linspace(0.01, 1.0, 15):
        sup_defect = max(sup_defect, abs(grid_sup(od.psi, s, 3.0)
                                         - od.psi_star(float(s))))

    elapsed = time.perf_counter() - t0
    _verdict("2 convex analysis", [
        (f"Fenchel-Young violation {fy_violation:.2e} <= 1e-12",
         fy_violation <= 1e-12),
        (f"gradient-pair equality defect {pair_defect:.2e} <= 1e-9",
         pair_defect <= 1e-9),
        (f"design-density co-coercivity violation {coco_violation:.2e} "
         "<= 1e-12", coco_violation <= 1e-12),
        (f"conjugate vs grid-sup oracle defect {sup_defect:.2e} <= 1e-6",
         sup_defect <= 1e-6),
    ], elapsed, budget=10.0)


# ---------------------------------------------------------------------------
# 3. duality round trip
# ---------------------------------------------------------------------------

def test_3_duality_round_trip():
    t0 = time.perf_counter()
    checks = []
    base = make_lshape_mesh()
    for p in (1.2, 1.6, 2.0):
        density = PPowerDensity(p)
        tol = NEWTON_TOL[p]
        worst_div = worst_mean = worst_jump = worst_gap = 0.0
        converged = True
        for level in range(3):
            mesh = uniform_refine(base, level) if level else base
            f_h = PwConstant(mesh, np.ones(mesh.num_triangles))
            prob = DiscreteProblem(mesh, density, f_h, space="cr")
            u0 = None
            if p != 2.0:  # start the degenerate problems at the p=2 solution
                quad = DiscreteProblem(mesh, PPowerDensity(2.0), f_h,
                                       space="cr")
                u0, _ = newton_solve(quad, tol_abs=1e-12)
            u, report = newton_solve(prob, u0=u0, tol_abs=tol, tol_rel=0.0,
                                     max_iter=200)
            converged = converged and report.converged
            u_fn = prob.function(u)
            z = marini_reconstruct(u_fn, density, f_h)
            dr = verify_discrete_optimality(u_fn, z, density, f_h)

            worst_div = max(worst_div, dr.max_div_defect)
            worst_mean = max(worst_mean, dr.max_mean_defect)
            worst_jump = max(worst_jump, dr.max_flux_jump)
            worst_gap = max(worst_gap,
                            abs(dr.gap) / (abs(dr.primal) + abs(dr.dual)))
        checks += [
            (f"p={p}: Newton converged on all 3 levels", converged),
            (f"p={p}: divergence + load defect {worst_div:.1e} exactly 0",
             worst_div == 0.0),
            (f"p={p}: flux element means match the gradient map to "
             f"{worst_mean:.1e} <= {10 * tol:.0e}", worst_mean <= 10 * tol),
            (f"p={p}: normal-flux side mismatch {worst_jump:.1e} "
             f"<= {10 * tol:.0e}", worst_jump <= 10 * tol),
            (f"p={p}: primal/dual energy agreement {worst_gap:.1e} <= 1e-6",
             worst_gap <= 1e-6),
        ]
    elapsed = time.perf_counter() - t0
    _verdict("3 duality round trip", checks, elapsed, budget=60.0)


# ---------------------------------------------------------------------------
# 4. adaptive benchmark runs (theta = 1/2, 20 iterations)
# ---------------------------------------------------------------------------

def test_4_adaptive_runs(power_runs):
    checks = []
    wall = 0.0
    for p in (1.6, 1.2):
        trace, secs = power_runs[p, "minimize"]
        wall += secs
        ok = not trace.failed and len(trace.records) == 20
        checks.append((f"p={p}: run completed 20 levels", ok))
        if not ok:
            continue
        checks.append(_energy_distance_check(p, trace))
        slope = _slope(trace, "eta_hat_sq")
        checks.append(
            (f"p={p}: estimator decay slope {slope:.3f} in [-1.25, -0.75]",
             -1.25 <= slope <= -0.75))
        gap = trace.column("discrete_gap")
        ratio = float(gap[5] / gap[19])
        checks.append((f"p={p}: duality gap positive at every level",
                       bool(np.all(gap > 0.0))))
        checks.append(
            (f"p={p}: gap shrinks {ratio:.0f}x >= 10x from level 5 to 19",
             ratio >= 10.0))
    _verdict("4 adaptive runs", checks, wall)


# ---------------------------------------------------------------------------
# 5. estimator equivalence on the same runs
# ---------------------------------------------------------------------------

def test_5_estimator_equivalence(power_runs):
    checks = []
    wall = 0.0
    for p in (1.6, 1.2):
        trace, secs = power_runs[p, "minimize"]
        wall += secs
        if trace.failed or len(trace.records) != 20:
            checks.append((f"p={p}: run completed 20 levels", False))
            continue
        ratio = trace.column("eta_hat_sq") / trace.column("eta_res_sq")
        lo, hi = float(ratio.min()), float(ratio.max())
        checks.append(
            (f"p={p}: gap/residual estimator ratio in [{lo:.3f}, {hi:.3f}] "
             "subset of [1/50, 50]", 1.0 / 50.0 <= lo and hi <= 50.0))
        diff = abs(_slope(trace, "eta_hat_sq") - _slope(trace, "eta_res_sq"))
        checks.append(
            (f"p={p}: decay slopes differ by {diff:.3f} <= 0.2",
             diff <= 0.2))
    _verdict("5 estimator equivalence", checks, wall)


# ---------------------------------------------------------------------------
# 6. vertex-averaged conforming candidate variant
# ---------------------------------------------------------------------------

def test_6_averaging_variant(power_runs):
    checks = []
    wall = 0.0
    for p in (1.6, 1.2):
        trace, secs = power_runs[p, "average"]
        wall += secs
        ok = not trace.failed and len(trace.records) == 20
        checks.append((f"p={p}: run completed 20 levels", ok))
        if not ok:
            continue
        checks.append(_energy_distance_check(p, trace))
        slope = _slope(trace, "eta_hat_sq")
        checks.append(
            (f"p={p}: estimator decay slope {slope:.3f} in [-1.25, -0.75]",
             -1.25 <= slope <= -0.75))
    _verdict("6 averaging variant", checks, wall)


# ---------------------------------------------------------------------------
# 7. optimal-design benchmark
# ---------------------------------------------------------------------------

def test_7_optimal_design(design_run):
    trace, wall = design_run
    checks = [("run completed 20 levels",
               not trace.failed and len(trace.records) == 20)]
    if checks[0][1]:
        primal = trace.column("I_primal")
        dual = trace.column("D_dual")
        uptick = float(np.diff(primal).max())
        checks.append(
            (f"primal energies non-increasing (worst uptick {uptick:.1e})",
             bool(np.all(np.diff(primal)
                         <= 1e-12 * np.maximum(1.0, np.abs(primal[:-1]))))))
        checks.append(("dual energies below primal at every level",
                       bool(np.all(dual <= primal))))
        limit = aitken_extrapolate(primal)
        err = abs(limit.value - DESIGN_REFERENCE_ENERGY)
        checks.append(
            (f"extrapolated primal energy {limit.value:.7f} within 5e-4 of "
             f"{DESIGN_REFERENCE_ENERGY}", not limit.degenerate
             and err <= 5e-4))
        gap = trace.column("discrete_gap")
        ratio = float(gap[5] / gap[19])
        checks.append((f"gap positive and shrinking {ratio:.0f}x >= 10x "
                       "from level 5 to 19",
                       bool(np.all(gap > 0.0)) and ratio >= 10.0))
    _verdict("7 optimal design", checks, wall)


# ---------------------------------------------------------------------------
# 8. solver verification
# ---------------------------------------------------------------------------

def test_8_solver_verification():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    mesh = make_lshape_mesh()
    f_h = PwConstant(mesh, np.ones(mesh.num_triangles))
    checks = []
    for name, density in (("p=1.6", PPowerDensity(1.6)),
                          ("p=2", PPowerDensity(2.0)),
                          ("design", OptimalDesignDensity())):
        prob = DiscreteProblem(mesh, density, f_h, space="cr")
        free = prob.free_mask
        worst_grad = worst_hess = 0.0
        eps = 1e-6
        for _ in range(20):
            v = prob.impose_dirichlet(rng.standard_normal(prob.num_dofs))
            w = np.zeros(prob.num_dofs)
            w[free] = rng.standard_normal(int(free.sum()))
            fd = (prob.energy(v + eps * w)
                  - prob.energy(v - eps * w)) / (2 * eps)
            exact = float(prob.gradient(v) @ w)
            worst_grad = max(worst_grad,
                             abs(fd - exact) / max(1.0, abs(exact)))
            fd_vec = (prob.gradient(v + eps * w)
                      - prob.gradient(v - eps * w))[free] / (2 * eps)
            exact_vec = prob.hessian(v) @ w[free]
            worst_hess = max(
                worst_hess, float(np.linalg.norm(fd_vec - exact_vec))
                / max(1.0, float(np.linalg.norm(exact_vec))))
        checks += [
            (f"{name}: gradient finite-difference defect {worst_grad:.1e} "
             "<= 1e-5", worst_grad <= 1e-5),
            (f"{name}: Hessian finite-difference defect {worst_hess:.1e} "
             "<= 1e-5", worst_hess <= 1e-5),
        ]

    prob = DiscreteProblem(mesh, PPowerDensity(2.0), f_h, space="cr")
    _, report = newton_solve(prob, tol_abs=1e-10)
    checks.append(
        (f"quadratic problem solved by one Newton step "
         f"({report.iterations} iterations)",
         report.converged and report.iterations == 1))

    elapsed = time.perf_counter() - t0
    _verdict("8 solver verification", checks, elapsed, budget=30.0)
