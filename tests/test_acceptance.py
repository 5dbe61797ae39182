"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy sweeps
(criteria 5-8) use the frozen configurations recorded in their tests and
finish in a few minutes altogether.
"""

import math
import time

import numpy as np
import pytest

from rgglearn.geometry import (
    Box,
    build_graph,
    make_density,
    make_kernel,
    sample_points,
)
from rgglearn.graph_core import (
    GraphFunction,
    LaplacianKind,
    graph_delta,
    inner,
    laplacian_apply,
    weighted_mean,
)
from rgglearn.heat_kernel import heat_column, heat_convolve, psi_table, smooth_poisson
from rgglearn.poisson_solver import (
    SourceSpec,
    assemble_source,
    solve_graph_poisson,
    solve_laplace_learning,
)
from rgglearn.continuum_ref import GridFunction, build_grid, solve_weighted_poisson
from rgglearn.experiments import (
    ExperimentConfig,
    demo_two_point,
    run_convergence,
    run_heat_asymptotics,
    run_mollification_rate,
)


def report(num, name, ok, detail):
    line = "criterion %s (%s): %s  [%s]" % (num, name, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def oracle_graph(n, eps, seed=7):
    box = Box([0, 0], [1, 1])
    rho = make_density("constant", box)
    pts = sample_points(box, rho, n, seed=seed)
    g = build_graph(pts, eps, make_kernel("indicator", 2), seed=seed)
    assert g.connected
    return g


def test_criterion_1_exact_identity_suite():
    t0 = time.time()
    g = oracle_graph(n=150, eps=0.3)
    W = g.weight_matrix().toarray()
    deg = g.degrees
    P = W / deg[None, :]  # column propagator
    Q = W / deg[:, None]  # function propagator
    rng = np.random.default_rng(0)
    u = GraphFunction(g, rng.normal(size=g.n))
    v = GraphFunction(g, rng.normal(size=g.n))
    worst = {}

    worst["mass"] = max(abs(np.mean(heat_column(g, 3, k).values) - 1.0)
                        for k in (1, 10, 100, 1000))

    delta4 = graph_delta(4, g).values
    col12 = heat_column(g, 4, 12).values
    worst["oracle"] = np.max(np.abs(col12 - np.linalg.matrix_power(P, 12) @ delta4))
    col5 = heat_column(g, 4, 5).values
    worst["semigroup"] = np.max(np.abs(col12 - np.linalg.matrix_power(P, 7) @ col5))

    a = heat_convolve(g, 3, laplacian_apply(u, LaplacianKind.RandomWalk))
    b = laplacian_apply(heat_convolve(g, 3, u), LaplacianKind.RandomWalk)
    worst["commutation"] = np.max(np.abs(a.values - b.values))

    lhs = inner(heat_convolve(g, 6, u), v)
    rhs = inner(u, g.func(np.linalg.matrix_power(P, 6) @ v.values))
    worst["adjointness"] = abs(lhs - rhs) / max(1.0, abs(lhs))

    adj = laplacian_apply(u, LaplacianKind.RandomWalkAdjoint).values
    conj = deg * laplacian_apply(g.func(u.values / deg), LaplacianKind.RandomWalk).values
    worst["conjugation"] = np.max(np.abs(adj - conj)) / max(1.0, np.max(np.abs(adj)))

    x = 9
    convd = heat_convolve(g, 5, graph_delta(x, g)).values
    colx = heat_column(g, x, 5).values
    worst["delta-column"] = np.max(np.abs(convd - deg[x] * colx / deg))

    cols = np.stack([heat_column(g, y, 7).values for y in range(g.n)], axis=1)
    sym = cols * deg[None, :]
    worst["degree-symmetry"] = np.max(np.abs(sym - sym.T)) / np.max(np.abs(sym))

    f = laplacian_apply(u, LaplacianKind.RandomWalk)
    acc = heat_convolve(g, 4, u).values.copy()
    for j in range(4):
        acc += heat_convolve(g, j, f).values
    worst["mean-value"] = np.max(np.abs(u.values - acc))

    s = SourceSpec(np.array([[0.3, 0.3], [0.7, 0.7]]), np.array([1.0, -1.0]))
    up, _ = solve_graph_poisson(g, s, tol=1e-12)
    k = 6
    uk, fk = smooth_poisson(g, up, s, k)
    lu = laplacian_apply(uk, LaplacianKind.GeometricScaled)
    worst["smoothed-poisson"] = (np.max(np.abs(lu.values - fk.values))
                                 / max(1.0, np.max(np.abs(fk.values))))
    nodes = [int(np.argmin(np.linalg.norm(g.points - a, axis=1))) for a in s.anchors]
    acc = np.zeros(g.n)
    for node, coef in zip(nodes, s.coefficients):
        for j in range(k):
            acc += coef * heat_column(g, node, j).values
    scale = g.sigma_eta * g.eps**2 * (g.n - 1)
    worst["difference"] = np.max(np.abs((up.values - uk.values) - scale * acc / deg))

    elapsed = time.time() - t0
    ok = worst["mass"] < 1e-12 and all(e < 1e-10 for e in worst.values()) \
        and elapsed < 30
    report(1, "exact identity suite", ok,
           "worst mass %.2e, worst identity %.2e, %.1fs"
           % (worst["mass"], max(worst.values()), elapsed))


def test_criterion_2_solver_contracts():
    t0 = time.time()
    g = oracle_graph(n=48, eps=0.5, seed=3)
    W = g.weight_matrix().toarray()
    deg = g.degrees
    L = (np.diag(deg) - W) / (g.sigma_eta * g.eps**2 * (g.n - 1))
    s = SourceSpec(np.array([[0.3, 0.3], [0.7, 0.7]]), np.array([1.0, -1.0]))
    f = assemble_source(g, s)
    tol = 1e-10

    u, rep = solve_graph_poisson(g, s, tol=tol)
    resid = np.linalg.norm(L @ u.values - f.values)
    resid_ok = resid <= tol * np.linalg.norm(f.values) * (1 + 1e-6)
    gauge = abs(weighted_mean(u))
    gauge_ok = gauge <= 1e-12 * max(1.0, np.max(np.abs(u.values)))

    pinv_u = np.linalg.pinv(L) @ f.values
    pinv_u -= weighted_mean(g.func(pinv_u))
    pinv_gap = np.max(np.abs(u.values - pinv_u))

    labels = [(0, -1.0), (17, 1.0)]
    lap = solve_laplace_learning(g, labels, tol=1e-9)
    mv = lap.values - (W @ lap.values) / deg
    unlabeled = np.setdiff1d(np.arange(g.n), [0, 17])
    mv_worst = np.max(np.abs(mv[unlabeled]))

    elapsed = time.time() - t0
    ok = resid_ok and gauge_ok and pinv_gap < 1e-8 and mv_worst <= 1.05e-9
    report(2, "solver contracts", ok,
           "residual %.2e, gauge %.2e, pinv gap %.2e, mean-value %.2e, %.1fs"
           % (resid, gauge, pinv_gap, mv_worst, elapsed))


def test_criterion_3_kernel_tail_bound():
    t0 = time.time()
    eps = 0.15
    worst = -np.inf
    for d in (1, 2):
        ker = make_kernel("indicator", d)
        for k in (2, 8, 32):
            tab = psi_table(ker, d, k, eps)
            ek = eps * math.sqrt(k)
            for t in (ek, 2 * ek, 3 * ek):
                bound = 2 * d * math.exp(-t**2 / (2 * d * ek**2))
                worst = max(worst, tab.tail_mass(t) - bound)
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed < 60
    report(3, "kernel tail bound", ok,
           "worst tail excess %.2e (slack 1e-4), %.1fs" % (worst, elapsed))


def radial_bump(grid, y, radius, coeff):
    mesh = np.meshgrid(*grid.axes, indexing="ij")
    r2 = sum((mm - yy) ** 2 for mm, yy in zip(mesh, y)) / radius**2
    q = np.maximum(0.0, 1.0 - r2) ** 2
    q /= q.sum() * grid.h**grid.d
    return coeff * q


def test_criterion_4_mollified_source_rate():
    t0 = time.time()
    box = Box([0, 0], [1, 1])
    grid = build_grid(box, 1.0 / 512, make_density("constant", box))
    snap = lambda x: tuple(grid.axes[i][grid.cell_of(x)[i]] for i in range(2))
    y1, y2 = snap((0.3, 0.5)), snap((0.7, 0.5))
    s = SourceSpec(np.array([y1, y2]), np.array([1.0, -1.0]))
    u_atom = solve_weighted_poisson(grid, s, tol=1e-10)
    radii = (0.02, 0.04, 0.08, 0.16)
    gaps = []
    for r in radii:
        f = radial_bump(grid, y1, r, 1.0) + radial_bump(grid, y2, r, -1.0)
        u_b = solve_weighted_poisson(grid, GridFunction(grid, f), tol=1e-10)
        gaps.append(float(np.abs(u_b.values - u_atom.values).sum() * grid.h**2))
    slope = float(np.polyfit(np.log(radii), np.log(gaps), 1)[0])
    elapsed = time.time() - t0
    ok = 1.7 <= slope <= 2.3 and elapsed < 120
    report(4, "mollified source rate", ok,
           "slope %.3f in [1.7, 2.3], gaps %s, %.1fs"
           % (slope, ["%.2e" % gp for gp in gaps], elapsed))


def test_criterion_5_graph_mollification_rate(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(overrides={
        "run.outdir": str(tmp_path), "run.experiment": "mollify",
        "run.seeds": "5", "run.master_seed": "1",
        "ladder.eps": "0.05",
        "ladder.n_rule": "power", "ladder.n_const": "20000", "ladder.n_power": "0",
        "ladder.k_list": "4 16 64 256",
    })
    res = run_mollification_rate(cfg)
    elapsed = time.time() - t0
    ok = 1.5 <= res.slope <= 2.5 and elapsed < 180
    report(5, "graph mollification rate", ok,
           "slope %.3f in [1.5, 2.5] at n=20000 eps=0.05, %.1fs"
           % (res.slope, elapsed))


def test_criterion_6a_error_monotone_in_n(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(overrides={
        "run.outdir": str(tmp_path), "run.seeds": "5", "run.master_seed": "1",
        "ladder.eps": "0.05",
        "ladder.n_rule": "list", "ladder.n_list": "2500 10000 40000",
        "ladder.k_rule": "fixed", "ladder.k": "0",
    })
    res = run_convergence(cfg)
    meds = [res.medians[n] for n in (2500, 10000, 40000)]
    elapsed = time.time() - t0
    ok = meds[0] >= meds[1] >= meds[2] and elapsed < 600
    report("6a", "median error non-increasing in n", ok,
           "medians %s at eps=0.05, %.1fs"
           % (["%.4g" % m for m in meds], elapsed))


def test_criterion_6b_convergence_rate_ladders(tmp_path):
    t1 = time.time()
    d1 = ExperimentConfig(overrides={
        "run.outdir": str(tmp_path / "d1"), "run.seeds": "25", "run.master_seed": "1",
        "domain.d": "1", "domain.box": "0 1", "domain.density": "constant",
        "source.anchors": "0.3 ; 0.7", "source.center": "0.5",
        "ladder.eps": "0.07 0.05 0.035 0.025 0.018",
        "ladder.n_rule": "power", "ladder.n_const": "600", "ladder.n_power": "0.75",
        "ladder.k_rule": "cor53",
    })
    r1 = run_convergence(d1)
    e1 = time.time() - t1
    rate1 = (2 - 0.1) / (1 + 4)  # sigma = 0.1
    ok1 = 0.5 * rate1 <= r1.slope <= 2 * rate1 and e1 < 600

    t2 = time.time()
    d2 = ExperimentConfig(overrides={
        "run.outdir": str(tmp_path / "d2"), "run.seeds": "45", "run.master_seed": "1",
        "domain.density": "affine", "domain.slope": "0.8",
        "ladder.eps": "0.15 0.11 0.08 0.06",
        "ladder.n_rule": "power", "ladder.n_const": "8000", "ladder.n_power": "0",
        "ladder.k_rule": "cor52",
    })
    r2 = run_convergence(d2)
    e2 = time.time() - t2
    rate2 = 1.0 / (2 + 2)
    ok2 = 0.5 * rate2 <= r2.slope <= 2 * rate2 and e2 < 600

    report("6b", "convergence rate ladders", ok1 and ok2,
           "d=1 slope %.3f in [%.3g, %.3g] (%.0fs); d=2 slope %.3f in [%.3g, %.3g] (%.0fs)"
           % (r1.slope, 0.5 * rate1, 2 * rate1, e1,
              r2.slope, 0.5 * rate2, 2 * rate2, e2))


def test_criterion_7_heat_column_asymptotics(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(overrides={
        "run.outdir": str(tmp_path), "run.experiment": "heat-asymptotics",
        "run.seeds": "5", "run.master_seed": "1",
        "domain.box": "0 0 12.5 12.5", "source.center": "6.25 6.25",
        "ladder.eps": "0.1",
        "ladder.n_rule": "list", "ladder.n_list": "10000 40000",
        "ladder.k_rule": "fixed", "ladder.k": "16",
    })
    res = run_heat_asymptotics(cfg)
    med = {}
    for n in (10000, 40000):
        rs = [r for r in res.records if r.n == n]
        med[n] = (float(np.median([r.l1_error for r in rs])),
                  float(np.median([r.moll_error for r in rs])))
    mass = max(abs(r.residual) for r in res.records)
    elapsed = time.time() - t0
    ok = (med[40000][0] < med[10000][0] and med[40000][1] < med[10000][1]
          and mass < 1e-12 and elapsed < 180)
    report(7, "heat column asymptotics", ok,
           "avg surrogate %.3f->%.3f, kernel surrogate %.3f->%.3f, "
           "mass defect %.1e, %.1fs"
           % (med[10000][0], med[40000][0], med[10000][1], med[40000][1],
              mass, elapsed))


def test_criterion_8_two_point_demo(tmp_path):
    t0 = time.time()
    def run(sub):
        cfg = ExperimentConfig(overrides={
            "run.outdir": str(tmp_path / sub), "run.seeds": "1",
            "run.experiment": "demo", "run.master_seed": "1",
            "ladder.eps": "0.08",
            "ladder.n_rule": "power", "ladder.n_const": "10000",
            "ladder.n_power": "0",
        })
        return demo_two_point(cfg)

    res = run("a")
    run("b")
    rec = res.records[0]
    spike, iqr = rec.l1_error, rec.moll_error
    band = 2 * 0.05 * 2.0  # full width of the Laplace spike window
    same = all((tmp_path / "a" / nm).read_bytes() == (tmp_path / "b" / nm).read_bytes()
               for nm in ("laplace.csv", "poisson.csv", "pwll.csv", "results.csv"))
    elapsed = time.time() - t0
    ok = spike >= 0.99 and iqr > band and same and elapsed < 60
    report(8, "two-point demo", ok,
           "spike %.4f >= 0.99, poisson IQR %.3f > band %.2f, deterministic=%s, %.1fs"
           % (spike, iqr, band, same, elapsed))
