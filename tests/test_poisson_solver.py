import warnings

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from rgglearn.continuum_ref import build_grid
from rgglearn.geometry import (
    Box,
    build_graph,
    closest_point,
    make_density,
    make_kernel,
    sample_points,
)
from rgglearn import graph_core, poisson_solver
from rgglearn.graph_core import (
    Graph,
    GraphFunction,
    LaplacianKind,
    energy_discrete,
    laplacian_apply,
    pnorm,
    weighted_mean,
)
from rgglearn.poisson_solver import (
    SolveReport,
    SourceSpec,
    _gauged_cg,
    _jacobi,
    _pcg,
    assemble_source,
    pwll_gamma,
    solve_graph_poisson,
    solve_laplace_learning,
    solve_pwll,
)


def small_geometric_graph(n=40, eps=0.35, seed=1):
    dom = Box([0.0, 0.0], [1.0, 1.0])
    rho = make_density("constant", dom)
    pts = sample_points(dom, rho, n, seed=seed)
    g = build_graph(pts, eps, make_kernel("indicator", 2), seed=seed)
    assert g.connected
    return g


def dense_scaled_laplacian(g):
    W = g.weight_matrix().toarray()
    L = np.diag(g.degrees) - W
    return L / (g.sigma_eta * g.eps**2 * (g.n - 1))


def test_source_spec_validation():
    box = Box([0.0, 0.0], [1.0, 1.0])
    SourceSpec([[0.3, 0.3], [0.7, 0.7]], [1.0, -1.0], domain=box)
    with pytest.raises(ValueError):
        SourceSpec([[0.3, 0.3], [0.7, 0.7]], [1.0, -0.5])
    with pytest.raises(ValueError):
        SourceSpec([[0.3, 0.3], [1.2, 0.7]], [1.0, -1.0], domain=box)
    with pytest.raises(ValueError):
        SourceSpec([[0.3, 0.3]], [1.0, -1.0])
    with pytest.raises(ValueError, match="dimension"):
        SourceSpec([[0.3], [0.7]], [1.0, -1.0], domain=box)
    # unchecked, infinite coefficients made the graph Poisson solve return
    # u = 0 after 0 iterations, nan ones ran CG to maxiter, and a nan anchor
    # went to node 0
    for anchors, coefficients in (([[0.3, 0.5], [0.7, 0.5]], [np.inf, -np.inf]),
                                  ([[0.3, 0.5], [0.7, 0.5]], [np.nan, np.nan]),
                                  ([[np.nan, 0.5], [0.7, 0.5]], [1.0, -1.0])):
        for domain in (None, box):
            with pytest.raises(ValueError, match="finite"):
                SourceSpec(anchors, coefficients, domain)


def test_assemble_source_merges_collisions():
    g = small_geometric_graph()
    p5 = g.points[5]
    far = g.points[20]
    s = SourceSpec([p5, p5 + 1e-9, far], [1.0, 1.0, -2.0])
    f = assemble_source(g, s)
    assert f.values[5] == pytest.approx(2.0 * g.n)
    assert f.values[20] == pytest.approx(-2.0 * g.n)
    assert np.count_nonzero(f.values) == 2


def test_two_node_closed_form():
    w = 0.7
    eps = 0.5
    sigma = 0.25
    g = Graph.from_weights(np.array([[0.0], [1.0]]),
                           np.array([[0.0, w], [w, 0.0]]), eps=eps, sigma_eta=sigma)
    s = SourceSpec([[0.0], [1.0]], [1.0, -1.0])
    u, rep = solve_graph_poisson(g, s, tol=1e-12)
    expect = sigma * eps**2 / w
    assert u.values[0] == pytest.approx(expect, abs=1e-10)
    assert u.values[1] == pytest.approx(-expect, abs=1e-10)
    assert rep.residual <= 1e-12 * pnorm(assemble_source(g, s), 2) * np.sqrt(g.n)


def test_zero_source_gives_zero():
    g = small_geometric_graph()
    s = SourceSpec([g.points[0], g.points[1]], [0.0, 0.0])
    u, rep = solve_graph_poisson(g, s, tol=1e-10)
    assert np.all(u.values == 0.0)
    assert rep == SolveReport(0, 0.0)


def test_cg_matches_dense_pseudoinverse():
    for seed in [2, 3]:
        g = small_geometric_graph(n=50, eps=0.4, seed=seed)
        s = SourceSpec([g.points[3], g.points[30]], [1.0, -1.0])
        u, rep = solve_graph_poisson(g, s, tol=1e-13)
        Lne = dense_scaled_laplacian(g)
        f = assemble_source(g, s).values
        uo = np.linalg.pinv(Lne) @ f
        uo -= g.degrees @ uo / g.degrees.sum()
        assert np.max(np.abs(u.values - uo)) < 1e-8
        assert abs(weighted_mean(u)) < 1e-12


def test_residual_and_gauge_contract():
    g = small_geometric_graph(n=200, eps=0.2, seed=4)
    s = SourceSpec([g.points[10], g.points[100]], [2.0, -2.0])
    tol = 1e-10
    u, rep = solve_graph_poisson(g, s, tol=tol)
    f = assemble_source(g, s).values
    r = laplacian_apply(u, LaplacianKind.GeometricScaled).values - f
    assert np.linalg.norm(r) <= tol * np.linalg.norm(f)
    assert abs(weighted_mean(u)) < 1e-12
    assert rep.iterations > 0


def test_uniqueness_from_random_starts():
    g = small_geometric_graph(n=80, eps=0.3, seed=5)
    s = SourceSpec([g.points[7], g.points[60]], [1.0, -1.0])
    rng = np.random.default_rng(6)
    u1, _ = solve_graph_poisson(g, s, tol=1e-12, x0=rng.standard_normal(80))
    u2, _ = solve_graph_poisson(g, s, tol=1e-12, x0=rng.standard_normal(80))
    assert np.max(np.abs(u1.values - u2.values)) < 1e-8


def test_variational_optimality():
    g = small_geometric_graph(n=50, eps=0.4, seed=7)
    s = SourceSpec([g.points[0], g.points[40]], [1.0, -1.0])
    u, _ = solve_graph_poisson(g, s, tol=1e-13)
    f = assemble_source(g, s)
    e_star = energy_discrete(u, f)
    rng = np.random.default_rng(8)
    for _ in range(100):
        v = rng.standard_normal(g.n)
        v -= g.degrees @ v / g.degrees.sum()
        for t in (-0.1, -0.01, 0.01, 0.1):
            pert = GraphFunction(g, u.values + t * v)
            assert energy_discrete(pert, f) >= e_star - 1e-13


def test_disconnected_graph_rejected():
    pts = np.array([[0.0], [1.0]])
    g = build_graph(pts, 0.6, make_kernel("indicator", 1))
    s = SourceSpec([[0.0], [1.0]], [1.0, -1.0])
    with pytest.raises(ValueError):
        solve_graph_poisson(g, s, tol=1e-10)
    # gamma's source is zero with no label or every node labeled; it used
    # to return ones without looking at the graph
    for label_nodes in ([], [0, 1]):
        with pytest.raises(ValueError, match="disconnected"):
            pwll_gamma(g, label_nodes)


def test_laplace_three_node_path():
    W = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    g = Graph.from_weights(np.array([[0.0], [1.0], [2.0]]), W, eps=1.5, sigma_eta=1.0)
    u = solve_laplace_learning(g, [(0, 0.0), (2, 1.0)], tol=1e-12)
    assert u.values[0] == 0.0
    assert u.values[2] == 1.0
    assert u.values[1] == pytest.approx(0.5, abs=1e-10)


def test_laplace_all_labeled_and_constant():
    g = small_geometric_graph()
    labels = [(i, float(i)) for i in range(g.n)]
    u = solve_laplace_learning(g, labels, tol=1e-10)
    assert np.array_equal(u.values, np.arange(g.n, dtype=float))
    u2 = solve_laplace_learning(g, [(0, 2.5), (17, 2.5)], tol=1e-12)
    assert np.max(np.abs(u2.values - 2.5)) < 1e-8


def test_laplace_mean_value_property():
    g = small_geometric_graph(n=120, eps=0.25, seed=9)
    labels = [(0, 1.0), (60, -1.0), (100, 0.5)]
    tol = 1e-9
    u = solve_laplace_learning(g, labels, tol=tol)
    labeled = np.array([0, 60, 100])
    mask = np.ones(g.n, dtype=bool)
    mask[labeled] = False
    mvp = u.values - g.wmul(u.values) / g.degrees
    assert np.max(np.abs(mvp[mask])) <= tol
    # discrete maximum principle
    assert u.values.min() >= -1.0 - 1e-9
    assert u.values.max() <= 1.0 + 1e-9


def test_laplace_label_errors():
    g = small_geometric_graph()
    with pytest.raises(ValueError):
        solve_laplace_learning(g, [], tol=1e-9)
    with pytest.raises(ValueError):
        solve_laplace_learning(g, [(0, 1.0), (0, -1.0)], tol=1e-9)
    # duplicate but consistent labels are fine
    solve_laplace_learning(g, [(0, 1.0), (0, 1.0), (5, 0.0)], tol=1e-9)


def test_laplace_disconnected_unlabeled_component():
    pts = np.array([[0.0], [0.1], [5.0], [5.1]])
    g = build_graph(pts, 0.5, make_kernel("indicator", 1))
    assert not g.connected
    with pytest.raises(ValueError):
        solve_laplace_learning(g, [(0, 1.0)], tol=1e-9)
    # labels in every component are accepted
    u = solve_laplace_learning(g, [(0, 1.0), (2, -1.0)], tol=1e-9)
    assert u.values[0] == 1.0 and u.values[2] == -1.0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("solve", [solve_laplace_learning, solve_pwll],
                         ids=["laplace", "pwll"])
def test_non_finite_label_values_are_rejected_before_any_matvec(solve, value):
    # it must fail before any W u product: not inside the coarse Cholesky
    # solve of Laplace learning, nor after PWLL's whole gamma solve
    g = small_geometric_graph(n=120, eps=0.3, seed=10)
    calls = _count_wmul(g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at node 7 is not finite"):
            solve(g, [(5, 1.0), (7, value)])
    assert calls == []


@pytest.mark.parametrize("nodes", [[-1], [3, 120], [125]])
def test_pwll_gamma_rejects_label_nodes_out_of_range(nodes):
    # a negative node must not wrap round to n - 1 and solve quietly
    g = small_geometric_graph(n=120, eps=0.3, seed=10)
    calls = _count_wmul(g)
    with pytest.raises(IndexError, match="label node %d out of range" % nodes[-1]):
        pwll_gamma(g, nodes)
    assert calls == []


def test_pwll_gamma_peaks_at_label():
    g = small_geometric_graph(n=50, eps=0.4, seed=10)
    gamma = pwll_gamma(g, [25], tol=1e-12)
    assert int(np.argmax(gamma.values)) == 25
    assert gamma.values.min() == pytest.approx(1.0, abs=1e-12)
    # dense oracle: unnormalized Poisson equation with indicator deltas
    W = g.weight_matrix().toarray()
    L = np.diag(g.degrees) - W
    q = -np.ones(g.n) / g.n
    q[25] += 1.0
    go = np.linalg.pinv(L) @ q
    go -= go.min()
    assert np.max(np.abs((gamma.values - 1.0) - go)) < 1e-8


def test_pwll_constant_labels():
    g = small_geometric_graph(n=60, eps=0.35, seed=11)
    u = solve_pwll(g, [(3, 2.0), (40, 2.0)], tol=1e-11)
    assert np.max(np.abs(u.values - 2.0)) < 1e-8
    assert u.graph is g


def test_pwll_runs_and_respects_labels():
    g = small_geometric_graph(n=80, eps=0.3, seed=12)
    u = solve_pwll(g, [(1, 1.0), (70, -1.0)], tol=1e-10)
    assert u.values[1] == 1.0
    assert u.values[70] == -1.0
    assert u.values.min() >= -1.0 - 1e-8
    assert u.values.max() <= 1.0 + 1e-8


def test_pcg_restarts_count_toward_maxiter():
    # p.Ap = 0 on every first inner step: each restart must use up maxiter
    calls = []

    def zero(v):
        calls.append(1)
        if len(calls) > 100:
            raise AssertionError("restart loop does not terminate")
        return 0.0 * v

    with pytest.raises(RuntimeError, match="within 5 iterations"):
        _pcg(zero, np.ones(4), lambda r: False, lambda r, out: np.copyto(out, r), maxiter=5)


def test_pcg_unreachable_tolerance_fails_fast():
    # at tol=1e-16 the fresh residual stalls near 1e-12: CG must stop after a
    # restart that fails to halve it, not after 10 n = 20000 matvecs
    g = small_geometric_graph(n=2000, eps=0.1, seed=6)
    wmul = g.wmul
    calls = []

    def counting_wmul(u):
        calls.append(1)
        return wmul(u)

    g.wmul = counting_wmul
    s = SourceSpec([g.points[10], g.points[1000]], [1.0, -1.0])
    with pytest.raises(RuntimeError, match=r"stagnated at residual \d"):
        solve_graph_poisson(g, s, tol=1e-16)
    assert len(calls) < 1000


def allocating_pcg(matvec, b, tol_check, x0, minv, project, maxiter):
    # the allocating recurrence that the in-place loop of _pcg replaced,
    # kept as the reference for bitwise equality
    x = project(np.array(x0, dtype=float))
    total = restarts = 0
    while True:
        r = b - matvec(x)
        if tol_check(r):
            return x, total, float(np.linalg.norm(r))
        z = r * minv
        p = z.copy()
        rz = float(r @ z)
        while total + restarts < maxiter:
            Ap = matvec(p)
            pAp = float(p @ Ap)
            if pAp <= 0:
                restarts += 1
                break
            alpha = rz / pAp
            x += alpha * p
            x = project(x)
            r -= alpha * Ap
            total += 1
            if tol_check(r):
                break
            z = r * minv
            rz_new = float(r @ z)
            p = z + (rz_new / rz) * p
            rz = rz_new


def _graph_system():
    g = small_geometric_graph(n=300, eps=0.2, seed=4)
    s = SourceSpec([g.points[10], g.points[200]], [1.0, -1.0])
    deg = g.degrees
    scale = g.sigma_eta * g.eps**2 * (g.n - 1)
    return (lambda v: (deg * v - g.wmul(v)) / scale, assemble_source(g, s).values,
            (deg - g.self_weights) / scale, deg)


def _fd_system():
    box = Box([0, 0], [1, 1])
    grid = build_grid(box, 1.0 / 24, make_density("bump", box))
    b = np.zeros(grid.shape)
    b[3, 5], b[17, 20] = 1.0, -1.0
    return (lambda v: grid.apply(v.reshape(grid.shape)).ravel(), b.ravel(),
            grid.stencil_diagonal().ravel(), grid.rho2.ravel())


@pytest.mark.parametrize("start", ["zero", "random"])
@pytest.mark.parametrize("system", [_graph_system, _fd_system], ids=["graph", "fd"])
def test_gauged_cg_is_bitwise_the_allocating_recurrence(system, start):
    matvec, b, diag, weights = system()
    x0 = (np.zeros(b.size) if start == "zero"
          else np.random.default_rng(12).standard_normal(b.size))
    tol = 1e-10
    x, report = _gauged_cg(matvec, b, _jacobi(diag), weights, tol, 10 * b.size, x0=x0)
    want = allocating_pcg(matvec, b, lambda r: np.linalg.norm(r) <= tol * np.linalg.norm(b),
                          x0, 1.0 / diag, lambda v: v - (weights @ v) / weights.sum(),
                          10 * b.size)
    assert x.tobytes() == want[0].tobytes()
    assert (report.iterations, report.residual) == want[1:] and report.iterations > 0


def test_pcg_leaves_b_and_x0_untouched():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(30, 30))
    A = m @ m.T + 30 * np.eye(30)
    b, x0 = rng.normal(size=30), rng.normal(size=30)
    state = b.tobytes(), x0.tobytes()
    check = lambda r: np.linalg.norm(r) <= 1e-12 * np.linalg.norm(b)
    x, report = _pcg(lambda v: A @ v, b, check, x0=x0,
                     precond=_jacobi(np.diag(A).copy()), maxiter=200)
    assert (b.tobytes(), x0.tobytes()) == state
    assert report.iterations > 0 and not np.shares_memory(x, x0) and not np.shares_memory(x, b)
    assert np.max(np.abs(A @ x - b)) <= 1e-9


def test_graph_solves_leave_inputs_untouched():
    g = small_geometric_graph(n=120, eps=0.3, seed=10)
    s = SourceSpec([g.points[4], g.points[90]], [1.0, -1.0])
    x0 = np.random.default_rng(11).standard_normal(g.n)

    def snapshot():
        return [a.tobytes() for a in (x0, g.degrees, g.self_weights, g.wmul(x0))]

    state = snapshot()
    u, _ = solve_graph_poisson(g, s, x0=x0)
    assert not np.shares_memory(u.values, x0)
    solve_laplace_learning(g, [(0, 1.0), (60, -1.0)])
    pwll_gamma(g, [0, 60])
    assert snapshot() == state


def test_graph_cg_iterations_are_pinned():
    # exact CG work on one fixed graph: perfbench compares the graph CG
    # iterations of its workloads exactly, so a change that moves a single
    # iterate shifts these counts and fails here first
    g = small_geometric_graph(n=300, eps=0.2, seed=4)
    calls = []
    wmul = g.wmul
    g.wmul = lambda u: calls.append(1) or wmul(u)
    s = SourceSpec([g.points[10], g.points[200]], [1.0, -1.0])
    _, report = solve_graph_poisson(g, s)
    assert (report.iterations, len(calls)) == (31, 33)
    calls.clear()
    pwll_gamma(g, [10, 200])
    assert len(calls) == 33


def d1_indicator_graph(n, eps, seed):
    box = Box([0.0], [1.0])
    pts = sample_points(box, make_density("constant", box), n, seed=seed)
    return build_graph(pts, eps, make_kernel("indicator", 1), seed=seed)


D1_SOURCE = SourceSpec([[0.3], [0.7]], [1.0, -1.0])


def test_window_graph_cg_iterations_are_pinned():
    # the same pin on a d = 1 indicator graph, whose W u is summed from
    # windows of sorted points; the count is the one the CSR product gives
    g = d1_indicator_graph(2000, 0.02, seed=4)
    _, report = solve_graph_poisson(g, D1_SOURCE)
    assert report.iterations == 75


def test_window_graph_keeps_its_precision_on_a_fine_graph():
    # 40000 nodes, windows of up to B = 284: CG takes the CSR product's 462
    # iterations, and W u of a positive u, whose prefix sums only grow, is
    # within B^2 2^-53 c ||u||_inf of the CSR product.  The block-local
    # prefix sums miss it by 5.0e-13 c ||u||_inf; prefix sums over all n
    # sorted values, whose rounding grows with n instead of B, by 4.8e-11.
    g = d1_indicator_graph(40000, 0.003, seed=3)
    _, report = solve_graph_poisson(g, D1_SOURCE)
    assert report.iterations == 462
    u = np.random.default_rng(0).random(g.n) + 1.0
    upper = g._upper
    gap = np.max(np.abs(g.wmul(u) - (upper @ u + upper.T @ u + g.self_weights * u)))
    w = g._windows
    longest = np.max(w.hi - w.lo)
    assert gap <= longest**2 * 2.0**-53 * w.c * np.max(u)


def test_window_graph_solves_and_smooths_without_the_csr(monkeypatch):
    from rgglearn import geometry
    from rgglearn.heat_kernel import heat_convolve

    calls = []
    upper_triangle = geometry._upper_triangle
    monkeypatch.setattr(geometry, "_upper_triangle",
                        lambda *args: calls.append(1) or upper_triangle(*args))
    g = d1_indicator_graph(2000, 0.02, seed=5)
    u, _ = solve_graph_poisson(g, D1_SOURCE)
    heat_convolve(g, 5, u)
    heat_convolve(g, 80, u)  # the truncated Chebyshev sum
    assert calls == []
    g.edge_arrays()
    g.weight_matrix()
    assert calls == [1]  # built once, on first read


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
@pytest.mark.parametrize("solve", [
    lambda g, tol: solve_laplace_learning(g, [(0, 1.0), (20, -1.0)], tol=tol),
    lambda g, tol: pwll_gamma(g, [0, 20], tol=tol),
    lambda g, tol: solve_pwll(g, [(0, 1.0), (20, -1.0)], tol=tol),
    lambda g, tol: solve_graph_poisson(g, SourceSpec([g.points[0], g.points[20]], [1.0, -1.0]),
                                       tol=tol),
], ids=["solve_laplace_learning", "pwll_gamma", "solve_pwll", "solve_graph_poisson"])
def test_nonpositive_tol_fails_before_any_matvec(solve, tol):
    # a tolerance <= 0, or nan, is unreachable: CG would spin to maxiter = 10 n
    g = small_geometric_graph()
    calls = []
    wmul = g.wmul
    g.wmul = lambda u: calls.append(1) or wmul(u)
    with pytest.raises(ValueError, match="tol must be positive"):
        solve(g, tol)
    assert calls == []


def test_laplace_learning_threaded_matches_serial(monkeypatch):
    g = small_geometric_graph(n=300, eps=0.25, seed=8)
    labels = [(0, 1.0), (150, -1.0), (299, 0.5)]
    monkeypatch.setattr(graph_core, "_SPLIT_MIN_NNZ", 10**12)
    serial = solve_laplace_learning(g, labels, tol=1e-10).values
    monkeypatch.setattr(graph_core, "_SPLIT_MIN_NNZ", 0)
    monkeypatch.setattr(graph_core, "_usable_cpus", lambda: 2)
    threaded = solve_laplace_learning(g, labels, tol=1e-10).values
    assert np.array_equal(threaded, serial)


@settings(max_examples=30)
@given(n=st.integers(3, 40), seed=st.integers(0, 2**31 - 1), eps=st.floats(0.3, 1.0),
       pair=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)))
def test_property_pcg_matches_pseudoinverse(n, seed, eps, pair):
    rng = np.random.default_rng(seed)
    g = build_graph(rng.random((n, 2)), max(eps, n ** -0.5), make_kernel("cone", 2))
    assume(g.connected)
    a, b = pair[0] % n, pair[1] % n
    assume(a != b and not np.array_equal(g.points[a], g.points[b]))
    s = SourceSpec([g.points[a], g.points[b]], [1.0, -1.0])
    u, _ = solve_graph_poisson(g, s, tol=1e-11)
    f = assemble_source(g, s).values
    uo = np.linalg.pinv(dense_scaled_laplacian(g)) @ f
    uo -= g.degrees @ uo / g.degrees.sum()  # degree-weighted gauge
    assert np.max(np.abs(u.values - uo)) <= 1e-6 * np.max(np.abs(uo))
    assert abs(weighted_mean(u)) <= 1e-12 * np.max(np.abs(uo))


def _count_wmul(g):
    calls = []
    wmul = g.wmul
    g.wmul = lambda u: calls.append(1) or wmul(u)
    return calls


def test_laplace_learning_wmul_calls_are_pinned():
    # exact CG work of the two-level preconditioned Laplace solve on one
    # fixed graph; Jacobi alone took 35 calls here
    g = small_geometric_graph(n=300, eps=0.2, seed=4)
    calls = _count_wmul(g)
    solve_laplace_learning(g, [(10, 1.0), (200, -1.0)])
    assert len(calls) == 23


def _recorded_iterations(monkeypatch):
    iters = []

    def recording(*args, **kwargs):
        out = pcg(*args, **kwargs)
        iters.append(out[1].iterations)
        return out

    pcg = poisson_solver._pcg
    monkeypatch.setattr(poisson_solver, "_pcg", recording)
    return iters


@pytest.mark.parametrize("d,n,eps", [(1, 2000, 0.02), (1, 20000, 0.005), (2, 2000, 0.15),
                                     (2, 20000, 0.04)])
def test_laplace_learning_iterations_stay_low(monkeypatch, d, n, eps):
    # the eps-cell coarse space keeps CG near 20 iterations where Jacobi
    # alone needs 96, 361, 54 and 194
    box = Box([0.0] * d, [1.0] * d)
    g = build_graph(sample_points(box, make_density("constant", box), n, seed=1), eps,
                    make_kernel("cone", d), seed=1)
    labels = [(closest_point([0.3] + [0.5] * (d - 1), g), 1.0),
              (closest_point([0.7] + [0.5] * (d - 1), g), -1.0)]
    iters = _recorded_iterations(monkeypatch)
    solve_laplace_learning(g, labels)
    assert 0 < iters[0] <= 30


def _dirichlet_reference(g, labels):
    # spsolve on L_UU, and the bound that the solver's stopping test gives:
    # |r / deg| <= tol on U implies |u - ref| <= tol (L_UU^-1 deg_U), since
    # L_UU is an M-matrix and its inverse is entrywise nonnegative
    idx = np.array([i for i, _ in labels])
    vals = np.array([v for _, v in labels])
    U = np.setdiff1d(np.arange(g.n), idx)
    L = (sparse.diags(g.degrees) - g.weight_matrix()).tocsr()
    LUU = L[U][:, U].tocsc()
    ref = np.zeros(g.n)
    ref[idx] = vals
    ref[U] = spsolve(LUU, -(L[U][:, idx] @ vals))
    return ref, U, spsolve(LUU, g.degrees[U])


@pytest.mark.parametrize("reweight", [False, True], ids=["plain", "reweighted"])
def test_laplace_learning_matches_the_direct_solve(reweight):
    g = small_geometric_graph(n=600, eps=0.15, seed=7)
    labels = [(3, 1.0), (300, -1.0), (450, 0.25)]
    if reweight:
        g = g.reweighted(pwll_gamma(g, [3, 300, 450]).values)
    tol = 1e-9
    ref, U, gain = _dirichlet_reference(g, labels)
    u = solve_laplace_learning(g, labels, tol=tol).values
    assert np.all(np.abs(u - ref)[U] <= tol * gain)
    assert np.array_equal(u[[3, 300, 450]], [1.0, -1.0, 0.25])


def test_laplace_learning_on_a_from_weights_graph_with_tiny_eps():
    # eps is no bandwidth here, so the cells come from the sqrt(nnz) cap
    rng = np.random.default_rng(8)
    pts = rng.random((300, 2))
    W = np.exp(-40 * ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    W[W < 0.02] = 0.0
    np.fill_diagonal(W, 0.0)
    g = Graph.from_weights(pts, W, 1e-12, sigma_eta=1.0)
    labels = [(0, 1.0), (150, -1.0)]
    ref, U, gain = _dirichlet_reference(g, labels)
    u = solve_laplace_learning(g, labels, tol=1e-10).values
    assert np.all(np.abs(u - ref)[U] <= 1e-10 * gain)


@pytest.mark.parametrize("solve", [
    lambda g: solve_graph_poisson(g, SourceSpec([g.points[10], g.points[200]], [1.0, -1.0])),
    lambda g: solve_laplace_learning(g, [(10, 1.0), (200, -1.0)]),
], ids=["solve_graph_poisson", "solve_laplace_learning"])
def test_zero_weight_node_is_rejected_before_any_matvec(solve):
    # reweighting by a zero factor isolates node 5 behind stored zero
    # weights; counted as edges, they hid it and both solves ran 10 n = 4000
    # iterations before "CG did not converge"
    box = Box([0.0, 0.0], [1.0, 1.0])
    g = build_graph(sample_points(box, make_density("constant", box), 400, seed=3), 0.2,
                    make_kernel("cone", 2))
    f = np.ones(g.n)
    f[5] = 0.0
    g = g.reweighted(f)
    calls = _count_wmul(g)
    with pytest.raises(ValueError, match="disconnected|no labeled node"):
        solve(g)
    assert calls == []
