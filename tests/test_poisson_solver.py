import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rgglearn.geometry import Box, build_graph, make_density, make_kernel, sample_points
from rgglearn import graph_core
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
    SourceSpec,
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
    assert rep.wall_time >= 0.0


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
        _pcg(zero, np.ones(4), lambda r: False, maxiter=5)


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
