import io
import multiprocessing
import os
import threading

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from rgglearn import graph_core
from rgglearn.graph_core import (
    Graph,
    GraphFunction,
    LaplacianKind,
    dirichlet_energy,
    energy_discrete,
    graph_delta,
    inner,
    laplacian_apply,
    load_graph,
    pnorm,
    save_graph,
    weighted_mean,
)


def hand_graph(points, W, eps=1.0, sigma_eta=1.0):
    return Graph.from_weights(np.atleast_2d(np.asarray(points, dtype=float)).T
                              if np.ndim(points) == 1 else np.asarray(points, dtype=float),
                              W, eps=eps, sigma_eta=sigma_eta)


def random_graph(n, seed, density=0.3, eps=0.5, sigma_eta=0.25):
    # dense symmetric nonnegative weights with self-loops, then sparsified
    rng = np.random.default_rng(seed)
    A = rng.random((n, n))
    A = (A + A.T) / 2
    A[A > density] = 0.0
    np.fill_diagonal(A, rng.random(n) + 0.1)
    # knit everything together so degrees never vanish and solvers are happy
    for i in range(n - 1):
        A[i, i + 1] = A[i + 1, i] = 0.5 + rng.random()
    pts = rng.random((n, 2))
    return Graph.from_weights(pts, A, eps=eps, sigma_eta=sigma_eta), A


def test_inner_constant_is_one():
    g, _ = random_graph(17, seed=0)
    one = GraphFunction(g, np.ones(17))
    assert inner(one, one) == pytest.approx(1.0, abs=1e-15)


def test_inner_hand_value():
    g = hand_graph([0.0, 1.0], np.array([[0.0, 1.0], [1.0, 0.0]]))
    u = GraphFunction(g, np.array([1.0, 2.0]))
    v = GraphFunction(g, np.array([3.0, 4.0]))
    assert inner(u, v) == pytest.approx(5.5, abs=1e-15)


def test_inner_with_delta_evaluates():
    g, _ = random_graph(31, seed=1)
    rng = np.random.default_rng(2)
    u = GraphFunction(g, rng.standard_normal(31))
    for x in [0, 7, 30]:
        assert inner(graph_delta(x, g), u) == pytest.approx(u.values[x], rel=1e-14)


def test_inner_graph_mismatch():
    g1, _ = random_graph(5, seed=3)
    g2, _ = random_graph(5, seed=4)
    u = GraphFunction(g1, np.ones(5))
    v = GraphFunction(g2, np.ones(5))
    with pytest.raises(ValueError):
        inner(u, v)


def test_pnorm_constant_and_alternating():
    g, _ = random_graph(4, seed=5)
    c = GraphFunction(g, np.full(4, -2.5))
    for p in [1.0, 2.0, 3.5]:
        assert pnorm(c, p) == pytest.approx(2.5, rel=1e-14)
    u = GraphFunction(g, np.array([1.0, -1.0, 1.0, -1.0]))
    assert pnorm(u, 2) == pytest.approx(1.0, abs=1e-15)


def test_pnorm_delta_l1():
    g, _ = random_graph(9, seed=6)
    assert pnorm(graph_delta(3, g), 1) == pytest.approx(1.0, abs=1e-15)


def test_pnorm_rejects_p_below_one():
    g, _ = random_graph(4, seed=7)
    u = GraphFunction(g, np.ones(4))
    with pytest.raises(ValueError):
        pnorm(u, 0.5)


def test_weighted_mean_path_graph():
    # 3-node path with unit edge weights: degrees (1, 2, 1)
    W = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    g = hand_graph([0.0, 1.0, 2.0], W)
    u = GraphFunction(g, np.array([1.0, 0.0, 0.0]))
    assert weighted_mean(u) == pytest.approx(0.25, abs=1e-15)


def test_weighted_mean_projection():
    g, _ = random_graph(40, seed=8)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(40)
    m = weighted_mean(GraphFunction(g, u))
    assert abs(weighted_mean(GraphFunction(g, u - m))) < 1e-14


def test_graph_delta_values():
    g, _ = random_graph(4, seed=10)
    d = graph_delta(2, g)
    assert np.array_equal(d.values, np.array([0.0, 0.0, 4.0, 0.0]))
    assert inner(d, d) == pytest.approx(4.0, abs=1e-14)
    with pytest.raises(IndexError):
        graph_delta(4, g)


def test_laplacian_constant_in_kernel():
    g, _ = random_graph(25, seed=11)
    one = GraphFunction(g, np.ones(25))
    for kind in (LaplacianKind.Unnormalized, LaplacianKind.RandomWalk,
                 LaplacianKind.GeometricScaled):
        out = laplacian_apply(one, kind)
        assert np.max(np.abs(out.values)) < 1e-13
    # the adjoint annihilates the degree vector instead of constants
    degf = GraphFunction(g, g.degrees)
    out = laplacian_apply(degf, LaplacianKind.RandomWalkAdjoint)
    assert np.max(np.abs(out.values)) < 1e-13


def test_laplacian_two_node_hand_value():
    g = hand_graph([0.0, 1.0], np.array([[0.0, 1.0], [1.0, 0.0]]))
    u = GraphFunction(g, np.array([1.0, 0.0]))
    out = laplacian_apply(u, LaplacianKind.Unnormalized)
    assert np.allclose(out.values, [1.0, -1.0], atol=1e-15)


def test_laplacian_matches_dense_oracle():
    n = 50
    g, A = random_graph(n, seed=12)
    deg = A.sum(axis=1)
    rng = np.random.default_rng(13)
    u = rng.standard_normal(n)
    L = np.diag(deg) - A
    expect = {
        LaplacianKind.Unnormalized: L @ u,
        LaplacianKind.RandomWalk: (L @ u) / deg,
        LaplacianKind.RandomWalkAdjoint: u - A @ (u / deg),
        LaplacianKind.GeometricScaled: (L @ u) / (g.sigma_eta * g.eps**2 * (n - 1)),
    }
    for kind, ref in expect.items():
        out = laplacian_apply(GraphFunction(g, u), kind)
        assert np.max(np.abs(out.values - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_adjoint_pair_random_graphs():
    for seed in range(5):
        n = 50 + 10 * seed
        g, _ = random_graph(n, seed=100 + seed)
        rng = np.random.default_rng(200 + seed)
        u = GraphFunction(g, rng.standard_normal(n))
        v = GraphFunction(g, rng.standard_normal(n))
        lhs = inner(laplacian_apply(u, LaplacianKind.RandomWalk), v)
        rhs = inner(u, laplacian_apply(v, LaplacianKind.RandomWalkAdjoint))
        bound = 1e-12 * pnorm(u, 2) * pnorm(v, 2) + 1e-15
        assert abs(lhs - rhs) < bound


def test_adjoint_identity_deg_conjugation():
    # L_rw^T u = deg * L_rw(u / deg)
    g, _ = random_graph(80, seed=14)
    rng = np.random.default_rng(15)
    u = rng.standard_normal(80)
    lhs = laplacian_apply(GraphFunction(g, u), LaplacianKind.RandomWalkAdjoint).values
    inner_part = laplacian_apply(GraphFunction(g, u / g.degrees), LaplacianKind.RandomWalk).values
    rhs = g.degrees * inner_part
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_dirichlet_energy_against_pair_sum():
    # energy equals the geometric-scaled quadratic form <u, L u>, which is half
    # the ordered-pair sum of w_xy (u(x)-u(y))^2 / (sigma eps^2 n (n-1))
    n = 30
    g, A = random_graph(n, seed=16)
    rng = np.random.default_rng(17)
    u = rng.standard_normal(n)
    diff = u[:, None] - u[None, :]
    pair_sum = np.sum(A * diff**2) / (g.sigma_eta * g.eps**2 * n * (n - 1))
    e = dirichlet_energy(GraphFunction(g, u))
    assert e == pytest.approx(0.5 * pair_sum, rel=1e-12)
    lu = laplacian_apply(GraphFunction(g, u), LaplacianKind.GeometricScaled)
    assert e == pytest.approx(inner(GraphFunction(g, u), lu), rel=1e-12)


def test_dirichlet_energy_constant_zero_and_scaling():
    g, _ = random_graph(12, seed=18)
    c = GraphFunction(g, np.full(12, 3.0))
    assert abs(dirichlet_energy(c)) < 1e-14
    rng = np.random.default_rng(19)
    u = rng.standard_normal(12)
    e1 = dirichlet_energy(GraphFunction(g, u))
    e2 = dirichlet_energy(GraphFunction(g, 2 * u))
    assert e2 == pytest.approx(4 * e1, rel=1e-12)


def test_energy_discrete_basics():
    g, _ = random_graph(15, seed=20)
    rng = np.random.default_rng(21)
    f = GraphFunction(g, rng.standard_normal(15))
    zero = GraphFunction(g, np.zeros(15))
    assert energy_discrete(zero, f) == 0.0
    u = GraphFunction(g, rng.standard_normal(15))
    assert energy_discrete(u, zero) == pytest.approx(0.5 * dirichlet_energy(u), rel=1e-14)


def test_weight_symmetry_exact():
    g, _ = random_graph(60, seed=22)
    W = g.weight_matrix()
    assert (W != W.T).nnz == 0


def test_degrees_recomputable():
    g, _ = random_graph(35, seed=23)
    W = g.weight_matrix()
    row_sums = np.asarray(W.sum(axis=1)).ravel()
    assert np.max(np.abs(row_sums - g.degrees)) < 1e-14 * max(1.0, g.degrees.max())


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10**6))
def test_property_null_space_and_adjoint(n, seed):
    g, _ = random_graph(n, seed=seed)
    one = GraphFunction(g, np.ones(n))
    for kind in (LaplacianKind.Unnormalized, LaplacianKind.RandomWalk,
                 LaplacianKind.GeometricScaled):
        assert np.max(np.abs(laplacian_apply(one, kind).values)) < 1e-13
    degf = GraphFunction(g, g.degrees)
    assert np.max(np.abs(laplacian_apply(degf, LaplacianKind.RandomWalkAdjoint).values)) < 1e-13
    rng = np.random.default_rng(seed + 1)
    u = GraphFunction(g, rng.standard_normal(n))
    v = GraphFunction(g, rng.standard_normal(n))
    lhs = inner(laplacian_apply(u, LaplacianKind.RandomWalk), v)
    rhs = inner(u, laplacian_apply(v, LaplacianKind.RandomWalkAdjoint))
    assert abs(lhs - rhs) < 1e-12 * (1 + pnorm(u, 2) * pnorm(v, 2))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10**6))
def test_reweighted_matches_coo_route(n, seed):
    g, _ = random_graph(n, seed=seed)
    f = np.random.default_rng(seed).random(n)
    f[::3] = 0.0  # zero factors keep their entries, as explicit zeros
    r = g.reweighted(f)
    coo = g._upper.tocoo()
    ref = sparse.csr_matrix(sparse.coo_matrix(
        (coo.data * f[coo.row] * f[coo.col], (coo.row, coo.col)), shape=(n, n)))
    ref.sum_duplicates()
    for name in ("data", "indices", "indptr"):
        a, b = getattr(r._upper, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert r.self_weights.tobytes() == (g.self_weights * f**2).tobytes()
    # the sparsity pattern is shared with the parent, not copied
    assert np.shares_memory(r._upper.indices, g._upper.indices)
    assert np.shares_memory(r._upper.indptr, g._upper.indptr)


def test_graph_function_length_check():
    g, _ = random_graph(6, seed=24)
    with pytest.raises(ValueError):
        GraphFunction(g, np.ones(5))


def test_save_load_round_trip(tmp_path):
    from rgglearn.geometry import build_graph, make_kernel, sample_points, Box, make_density

    dom = Box([0.0, 0.0], [1.0, 1.0])
    dens = make_density("constant", dom)
    kern = make_kernel("indicator", 2)
    pts = sample_points(dom, dens, 300, seed=7)
    g = build_graph(pts, 0.15, kern, seed=7)
    path = os.path.join(tmp_path, "graph.csv")
    save_graph(g, path)
    g2 = load_graph(path)
    assert g2.n == g.n
    assert g2.eps == g.eps
    assert g2.sigma_eta == pytest.approx(g.sigma_eta, rel=1e-14)
    assert np.allclose(g2.points, g.points)
    d = (g.weight_matrix() - g2.weight_matrix()).tocoo()
    assert d.nnz == 0 or np.max(np.abs(d.data)) < 1e-15
    assert np.allclose(g2.degrees, g.degrees)


def test_save_load_from_other_working_directory(tmp_path, monkeypatch):
    g, _ = random_graph(12, seed=31)
    sub = tmp_path / "sub"
    sub.mkdir()
    monkeypatch.chdir(tmp_path)
    save_graph(g, os.path.join("sub", "g.csv"))
    with open(sub / "g.csv.meta") as fh:
        assert "points=g.csv.points\n" in fh.read()
    monkeypatch.chdir(sub)
    loaded = [load_graph("g.csv")]
    monkeypatch.chdir(tmp_path.parent)
    loaded.append(load_graph(str(sub / "g.csv")))
    # a sidecar holding an absolute points path still loads
    meta = (sub / "g.csv.meta").read_text()
    (sub / "g.csv.meta").write_text(
        meta.replace("points=g.csv.points", "points=%s" % (sub / "g.csv.points")))
    monkeypatch.chdir(tmp_path)
    loaded.append(load_graph(os.path.join("sub", "g.csv")))
    for g2 in loaded:
        assert np.array_equal(g2.points, g.points)
        assert (g2.weight_matrix() != g.weight_matrix()).nnz == 0


def test_graph_rejects_non_finite_points():
    pts = np.array([[0.0], [np.nan]])
    with pytest.raises(ValueError, match="non-finite point"):
        Graph(pts, sparse.coo_matrix(([1.0], ([0], [1])), shape=(2, 2)), np.ones(2), 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_graph_rejects_non_finite_edge_weight(bad):
    pts = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError, match="non-finite edge weight"):
        Graph(pts, sparse.coo_matrix(([bad], ([0], [1])), shape=(2, 2)), np.ones(2), 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_graph_rejects_non_finite_self_weight(bad):
    pts = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError, match="non-finite self-weight"):
        Graph(pts, sparse.coo_matrix(([1.0], ([0], [1])), shape=(2, 2)),
              np.array([1.0, bad]), 1.0)


def test_graph_rejects_overflowing_degree():
    # finite weights whose row sum overflows: a ValueError, also under python -O
    pts = np.array([[0.0], [1.0], [2.0]])
    upper = sparse.coo_matrix(([1e308, 1e308], ([0, 0], [1, 2])), shape=(3, 3))
    with pytest.raises(ValueError, match="non-finite degree"):
        Graph(pts, upper, np.ones(3), 1.0)


def test_component_labels_returns_a_copy():
    pts = np.arange(4.0)[:, None]
    g = Graph(pts, sparse.coo_matrix(([1.0, 1.0], ([0, 2], [1, 3])), shape=(4, 4)),
              np.zeros(4), 1.0)
    labels = g.component_labels()
    assert not g.connected
    assert labels[0] == labels[1] != labels[2] == labels[3]
    labels[:] = 7
    assert g.component_labels()[0] != g.component_labels()[2]


def test_run_pair_path_selection(monkeypatch):
    here = threading.get_ident
    cutoff = graph_core._SPLIT_MIN_NNZ
    monkeypatch.setattr(graph_core, "_usable_cpus", lambda: 2)
    first, second = graph_core._run_pair(here, here, cutoff)
    assert first == here() != second
    assert graph_core._run_pair(here, here, cutoff - 1) == (here(), here())
    monkeypatch.setattr(graph_core, "_usable_cpus", lambda: 1)
    assert graph_core._run_pair(here, here, 10 * cutoff) == (here(), here())


def test_run_pair_reraises_worker_error(monkeypatch):
    monkeypatch.setattr(graph_core, "_usable_cpus", lambda: 2)

    def fail():
        raise KeyError("worker")

    with pytest.raises(KeyError, match="worker"):
        graph_core._run_pair(lambda: 1, fail, graph_core._SPLIT_MIN_NNZ)


def test_usable_cpus_follows_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert graph_core._usable_cpus() == 1


@settings(max_examples=30)
@given(n=st.integers(2, 60), seed=st.integers(0, 2**31 - 1), eps=st.floats(0.05, 0.9),
       kind=st.sampled_from(["built", "reweighted", "from_weights"]))
def test_threaded_wmul_is_bit_identical(n, seed, eps, kind):
    from rgglearn.geometry import build_graph, make_kernel

    rng = np.random.default_rng(seed)
    if kind == "from_weights":
        g, _ = random_graph(n, seed)
    else:
        g = build_graph(rng.random((n, 2)), max(eps, n ** -0.5), make_kernel("cone", 2))
        if kind == "reweighted":
            g = g.reweighted(1.0 + rng.random(n))
    u = rng.standard_normal(n)
    upper = g._upper
    want = upper @ u + upper.T @ u + g.self_weights * u
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_core, "_SPLIT_MIN_NNZ", 0)
        mp.setattr(graph_core, "_usable_cpus", lambda: 2)
        assert np.array_equal(g.wmul(u), want)
    assert np.array_equal(g.wmul(u), want)


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork of a threaded process
def test_wmul_in_forked_child(monkeypatch):
    from rgglearn.geometry import build_graph, make_kernel

    rng = np.random.default_rng(5)
    g = build_graph(rng.random((2000, 2)), 0.2, make_kernel("indicator", 2))
    assert g._upper.nnz >= graph_core._SPLIT_MIN_NNZ
    monkeypatch.setattr(graph_core, "_usable_cpus", lambda: 2)
    u = rng.standard_normal(g.n)
    want = g.wmul(u)  # the parent's worker thread now exists
    assert graph_core._worker[0] == os.getpid()

    def child():
        raise SystemExit(0 if np.array_equal(g.wmul(u), want) else 1)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=60)
    if proc.is_alive():
        proc.kill()
        proc.join()
        pytest.fail("wmul hung in a forked child")
    assert proc.exitcode == 0
