import io
import multiprocessing
import os
import re
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


@pytest.mark.parametrize("entries", [[(1, 0, 1.0)], [(2, 2, 2.0)], [(0, 1, 1.0), (1, 0, 1.0)]])
def test_graph_rejects_entries_on_or_below_the_diagonal(entries, tmp_path):
    # (2, 2) in `upper` counted the self-weight twice, and (1, 0) broke
    # edge_arrays' i <= j, so a save/load round trip changed W
    pts = np.arange(3.0)[:, None]
    i, j, w = zip(*entries)
    upper = sparse.coo_matrix((w, (i, j)), shape=(3, 3))
    with pytest.raises(ValueError, match="on or below the diagonal"):
        Graph(pts, upper, np.ones(3), 1.0)
    # an edge list with j < i is rejected on load, not folded into W
    g = Graph(pts, sparse.coo_matrix(([1.0], ([0], [1])), shape=(3, 3)), np.ones(3), 1.0,
              sigma_eta=1.0)
    path = str(tmp_path / "g.csv")
    save_graph(g, path)
    assert (load_graph(path).weight_matrix() != g.weight_matrix()).nnz == 0
    with open(path, "a") as fh:
        fh.write("2,1,0.5\n")
    with pytest.raises(ValueError, match="on or below the diagonal"):
        load_graph(path)


def _load_with_points_of_another_shape(tmp_path):
    g = Graph(np.arange(3.0)[:, None], sparse.coo_matrix(([1.0], ([0], [1])), shape=(3, 3)),
              np.ones(3), 1.0, sigma_eta=1.0)
    path = str(tmp_path / "g.csv")
    save_graph(g, path)
    (tmp_path / "g.csv.points").write_text("x0,x1\n0,0\n1,1\n")
    return load_graph(path)


_PAIR = np.array([[0.0], [1.0]])


@pytest.mark.parametrize("build, match", [
    (lambda tmp: Graph(_PAIR, sparse.coo_matrix(([-1.0], ([0], [1])), shape=(2, 2)),
                       np.ones(2), 1.0), "negative edge weight"),
    (lambda tmp: Graph(_PAIR, sparse.coo_matrix(([1.0], ([0], [1])), shape=(2, 2)),
                       np.ones(3), 1.0), "diagonal length mismatch"),
    (lambda tmp: Graph(_PAIR, sparse.coo_matrix(([1.0], ([0], [1])), shape=(2, 2)),
                       np.array([1.0, -1.0]), 1.0), "negative self-weight"),
    (lambda tmp: Graph.from_weights(_PAIR, np.array([[0.0, 1.0], [2.0, 0.0]]), 1.0),
     "must be symmetric"),
    (_load_with_points_of_another_shape, r"points file shape \(2, 2\) does not match"),
], ids=["negative-edge", "diagonal-length", "negative-self-weight", "asymmetric-W",
        "points-file-shape"])
def test_graph_construction_guards(build, match, tmp_path):
    with pytest.raises(ValueError, match=match):
        build(tmp_path)


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


def _full_components(g):
    # the oracle: components of the full symmetric graph of positive weights
    W = g.weight_matrix()
    W.data = (W.data > 0).astype(float)
    W.eliminate_zeros()
    return sparse.csgraph.connected_components(W, directed=False)


def _same_partition(a, b):
    # equal up to a renumbering of the components
    return (len(np.unique(a)) == len(np.unique(b))
            == np.unique(np.stack([a, b]), axis=1).shape[1])


@pytest.mark.parametrize("d,n,eps", [(1, 3000, 0.003), (1, 500, 0.01), (2, 2000, 0.05),
                                     (2, 700, 0.04), (2, 3000, 0.025)])
def test_component_labels_match_the_full_graph(d, n, eps):
    from rgglearn.geometry import build_graph, make_kernel

    g = build_graph(np.random.default_rng(n).random((n, d)), eps, make_kernel("cone", d))
    ncomp, labels = _full_components(g)
    assert g.connected == (ncomp == 1)
    assert _same_partition(g.component_labels(), labels)


def _window_graph(n, eps, seed):
    from rgglearn.geometry import build_graph, make_kernel

    g = build_graph(np.random.default_rng(seed).random((n, 1)), eps,
                    make_kernel("indicator", 1), seed=seed)
    assert g._windows is not None and g._csr is None
    return g


@pytest.mark.parametrize("n,eps,want", [(300, 0.004, 90), (3000, 0.003, 1), (500, 0.01, 6)])
def test_window_component_labels_match_the_full_graph(n, eps, want):
    # d = 1 indicator graphs take their components from their windows, numbered
    # as csgraph numbers them; at n eps = 1.2 many gaps are wider than eps
    g = _window_graph(n, eps, seed=n)
    labels = g.component_labels()
    ncomp, full = _full_components(g)
    assert ncomp == want and g.connected == (ncomp == 1)
    assert np.array_equal(labels, full)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 400), seed=st.integers(0, 2**31 - 1), eps_frac=st.floats(0.0, 1.0),
       shift=st.floats(-10.0, 10.0))
def test_window_wmul_matches_the_csr_product(n, seed, eps_frac, shift):
    # both routes sum at most B = (longest window) terms per node, so each
    # is within about 2 B^2 2^-53 c ||u||_inf of W u (recursive summation,
    # Higham 1993); measured gaps are about B 2^-53 c ||u||_inf
    eps = 1.0 / n + eps_frac * (0.5 - min(1.0 / n, 0.5))
    g = _window_graph(n, eps, seed)
    w = g._windows
    u = np.random.default_rng(seed + 1).standard_normal(n) + shift
    got = g.wmul(u)
    upper = g._upper
    want = upper @ u + upper.T @ u + g.self_weights * u
    B = np.max(w.hi - w.lo)
    assert np.max(np.abs(got - want)) <= (4 * B * B + 8 * B) * 2.0**-53 * w.c * np.max(np.abs(u))
    # degrees count the window exactly
    assert np.array_equal(g.degrees, w.c * (w.hi - w.lo - 1)[np.argsort(w.order)] + g.self_weights)


@pytest.mark.parametrize("kind", ["indicator", "cone"])
def test_wmul_rejects_non_vectors_before_building_anything(kind):
    # the window route (indicator) and the CSR route (cone) check u's shape
    # first, so a bad u never makes the window graph build its CSR
    from rgglearn.geometry import build_graph, make_kernel

    g = build_graph(np.random.default_rng(3).random((50, 1)), 0.1, make_kernel(kind, 1))
    assert (g._windows is not None) == (kind == "indicator")
    for u in (np.ones((50, 2)), np.ones(51), np.ones((1, 50)), np.float64(1.0)):
        with pytest.raises(ValueError, match=r"shape \(50,\), got shape %s"
                           % re.escape(str(u.shape))):
            g.wmul(u)
    assert (g._csr is None) == (kind == "indicator")


def test_window_graph_matches_its_csr_twin(tmp_path):
    # the operations that read the CSR give a window graph's results
    # exactly as for the same graph built on the CSR route
    from rgglearn import geometry
    from rgglearn.geometry import build_graph, make_kernel

    g = _window_graph(600, 0.01, seed=6)
    assert build_graph(g.points, g.eps, make_kernel("cone", 1))._windows is None
    k = make_kernel("indicator", 1)
    upper = sparse.csr_matrix(geometry._upper_triangle(g.points, g.eps, k), shape=(g.n, g.n))
    twin = Graph(g.points, upper, g.self_weights, g.eps, kernel=k, seed=6)
    assert twin._windows is None
    assert np.array_equal(g.component_labels(), twin.component_labels())
    assert g.connected == twin.connected
    assert np.allclose(g.degrees, twin.degrees, rtol=1e-14, atol=0)
    assert g._csr is None  # nothing so far needed the CSR

    for a, b in zip(g.edge_arrays(), twin.edge_arrays()):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    wa, wb = g.weight_matrix(), twin.weight_matrix()
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(wa, name), getattr(wb, name)), name
    f = np.random.default_rng(1).random(g.n) + 0.5
    ra, rb = g.reweighted(f), twin.reweighted(f)
    assert ra._windows is None
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(ra._upper, name), getattr(rb._upper, name)), name
    assert np.array_equal(ra.degrees, rb.degrees)
    nodes = np.setdiff1d(np.arange(g.n), [3, 300])
    (agg_a, Ma), (agg_b, Mb) = g._cell_aggregates(nodes), twin._cell_aggregates(nodes)
    assert np.array_equal(agg_a, agg_b) and np.array_equal(Ma, Mb)
    for graph, name in ((g, "window"), (twin, "twin")):
        save_graph(graph, str(tmp_path / name))
    for suffix in ("", ".meta", ".points"):
        assert ((tmp_path / ("window" + suffix)).read_bytes()
                == (tmp_path / ("twin" + suffix)).read_bytes().replace(b"twin", b"window"))
    loaded = load_graph(str(tmp_path / "window"))
    assert (loaded.weight_matrix() != twin.weight_matrix()).nnz == 0


def test_components_fall_back_when_the_spanning_rows_disconnect():
    # node 0's first 8 stored edges are (0,1)..(0,8); (0,9) is the only edge
    # that joins {9, 10} to the rest, so the spanning subgraph is split
    rows = [0] * 9 + [9]
    cols = list(range(1, 10)) + [10]
    upper = sparse.coo_matrix((np.ones(10), (rows, cols)), shape=(11, 11))
    g = Graph(np.arange(11.0)[:, None], upper, np.zeros(11), 1.0)
    assert g.connected and not g.component_labels().any()


def test_zero_weight_edges_connect_nothing():
    # stored zeros (from reweighted, or explicit in the input) are not edges
    upper = sparse.csr_matrix((np.array([1.0, 0.0, 1.0]), np.array([1, 2, 3]),
                               np.array([0, 1, 2, 3, 3])), shape=(4, 4))
    g = Graph(np.arange(4.0)[:, None], upper, np.zeros(4), 1.0)
    assert g._upper.nnz == 3 and not g.connected
    labels = g.component_labels()
    assert labels[0] == labels[1] != labels[2] == labels[3]

    from rgglearn.geometry import build_graph, make_kernel

    g = build_graph(np.random.default_rng(3).random((400, 2)), 0.2, make_kernel("cone", 2))
    f = np.ones(400)
    f[5] = 0.0
    g2 = g.reweighted(f)
    assert g.connected and not g2.connected
    assert np.sum(g2.component_labels() == g2.component_labels()[5]) == 1


def _dense_aggregate_weights(g, nodes, agg, m):
    P = np.zeros((g.n, m))
    P[nodes, agg] = 1.0
    return P.T @ np.triu(g.weight_matrix().toarray(), 1) @ P


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cell_aggregates_sum_the_stored_weights(d):
    from rgglearn.geometry import build_graph, make_kernel

    rng = np.random.default_rng(d)
    g = build_graph(rng.random((300, d)), 0.3, make_kernel("cone", d))
    g = g.reweighted(1.0 + rng.random(g.n))
    nodes = np.setdiff1d(np.arange(g.n), [0, 17, 123])
    agg, M = g._cell_aggregates(nodes)
    m = M.shape[0]
    assert agg.shape == nodes.shape and set(agg) == set(range(m))
    assert 1 < m <= np.sqrt(g._upper.nnz)
    # sqrt(nnz) leaves room for every cell of side eps here, so none doubled
    lo = g.points.min(axis=0)
    for a in range(m):
        cell = np.floor((g.points[nodes[agg == a]] - lo) / g.eps)
        assert np.all(cell == cell[0])
    assert np.allclose(M, _dense_aggregate_weights(g, nodes, agg, m), rtol=1e-13, atol=0)


@pytest.mark.parametrize("eps", [1e-9, 0.0, -1.0, np.inf])
def test_cell_aggregates_cap_any_eps(eps):
    # from_weights takes any eps; the aggregates stay within sqrt(nnz)
    rng = np.random.default_rng(4)
    pts = rng.random((200, 2))
    W = np.exp(-50 * ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    W[W < 0.05] = 0.0
    np.fill_diagonal(W, 0.0)
    g = Graph.from_weights(pts, W, eps, sigma_eta=1.0)
    nodes = np.arange(1, g.n)
    agg, M = g._cell_aggregates(nodes)
    m = M.shape[0]
    assert m <= np.sqrt(g._upper.nnz)
    assert np.allclose(M, _dense_aggregate_weights(g, nodes, agg, m), rtol=1e-13, atol=0)
    if eps == 1e-9:  # cells doubled from 1/sqrt(nnz) of the box until they fit
        assert m > 1


def _node_rule_graph():
    from rgglearn.geometry import build_graph, make_kernel

    pts = np.random.default_rng(2).random((60, 2))
    return build_graph(pts, 0.3, make_kernel("cone", 2), seed=2)


def _node_caller(name):
    """The caller `name` that turns a node into an index, as a function of
    (graph, node); the solvers get a second label at node 5."""
    from rgglearn.heat_kernel import heat_column
    from rgglearn.poisson_solver import pwll_gamma, solve_laplace_learning, solve_pwll

    return {
        "graph_delta": lambda g, x: graph_delta(x, g).values,
        "heat_column": lambda g, x: heat_column(g, x, 3).values,
        "laplace": lambda g, x: solve_laplace_learning(g, [(x, 1.0), (5, -1.0)]).values,
        "pwll": lambda g, x: solve_pwll(g, [(x, 1.0), (5, -1.0)]).values,
        "pwll_gamma": lambda g, x: pwll_gamma(g, [x, 5]).values,
    }[name]


_NODE_CALLERS = ["graph_delta", "heat_column", "laplace", "pwll", "pwll_gamma"]


@pytest.mark.parametrize("bad", [2.7, True, np.nan, -1, 60], ids=str)
@pytest.mark.parametrize("caller", _NODE_CALLERS)
def test_nodes_that_are_not_whole_numbers_in_range_are_rejected(caller, bad):
    # 2.7 was truncated to node 2, True read as node 1
    call = _node_caller(caller)
    with pytest.raises(IndexError, match="node index %s out of range" % re.escape(str(bad))):
        call(_node_rule_graph(), bad)


@pytest.mark.parametrize("caller", _NODE_CALLERS)
def test_whole_number_nodes_of_any_type_are_the_same_node(caller):
    call, g = _node_caller(caller), _node_rule_graph()
    want = call(g, 3).tobytes()
    for node in (np.int64(3), np.array(3), 3.0):
        assert call(g, node).tobytes() == want, repr(node)


@pytest.mark.parametrize("row", ["-1,-1,5", "0.5,1.7,1", "0,{n},1"])
def test_load_graph_rejects_rows_that_are_not_node_pairs(row, tmp_path):
    # -1,-1,5 added 5 to node n-1's self-weight; 0.5,1.7,1 was the edge (0, 1)
    g, _ = random_graph(6, seed=3)
    path = str(tmp_path / "g.csv")
    save_graph(g, path)
    rows = len(g.edge_arrays()[0])
    with open(path, "a") as fh:
        fh.write(row.format(n=g.n) + "\n")
    with pytest.raises(ValueError, match=re.escape("%s data row %d" % (path, rows + 1))):
        load_graph(path)


@pytest.mark.parametrize("rows, fields", [("0,1\n1,2\n0,2\n", 2), ("0,1,1,7\n", 4)])
def test_load_graph_rejects_rows_that_are_not_i_j_w(rows, fields, tmp_path):
    # three 2-field rows would reshape into two rows of three
    g, _ = random_graph(3, seed=3)
    path = str(tmp_path / "g.csv")
    save_graph(g, path)
    with open(path, "w") as fh:
        fh.write("i,j,w\n" + rows)
    with pytest.raises(ValueError, match="edge rows are i,j,w, not %d fields" % fields):
        load_graph(path)


_EDGELESS = Graph(_PAIR, sparse.csr_matrix((2, 2)), np.zeros(2), 1.0)


@pytest.mark.parametrize("call, match", [
    (lambda: Graph(np.zeros(3), sparse.csr_matrix((3, 3)), np.ones(3), 1.0),
     r"points must be a 2-d array"),
    (lambda: Graph.from_weights(_PAIR, np.eye(3), 1.0), "symmetric, with one row per point"),
    (lambda: _EDGELESS.sigma_eta, "graph has no sigma_eta"),
    (lambda: _EDGELESS.reweighted(np.ones(3)), "factor length mismatch"),
    (lambda: weighted_mean(GraphFunction(_EDGELESS, np.ones(2))), "zero total degree"),
    (lambda: laplacian_apply(GraphFunction(_EDGELESS, np.ones(2)), LaplacianKind.RandomWalk),
     "zero-degree node"),
    (lambda: laplacian_apply(GraphFunction(_EDGELESS, np.ones(2)), "random_walk"),
     "unknown LaplacianKind"),
], ids=["points-not-2d", "weight-matrix-size", "no-sigma-eta", "factor-length",
        "zero-total-degree", "zero-degree-node", "unknown-kind"])
def test_graph_function_guards(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def _round_trip_graph(kind, n, seed, eps):
    from rgglearn.geometry import build_graph, make_kernel

    rng = np.random.default_rng(seed)
    if kind == "window":  # d = 1 indicator: W applied from windows, not a CSR
        g = build_graph(rng.random((n, 1)), eps, make_kernel("indicator", 1), seed=seed)
        assert g._windows is not None
        return g
    if kind == "edgeless":  # the edge file is its header alone
        return Graph(rng.random((n, 2)), sparse.csr_matrix((n, n)), np.zeros(n), eps,
                     sigma_eta=0.5, seed=seed)
    g = build_graph(rng.random((n, 2)), max(eps, n ** -0.5), make_kernel("cone", 2), seed=seed)
    if kind == "zero-factor":  # stored zero weights on every edge of one node
        f = 1.0 + rng.random(n)
        f[rng.integers(n)] = 0.0
        g = g.reweighted(f)
    return g


@settings(max_examples=30)
@given(kind=st.sampled_from(["window", "cone", "zero-factor", "edgeless"]),
       n=st.integers(20, 120), seed=st.integers(0, 2**31 - 1), eps=st.floats(0.05, 0.5))
def test_save_load_round_trip_keeps_every_bit(kind, n, seed, eps):
    import tempfile

    g = _round_trip_graph(kind, n, seed, eps)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.csv")
        save_graph(g, path)
        loaded = load_graph(path)
    for a, b in zip(loaded.edge_arrays(), g.edge_arrays()):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert loaded.self_weights.tobytes() == g.self_weights.tobytes()
    assert np.array_equal(loaded.component_labels(), g.component_labels())
    assert (loaded.eps.hex(), loaded.sigma_eta.hex(), loaded.seed) == (
        g.eps.hex(), g.sigma_eta.hex(), g.seed)
    assert loaded.degrees.tobytes() == g.degrees.tobytes()
    # a saved window graph loads back onto its windows, so W is applied
    # by the same sums
    assert (loaded._windows is not None) == (kind == "window")
    u = np.random.default_rng(seed).standard_normal(g.n)
    assert loaded.wmul(u).tobytes() == g.wmul(u).tobytes()


@pytest.mark.parametrize("edit", ["delete-edge", "change-weight"])
def test_edited_window_graph_file_loads_as_written(edit, tmp_path):
    # a d = 1 indicator file whose edges are not build_graph's keeps them
    g = _window_graph(300, 0.02, seed=9)
    path = tmp_path / "g.csv"
    save_graph(g, str(path))
    i, j, w = g.edge_arrays()
    r = int(np.flatnonzero(i != j)[100])  # an edge, not a self-weight
    lines = path.read_text().splitlines(keepends=True)
    if edit == "delete-edge":
        del lines[r + 1]  # data row r follows the header
        i, j, w = np.delete(i, r), np.delete(j, r), np.delete(w, r)
    else:
        w = w.copy()
        w[r] *= 2.0
        lines[r + 1] = "%d,%d,%.17g\n" % (i[r], j[r], w[r])
    path.write_text("".join(lines))
    loaded = load_graph(str(path))
    assert loaded._windows is None
    for a, b in zip(loaded.edge_arrays(), (i, j, w)):
        assert np.array_equal(a, b)
