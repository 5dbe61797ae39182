import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from rgglearn.geometry import Box, Disk, make_kernel, make_density, sample_points, build_graph
from rgglearn.graph_core import (GraphFunction, LaplacianKind, graph_delta, inner,
                                 laplacian_apply, weighted_mean)
from rgglearn.heat_kernel import (GridField, heat_column, heat_convolve,
                                  psi_table, repeated_average, rho_hat,
                                  scale_constants, smooth_poisson)
from rgglearn.poisson_solver import SourceSpec, assemble_source, solve_graph_poisson


def small_graph(n=60, eps=0.45, seed=7):
    box = Box([0, 0], [1, 1])
    ker = make_kernel("indicator", 2)
    rho = make_density("constant", box)
    pts = sample_points(box, rho, n, seed=seed)
    g = build_graph(pts, eps, ker)
    assert g.connected
    return g


def dense_propagators(g):
    # P = W D^{-1} acts on columns H_k, Q = D^{-1} W acts on functions
    W = g.weight_matrix().toarray()
    deg = W.sum(axis=1)
    return W / deg[None, :], W / deg[:, None]


def test_column_k0_is_delta():
    g = small_graph()
    hc = heat_column(g, 11, 0)
    assert np.array_equal(hc.values.values, graph_delta(11, g).values)


def test_column_matches_dense_matrix_power():
    g = small_graph()
    P, _ = dense_propagators(g)
    delta = graph_delta(4, g).values
    for k in (1, 5, 20):
        hc = heat_column(g, 4, k)
        want = np.linalg.matrix_power(P, k) @ delta
        assert np.max(np.abs(hc.values.values - want)) < 1e-12


def test_column_mass_and_positivity():
    g = small_graph()
    for k in (1, 10, 1000):
        v = heat_column(g, 0, k).values.values
        assert abs(np.mean(v) - 1.0) < 1e-12
        assert v.min() >= 0.0


def test_point_center_one_step_formula():
    g = small_graph()
    x = np.array([0.41, 0.52])
    hc = heat_column(g, x, 1)
    ker = make_kernel("indicator", 2)
    w = ker.eta_eps(np.linalg.norm(g.points - x, axis=1), g.eps)
    want = g.n * w / w.sum()
    assert np.max(np.abs(hc.values.values - want)) < 1e-14
    assert abs(np.mean(hc.values.values) - 1.0) < 1e-12


def test_point_center_multi_step_oracle():
    g = small_graph()
    x = np.array([0.41, 0.52])
    P, _ = dense_propagators(g)
    h1 = heat_column(g, x, 1).values.values
    hc = heat_column(g, x, 4)
    want = np.linalg.matrix_power(P, 3) @ h1
    assert np.max(np.abs(hc.values.values - want)) < 1e-12


def test_point_center_errors():
    g = small_graph()
    with pytest.raises(ValueError):
        heat_column(g, np.array([0.5, 0.5]), 0)
    with pytest.raises(ValueError):
        heat_column(g, np.array([50.0, 50.0]), 3)
    with pytest.raises(ValueError):
        heat_column(g, np.array([0.5, 0.5, 0.5]), 3)
    with pytest.raises(IndexError):
        heat_column(g, g.n, 2)
    with pytest.raises(ValueError):
        heat_column(g, 0, -1)


def test_degree_symmetry():
    g = small_graph(n=40)
    deg = g.degrees
    cols = np.stack([heat_column(g, x, 7).values.values for x in range(g.n)], axis=1)
    # deg(y) H_k^y(x) = deg(x) H_k^x(y)
    lhs = cols * deg[None, :]
    assert np.max(np.abs(lhs - lhs.T)) < 1e-10 * np.max(np.abs(lhs))


def test_convolution_dense_oracle():
    g = small_graph()
    _, Q = dense_propagators(g)
    rng = np.random.default_rng(0)
    u = GraphFunction(g, rng.normal(size=g.n))
    for k in (0, 1, 6):
        uk = heat_convolve(g, k, u)
        want = np.linalg.matrix_power(Q, k) @ u.values
        assert np.max(np.abs(uk.values - want)) < 1e-12


def test_convolution_semigroup():
    g = small_graph()
    rng = np.random.default_rng(1)
    u = GraphFunction(g, rng.normal(size=g.n))
    a = heat_convolve(g, 2, heat_convolve(g, 3, u))
    b = heat_convolve(g, 5, u)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_convolution_commutes_with_rw_laplacian():
    g = small_graph()
    rng = np.random.default_rng(2)
    u = GraphFunction(g, rng.normal(size=g.n))
    a = heat_convolve(g, 3, laplacian_apply(u, LaplacianKind.RandomWalk))
    b = laplacian_apply(heat_convolve(g, 3, u), LaplacianKind.RandomWalk)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_delta_convolution_gives_scaled_column():
    # H_k * delta_x = deg(x) deg^{-1} H_k^x
    g = small_graph(n=40)
    x = 9
    uk = heat_convolve(g, 5, graph_delta(x, g))
    col = heat_column(g, x, 5).values.values
    want = g.degrees[x] * col / g.degrees
    assert np.max(np.abs(uk.values - want)) < 1e-12


def poisson_setup(k=6):
    g = small_graph()
    box = Box([0, 0], [1, 1])
    s = SourceSpec(np.array([[0.3, 0.3], [0.7, 0.7]]), np.array([1.0, -1.0]), domain=box)
    u, _ = solve_graph_poisson(g, s, tol=1e-12)
    return g, s, u


def test_smooth_poisson_solves_smoothed_problem():
    g, s, u = poisson_setup()
    uk, fk = smooth_poisson(g, u, s, 6)
    lu = laplacian_apply(uk, LaplacianKind.GeometricScaled)
    assert np.max(np.abs(lu.values - fk.values)) < 1e-10 * max(1.0, np.max(np.abs(fk.values)))
    assert abs(weighted_mean(uk) - weighted_mean(u)) < 1e-12


def test_smooth_poisson_difference_formula():
    g, s, u = poisson_setup()
    k = 6
    uk, _ = smooth_poisson(g, u, s, k)
    nodes = [int(np.argmin(np.linalg.norm(g.points - a, axis=1))) for a in s.anchors]
    acc = np.zeros(g.n)
    for node, a in zip(nodes, s.coefficients):
        for j in range(k):
            acc += a * heat_column(g, node, j).values.values
    scale = g.sigma_eta * g.eps**2 * (g.n - 1)
    assert np.max(np.abs((u.values - uk.values) - scale * acc / g.degrees)) < 1e-10


def test_smooth_poisson_rejects_non_solution():
    g, s, u = poisson_setup()
    bad = GraphFunction(g, u.values + 1e-3 * np.sin(np.arange(g.n)))
    with pytest.raises(ValueError):
        smooth_poisson(g, bad, s, 3)


def test_mean_value_property_identity():
    # u = H_k * u + sum_{j<k} H_j * (L_rw u) for any u
    g = small_graph()
    rng = np.random.default_rng(3)
    u = GraphFunction(g, rng.normal(size=g.n))
    f = laplacian_apply(u, LaplacianKind.RandomWalk)
    k = 4
    acc = heat_convolve(g, k, u).values.copy()
    for j in range(k):
        acc += heat_convolve(g, j, f).values
    assert np.max(np.abs(u.values - acc)) < 1e-12


def test_scale_constants_pins():
    assert abs(scale_constants(1, 4, 0.25).Theta_dk - 2.0) < 1e-12
    assert abs(scale_constants(2, 3, 0.25).Theta_dk - np.log(4.0)) < 1e-12
    assert scale_constants(3, 7, 0.25).Theta_dk == 3.0
    sc = scale_constants(2, 1, 0.1)
    want = 0.5 + 0.1 * np.sqrt(16 * np.log(1e4))
    assert abs(sc.R_k - want) < 1e-12
    assert abs(sc.eps_k - 0.1) < 1e-15
    sc2 = scale_constants(2, 16, 0.1)
    assert abs(sc2.eps_k - 0.4) < 1e-15
    assert sc2.R_k > 5 * 0.1


def test_scale_constants_validation():
    with pytest.raises(ValueError):
        scale_constants(2, 3, 0.6)
    with pytest.raises(ValueError):
        scale_constants(2, 200, 0.1)
    with pytest.raises(ValueError):
        scale_constants(2, 0, 0.1)
    with pytest.raises(ValueError):
        scale_constants(4, 3, 0.1)


def test_phi_envelope():
    sc = scale_constants(2, 3, 0.2)
    # inside the eps ball the Gaussian factor is k, so phi = min(Theta, k)
    want0 = min(sc.Theta_dk, 3.0)
    assert abs(sc.phi(0.0) - want0) < 1e-14
    assert abs(sc.phi(0.15) - want0) < 1e-14
    r = np.array([0.0, 0.3, 0.6, 1.2, 2.4])
    vals = sc.phi(r)
    assert np.all(np.diff(vals) <= 1e-15)
    z = 0.9
    want = min(sc.Theta_dk, 3 * np.exp(-((z - 0.2) ** 2) / (8 * 2 * sc.eps_k**2)))
    assert abs(sc.phi(z) - want) < 1e-14


def test_psi_k1_is_eta():
    for d in (1, 2):
        ker = make_kernel("cone", d)
        tab = psi_table(ker, d, 1, 0.3)
        r = np.linspace(0, 0.3, 50)
        assert np.max(np.abs(tab.evaluate(r) - ker.eta_eps(r, 0.3))) < 1e-10
        assert abs(tab.mass() - 1.0) < 1e-6


def test_psi_d1_indicator_triangle():
    # eta * eta for the d=1 indicator is the triangle (2 - r)/4 on [0, 2]
    tab = psi_table(make_kernel("indicator", 1), 1, 2, 1.0)
    for r, want in ((0.0, 0.5), (0.5, 0.375), (1.0, 0.25), (1.9, 0.025)):
        assert abs(float(tab.evaluate(r)) - want) < 1e-4


def test_psi_d2_indicator_lens():
    # eta * eta for the d=2 indicator is the unit-disk intersection area
    # at center distance r, divided by pi^2
    tab = psi_table(make_kernel("indicator", 2), 2, 2, 1.0)

    def lens(r):
        return 2 * np.arccos(r / 2) - (r / 2) * np.sqrt(4 - r * r)

    assert abs(float(tab.evaluate(0.0)) - 1 / np.pi) < 5e-3 / np.pi
    for r in (0.5, 1.0, 1.5):
        want = lens(r) / np.pi**2
        assert abs(float(tab.evaluate(r)) - want) < 1e-4


def test_psi_unit_mass_grid_route():
    for d in (1, 2):
        for variant in ("indicator", "cone"):
            ker = make_kernel(variant, d)
            for k in (2, 8):
                tab = psi_table(ker, d, k, 0.1)
                assert abs(tab.mass() - 1.0) < 1e-6
                # independent check: refined simpson of the interpolant
                rr = np.linspace(0.0, tab.r[-1], 20001)
                m = d * {1: 2.0, 2: np.pi}[d] * simpson(tab.evaluate(rr) * rr ** (d - 1), x=rr)
                assert abs(m - 1.0) < 1e-6
                assert tab.values.min() > -1e-8


def test_psi_unit_mass_fourier_route():
    tab = psi_table(make_kernel("indicator", 3), 3, 4, 1.0)
    assert tab.method == "radial-fourier"
    assert abs(tab.mass() - 1.0) < 1e-6
    tab = psi_table(make_kernel("bump", 3), 3, 2, 0.3)
    assert abs(tab.mass() - 1.0) < 1e-6


def test_psi_route_cross_validation():
    ker = make_kernel("indicator", 2)
    tf = psi_table(ker, 2, 4, 1.0, method="radial-fourier")
    tg = psi_table(ker, 2, 4, 1.0, method="grid-convolution")
    r = np.linspace(0, 3.8, 300)
    assert np.max(np.abs(tf.evaluate(r) - tg.evaluate(r))) < 1e-4
    kerc = make_kernel("cone", 1)
    tf = psi_table(kerc, 1, 4, 1.0, method="radial-fourier")
    tg = psi_table(kerc, 1, 4, 1.0, method="grid-convolution")
    r = np.linspace(0, 3.8, 300)
    assert np.max(np.abs(tf.evaluate(r) - tg.evaluate(r))) < 1e-5


def test_psi_tail_bound():
    # mass outside radius t is at most 2 d exp(-t^2 / (2 d eps_k^2))
    for d in (1, 2):
        ker = make_kernel("indicator", d)
        for k in (2, 8):
            tab = psi_table(ker, d, k, 0.1)
            ek = 0.1 * np.sqrt(k)
            for t in (ek, 2 * ek, 3 * ek):
                bound = 2 * d * np.exp(-t**2 / (2 * d * ek**2))
                assert tab.tail_mass(t) <= bound + 1e-4


def test_psi_gaussian_envelope_constant():
    # psi_{k,eps} <= C min(eps_k^{-d}, eps^{-d} exp(-|x|^2/(8 d eps_k^2)))
    worst = 0.0
    for d in (1, 2):
        ker = make_kernel("indicator", d)
        for k in (4, 16):
            tab = psi_table(ker, d, k, 0.1)
            ek = 0.1 * np.sqrt(k)
            env = np.minimum(ek ** (-d), 0.1 ** (-d) * np.exp(-tab.r**2 / (8 * d * ek**2)))
            worst = max(worst, float(np.max(tab.values / env)))
    print("fitted envelope constant C = %.3f" % worst)
    assert 0.1 < worst < 2.0


def test_psi_fourier_insufficient_resolution():
    with pytest.raises(RuntimeError, match="insufficient quadrature resolution"):
        psi_table(make_kernel("indicator", 2), 2, 2, 1.0, method="radial-fourier")
    with pytest.raises(RuntimeError, match="insufficient quadrature resolution"):
        psi_table(make_kernel("indicator", 1), 1, 4, 1.0, method="radial-fourier")


def test_psi_eps_rescaling():
    ker = make_kernel("indicator", 2)
    t1 = psi_table(ker, 2, 2, 1.0)
    t2 = psi_table(ker, 2, 2, 0.25)
    r = np.linspace(0, 0.5, 100)
    assert np.max(np.abs(t2.evaluate(r) - t1.evaluate(r / 0.25) / 0.25**2)) < 1e-10
    assert abs(t2.mass() - 1.0) < 1e-6


def test_psi_argument_validation():
    ker = make_kernel("indicator", 2)
    with pytest.raises(ValueError):
        psi_table(ker, 2, 0, 1.0)
    with pytest.raises(ValueError):
        psi_table(ker, 4, 2, 1.0)
    with pytest.raises(ValueError):
        psi_table(ker, 1, 2, 1.0)
    with pytest.raises(ValueError):
        psi_table(make_kernel("indicator", 3), 3, 2, 1.0, method="grid-convolution")
    with pytest.raises(ValueError):
        psi_table(ker, 2, 2, 1.0, method="mystery")


def test_rho_hat_constant_density():
    box = Box([0, 0], [1, 1])
    ker = make_kernel("indicator", 2)
    rho = make_density("constant", box)
    # interior: full ball, so rho_hat = rho exactly
    assert abs(rho_hat(rho, box, ker, 0.1, [0.5, 0.5]) - 1.0) < 1e-9
    # corner: quarter ball
    assert abs(rho_hat(rho, box, ker, 0.1, [0.0, 0.0]) - 0.25) < 1e-6
    assert abs(rho_hat(rho, box, ker, 0.1, [1.0, 1.0]) - 0.25) < 1e-6
    # edge midpoint: half ball
    assert abs(rho_hat(rho, box, ker, 0.1, [0.5, 0.0]) - 0.5) < 1e-6
    # smooth kernel at the corner
    kb = make_kernel("bump", 2)
    assert abs(rho_hat(rho, box, kb, 0.1, [0.0, 0.0]) - 0.25) < 1e-6


def test_rho_hat_affine_density_interior():
    # symmetric kernel integrates an affine density to its center value
    box = Box([0, 0], [1, 1])
    ker = make_kernel("cone", 2)
    rho = make_density("affine", box, slope=0.8)
    x = np.array([0.4, 0.6])
    want = float(rho.evaluate(x[None, :])[0])
    assert abs(rho_hat(rho, box, ker, 0.15, x) - want) < 1e-9


def test_rho_hat_lipschitz_bound():
    box = Box([0, 0], [1, 1])
    ker = make_kernel("indicator", 2)
    rho = make_density("bump", box, amplitude=1.0)
    eps = 0.08
    rng = np.random.default_rng(5)
    pts = rng.uniform(eps, 1 - eps, size=(20, 2))
    vals = rho.evaluate(pts)
    for x, v in zip(pts, vals):
        assert abs(rho_hat(rho, box, ker, eps, x) - v) <= rho.lipschitz * eps + 1e-12


def test_rho_hat_other_domains():
    disk = Disk([0, 0], 1.0)
    ker = make_kernel("indicator", 2)
    rho = make_density("constant", disk)
    v0 = float(rho.evaluate(np.zeros((1, 2)))[0])
    assert abs(rho_hat(rho, disk, ker, 0.2, [0.0, 0.0]) - v0) < 1e-9
    # clipping near the disk boundary reduces the value
    assert rho_hat(rho, disk, ker, 0.2, [0.95, 0.0]) < v0
    box1 = Box([0], [1])
    k1 = make_kernel("cone", 1)
    r1 = make_density("constant", box1)
    assert abs(rho_hat(r1, box1, k1, 0.1, [0.5]) - 1.0) < 1e-12
    assert abs(rho_hat(r1, box1, k1, 0.1, [0.0]) - 0.5) < 1e-12
    box3 = Box([0, 0, 0], [1, 1, 1])
    k3 = make_kernel("indicator", 3)
    r3 = make_density("constant", box3)
    assert abs(rho_hat(r3, box3, k3, 0.15, [0.5, 0.5, 0.5]) - 1.0) < 1e-9


def test_rho_hat_outside_domain():
    box = Box([0, 0], [1, 1])
    ker = make_kernel("indicator", 2)
    rho = make_density("constant", box)
    with pytest.raises(ValueError):
        rho_hat(rho, box, ker, 0.1, [1.5, 0.5])


def average_setup(name="constant", k=4):
    eps = 0.25
    box = Box([0, 0], [4, 4])
    ker = make_kernel("indicator", 2)
    rho = make_density(name, box)
    h = eps / 12
    fld = repeated_average(rho, box, ker, eps, [2.0, 2.0], k, h)
    return box, ker, rho, eps, h, fld


def test_repeated_average_conserves_weighted_mass():
    box, ker, rho, eps, h, fld = average_setup("bump")
    f0 = repeated_average(rho, box, ker, eps, [2.0, 2.0], 0, h)
    mesh = np.stack(np.meshgrid(*fld.axes, indexing="ij"), -1)
    w = rho.evaluate(mesh.reshape(-1, 2)).reshape(fld.values.shape)
    m_k = fld.integrate(weight=w)
    m_0 = f0.integrate(weight=w)
    assert abs(m_k - m_0) < 1e-10 * abs(m_0)


def test_repeated_average_symmetric_at_grid_points():
    box, ker, rho, eps, h, fld = average_setup("bump", k=3)
    x = np.array([fld.axes[0][90], fld.axes[1][96]])
    y = np.array([fld.axes[0][102], fld.axes[1][88]])
    fx = repeated_average(rho, box, ker, eps, x, 3, h)
    fy = repeated_average(rho, box, ker, eps, y, 3, h)
    vxy = fx.values[102, 88]
    vyx = fy.values[90, 96]
    assert abs(vxy - vyx) < 1e-10 * abs(vxy)


def test_repeated_average_approximates_psi():
    # with constant density, M^k eta^x equals psi_{k+1,eps} in the limit
    box, ker, rho, eps, h, fld = average_setup("constant", k=4)
    tab = psi_table(ker, 2, 5, eps)
    mesh = np.stack(np.meshgrid(*fld.axes, indexing="ij"), -1)
    rr = np.linalg.norm(mesh - np.array([2.0, 2.0]), axis=-1)
    want = tab.evaluate(rr)
    l1 = np.abs(fld.values - want).sum() * h * h
    assert l1 < 0.05


def test_repeated_average_preconditions():
    box = Box([0, 0], [4, 4])
    ker = make_kernel("indicator", 2)
    rho = make_density("constant", box)
    with pytest.raises(ValueError):
        repeated_average(rho, box, ker, 0.25, [2.0, 2.0], 2, 0.05)
    with pytest.raises(ValueError):
        repeated_average(rho, box, ker, 0.25, [0.1, 2.0], 2, 0.25 / 12)


def test_grid_field_sampling():
    axes = (np.array([0.5, 1.5, 2.5]), np.array([0.25, 1.25]))
    vals = np.fromfunction(lambda i, j: 2.0 * (0.5 + i) - 3.0 * (0.25 + j), (3, 2))
    fld = GridField(axes, vals, 1.0)
    pts = np.array([[0.5, 0.25], [1.0, 0.75], [2.2, 1.0], [1.7, 0.4]])
    want = 2.0 * pts[:, 0] - 3.0 * pts[:, 1]
    assert np.max(np.abs(fld.sample(pts) - want)) < 1e-12
    # clamped outside the sample hull
    edge = fld.sample(np.array([[-1.0, 0.25]]))
    assert abs(edge[0] - (2.0 * 0.5 - 3.0 * 0.25)) < 1e-12


def test_import_defers_scipy_signal():
    # scipy.signal is slow to import; only the grid convolutions need it
    import rgglearn

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(rgglearn.__file__))
    code = "import sys, rgglearn; assert 'scipy.signal' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def random_connected_graph(n, seed, eps):
    rng = np.random.default_rng(seed)
    g = build_graph(rng.random((n, 2)), max(eps, n ** -0.5), make_kernel("cone", 2))
    assume(g.connected)
    return g


@settings(max_examples=30)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**31 - 1), eps=st.floats(0.3, 1.0),
       x=st.integers(0, 10**6), k=st.integers(0, 40))
def test_property_heat_mass_preserved(n, seed, eps, x, k):
    g = random_connected_graph(n, seed, eps)
    col = heat_column(g, x % n, k).values
    assert abs(inner(col, GraphFunction(g, np.ones(n))) - 1.0) < 1e-12


@settings(max_examples=30)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**31 - 1), eps=st.floats(0.3, 1.0),
       k=st.integers(0, 20), l=st.integers(0, 20))
def test_property_heat_semigroup(n, seed, eps, k, l):
    g = random_connected_graph(n, seed, eps)
    u = GraphFunction(g, np.random.default_rng(seed + 1).standard_normal(n))
    a = heat_convolve(g, k, heat_convolve(g, l, u)).values
    b = heat_convolve(g, k + l, u).values
    assert np.max(np.abs(a - b)) <= 1e-13 * max(1.0, np.max(np.abs(u.values)))
