import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson
from scipy.special import j0

from rgglearn.geometry import (Box, Disk, _cell_grid, _gauss_legendre, make_kernel,
                               make_density, sample_points, build_graph)
from rgglearn.graph_core import (Graph, GraphFunction, LaplacianKind, graph_delta, inner,
                                 laplacian_apply, save_graph, weighted_mean)
from rgglearn.heat_kernel import (MAX_HEAT_STEPS, GridField, _cell_average, _cell_average_axes,
                                  _chebyshev_coefficients, _psi_grid,
                                  heat_column, heat_convolve, psi_table,
                                  repeated_average, rho_hat, scale_constants,
                                  smooth_poisson)
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
    assert np.array_equal(hc.values, graph_delta(11, g).values)


def test_column_matches_dense_matrix_power():
    g = small_graph()
    P, _ = dense_propagators(g)
    delta = graph_delta(4, g).values
    for k in (1, 5, 20):
        hc = heat_column(g, 4, k)
        want = np.linalg.matrix_power(P, k) @ delta
        assert np.max(np.abs(hc.values - want)) < 1e-12


def test_column_mass_and_positivity():
    g = small_graph()
    for k in (1, 10, 1000):
        v = heat_column(g, 0, k).values
        assert abs(np.mean(v) - 1.0) < 1e-12
        assert v.min() >= 0.0


def test_point_center_one_step_formula():
    g = small_graph()
    x = np.array([0.41, 0.52])
    hc = heat_column(g, x, 1)
    ker = make_kernel("indicator", 2)
    w = ker.eta_eps(np.linalg.norm(g.points - x, axis=1), g.eps)
    want = g.n * w / w.sum()
    assert np.max(np.abs(hc.values - want)) < 1e-14
    assert abs(np.mean(hc.values) - 1.0) < 1e-12


def test_point_center_multi_step_oracle():
    g = small_graph()
    x = np.array([0.41, 0.52])
    P, _ = dense_propagators(g)
    h1 = heat_column(g, x, 1).values
    hc = heat_column(g, x, 4)
    want = np.linalg.matrix_power(P, 3) @ h1
    assert np.max(np.abs(hc.values - want)) < 1e-12


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


# three nodes on a line: 0 and 1 joined, 2 isolated; no kernel profile
_LINE = np.array([[0.0], [0.5], [1.0]])
_PAIR_W = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize("call, match", [
    (lambda: heat_column(Graph.from_weights(_LINE, _PAIR_W, 0.6), 0, 1),
     "zero-degree node; random-walk propagation undefined"),
    (lambda: heat_column(Graph.from_weights(_LINE, _PAIR_W + np.eye(3), 0.6),
                         np.array([0.25]), 1),
     "graph has no kernel profile"),
], ids=["zero-degree-node", "point-center-without-kernel"])
def test_heat_column_guards(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_degree_symmetry():
    g = small_graph(n=40)
    deg = g.degrees
    cols = np.stack([heat_column(g, x, 7).values for x in range(g.n)], axis=1)
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
    col = heat_column(g, x, 5).values
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
            acc += a * heat_column(g, node, j).values
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


def test_heat_column_rejects_fractional_step_count():
    g = small_graph()
    for k in (1.9, 2.5, np.nan, np.inf, MAX_HEAT_STEPS + 1):
        with pytest.raises(ValueError, match="step count"):
            heat_column(g, 3, k)
    with pytest.raises(ValueError, match="step count"):
        heat_column(g, np.array([0.5, 0.5]), 2.5)
    # a whole-valued float is a step count
    assert np.array_equal(heat_column(g, 3, 2.0).values,
                          heat_column(g, 3, 2).values)


def test_heat_convolve_rejects_fractional_step_count():
    g = small_graph()
    u = np.sin(np.arange(g.n))
    for k in (2.5, -1, np.nan, np.inf, MAX_HEAT_STEPS + 1):
        with pytest.raises(ValueError, match="step count"):
            heat_convolve(g, k, u)
    g, s, u = poisson_setup()
    with pytest.raises(ValueError, match="step count"):
        smooth_poisson(g, u, s, 2.5)


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
    with pytest.raises(ValueError, match="step count"):
        scale_constants(2, 2.7, 0.1)
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


def test_psi_d1_indicator_three_fold():
    # psi_3 = psi_2 * eta with the triangle psi_2(r) = (2 - r)/4 and eta = 1/2
    # on [-1, 1], one quad per radius.  At k = 3, 1/h = 2364.83: the table's
    # stencil must keep the partly covered cell at r = 1 (without it the gap
    # is 5.2e-5)
    def psi3(r):
        f = lambda s: max(2 - abs(r - s), 0.0) / 8
        kinks = [p for p in (r, r - 2) if -1 < p < 1]
        return quad(f, -1.0, 1.0, points=kinks or None, epsabs=1e-13)[0]

    tab = psi_table(make_kernel("indicator", 1), 1, 3, 1.0)
    r = np.linspace(0.0, 2.95, 60)
    assert np.max(np.abs(tab.evaluate(r) - [psi3(x) for x in r])) < 1e-5


@pytest.mark.parametrize("d, k", [(1, 3), (1, 5), (2, 3)])
def test_psi_base_stencil_keeps_outer_cell(d, k):
    # the step _psi_grid takes; frac(1/h) > 1/2 for these k, so the cell
    # holding r = 1 is only partly covered and must stay in the stencil
    h = min(1.0 / 128, np.sqrt(k) / 256) if d == 2 else min(1.0 / 1024, np.sqrt(k) / 4096)
    assert 1 / h % 1 > 0.5
    base = _cell_average_axes(make_kernel("indicator", d), 1.0, h, d, sub=8)
    assert abs(base.sum() * h**d - 1.0) < 2.5e-5


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


def test_psi_d3_indicator_ball_intersection():
    # eta * eta for the d=3 indicator is the volume pi (4 + r) (2 - r)^2 / 12
    # of two unit balls at center distance r, divided by (4 pi / 3)^2
    vol = 4 * np.pi / 3
    tab = psi_table(make_kernel("indicator", 3), 3, 2, 1.0)
    r = np.linspace(0.01, 2.2, 2191)
    want = np.where(r < 2, np.pi * (4 + r) * np.clip(2 - r, 0, None) ** 2 / 12, 0.0) / vol**2
    assert np.max(np.abs(tab.evaluate(r) - want)) < 1e-4
    assert abs(float(tab.evaluate(0.0)) - 1 / vol) < 5e-3 / vol

    # psi_3 = psi_2 * eta by the radial convolution formula
    # (2 pi / r) int psi_2(s) s int_{|r-s|}^{r+s} eta(t) t dt ds, one quad per
    # radius.  At k = 3, 1/h = 2364.83: the table's stencil must keep the
    # partly covered cell at r = 1 (without it the gap is 4.6e-5)
    def psi3(r):
        f = lambda s: (np.pi * (4 + s) * (2 - s) ** 2 / 12 / vol**2 * s
                       * (min(r + s, 1.0) ** 2 - (r - s) ** 2) / 2)
        lo, hi = max(0.0, r - 1), min(2.0, r + 1)
        kink = [1 - r] if lo < 1 - r < hi else None
        return 2 * np.pi / (vol * r) * quad(f, lo, hi, points=kink, epsabs=1e-13)[0]

    tab = psi_table(make_kernel("indicator", 3), 3, 3, 1.0)
    r = np.linspace(0.05, 2.95, 59)
    assert np.max(np.abs(tab.evaluate(r) - [psi3(x) for x in r])) < 1e-5


def test_psi_unit_mass_fourier_route():
    tab = psi_table(make_kernel("indicator", 3), 3, 4, 1.0)
    assert abs(tab.mass() - 1.0) < 1e-12
    tab = psi_table(make_kernel("bump", 3), 3, 2, 0.3)
    assert abs(tab.mass() - 1.0) < 1e-12
    for variant in ("indicator", "cone", "bump"):
        for k in (2, 4, 16):
            tab = psi_table(make_kernel(variant, 3), 3, k, 0.1)
            assert abs(tab.mass() - 1.0) < 1e-12


# The radial Fourier quadrature that built the d = 3 tables before the
# radial reduction put them on a line grid, kept as an independent reference.
def _eta_hat(kernel, d, s):
    """Radial Fourier transform of the profile at frequencies s."""
    nodes, weights = _gauss_legendre(2048)
    r = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    er = kernel.eta(r)
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if d == 1:
        out = 2.0 * (np.cos(2 * np.pi * np.outer(s, r)) * (er * w)) .sum(axis=1)
    elif d == 2:
        out = 2 * np.pi * (j0(2 * np.pi * np.outer(s, r)) * (er * r * w)).sum(axis=1)
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            out = (np.sin(2 * np.pi * np.outer(s, r)) * (er * r * w)).sum(axis=1)
            out = np.where(s > 0, 2.0 * out / np.where(s > 0, s, 1.0),
                           4 * np.pi * ((er * r**2 * w).sum()))
    return out


def _psi_fourier(kernel, d, k, tail_tol=1e-14, s_cap=300.0):
    """psi_k at eps = 1 via the radial Fourier representation."""
    # find the frequency S beyond which |eta_hat|^k is negligible
    S = 4.0
    while True:
        s_probe = np.linspace(0.75 * S, S, 257)
        if np.max(np.abs(_eta_hat(kernel, d, s_probe))) ** k < tail_tol:
            break
        S *= 1.5
        if S > s_cap:
            raise RuntimeError(
                "insufficient quadrature resolution: eta_hat^%d decays too "
                "slowly (need frequencies beyond %g)" % (k, s_cap))
    rmax = min(float(k), 10.0 * np.sqrt(k))
    ds = 1.0 / (96.0 * rmax)
    ns = int(np.ceil(S / ds)) | 1  # odd count for Simpson
    s = np.linspace(0.0, S, ns)
    ehat_k = _eta_hat(kernel, d, s) ** k
    # the radial sample count limits the table's own quadrature accuracy
    nr = 4096 if d == 3 else 2048
    r = np.linspace(0.0, rmax, nr)
    out = np.empty(nr)
    chunk = 256
    for lo in range(0, nr, chunk):
        rc = r[lo:lo + chunk]
        if d == 1:
            mat = np.cos(2 * np.pi * np.outer(rc, s)) * ehat_k
            out[lo:lo + chunk] = 2.0 * simpson(mat, x=s, axis=1)
        elif d == 2:
            mat = j0(2 * np.pi * np.outer(rc, s)) * (ehat_k * s)
            out[lo:lo + chunk] = 2 * np.pi * simpson(mat, x=s, axis=1)
        else:
            mat = np.sin(2 * np.pi * np.outer(rc, s)) * (ehat_k * s)
            vals = simpson(mat, x=s, axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = np.where(rc > 0, 2.0 * vals / np.where(rc > 0, rc, 1.0),
                                4 * np.pi * simpson(ehat_k * s**2, x=s))
            out[lo:lo + chunk] = vals
    return r, out


def test_psi_route_cross_validation():
    ker = make_kernel("indicator", 2)
    rf, vf = _psi_fourier(ker, 2, 4)
    tg = psi_table(ker, 2, 4, 1.0)
    r = np.linspace(0, 3.8, 300)
    assert np.max(np.abs(np.interp(r, rf, vf, right=0.0) - tg.evaluate(r))) < 1e-4
    kerc = make_kernel("cone", 1)
    rf, vf = _psi_fourier(kerc, 1, 4)
    tg = psi_table(kerc, 1, 4, 1.0)
    r = np.linspace(0, 3.8, 300)
    assert np.max(np.abs(np.interp(r, rf, vf, right=0.0) - tg.evaluate(r))) < 1e-5
    # d = 3 by the radial reduction against the sine-transform quadrature
    kerc = make_kernel("cone", 3)
    rf, vf = _psi_fourier(kerc, 3, 8)
    tg = psi_table(kerc, 3, 8, 1.0)
    r = np.linspace(0, rf[-1], 4001)
    assert np.max(np.abs(np.interp(r, rf, vf, right=0.0) - tg.evaluate(r))) < 1e-6


def ladder_psi_grid(kernel, d, k):
    """psi_k by the binary-exponentiation fftconvolve ladder on a grid that
    covers the full support: `_psi_grid` before it became one Fourier power,
    kept as its reference."""
    from scipy.signal import fftconvolve

    h = min(1.0 / 128, np.sqrt(k) / 256) if d == 2 else min(1.0 / 1024, np.sqrt(k) / 4096)
    base = _cell_average_axes(kernel, 1.0, h, d, sub=8)
    base = base / (base.sum() * h**d)
    result, power, kk = None, base, k
    while kk:
        if kk & 1:
            result = power if result is None else fftconvolve(result, power) * h**d
        kk >>= 1
        if kk:
            power = fftconvolve(power, power) * h**d
    mgrid = (np.array(result.shape) - 1) // 2
    axes = [(np.arange(s) - mm) * h for s, mm in zip(result.shape, mgrid)]
    rr = np.sqrt(sum(gg**2 for gg in np.meshgrid(*axes, indexing="ij"))).ravel()
    vals = result.ravel()
    nb = int(np.ceil(k / h))
    keep = rr <= (nb + 1) * h
    rr, vals = rr[keep], vals[keep]
    bins = np.minimum(np.floor(rr / h + 1e-9).astype(np.int64), nb)
    sums = np.bincount(bins, weights=vals, minlength=nb + 1)
    rsum = np.bincount(bins, weights=rr, minlength=nb + 1)
    cnts = np.bincount(bins, minlength=nb + 1)
    full = cnts > 0
    return rsum[full] / cnts[full], sums[full] / cnts[full]


@pytest.mark.parametrize("d, variant, k", [
    (1, "indicator", 2), (1, "indicator", 8), (1, "indicator", 64), (1, "indicator", 619),
    (1, "cone", 2), (1, "cone", 8), (1, "cone", 64), (1, "cone", 619),
    (2, "cone", 2), (2, "cone", 4), (2, "cone", 8)])
def test_psi_grid_matches_convolution_ladder(d, variant, k):
    # one Fourier power on a periodic grid against the ladder; for k = 64
    # and 619 the new table ends at R < k, where the ladder's values are
    # below 1e-16
    ker = make_kernel(variant, d)
    r_old, v_old = ladder_psi_grid(ker, d, k)
    r_new, v_new = _psi_grid(ker, d, k)
    # the last annulus is [nb h, (nb + 1) h] with h <= 1/128
    assert r_new[-1] <= min(k, 8.5 * np.sqrt(k / (d + 2))) + 2.0 / 128
    r = np.linspace(0.0, r_old[-1], 100001)
    gap = np.abs(np.interp(r, r_old, v_old, right=0.0) - np.interp(r, r_new, v_new, right=0.0))
    assert np.max(gap) < 1e-12
    if k == 619:
        tab = psi_table(ker, d, k, 1.0)
        assert np.all(np.isfinite(tab.values))
        assert abs(tab.mass() - 1.0) < 1e-12


def test_psi_tail_bound():
    # mass outside radius t is at most 2 d exp(-t^2 / (2 d eps_k^2))
    for d in (1, 2, 3):
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
    for d in (1, 2, 3):
        ker = make_kernel("indicator", d)
        for k in (4, 16):
            tab = psi_table(ker, d, k, 0.1)
            ek = 0.1 * np.sqrt(k)
            env = np.minimum(ek ** (-d), 0.1 ** (-d) * np.exp(-tab.r**2 / (8 * d * ek**2)))
            worst = max(worst, float(np.max(tab.values / env)))
    print("fitted envelope constant C = %.3f" % worst)
    assert 0.1 < worst < 2.0


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


def test_psi_rejects_fractional_step_count_and_bad_eps():
    ker = make_kernel("cone", 1)
    with pytest.raises(ValueError, match="step count"):
        psi_table(ker, 1, 2.5, 1.0)
    for eps in (-0.1, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="eps"):
            psi_table(ker, 1, 2, eps)
    assert psi_table(ker, 1, 2.0, 1.0).k == 2


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
    # near a side: the ball minus the circular segment beyond it
    for delta in (0.05, 0.01):
        segment = 0.01 * np.arccos(delta / 0.1) - delta * np.sqrt(0.01 - delta**2)
        want = 1.0 - segment / (np.pi * 0.01)
        assert abs(rho_hat(rho, box, ker, 0.1, [0.5, 1.0 - delta]) - want) < 1e-13 * want


@pytest.mark.parametrize("delta", [1e-3, 5e-4])
def test_rho_hat_disk_lens(delta):
    # constant density, indicator kernel: rho_hat is the lens area of
    # B(x, r) and the disk over pi r^2 |disk|.  x sits so that one crossing
    # of t_exit = r lies at pi - delta, just inside the end of the angle
    # range [-pi, pi), where the arcs wrap round
    R, r = 0.5, 0.2
    disk = Disk([0.5, 0.5], R)
    s = np.sin(delta)
    d = np.sqrt(r * r * s * s + R * R - r * r) - r * s
    lens = (r * r * np.arccos((d * d + r * r - R * R) / (2 * d * r))
            + R * R * np.arccos((d * d + R * R - r * r) / (2 * d * R))
            - 0.5 * np.sqrt((-d + r + R) * (d + r - R) * (d - r + R) * (d + r + R)))
    want = lens / (np.pi * r * r * disk.volume)
    got = rho_hat(make_density("constant", disk), disk, make_kernel("indicator", 2), r,
                  [0.5, 0.5 + d])
    assert abs(got - want) < 1e-13 * want


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
    rho = make_density("bump", box)
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


def test_rho_hat_3d_boundary():
    # constant density, indicator kernel: the ball's share inside the cube
    box = Box([0, 0, 0], [1, 1, 1])
    ker = make_kernel("indicator", 3)
    rho = make_density("constant", box)
    eps = 0.15
    # face, edge and corner: no direction lies in a coordinate plane, so
    # the direction rule splits exactly into the kept half, quarter, eighth
    for x, want in (([0.5, 0.5, 0.0], 1 / 2), ([0.5, 1.0, 0.0], 1 / 4),
                    ([1.0, 0.0, 1.0], 1 / 8)):
        assert abs(rho_hat(rho, box, ker, eps, x) - want) < 1e-12
    # distance delta from one face: the cap of height eps - delta is cut off
    for axis in range(3):
        for delta in (0.05, 0.1, 0.12):
            x = np.full(3, 0.5)
            x[axis] = delta
            c = eps - delta
            want = 1 - (np.pi * c**2 * (3 * eps - c) / 3) / (4 * np.pi * eps**3 / 3)
            assert abs(rho_hat(rho, box, ker, eps, x) - want) < 1e-3


def test_rho_hat_rejects_bad_eps():
    box = Box([0, 0], [1, 1])
    ker = make_kernel("indicator", 2)
    rho = make_density("constant", box)
    for eps in (-0.1, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="eps"):
            rho_hat(rho, box, ker, eps, [0.5, 0.5])


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


def fftconvolve_repeated_average(density, domain, kernel, eps, x0, k, h):
    """`repeated_average` as it was with scipy.signal.fftconvolve and the
    start field evaluated on the whole grid, kept as its reference."""
    from scipy.signal import fftconvolve

    x0 = np.asarray(x0, dtype=float)
    shape, axes, pts = _cell_grid(domain, h)
    inside = domain.contains(pts).reshape(shape)
    rho = np.where(inside, density.evaluate(pts).reshape(shape), 0.0)
    stencil = _cell_average_axes(kernel, eps, h, domain.d) * h**domain.d
    rho_hat_grid = fftconvolve(rho, stencil, mode="same")
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(rho_hat_grid > 0, rho / rho_hat_grid, 0.0)
    phi = np.where(inside, _cell_average(kernel, eps, axes, x0, h, 4), 0.0)
    for _ in range(k):
        phi = np.where(inside, fftconvolve(c * phi, stencil, mode="same"), 0.0)
    return phi


@pytest.mark.parametrize("name", ["constant", "bump"])
def test_repeated_average_matches_fftconvolve(name):
    box, ker, rho, eps, h, fld = average_setup(name)
    want = fftconvolve_repeated_average(rho, box, ker, eps, [2.0, 2.0], 4, h)
    assert np.array_equal(fld.values, want)
    # an off-centre start, k = 0 (the start field alone) and k = 3
    for k in (0, 3):
        fld = repeated_average(rho, box, ker, eps, [1.7, 2.3], k, h)
        assert np.array_equal(fld.values,
                              fftconvolve_repeated_average(rho, box, ker, eps, [1.7, 2.3], k, h))


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


def test_repeated_average_rejects_fractional_step_count():
    box = Box([0, 0], [1, 1])
    ker = make_kernel("indicator", 2)
    rho = make_density("constant", box)
    for k in (2.5, -3):
        with pytest.raises(ValueError, match="step count"):
            repeated_average(rho, box, ker, 0.25, [0.5, 0.5], k, 0.25 / 8)


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


# scipy modules that each take a noticeable share of `import rgglearn`; the
# functions that need one import it when first called
DEFERRED_SCIPY = ("scipy", "scipy.sparse", "scipy.signal", "scipy.integrate", "scipy.optimize",
                  "scipy.spatial", "scipy.sparse.csgraph", "scipy.fft", "scipy.special",
                  "scipy.linalg")

# work that needs none of them: the import itself, the FD reference (also
# through the CLI), and a d = 1 indicator graph, whose edges come from
# sorted windows; and `repeated_average`, which needs only scipy.fft and
# what that loads.  Each runs in a fresh interpreter in its own directory.
LEAN_WORK = {
    "import": "",
    "fd-reference": """
box = rgglearn.Box([0.0, 0.0], [1.0, 1.0])
grid = rgglearn.build_grid(box, 1.0 / 16, rgglearn.make_density("affine", box))
rgglearn.solve_weighted_poisson(grid, rgglearn.SourceSpec([[0.3, 0.5], [0.7, 0.5]], [1.0, -1.0]))
""",
    "fd-reference-cli": """
import rgglearn.cli
with open("src.csv", "w") as fh:
    fh.write("x0,x1,a\\n0.3,0.5,1\\n0.7,0.5,-1\\n")
assert rgglearn.cli.main(["continuum", "--h", "0.0625", "--sources", "src.csv",
                          "--out", "ref.csv"]) == 0
""",
    "d1-indicator-graph": """
box = rgglearn.Box([0.0], [1.0])
pts = rgglearn.sample_points(box, rgglearn.make_density("affine", box), 2000, seed=3)
g = rgglearn.build_graph(pts, 0.02, rgglearn.make_kernel("indicator", 1))
rgglearn.solve_graph_poisson(g, rgglearn.SourceSpec([[0.3], [0.7]], [1.0, -1.0]))
""",
    "repeated-average": """
box = rgglearn.Box([0.0, 0.0], [1.0, 1.0])
rgglearn.repeated_average(rgglearn.make_density("bump", box), box,
                          rgglearn.make_kernel("indicator", 2), 0.25, [0.5, 0.5], 2, 0.25 / 8)
""",
}
# the deferred modules a case may load
MAY_LOAD = {"repeated-average": ("scipy", "scipy.fft", "scipy.special")}


def run_fresh(code, cwd):
    """stdout of `code` run by a fresh interpreter in cwd, with this rgglearn on its path."""
    import rgglearn

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(rgglearn.__file__)))
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, check=True,
                          capture_output=True, text=True).stdout


@pytest.mark.parametrize("work", sorted(LEAN_WORK))
def test_import_defers_heavy_scipy_modules(work, tmp_path):
    code = ("import sys, rgglearn\n" + LEAN_WORK[work]
            + "print(' '.join(m for m in %r if m in sys.modules))" % (DEFERRED_SCIPY,))
    loaded = run_fresh(code, tmp_path).splitlines()[-1]  # after what the CLI prints
    assert set(loaded.split()) <= set(MAY_LOAD.get(work, ()))


# Each function that builds a sparse matrix imports scipy.sparse itself.  In
# this process scipy.sparse is loaded already, so a missing import would
# pass unseen here; each case runs in a fresh interpreter where `call` is
# the first code to need scipy.sparse.  `setup` must not load it: a d = 1
# indicator graph builds its CSR only when something reads it.
D1_WINDOW_GRAPH = """
box = rgglearn.Box([0.0], [1.0])
pts = rgglearn.sample_points(box, rgglearn.make_density("affine", box), 400, seed=3)
g = rgglearn.build_graph(pts, 0.05, rgglearn.make_kernel("indicator", 1))
"""
SPARSE_ENTRY_POINTS = {
    "build-graph-d2": ("""
box = rgglearn.Box([0.0, 0.0], [1.0, 1.0])
pts = rgglearn.sample_points(box, rgglearn.make_density("constant", box), 300, seed=2)
""", "g = rgglearn.build_graph(pts, 0.2, rgglearn.make_kernel('cone', 2)); assert g.connected"),
    "from-weights": ("W = np.ones((4, 4)) - np.eye(4)\npts = np.arange(4.0)[:, None]\n",
                     "assert rgglearn.Graph.from_weights(pts, W, 1.0, sigma_eta=1.0).connected"),
    "load-graph": ("", "assert rgglearn.load_graph('g.csv').n == 50"),
    "reweighted": (D1_WINDOW_GRAPH, "assert g.reweighted(np.full(g.n, 2.0)).connected"),
    "weight-matrix": (D1_WINDOW_GRAPH, "assert g.weight_matrix().shape == (g.n, g.n)"),
    "laplace-learning-d1": (D1_WINDOW_GRAPH,
                            "rgglearn.solve_laplace_learning(g, [(10, 1.0), (200, -1.0)])"),
    "operator-matrix": ("""
box = rgglearn.Box([0.0, 0.0], [1.0, 1.0])
grid = rgglearn.build_grid(box, 1.0 / 8, rgglearn.make_density("affine", box))
""", "assert grid.operator_matrix().shape == (64, 64)"),
}


@pytest.mark.parametrize("case", sorted(SPARSE_ENTRY_POINTS))
def test_sparse_entry_points_import_scipy_sparse_themselves(case, tmp_path):
    if case == "load-graph":
        box = Box([0.0, 0.0], [1.0, 1.0])
        pts = sample_points(box, make_density("constant", box), 50, seed=1)
        save_graph(build_graph(pts, 0.3, make_kernel("cone", 2)), str(tmp_path / "g.csv"))
    setup, call = SPARSE_ENTRY_POINTS[case]
    code = ("import sys\nimport numpy as np\nimport rgglearn\n" + setup
            + "assert 'scipy.sparse' not in sys.modules\n" + call + "\n"
            + "assert 'scipy.sparse' in sys.modules\n")
    run_fresh(code, tmp_path)


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
    col = heat_column(g, x % n, k)
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


def plain_power(step, v, k):
    for _ in range(k):
        v = step(v)
    return v


def counting_wmul(g, monkeypatch):
    calls = []
    wmul = g.wmul
    monkeypatch.setattr(g, "wmul", lambda x: calls.append(1) or wmul(x))
    return calls


@settings(max_examples=25)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**31 - 1), eps=st.floats(0.3, 1.0),
       x=st.integers(0, 10**6), k=st.integers(100, 400))
def test_property_chebyshev_power_matches_plain_loop(n, seed, eps, x, k):
    g = random_connected_graph(n, seed, eps)
    deg = g.degrees
    u = np.random.default_rng(seed + 2).standard_normal(n)
    want = plain_power(lambda v: g.wmul(v) / deg, u, k)
    got = heat_convolve(g, k, u).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(u))
    delta = graph_delta(x % n, g).values
    want = plain_power(lambda v: g.wmul(v / deg), delta, k)
    got = heat_column(g, x % n, k).values
    assert np.max(np.abs(got - want)) <= 1e-12 * n


@settings(max_examples=25)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**31 - 1), eps=st.floats(0.3, 1.0),
       x=st.integers(0, 10**6), k=st.integers(0, 53))
def test_property_short_powers_are_the_plain_loop(n, seed, eps, x, k):
    # the top coefficient 2^(1-k) exceeds the tail bound, so the k steps run as before
    g = random_connected_graph(n, seed, eps)
    deg = g.degrees
    u = np.random.default_rng(seed + 3).standard_normal(n)
    assert np.array_equal(heat_convolve(g, k, u).values,
                          plain_power(lambda v: g.wmul(v) / deg, u, k))
    delta = graph_delta(x % n, g).values
    assert np.array_equal(heat_column(g, x % n, k).values,
                          plain_power(lambda v: g.wmul(v / deg), delta, k))


def test_chebyshev_power_uses_fewer_matvecs(monkeypatch):
    g = small_graph()
    u = np.random.default_rng(4).standard_normal(g.n)
    calls = counting_wmul(g, monkeypatch)
    heat_convolve(g, 620, u)
    assert 0 < len(calls) < 620 / 2
    calls.clear()
    heat_column(g, 5, 620)
    assert 0 < len(calls) < 620 / 2
    calls.clear()
    heat_convolve(g, 53, u)
    assert len(calls) == 53


def test_chebyshev_power_mass_and_commutation(monkeypatch):
    g = small_graph(n=150, eps=0.3)
    k = 300
    calls = counting_wmul(g, monkeypatch)
    col = heat_column(g, 3, k)
    assert len(calls) < k
    assert abs(inner(col, GraphFunction(g, np.ones(g.n))) - 1.0) < 1e-12
    u = GraphFunction(g, np.random.default_rng(5).normal(size=g.n))
    a = heat_convolve(g, k, laplacian_apply(u, LaplacianKind.RandomWalk))
    b = laplacian_apply(heat_convolve(g, k, u), LaplacianKind.RandomWalk)
    assert np.max(np.abs(a.values - b.values)) < 1e-10


def test_chebyshev_coefficients():
    for k in (0, 1, 2, 7, 10, 31):
        monomial = np.zeros(k + 1)
        monomial[k] = 1.0
        want = np.polynomial.chebyshev.poly2cheb(monomial)
        assert np.allclose(_chebyshev_coefficients(k), want, rtol=0, atol=1e-13)
    # 2^-k C(k, i) overflows and underflows in floating point at this k
    c = _chebyshev_coefficients(MAX_HEAT_STEPS)
    assert c.shape == (MAX_HEAT_STEPS + 1,)
    assert np.all(np.isfinite(c)) and c.min() >= 0.0
    assert abs(c.sum() - 1.0) < 1e-12
    assert c[0] > 0.0 and c[1] == 0.0  # x^k is even for even k


@pytest.mark.parametrize("k", [True, np.True_, 2.5])
def test_heat_step_count_is_a_whole_number_not_a_bool(k):
    # heat_convolve(g, True, u) ran one step
    g = small_graph()
    with pytest.raises(ValueError, match="step count k must be a whole number"):
        heat_convolve(g, k, np.ones(g.n))
    with pytest.raises(ValueError, match="step count k must be a whole number"):
        heat_column(g, 3, k)
