import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from rgglearn import geometry
from rgglearn.geometry import (
    Box,
    DensityModel,
    Disk,
    build_graph,
    closest_point,
    load_points,
    make_density,
    make_kernel,
    sample_points,
    save_points,
)
from rgglearn.geometry import _gauss_legendre

UNIT_BALL_VOLUME = {1: 2.0, 2: np.pi, 3: 4.0 * np.pi / 3.0}


def unit_box(d):
    return Box([0.0] * d, [1.0] * d)


def radial_mass(kernel, npanel=40001):
    # independent Simpson oracle for the d-dimensional mass of a radial profile
    d = kernel.d
    r = np.linspace(0.0, 1.0, npanel)
    vals = kernel.eta(r) * r ** (d - 1)
    from scipy.integrate import simpson
    return d * UNIT_BALL_VOLUME[d] * simpson(vals, x=r)


def radial_second_moment(kernel, npanel=40001):
    d = kernel.d
    r = np.linspace(0.0, 1.0, npanel)
    vals = kernel.eta(r) * r ** (d + 1)
    from scipy.integrate import simpson
    return UNIT_BALL_VOLUME[d] * simpson(vals, x=r)


def test_indicator_d1_closed_forms():
    k = make_kernel("indicator", 1)
    assert k.eta(np.array([0.0, 0.5, 0.999]))[0] == pytest.approx(0.5, rel=1e-12)
    assert np.allclose(k.eta(np.array([0.3, 0.7])), 0.5)
    assert k.eta(np.array([1.5]))[0] == 0.0
    assert k.sigma_eta == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_indicator_d2_closed_forms():
    k = make_kernel("indicator", 2)
    assert k.eta(np.array([0.2]))[0] == pytest.approx(1.0 / np.pi, rel=1e-12)
    assert k.sigma_eta == pytest.approx(0.25, abs=1e-9)


def test_cone_closed_forms():
    # cone (1-t)_+ normalized: c = (d+1)/omega_d; hand-computed second moments:
    # d=1: 2*int r^2 (1-r) dr = 1/6;  d=2: 3*int r^3 (1-r) dr = 3/20
    k1 = make_kernel("cone", 1)
    assert k1.eta(np.array([0.0]))[0] == pytest.approx(1.0, rel=1e-10)
    assert k1.sigma_eta == pytest.approx(1.0 / 6.0, abs=1e-9)
    k2 = make_kernel("cone", 2)
    assert k2.eta(np.array([0.0]))[0] == pytest.approx(3.0 / np.pi, rel=1e-10)
    assert k2.sigma_eta == pytest.approx(3.0 / 20.0, abs=1e-9)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_constants_match_closed_forms(d):
    # omega_d int_0^1 r^(d+1) eta(r) dr in closed form: 1/(d+2) for the
    # indicator and (d+1)/((d+2)(d+3)) for the cone
    for name, want in (("indicator", 1 / (d + 2)), ("cone", (d + 1) / ((d + 2) * (d + 3)))):
        assert abs(make_kernel(name, d).sigma_eta - want) <= 1e-14 * want
    # the bump's normalization has no closed form: adaptive quadrature
    bump = make_kernel("bump", d)
    from scipy.integrate import quad
    f = lambda r: bump.eta(np.array([r]))[0] * r ** (d - 1)
    mass = d * UNIT_BALL_VOLUME[d] * quad(f, 0.0, 1.0, epsabs=1e-15, epsrel=1e-13)[0]
    assert abs(mass - 1.0) < 1e-13


def test_kernel_unit_mass_all_variants():
    for name in ["indicator", "cone", "bump"]:
        for d in [1, 2, 3]:
            k = make_kernel(name, d)
            assert radial_mass(k) == pytest.approx(1.0, abs=1e-10)
            assert k.sigma_eta > 0
            assert k.eta0 > 0


def test_kernel_monotone_and_supported():
    t = np.linspace(0.0, 1.0, 500)
    for name in ["indicator", "cone", "bump"]:
        k = make_kernel(name, 2)
        v = k.eta(t)
        assert np.all(np.diff(v) <= 1e-14)
        assert np.all(k.eta(np.array([1.0001, 2.0, 10.0])) == 0.0)


def test_kernel_second_moment_identity():
    # int_{B(0,eps)} |z.w|^2 eta_eps(|z|) dz = eps^2 sigma_eta for unit w;
    # the angular integral of (theta.w)^2 over the sphere is omega_d for any w,
    # so the test reduces to an independent radial quadrature.
    rng = np.random.default_rng(42)
    for name in ["indicator", "cone", "bump"]:
        for d in [1, 2, 3]:
            k = make_kernel(name, d)
            for _ in range(20):
                eps = 0.05 + 0.95 * rng.random()
                w = rng.standard_normal(d)
                w /= np.linalg.norm(w)
                r = np.linspace(0.0, eps, 20001)
                integrand = (eps ** -d) * k.eta(r / eps) * r ** (d + 1)
                from scipy.integrate import simpson
                val = UNIT_BALL_VOLUME[d] * simpson(integrand, x=r)
                assert abs(val - eps**2 * k.sigma_eta) < 1e-6


def masked_eta(kernel, t):
    # the profile evaluated only on t <= 1, zero elsewhere (NaN included)
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    mask = t <= 1.0
    out[mask] = kernel._norm * kernel._shape(t[mask])
    return out


@pytest.mark.parametrize("variant", ["indicator", "cone", "bump"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_eta_equals_masked_form(variant, d):
    k = make_kernel(variant, d)
    t = np.array([0.0, 1.0, 1.0 + 1e-12, np.inf, np.nan, 0.5, 1.0 - 1e-12, 2.0, -0.0])
    got = k.eta(t)
    assert got.tobytes() == masked_eta(k, t).tobytes()
    assert got[1] == (k.eta0 if variant == "indicator" else 0.0)
    assert np.all(got[[2, 3, 4, 7]] == 0.0)
    eps = 0.3
    r = t * eps
    assert k.eta_eps(r, eps).tobytes() == (eps ** (-d) * masked_eta(k, r / eps)).tobytes()
    for x in (0.0, 0.25, 1.0, 1.5, np.nan):  # 0-d input gives 0-d output
        for arg in (x, np.array(x)):
            got = k.eta(arg)
            assert got.shape == () and got.tobytes() == masked_eta(k, x).tobytes()
    assert k.eta_eps(np.array(0.1), eps).tobytes() == (
        eps ** (-d) * masked_eta(k, 0.1 / eps)).tobytes()


def test_gauss_legendre_cached_and_read_only():
    nodes, weights = _gauss_legendre(16)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)
    again = _gauss_legendre(16)
    assert again[0] is nodes and again[1] is weights
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    with pytest.raises(ValueError):
        weights *= 2.0
    assert np.array_equal(_gauss_legendre(16)[1], ref_weights)


def test_kernel_errors():
    with pytest.raises(ValueError):
        make_kernel("indicator", 4)
    with pytest.raises(ValueError):
        make_kernel("gaussian", 2)


def test_density_normalization():
    for d in [1, 2]:
        dom = unit_box(d)
        for name in ["constant", "affine", "bump"]:
            rho = make_density(name, dom)
            # independent fine midpoint oracle for the mass
            m = 801
            axes = [np.linspace(0.5 / m, 1 - 0.5 / m, m) for _ in range(d)]
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
            mass = rho.evaluate(grid).sum() / m**d
            assert mass == pytest.approx(1.0, abs=5e-7 if name == "bump" else 1e-8)
            vals = rho.evaluate(grid)
            assert np.all(vals >= rho.rho_min - 1e-12)
            assert np.all(vals <= rho.rho_max + 1e-12)
            assert rho.rho_min > 0


def test_density_constant_values():
    dom = Box([0.0, 0.0], [2.0, 0.5])
    rho = make_density("constant", dom)
    assert rho.evaluate(np.array([[1.0, 0.25]]))[0] == pytest.approx(1.0, rel=1e-14)
    disk = Disk([0.5, 0.5], 0.5)
    rho2 = make_density("constant", disk)
    assert rho2.evaluate(np.array([[0.5, 0.5]]))[0] == pytest.approx(1.0 / (np.pi * 0.25), rel=1e-12)


def test_sample_points_inside_and_deterministic():
    dom = unit_box(2)
    rho = make_density("constant", dom)
    p1 = sample_points(dom, rho, 500, seed=3)
    p2 = sample_points(dom, rho, 500, seed=3)
    assert np.array_equal(p1, p2)
    assert p1.shape == (500, 2)
    assert np.all(dom.contains(p1))
    p3 = sample_points(dom, rho, 500, seed=4)
    assert not np.array_equal(p1, p3)


def test_sample_points_uniform_cells():
    dom = unit_box(2)
    rho = make_density("constant", dom)
    n = 10000
    pts = sample_points(dom, rho, n, seed=11)
    cells = (pts[:, 0] * 4).astype(int) * 4 + (pts[:, 1] * 4).astype(int)
    counts = np.bincount(cells, minlength=16)
    p = 1.0 / 16.0
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) < 4 * sigma)


def test_sample_points_disk_and_bump():
    dom = Disk([0.5, 0.5], 0.5)
    rho = make_density("bump", dom)
    pts = sample_points(dom, rho, 2000, seed=5)
    assert np.all(np.linalg.norm(pts - 0.5, axis=1) <= 0.5 + 1e-12)


def test_sample_points_acceptance_guard():
    dom = unit_box(2)
    # rho_max 1e4 times the density: about 1e-4 of the proposals are accepted
    rho = DensityModel("bad", dom, lambda p: np.ones(len(p)), 1.0, 1e4, 0.0)
    with pytest.raises(RuntimeError, match="below 1e-3"):
        sample_points(dom, rho, 100, seed=0)


def test_build_graph_two_far_points():
    pts = np.array([[0.0], [1.0]])
    k = make_kernel("indicator", 1)
    g = build_graph(pts, 0.6, k)
    assert not g.connected
    W = g.weight_matrix().toarray()
    assert W[0, 1] == 0.0
    assert W[0, 0] == pytest.approx(k.eta0 / 0.6, rel=1e-12)


def test_build_graph_indicator_weight_value():
    pts = np.array([[0.1, 0.1], [0.15, 0.1], [0.9, 0.9]])
    k = make_kernel("indicator", 2)
    eps = 0.6
    g = build_graph(pts, eps, k)
    W = g.weight_matrix().toarray()
    assert W[0, 1] == pytest.approx(1.0 / (np.pi * eps**2), rel=1e-12)
    assert W[0, 2] == 0.0


def test_build_graph_matches_quadratic_scan():
    dom = unit_box(2)
    rho = make_density("constant", dom)
    pts = sample_points(dom, rho, 500, seed=21)
    eps = 0.11
    k = make_kernel("cone", 2)
    g = build_graph(pts, eps, k)
    # brute-force oracle
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff**2, axis=2))
    Wref = np.where(dist <= eps, (eps**-2) * k.eta(dist / eps), 0.0)
    W = g.weight_matrix().toarray()
    assert np.max(np.abs(W - Wref)) < 1e-12 * Wref.max()
    assert (W > 0).sum() == (Wref > 0).sum()


def brute_force_edges(pts, eps, kernel):
    # O(n^2) oracle: every pair i < j, distance summed over axes in order
    i, j = np.triu_indices(pts.shape[0], k=1)
    dist = np.sqrt(np.sum((pts[i] - pts[j]) ** 2, axis=1))
    w = kernel.eta_eps(dist, eps)
    keep = (dist <= eps) & (w > 0)
    return i[keep], j[keep], w[keep]


def assert_upper_matches_coo_route(upper, pts, eps, kernel):
    n = pts.shape[0]
    # canonical: rows ascending, columns strictly ascending within a row
    rows = np.repeat(np.arange(n), np.diff(upper.indptr))
    assert np.all(rows < upper.indices)
    assert np.all(np.diff(rows * n + upper.indices) > 0)
    # the edges in an arbitrary order, as a kd-tree returns them, through
    # COO -> CSR, which sorts every row and sums duplicates
    i, j, w = brute_force_edges(pts, eps, kernel)
    p = np.random.default_rng(0).permutation(i.size)
    ref = sparse.csr_matrix(sparse.coo_matrix(
        (w[p], (i[p].astype(np.int32), j[p].astype(np.int32))), shape=(n, n)))
    ref.sum_duplicates()
    for name in ("data", "indices", "indptr"):
        a, b = getattr(upper, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def assert_matches_brute_force(pts, eps, kernel):
    g = build_graph(pts, eps, kernel)
    assert_upper_matches_coo_route(g._upper, pts, eps, kernel)
    i, j, w = g.edge_arrays()
    off = i != j
    bi, bj, bw = brute_force_edges(pts, eps, kernel)
    assert np.array_equal(i[off], bi) and np.array_equal(j[off], bj)
    assert np.array_equal(w[off], bw)  # bit-equal, not just close
    return bi.size


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 2, 3]),
       variant=st.sampled_from(["indicator", "cone", "bump"]),
       n=st.integers(2, 80),
       seed=st.integers(0, 2**31 - 1),
       eps_frac=st.floats(0.0, 1.0),
       quantum=st.sampled_from([None, 4, 8, 10]))
def test_build_graph_matches_brute_force_property(d, variant, n, seed, eps_frac, quantum):
    pts = np.random.default_rng(seed).random((n, d))
    eps_min = n ** (-1.0 / d)
    eps = eps_min + eps_frac * (0.8 - min(eps_min, 0.8))
    if quantum is not None:
        # points and eps on a 1/quantum lattice, so many pairs tie at eps
        pts = np.round(pts * quantum) / quantum
        eps = max(np.ceil(eps * quantum), 1.0) / quantum
    assert_matches_brute_force(pts, eps, make_kernel(variant, d))


def test_build_graph_blocks_match_one_pass(monkeypatch):
    # more candidate pairs than one block: the blocked weight pass gives
    # the same CSR as the COO route
    monkeypatch.setattr(geometry, "_BLOCK", 7)
    pts = np.random.default_rng(3).random((60, 2))
    assert assert_matches_brute_force(pts, 0.3, make_kernel("bump", 2)) > 7


@pytest.mark.parametrize("variant", ["indicator", "cone", "bump"])
@pytest.mark.parametrize("h", [0.25, 0.1, 1.0 / 30])
@pytest.mark.parametrize("radius", [1.0, np.sqrt(2.0)])
def test_build_graph_lattice_ties(variant, h, radius):
    # 30 x 30 lattice with spacing h, eps at exactly one or sqrt(2) spacings
    a = np.arange(30) * h
    pts = np.stack([x.ravel() for x in np.meshgrid(a, a, indexing="ij")], axis=1)
    nedges = assert_matches_brute_force(pts, radius * h, make_kernel(variant, 2))
    if variant == "indicator" and h == 0.25:
        # dyadic coordinates make every tie at eps exact, and ties are kept:
        # 2 * 30 * 29 axis neighbours, plus 2 * 29 * 29 diagonals at sqrt(2) h
        assert nedges == (1740 if radius == 1.0 else 1740 + 1682)


def test_build_graph_weights_recomputable():
    dom = unit_box(2)
    rho = make_density("affine", dom)
    pts = sample_points(dom, rho, 400, seed=22)
    eps = 0.13
    k = make_kernel("indicator", 2)
    g = build_graph(pts, eps, k)
    coo = g.weight_matrix().tocoo()
    d = np.linalg.norm(pts[coo.row] - pts[coo.col], axis=1)
    assert np.all(d <= eps + 1e-15)
    wref = (eps**-2) * k.eta(d / eps)
    assert np.max(np.abs(coo.data - wref)) < 1e-12 * wref.max()


def test_build_graph_reproducible():
    dom = unit_box(2)
    rho = make_density("constant", dom)
    pts = sample_points(dom, rho, 300, seed=23)
    k = make_kernel("indicator", 2)
    g1 = build_graph(pts, 0.15, k)
    g2 = build_graph(pts, 0.15, k)
    i1, j1, w1 = g1.edge_arrays()
    i2, j2, w2 = g2.edge_arrays()
    assert np.array_equal(i1, i2) and np.array_equal(j1, j2) and np.array_equal(w1, w2)


def test_build_graph_errors():
    k = make_kernel("indicator", 2)
    with pytest.raises(ValueError):
        build_graph(np.zeros((0, 2)), 0.1, k)
    with pytest.raises(ValueError):
        # n * eps^d < 1
        build_graph(np.random.default_rng(0).random((5, 2)), 0.1, k)


@pytest.mark.parametrize("call, match", [
    (lambda: Box([0.0, 0.0], [1.0]), "1-d arrays of equal length"),
    (lambda: Box([0.0] * 4, [1.0] * 4), "dimension must be 1, 2, or 3"),
    (lambda: Disk([0.0, 0.0], 0.0), "radius must be positive"),
    (lambda: make_density("affine", unit_box(1), slope=-1.0), "slope must be > -1"),
    (lambda: make_density("ramp", unit_box(1)), "unknown density 'ramp'"),
    (lambda: sample_points(unit_box(1), make_density("constant", unit_box(1)), 1, seed=0),
     "need n >= 2"),
    (lambda: build_graph(np.zeros((4, 2)), 0.5, make_kernel("indicator", 1)),
     r"kernel dimension 1 does not match points \(2\)"),
], ids=["bounds-length", "4-d-box", "zero-radius", "affine-slope", "unknown-density",
        "one-point", "kernel-dimension"])
def test_geometry_input_guards(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("variant", ["indicator", "cone"])  # window and CSR routes in d = 1
@pytest.mark.parametrize("d", [1, 2])
def test_build_graph_rejects_non_finite_input(variant, d):
    k = make_kernel(variant, d)
    pts = np.random.default_rng(0).random((20, d))
    for eps in (np.nan, np.inf):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            build_graph(pts, eps, k)
    pts[3, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite point"):
        build_graph(pts, 0.5, k)


def window_upper(g):
    # the strict upper triangle that a window graph's windows describe
    w = g._windows
    p = np.repeat(np.arange(g.n), w.hi - w.lo)
    q = np.concatenate([np.arange(a, b) for a, b in zip(w.lo, w.hi)])
    i, j = w.order[p], w.order[q]
    keep = i < j
    upper = sparse.csr_matrix((np.full(keep.sum(), w.c), (i[keep].astype(np.int32),
                                                         j[keep].astype(np.int32))),
                              shape=(g.n, g.n))
    upper.sum_duplicates()
    return upper


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 150), seed=st.integers(0, 2**31 - 1), eps_frac=st.floats(0.0, 1.0),
       layout=st.sampled_from(["random", "lattice", "duplicates"]), m=st.integers(1, 5))
def test_window_edges_match_the_csr_route(n, seed, eps_frac, layout, m):
    # d = 1 indicator graphs keep windows of sorted points; their edges and
    # weight are those of _upper_triangle, ties at exactly eps included
    rng = np.random.default_rng(seed)
    eps = 1.0 / n + eps_frac * (0.8 - min(1.0 / n, 0.8))
    if layout == "random":
        x = rng.random(n)
    elif layout == "lattice":  # spacing eps / m: pairs m steps apart tie at eps
        x = rng.integers(0, 2 * m * n, n) * (eps / m)
    else:
        x = rng.choice(rng.random(max(2, n // 5)), n)
    pts = x[:, None]
    k = make_kernel("indicator", 1)
    g = build_graph(pts, eps, k)
    assert g._csr is None
    upper = window_upper(g)
    assert_upper_matches_coo_route(upper, pts, eps, k)
    csr = sparse.csr_matrix(geometry._upper_triangle(pts, eps, k), shape=(n, n))
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(upper, name), getattr(csr, name)), name


def test_closest_point():
    pts = np.array([[0.0], [1.0], [3.0]])
    k = make_kernel("indicator", 1)
    g = build_graph(pts, 1.5, k)
    assert closest_point(np.array([1.0]), g) == 1
    assert closest_point(np.array([0.5]), g) == 0  # tie -> lower index
    assert closest_point(np.array([2.9]), g) == 2
    with pytest.raises(ValueError, match="shape"):
        closest_point(np.array([1.0, 0.0]), g)


def test_closest_point_matches_scan():
    dom = unit_box(2)
    rho = make_density("constant", dom)
    pts = sample_points(dom, rho, 1000, seed=6)
    g = build_graph(pts, 0.15, make_kernel("indicator", 2))
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.random(2)
        i = closest_point(x, g)
        j = int(np.argmin(np.linalg.norm(pts - x, axis=1)))
        assert i == j
    with pytest.raises(ValueError, match="shape"):
        closest_point([0.3], g)


def test_domain_helpers():
    b = Box([0.0, 0.0], [2.0, 1.0])
    assert b.volume == pytest.approx(2.0)
    assert b.d == 2
    assert b.contains(np.array([[0.5, 0.5], [2.5, 0.5]])).tolist() == [True, False]
    assert b.boundary_distance(np.array([0.3, 0.4])) == pytest.approx(0.3)
    dsk = Disk([0.0, 0.0], 2.0)
    assert dsk.volume == pytest.approx(4 * np.pi)
    assert dsk.boundary_distance(np.array([1.0, 0.0])) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        Disk([0.0, 0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        Box([0.0], [0.0])


def test_ray_exit_box_and_disk():
    b = Box([0.0, 0.0], [1.0, 1.0])
    x = np.array([0.5, 0.5])
    dirs = np.array([[1.0, 0.0], [0.0, -1.0], [np.sqrt(0.5), np.sqrt(0.5)]])
    t = b.ray_exit(x, dirs)
    assert t[0] == pytest.approx(0.5)
    assert t[1] == pytest.approx(0.5)
    assert t[2] == pytest.approx(np.sqrt(0.5))
    dsk = Disk([0.0, 0.0], 1.0)
    t2 = dsk.ray_exit(np.array([0.5, 0.0]), np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert t2[0] == pytest.approx(0.5)
    assert t2[1] == pytest.approx(1.5)


def test_arc_breaks_at_closed_form_angles():
    # x at distance 0.05 from the lower side, r = 0.1: besides the corner
    # directions, the circle |y - x| = r meets that side at -5 pi/6 and -pi/6
    b = Box([0.0, 0.0], [1.0, 1.0])
    x = np.array([0.5, 0.05])
    c = b.corners() - x
    br = b.arc_breaks(x, 0.1)
    assert np.array_equal(br[:4], np.arctan2(c[:, 1], c[:, 0]))
    assert sorted(br[4:]) == pytest.approx([-5 * np.pi / 6, -np.pi / 6], abs=1e-15)
    # a circle inside the box adds nothing to the corner directions
    c = b.corners() - 0.5
    assert np.array_equal(b.arc_breaks(np.array([0.5, 0.5]), 0.1), np.arctan2(c[:, 1], c[:, 0]))
    with pytest.raises(ValueError, match="2-d only"):
        unit_box(3).arc_breaks(np.full(3, 0.5), 0.1)
    dsk = Disk([0.0, 0.0], 1.0)
    q = (1.0 - 0.81 - 0.04) / (2 * 0.2 * 0.9)
    assert sorted(dsk.arc_breaks(np.array([0.9, 0.0]), 0.2)) == pytest.approx(
        [-np.arccos(q), np.arccos(q)], abs=1e-15)
    # on the far side the breaks wrap round into [-pi, pi)
    br = dsk.arc_breaks(np.array([-0.9, 0.0]), 0.2)
    assert sorted(br) == pytest.approx([-np.pi + np.arccos(q), np.pi - np.arccos(q)], abs=1e-15)
    # the exit time equals r at every break
    assert dsk.ray_exit(np.array([-0.9, 0.0]), np.stack([np.cos(br), np.sin(br)], axis=1)) \
        == pytest.approx([0.2, 0.2], abs=1e-15)
    assert dsk.arc_breaks(np.array([0.0, 0.0]), 0.2).size == 0
    assert dsk.arc_breaks(np.array([0.5, 0.0]), 0.2).size == 0


def test_points_csv_round_trip(tmp_path):
    pts = np.random.default_rng(8).random((40, 3))
    path = str(tmp_path / "pts.csv")
    save_points(pts, path)
    with open(path) as fh:
        assert fh.readline().strip() == "x0,x1,x2"
    back = load_points(path)
    assert np.array_equal(back, pts)


@pytest.mark.parametrize("n,d", [(49, 1), (5, 2), (20, 2), (49, 2)])
def test_build_graph_accepts_n_eps_d_equal_one(n, d):
    # n * (n ** (-1/d)) ** d rounds to 0.9999999999999999 for these n, d
    assert n * (n ** (-1.0 / d)) ** d < 1.0
    pts = np.random.default_rng(0).random((n, d))
    build_graph(pts, n ** (-1.0 / d), make_kernel("indicator", d))


@pytest.mark.parametrize("box, h", [(unit_box(1), 1.0), (unit_box(2), 0.75)],
                         ids=["one-cell", "one-cell-per-axis"])
def test_cell_grid_needs_two_cells_per_axis(box, h):
    with pytest.raises(ValueError, match="at least two cells per axis"):
        geometry._cell_grid(box, h)
