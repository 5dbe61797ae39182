"""Domains, densities, kernel profiles, point sampling, and geometric
graph construction.

A random geometric graph is built from n i.i.d. samples of a density rho
on a bounded domain by connecting points within distance eps, weighted by
a rescaled radial kernel

    w_xy = eps^{-d} eta(|x - y| / eps).

Kernel profiles are normalized to unit mass over the unit ball and carry
their second-moment constant sigma_eta = int |z_1|^2 eta(|z|) dz, computed
by radial Gauss-Legendre quadrature.
"""

import functools

import numpy as np

from .graph_core import Graph, _Windows, _write_columns

# unit-ball volumes omega_d for d = 1, 2, 3
BALL_VOLUME = {1: 2.0, 2: np.pi, 3: 4.0 * np.pi / 3.0}


@functools.lru_cache(maxsize=32)
def _gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n.

    ``leggauss`` solves an n x n eigenproblem on every call (1.15 s at
    n = 2048).  The cached arrays are shared by every caller, so they are
    read-only: writing to one raises ValueError.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _radial_integral(f, p):
    """int_0^1 f(r) r^p dr by the 64-node Gauss-Legendre rule mapped to [0, 1].

    Exact up to rounding for the indicator and cone profiles, whose
    integrands are polynomials of degree at most 5; the bump is smooth to
    all orders at r = 1, so 64 nodes leave an error near rounding too.
    """
    nodes, weights = _gauss_legendre(64)
    r = 0.5 * (nodes + 1.0)
    return 0.5 * float(weights @ (f(r) * r**p))


class Box:
    """Axis-aligned box domain."""

    name = "box"

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("lower and upper must be 1-d arrays of equal length")
        if not 1 <= self.lower.size <= 3:
            raise ValueError("dimension must be 1, 2, or 3")
        if np.any(self.upper <= self.lower):
            raise ValueError("box must have positive volume")

    @property
    def d(self):
        return self.lower.size

    @property
    def volume(self):
        return float(np.prod(self.upper - self.lower))

    @property
    def center(self):
        return 0.5 * (self.lower + self.upper)

    def bounding_box(self):
        return self.lower, self.upper

    def contains(self, pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        ok = np.all((pts >= self.lower) & (pts <= self.upper), axis=1)
        return bool(ok[0]) if single else ok

    def boundary_distance(self, x):
        x = np.asarray(x, dtype=float)
        return float(min(np.min(x - self.lower), np.min(self.upper - x)))

    def ray_exit(self, x, dirs):
        """First exit time of the rays x + t*dirs from the box (x inside)."""
        x = np.asarray(x, dtype=float)
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        with np.errstate(divide="ignore", invalid="ignore"):
            t_up = (self.upper - x) / dirs
            t_lo = (self.lower - x) / dirs
        t = np.where(dirs > 0, t_up, np.where(dirs < 0, t_lo, np.inf))
        return np.min(t, axis=1)

    def corners(self):
        grids = np.meshgrid(*[(self.lower[i], self.upper[i]) for i in range(self.d)],
                            indexing="ij")
        return np.stack([a.ravel() for a in grids], axis=1)

    def arc_breaks(self, x, r):
        """Angles (d=2 only) where theta -> min(r, ray_exit(x, theta)) can kink:
        the directions from x to the corners and to where |y - x| = r meets a side."""
        if self.d != 2:
            raise ValueError("arc_breaks is 2-d only")
        x = np.asarray(x, dtype=float)
        pts = list(self.corners())
        for i, o in ((0, 1), (1, 0)):
            for b in (self.lower[i], self.upper[i]):
                if abs(b - x[i]) <= r:
                    h = np.sqrt(r * r - (b - x[i]) ** 2)
                    for c in (x[o] - h, x[o] + h):
                        if self.lower[o] <= c <= self.upper[o]:
                            pts.append((b, c) if i == 0 else (c, b))
        v = np.array(pts) - x
        return np.arctan2(v[:, 1], v[:, 0])

    def integrate(self, f):
        """Tensor Gauss-Legendre quadrature of f over the box, 96 nodes per axis."""
        nodes, weights = _gauss_legendre(96)
        axes, wts = [], []
        for i in range(self.d):
            a, b = self.lower[i], self.upper[i]
            axes.append(0.5 * (b - a) * nodes + 0.5 * (a + b))
            wts.append(0.5 * (b - a) * weights)
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        w = wts[0]
        for i in range(1, self.d):
            w = np.multiply.outer(w, wts[i])
        return float(np.sum(f(pts) * w.ravel()))


class Disk:
    """Disk domain (d = 2 only)."""

    name = "disk"

    def __init__(self, center, radius):
        self.center_pt = np.asarray(center, dtype=float)
        if self.center_pt.shape != (2,):
            raise ValueError("disk center must be a 2-d point")
        if radius <= 0:
            raise ValueError("disk radius must be positive")
        self.radius = float(radius)

    @property
    def d(self):
        return 2

    @property
    def volume(self):
        return float(np.pi * self.radius**2)

    @property
    def center(self):
        return self.center_pt

    def bounding_box(self):
        return self.center_pt - self.radius, self.center_pt + self.radius

    def contains(self, pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        ok = np.linalg.norm(pts - self.center_pt, axis=1) <= self.radius
        return bool(ok[0]) if single else ok

    def boundary_distance(self, x):
        x = np.asarray(x, dtype=float)
        return float(self.radius - np.linalg.norm(x - self.center_pt))

    def ray_exit(self, x, dirs):
        x = np.asarray(x, dtype=float)
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        y = x - self.center_pt
        b = dirs @ y
        disc = b**2 + self.radius**2 - y @ y
        return -b + np.sqrt(np.maximum(disc, 0.0))

    def arc_breaks(self, x, r):
        """Angles where theta -> min(r, ray_exit(x, theta)) can kink: the
        directions from x to where |y - x| = r meets the boundary, in [-pi, pi)."""
        y = np.asarray(x, dtype=float) - self.center_pt
        yy = float(y @ y)
        if yy == 0.0:
            return np.empty(0)
        q = (self.radius**2 - yy - r * r) / (2.0 * r * np.sqrt(yy))
        if abs(q) > 1.0:
            return np.empty(0)
        a = np.arctan2(y[1], y[0]) + np.array([-1.0, 1.0]) * np.arccos(q)
        return (a + np.pi) % (2 * np.pi) - np.pi

    def integrate(self, f):
        """Polar quadrature: 160 Gauss-Legendre nodes radially, a 512-point
        trapezoid in angle."""
        nr, na = 160, 512
        nodes, weights = _gauss_legendre(nr)
        r = 0.5 * self.radius * (nodes + 1.0)
        wr = 0.5 * self.radius * weights * r
        theta = np.linspace(0.0, 2 * np.pi, na, endpoint=False)
        e = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        pts = self.center_pt + r[:, None, None] * e[None, :, :]
        vals = f(pts.reshape(-1, 2)).reshape(nr, na)
        return float((2 * np.pi / na) * np.sum(vals.sum(axis=1) * wr))


class KernelProfile:
    """Radial weight profile
    ======

    Profile eta supported on [0,1], non-increasing, normalized so that
    int_{B(0,1)} eta(|z|) dz = 1, with second-moment constant

        sigma_eta = int_{B(0,1)} |z_1|^2 eta(|z|) dz
                  = omega_d int_0^1 r^{d+1} eta(r) dr.

    This radial integral, like the bump's normalization in `make_kernel`,
    is taken by the 64-node Gauss-Legendre rule on [0, 1]
    (`_radial_integral`).

    Fields
    ------
    name : str
        One of 'indicator', 'cone', 'bump'.
    d : int
        Ambient dimension (normalization depends on it).
    sigma_eta : float
    eta0 : float
        Peak value eta(0) > 0.
    """

    def __init__(self, name, d, shape, norm):
        self.name = name
        self.d = d
        self._shape = shape
        self._norm = norm
        self.sigma_eta = BALL_VOLUME[d] * _radial_integral(self.eta, d + 1)
        self.eta0 = float(self.eta(np.array([0.0]))[0])

    def eta(self, t):
        """Evaluate the normalized profile at radii t (vectorized)."""
        return self._scaled(np.asarray(t, dtype=float), 1.0)

    def eta_eps(self, r, eps):
        """Rescaled profile eta_eps(r) = eps^{-d} eta(r/eps)."""
        return self._scaled(np.asarray(r, dtype=float) / eps, eps ** (-self.d))

    def _scaled(self, t, scale):
        """scale * eta(t), computed in place on the shape's output array.

        The shape is evaluated on the whole array and then zeroed where
        t <= 1 fails, NaN included.  Inside the support each value is
        (shape(t) * norm) * scale, the same products as gathering t[t <= 1]
        first, so the result is bit-identical without the gathered copies.
        """
        out = np.asarray(self._shape(t))  # a new array: it is scaled in place
        out *= self._norm
        out *= scale
        out[~(t <= 1.0)] = 0.0
        return out


def _bump_shape(t):
    out = np.zeros_like(t)
    inside = t < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def make_kernel(variant, d):
    """Construct a normalized kernel profile
    ======

    Parameters
    ----------
    variant : str
        'indicator' (constant on [0,1]), 'cone' ((1-t)_+), or 'bump'
        (smooth compactly supported exp(-1/(1-t^2))).
    d : int
        Dimension in {1,2,3}.

    Returns
    -------
    KernelProfile
    """
    if d not in (1, 2, 3):
        raise ValueError("unsupported dimension %r" % (d,))
    wd = BALL_VOLUME[d]
    if variant == "indicator":
        shape = lambda t: np.ones_like(t)
        norm = 1.0 / wd
    elif variant == "cone":
        shape = lambda t: 1.0 - t
        norm = (d + 1) / wd
    elif variant == "bump":
        shape = _bump_shape
        norm = 1.0 / (d * wd * _radial_integral(_bump_shape, d - 1))
    else:
        raise ValueError("unknown kernel variant %r" % (variant,))
    return KernelProfile(variant, d, shape, norm)


class DensityModel:
    """Normalized sampling density on a domain.

    evaluate() returns rho with int_Omega rho = 1; rho_min and rho_max are
    valid pointwise bounds and lipschitz bounds the gradient norm.
    """

    def __init__(self, name, domain, base, base_min, base_max, base_lip):
        self.name = name
        self.domain = domain
        self._base = base
        self._z = domain.integrate(base)
        self.rho_min = base_min / self._z
        self.rho_max = base_max / self._z
        self.lipschitz = base_lip / self._z

    def evaluate(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self._base(pts) / self._z


def make_density(name, domain, slope=0.8):
    """Construct a density model
    ======

    Parameters
    ----------
    name : str
        'constant', 'affine' (linear ramp along the first axis), or
        'bump' (1 + exp(-|x - c|^2 / (2 w^2)) with c the domain center and
        w = 0.2 x the smallest extent of the bounding box; Lipschitz).
    domain : Box or Disk
    slope : float
        Affine ramp steepness, must be > -1.

    Returns
    -------
    DensityModel
    """
    lo, up = domain.bounding_box()
    if name == "constant":
        return DensityModel("constant", domain, lambda p: np.ones(p.shape[0]),
                            1.0, 1.0, 0.0)
    if name == "affine":
        if slope <= -1:
            raise ValueError("affine slope must be > -1 to stay positive")
        extent = up[0] - lo[0]
        base = lambda p: 1.0 + slope * (p[:, 0] - lo[0]) / extent
        bmin, bmax = sorted((1.0, 1.0 + slope))
        return DensityModel("affine", domain, base, bmin, bmax, abs(slope) / extent)
    if name == "bump":
        c = domain.center
        w = 0.2 * float(np.min(up - lo))
        base = lambda p: 1.0 + np.exp(
            -np.sum((p - c) ** 2, axis=1) / (2 * w**2))
        if isinstance(domain, Box):
            rmax = np.max(np.linalg.norm(domain.corners() - c, axis=1))
        else:
            rmax = domain.radius + np.linalg.norm(c - domain.center)
        bmin = 1.0 + np.exp(-rmax**2 / (2 * w**2))
        lip = np.exp(-0.5) / w
        return DensityModel("bump", domain, base, bmin, 2.0, lip)
    raise ValueError("unknown density %r" % (name,))


def sample_points(domain, density, n, seed):
    """Draw i.i.d. points from a density by rejection sampling
    ======

    Proposes uniformly on the domain's bounding box and accepts with
    probability rho(x)/rho_max; deterministic for a fixed seed.  An
    observed acceptance rate below 1e-3 raises RuntimeError (misconfigured
    density envelope).

    Parameters
    ----------
    domain : Box or Disk
    density : DensityModel
    n : int
        Number of points, >= 2.
    seed : int

    Returns
    -------
    (n,d) array
    """
    if n < 2:
        raise ValueError("need n >= 2 points")
    rng = np.random.default_rng(seed)
    lo, up = domain.bounding_box()
    d = domain.d
    chunks = []
    accepted = 0
    proposed = 0
    chunk = max(1024, int(n))
    while accepted < n:
        x = lo + (up - lo) * rng.random((chunk, d))
        u = rng.random(chunk)
        vals = np.zeros(chunk)
        inside = domain.contains(x)
        vals[inside] = density.evaluate(x[inside])
        acc = u * density.rho_max <= vals
        chunks.append(x[acc])
        accepted += int(acc.sum())
        proposed += chunk
        if accepted / proposed < 1e-3:
            raise RuntimeError(
                "rejection acceptance rate %.2e below 1e-3; density envelope "
                "is misconfigured" % (accepted / proposed))
    return np.concatenate(chunks, axis=0)[:n]


# candidate pairs per block of _upper_triangle's distance and weight pass
_BLOCK = 1 << 16


def _edge_weights(points, i, j, eps, kernel):
    """Weights eta_eps(dist) of the candidate pairs (i, j), and which are edges.

    dist is the square root of the squared coordinate differences summed
    in axis order; a pair is an edge when dist <= eps and its weight is
    positive.
    """
    dist = np.zeros(i.size)
    for a in range(points.shape[1]):
        diff = points[i, a] - points[j, a]
        dist += diff * diff
    np.sqrt(dist, out=dist)
    w = kernel.eta_eps(dist, eps)
    return w, (dist <= eps) & (w > 0)


def _upper_triangle(points, eps, kernel):
    """CSR arrays (w, j, indptr) of the strict upper triangle of build_graph.

    The kd-tree candidates are sorted once by the int64 key i*n + j, which
    puts rows in ascending order and columns in ascending order within each
    row: the canonical CSR order, so no per-row sort is needed afterwards.
    Distances and weights are computed in that order.
    """
    from scipy.spatial import cKDTree  # deferred: scipy.spatial is slow to import

    n = points.shape[0]
    pairs = cKDTree(points).query_pairs(eps * (1 + 1e-9), output_type="ndarray")
    key = pairs[:, 0] * n
    key += pairs[:, 1]
    del pairs
    key.sort()
    i = np.empty(key.size, dtype=np.int32)
    j = np.empty(key.size, dtype=np.int32)
    np.floor_divide(key, n, out=i, casting="unsafe")
    np.remainder(key, n, out=j, casting="unsafe")
    del key
    # distances and weights block by block, so that their temporaries stay
    # small; the values do not depend on the blocking
    w = np.empty(i.size)
    keep = np.empty(i.size, dtype=bool)
    for lo in range(0, i.size, _BLOCK):
        hi = lo + _BLOCK
        w[lo:hi], keep[lo:hi] = _edge_weights(points, i[lo:hi], j[lo:hi], eps, kernel)
    if not keep.all():
        # one array at a time, so at most one filtered copy is in flight
        i = i[keep]
        j = j[keep]
        w = w[keep]
    # row starts: i is sorted, and a same-dtype search copies nothing
    indptr = np.searchsorted(i, np.arange(n + 1, dtype=i.dtype))
    return w, j, indptr


def _window_starts(xs, eps):
    """Per sorted coordinate xs[p], the first q whose distance to it passes the edge test.

    The test of _edge_weights, sqrt((x_q - x_p)^2) <= eps, is monotone in
    x_q on either side of x_p, so the points that pass form one window of
    the sorted list.  searchsorted at x_p - eps finds its start up to the
    rounding of that subtraction; the start then moves over one run of
    equal coordinates at a time until the point before it fails the test
    and the point at it passes.
    """
    def passes(q):
        diff = xs[q] - xs
        return np.sqrt(diff * diff) <= eps

    lo = np.searchsorted(xs, xs - eps, "left")
    while True:
        fail = ~passes(lo)
        grow = (lo > 0) & passes(lo - 1)
        if not (fail.any() or grow.any()):
            return lo
        lo[fail] = np.searchsorted(xs, xs[lo[fail]], "right")
        lo[grow] = np.searchsorted(xs, xs[lo[grow] - 1], "left")


def _windows(points, eps, kernel):
    """The window form of the d = 1 indicator graph (see graph_core._Windows),
    or None for any other graph: the one rule behind build_graph and load_graph.

    Sorted point p is joined to the sorted points in [lo[p], hi[p]), each
    with the one weight eta_eps(0); the windows hold exactly the pairs that
    _upper_triangle keeps.
    """
    if points.shape[1] != 1 or getattr(kernel, "name", None) != "indicator":
        return None
    order = np.argsort(points[:, 0], kind="stable")
    xs = points[order, 0]
    lo = _window_starts(xs, eps)
    # the ends are the starts of the mirrored list -xs[::-1]; negation is exact
    hi = xs.size - _window_starts(-xs[::-1], eps)[::-1]
    c = kernel.eta_eps(np.zeros(1), eps)[0]
    return _Windows(order, lo, hi, c)


def build_graph(points, eps, kernel, seed=None):
    """Build the eps-neighborhood geometric graph
    ======

    Candidate pairs come from a kd-tree (``cKDTree.query_pairs``) searched
    at radius eps (1 + 1e-9), a superset of the edges.  The kd-tree
    compares squared distances in its own summation order, so each
    candidate is then tested exactly: its distance is recomputed as the
    square root of the squared coordinate differences summed in axis
    order, and the pair is an edge when that distance is <= eps (ties at
    exactly eps included) and its weight eta_eps(dist) is positive.  The
    weights use the same distances, so edge sets and weights do not
    depend on the search.  Self-weights are w_xx = eta_eps(0).

    The candidates are sorted once into canonical CSR order (rows, then
    columns ascending), so the Graph takes the arrays as they are.  Peak
    memory over the caller's is about 29 bytes per candidate pair, 12 of
    which the returned graph keeps (peak RSS at d = 1, cone kernel,
    n = 12211, 2.7M pairs).  The search result (16 bytes per pair) is cut
    to an int64 sort key and then to int32 endpoints; distances and weights
    are computed in blocks of 65536 pairs, so their temporaries do not
    grow with the graph.

    In d = 1 with the indicator kernel every edge has the weight
    eta_eps(0), and the edges of a point are a window of the sorted
    points.  There the graph keeps the sort order and each window's ends,
    found by ``searchsorted`` and moved to pass the same exact test, in
    O(n) memory whatever the edge count; ``Graph.wmul`` applies W from
    them, and the CSR above is built only when something reads it.

    Parameters
    ----------
    points : (n,d) array
    eps : float
        Bandwidth; n * eps^d >= 1 is required.
    kernel : KernelProfile
    seed : int or None
        Recorded in the graph metadata.

    Returns
    -------
    Graph
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("empty or malformed point list")
    n, d = points.shape
    if d != kernel.d:
        raise ValueError("kernel dimension %d does not match points (%d)" % (kernel.d, d))
    if not np.all(np.isfinite(points)):
        raise ValueError("non-finite point coordinate")
    if not 0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    # slack of a few ulps: eps = n**(-1/d) can round n * eps**d to just below 1
    if n * eps**d < 1.0 - 1e-12:
        raise ValueError("n * eps^d = %.3g < 1; graph too sparse to be meaningful"
                         % (n * eps**d,))

    upper = _windows(points, eps, kernel) or _upper_triangle(points, eps, kernel)
    diag = np.full(n, eps ** (-d) * kernel.eta0)
    return Graph(points, upper, diag, eps, kernel=kernel, seed=seed)


def _cell_grid(domain, h):
    """Cell-centered grid of step h on the domain's bounding box.

    Returns (shape, axes, centers): the cell count per axis, the cell-center
    coordinates along each axis, and all centers as an (n_cells, d) array in
    C order.  h must divide each side, and each axis needs two cells.
    """
    lo, up = domain.bounding_box()
    m = np.round((up - lo) / h).astype(int)
    if np.any(m < 2):
        raise ValueError("grid must have at least two cells per axis")
    if np.max(np.abs((up - lo) - m * h)) > 1e-9 * h:
        raise ValueError("h must divide each box side")
    axes = tuple(lo[i] + (np.arange(m[i]) + 0.5) * h for i in range(domain.d))
    mesh = np.meshgrid(*axes, indexing="ij")
    return tuple(int(v) for v in m), axes, np.stack([g.ravel() for g in mesh], axis=-1)


def closest_point(x, g):
    """Index of the graph node closest to x; ties break to the smallest index.
    ValueError unless x has shape (g.d,)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (g.d,):
        raise ValueError("point of shape %s on a %d-d graph" % (x.shape, g.d))
    return int(np.argmin(np.linalg.norm(g.points - x, axis=1)))


def save_points(points, path):
    """Write points as CSV with header x0,...,x{d-1}."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = points.shape[1]
    _write_columns(path, ",".join("x%d" % i for i in range(d)), points.T, ["%.17g"] * d)


def load_points(path):
    """Read a points CSV written by save_points."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
