"""Graph heat-kernel propagation and its continuum comparison kernels.

The graph heat kernel H_k^x is the k-step evolution of the graph delta at
x under the adjoint random-walk diffusion; columns propagate by

    H_{k+1} = H_k - L_rw^T H_k = W (H_k / deg),

which preserves mass <H_k, 1> = 1 exactly.  Convolution with a graph
function uses the dual form (I - L_rw)^k.

Both powers are step^k v for a random-walk step (W D^{-1} on columns,
D^{-1} W on functions).  For large k they are evaluated from the
Chebyshev expansion x^k = sum_j c_j T_j(x), truncated where its tail
bounds the max-norm error below unit roundoff; this takes about
sqrt(2 k log(2/delta)) matvecs instead of k (see `_walk_power`).  When
the truncation degree is not below k (every k <= 53, since c_k = 2^(1-k))
the k steps are applied one by one.  The continuum side provides
the smoothed density rho_hat, the nonlocal averaging operator M_eps on a
grid, the repeated self-convolutions psi_k of the kernel profile, and the
scale constants (eps_k, R_k, Theta_dk, phi) controlling their effective
support.
"""

import numpy as np
from scipy.integrate import simpson
from scipy.special import gammaln, j0

from .geometry import BALL_VOLUME, Box, _gauss_legendre
from .graph_core import GraphFunction
from .poisson_solver import assemble_source

MAX_HEAT_STEPS = 10**6


class HeatColumn:
    """One heat-kernel column H_k^x.

    Fields: center (node index or point), k, values (GraphFunction).
    """

    def __init__(self, center, k, values):
        self.center = center
        self.k = k
        self.values = values


def _chebyshev_coefficients(k):
    """Coefficients c_0..c_k of x^k = sum_j c_j T_j(x), normalized to sum to 1.

    c_j = 2 P(Bin(k, 1/2) = (k - j)/2) for j > 0 of the parity of k, and
    c_0 = P(Bin(k, 1/2) = k/2); computed in log space, so k up to
    MAX_HEAT_STEPS neither overflows nor underflows to a zero sum.
    """
    i = np.arange(k // 2 + 1)
    logp = gammaln(k + 1) - gammaln(i + 1) - gammaln(k - i + 1) - k * np.log(2.0)
    c = np.zeros(k + 1)
    c[k - 2 * i] = 2.0 * np.exp(logp)
    if k % 2 == 0:
        c[0] /= 2.0
    return c / c.sum()


def _walk_power(g, step, v, k):
    """step^k v for a random-walk step of the graph g.

    `step` is x -> W x / deg or x -> W (x / deg).  Either is self-adjoint in
    the deg- (resp. 1/deg-) weighted inner product with spectrum in
    [-1, 1], so truncating x^k = sum_j c_j T_j(x) after degree m leaves a
    max-norm error of at most

        tail_m * sqrt(n * max deg / min deg) * ||v||_inf,
        tail_m = sum_{j > m} c_j.

    m is the smallest degree with tail_m <= 2^-53 / sqrt(n max deg / min
    deg), so the error is below unit roundoff times ||v||_inf, and the
    truncated sum is evaluated by T_{j+1} = 2 step(T_j) - T_{j-1} in m
    matvecs.  When m >= k (always for k <= 53, as c_k = 2^(1-k) > 2^-53)
    the k steps are applied one by one instead.
    """
    deg = g.degrees
    c = _chebyshev_coefficients(k)
    tail = np.cumsum(c[::-1])[::-1]  # tail[j] = sum_{i >= j} c_i
    delta = 2.0**-53 / np.sqrt(g.n * deg.max() / deg.min())
    m = int(np.count_nonzero(tail > delta)) - 1
    if m >= k:
        for _ in range(k):
            v = step(v)
        return v
    prev, cur = v, step(v)
    out = c[0] * prev + c[1] * cur
    for j in range(2, m + 1):
        prev, cur = cur, 2.0 * step(cur) - prev
        if c[j]:
            out += c[j] * cur
    return out


def _propagate(g, v, steps):
    deg = g.degrees
    v = _walk_power(g, lambda x: g.wmul(x / deg), v, int(steps))
    if not np.all(np.isfinite(v)):
        raise RuntimeError("heat propagation produced non-finite values")
    return v


def heat_column(g, x, k):
    """Heat-kernel column
    ======

    Computes H_k^x = (I - L_rw^T)^k delta_x for a node center, or starts
    from the one-step kernel H_1^x(x_i) = n eta_eps(|x_i - x|) / deg(x)
    for an off-graph point center (deg(x) summed over all nodes).

    The power is applied step by step when the Chebyshev truncation degree
    m (see `_walk_power`) is not below the step count, and otherwise as the
    truncated Chebyshev sum in m matvecs, whose max-norm error is below
    2^-53 ||start||_inf; entries of the true kernel smaller than that may
    then come out as rounding-level negatives.

    Parameters
    ----------
    g : Graph
    x : int or point
        Node index, or an interior point with at least one node in B(x, eps).
    k : int
        Step count >= 0 (>= 1 for point centers).

    Returns
    -------
    HeatColumn
    """
    if k < 0 or k > MAX_HEAT_STEPS:
        raise ValueError("step count k out of range")
    if np.any(g.degrees == 0):
        raise ValueError("zero-degree node; random-walk propagation undefined")
    if np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0):
        xi = int(x)
        if not 0 <= xi < g.n:
            raise IndexError("node index out of range")
        v = np.zeros(g.n)
        v[xi] = g.n
        v = _propagate(g, v, k)
        return HeatColumn(xi, k, GraphFunction(g, v))
    x = np.asarray(x, dtype=float)
    if x.shape != (g.d,):
        raise ValueError("point center must have shape (d,)")
    if k == 0:
        raise ValueError("k >= 1 required for an off-graph point center")
    if g.kernel is None:
        raise ValueError("graph has no kernel profile; cannot start from a point")
    r = np.linalg.norm(g.points - x, axis=1)
    w = g.kernel.eta_eps(r, g.eps)
    deg_x = w.sum()
    if deg_x == 0:
        raise ValueError("no node within eps of the center point")
    v = g.n * w / deg_x
    v = _propagate(g, v, k - 1)
    return HeatColumn(x, k, GraphFunction(g, v))


def heat_convolve(g, k, u):
    """Heat convolution H_k * u = (I - L_rw)^k u
    ======

    Satisfies the semigroup identity H_k*(H_l*u) = H_{k+l}*u and commutes
    with L_rw.  (I - L_rw)^k = (D^{-1} W)^k is applied as k steps when the
    Chebyshev truncation degree m of `_walk_power` is at least k (every
    k <= 53; bit-identical to plain powering), and otherwise as the
    truncated Chebyshev sum in m ~ sqrt(2 k log(2/delta)) matvecs, delta =
    2^-53 / sqrt(n max deg / min deg), with max-norm error at most
    2^-53 ||u||_inf.
    """
    if k < 0 or k > MAX_HEAT_STEPS:
        raise ValueError("step count k out of range")
    deg = g.degrees
    if np.any(deg == 0):
        raise ValueError("zero-degree node; random-walk propagation undefined")
    v = np.array(u.values if isinstance(u, GraphFunction) else u, dtype=float)
    v = _walk_power(g, lambda x: g.wmul(x) / deg, v, int(k))
    if not np.all(np.isfinite(v)):
        raise RuntimeError("heat convolution produced non-finite values")
    return GraphFunction(g, v)


def smooth_poisson(g, u, s, k):
    """Smoothed Poisson pair
    ======

    Given u solving the graph Poisson problem for s (residual checked to
    1e-8 relative), returns u_k = H_k * u and the smoothed source
    f_k = sum_x a_x H_k^{tau(x)}, which satisfy L u_k = f_k with the
    geometric-scaled Laplacian and (u_k)_deg = (u)_deg.
    """
    f = assemble_source(g, s)
    scale = g.sigma_eta * g.eps**2 * (g.n - 1)
    lu = (g.degrees * u.values - g.wmul(u.values)) / scale
    fnorm = np.linalg.norm(f.values)
    if np.linalg.norm(lu - f.values) > 1e-8 * max(fnorm, 1e-300):
        raise ValueError("u does not solve the graph Poisson problem for s")
    uk = heat_convolve(g, k, u)
    # f_k = P^k f with P = W D^{-1}, identical to summing columns H_k^{tau(x)}
    fk = _propagate(g, f.values.copy(), int(k))
    return uk, GraphFunction(g, fk)


def rho_hat(density, domain, kernel, eps, x):
    """Kernel-smoothed density
    ======

    Computes rho_hat_eps(x) = int_Omega eta_eps(|x-y|) rho(y) dy by
    radial-angular product quadrature with per-direction exact clipping
    at the domain boundary (the domain is convex).

    Parameters
    ----------
    density : DensityModel
    domain : Box or Disk
    kernel : KernelProfile
    eps : float
    x : point in the domain

    Returns
    -------
    float
    """
    x = np.asarray(x, dtype=float)
    if not domain.contains(x):
        raise ValueError("x is outside the domain")
    d = domain.d
    if d == 1:
        a = max(domain.lower[0], x[0] - eps)
        b = min(domain.upper[0], x[0] + eps)
        total = 0.0
        for lo, hi in ((a, x[0]), (x[0], b)):
            if hi <= lo:
                continue
            nodes, weights = _gauss_legendre(128)
            y = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            w = 0.5 * (hi - lo) * weights
            vals = kernel.eta_eps(np.abs(y - x[0]), eps) * density.evaluate(y[:, None])
            total += float(vals @ w)
        return total
    if d == 2:
        return _rho_hat_2d(density, domain, kernel, eps, x)
    return _rho_hat_3d(density, domain, kernel, eps, x)


def _exit_crossings(domain, x, eps, nscan=4096):
    """Angles where the clipped radius min(eps, t_exit) switches regime."""
    theta = np.linspace(-np.pi, np.pi, nscan, endpoint=False)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    t = domain.ray_exit(x, dirs)
    s = np.sign(t - eps)
    idx = np.nonzero(s[:-1] * s[1:] < 0)[0]
    out = []
    for i in idx:
        a, b = theta[i], theta[i + 1]
        for _ in range(60):
            m = 0.5 * (a + b)
            tm = domain.ray_exit(x, np.array([[np.cos(m), np.sin(m)]]))[0]
            if (tm - eps) * (domain.ray_exit(x, np.array([[np.cos(a), np.sin(a)]]))[0] - eps) <= 0:
                b = m
            else:
                a = m
        out.append(0.5 * (a + b))
    return out


def _rho_hat_2d(density, domain, kernel, eps, x, n_theta=48, n_r=96):
    # split the angular domain at corner directions and at crossings of
    # t_exit = eps, then integrate each smooth sub-arc by Gauss-Legendre
    breaks = set()
    for a in np.atleast_1d(domain.corner_angles(x)):
        if np.isfinite(a):
            breaks.add(float(a))
    for a in _exit_crossings(domain, x, eps):
        breaks.add(float(a))
    breaks.update([-np.pi, np.pi])
    angles = np.array(sorted(breaks))
    gn, gw = _gauss_legendre(n_theta)
    rn, rw = _gauss_legendre(n_r)
    total = 0.0
    for a, b in zip(angles[:-1], angles[1:]):
        if b - a < 1e-14:
            continue
        th = 0.5 * (b - a) * gn + 0.5 * (a + b)
        wth = 0.5 * (b - a) * gw
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        rmax = np.minimum(eps, domain.ray_exit(x, dirs))
        # radial Gauss nodes per direction
        r = 0.5 * rmax[:, None] * (rn[None, :] + 1.0)
        wr = 0.5 * rmax[:, None] * rw[None, :]
        pts = x[None, None, :] + r[:, :, None] * dirs[:, None, :]
        vals = kernel.eta_eps(r, eps) * density.evaluate(pts.reshape(-1, 2)).reshape(r.shape)
        total += float(wth @ np.sum(vals * r * wr, axis=1))
    return total


def _rho_hat_3d(density, domain, kernel, eps, x, n_u=48, n_az=96, n_r=64):
    if domain.boundary_distance(x) >= eps:
        # interior: spherical product quadrature, no clipping
        un, uw = _gauss_legendre(n_u)
        az = np.linspace(0.0, 2 * np.pi, n_az, endpoint=False)
        rn, rw = _gauss_legendre(n_r)
        r = 0.5 * eps * (rn + 1.0)
        wr = 0.5 * eps * rw
        sin_t = np.sqrt(1 - un**2)
        dirs = np.stack([
            np.outer(sin_t, np.cos(az)).ravel(),
            np.outer(sin_t, np.sin(az)).ravel(),
            np.repeat(un, n_az),
        ], axis=1)
        wdir = np.repeat(uw, n_az) * (2 * np.pi / n_az)
        pts = x[None, None, :] + r[:, None, None] * dirs[None, :, :]
        vals = density.evaluate(pts.reshape(-1, 3)).reshape(n_r, -1)
        radial = kernel.eta_eps(r, eps) * r**2 * wr
        return float(radial @ (vals @ wdir))
    # near the boundary: fine midpoint grid over B(x,eps) intersected with
    # the domain; adequate for the bounds this is used under
    m = 128
    ax = [np.linspace(x[i] - eps, x[i] + eps, m, endpoint=False) + eps / m
          for i in range(3)]
    pts = np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1).reshape(-1, 3)
    inside = domain.contains(pts)
    r = np.linalg.norm(pts - x, axis=1)
    vals = np.zeros(pts.shape[0])
    sel = inside & (r <= eps)
    vals[sel] = kernel.eta_eps(r[sel], eps) * density.evaluate(pts[sel])
    return float(vals.sum() * (2 * eps / m) ** 3)


class GridField:
    """Cell-centered scalar field on a uniform grid with multilinear sampling."""

    def __init__(self, axes, values, h):
        self.axes = tuple(np.asarray(a, dtype=float) for a in axes)
        self.values = np.asarray(values, dtype=float)
        self.h = float(h)

    def sample(self, pts):
        """Multilinear interpolation at points, clamped at the grid edge."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        d = len(self.axes)
        idx = []
        frac = []
        for i in range(d):
            ax = self.axes[i]
            t = (pts[:, i] - ax[0]) / self.h
            t = np.clip(t, 0.0, ax.size - 1.0)
            i0 = np.minimum(t.astype(np.int64), ax.size - 2) if ax.size > 1 else np.zeros(pts.shape[0], dtype=np.int64)
            idx.append(i0)
            frac.append(t - i0)
        out = np.zeros(pts.shape[0])
        for corner in range(2**d):
            wgt = np.ones(pts.shape[0])
            loc = []
            for i in range(d):
                bit = (corner >> i) & 1
                if self.axes[i].size > 1:
                    loc.append(idx[i] + bit)
                    wgt = wgt * (frac[i] if bit else (1.0 - frac[i]))
                else:
                    loc.append(idx[i])
                    if bit:
                        wgt = wgt * 0.0
            out += wgt * self.values[tuple(loc)]
        return out

    def integrate(self, weight=None):
        v = self.values if weight is None else self.values * weight
        return float(v.sum() * self.h ** len(self.axes))


def _cell_average_axes(kernel, eps, h, d, sub=4):
    """Kernel eta_eps cell-averaged onto a (2m+1,)*d offset stencil."""
    m = int(np.floor(eps / h + 1e-12))
    coarse = np.arange(-m, m + 1) * h
    shift = ((np.arange(sub) + 0.5) / sub - 0.5) * h
    fine = (coarse[:, None] + shift[None, :]).ravel()
    grids = np.meshgrid(*([fine] * d), indexing="ij")
    r = np.sqrt(sum(gg**2 for gg in grids))
    vals = kernel.eta_eps(r, eps)
    newshape = []
    for _ in range(d):
        newshape.extend([coarse.size, sub])
    vals = vals.reshape(newshape)
    for i in range(d):
        vals = vals.mean(axis=2 * i + 1 - i)
    return vals


def repeated_average(density, domain, kernel, eps, x0, k, h):
    """Iterated nonlocal average on a grid
    ======

    Discretizes M_eps phi(x) = int eta_eps(|x-y|) rho_hat(y)^{-1} rho(y)
    phi(y) dy by midpoint quadrature on a cell-centered grid (cells of a
    box domain are never cut, so clipping is exact) and applies it k times
    to phi = eta_eps(.-x0), cell-averaged like the stencil so that the
    discrete operator is exactly symmetric.

    Parameters
    ----------
    density, domain, kernel : models
    eps : float
    x0 : interior point with B(x0, eps) inside the domain
    k : int, number of averaging applications
    h : grid step, h <= eps/8

    Returns
    -------
    GridField
    """
    from scipy.signal import fftconvolve  # deferred: scipy.signal is slow to import

    x0 = np.asarray(x0, dtype=float)
    if h > eps / 8 + 1e-12:
        raise ValueError("grid too coarse: h must be <= eps/8")
    if domain.boundary_distance(x0) < eps:
        raise ValueError("x0 too close to the boundary (need B(x0,eps) inside)")
    d = domain.d
    lo, up = domain.bounding_box()
    m = np.round((up - lo) / h).astype(int)
    if np.max(np.abs((up - lo) - m * h)) > 1e-9 * h:
        raise ValueError("h must divide the box sides")
    axes = [lo[i] + (np.arange(m[i]) + 0.5) * h for i in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    inside = domain.contains(pts).reshape(tuple(m))
    rho = density.evaluate(pts).reshape(tuple(m))
    rho = np.where(inside, rho, 0.0)

    stencil = _cell_average_axes(kernel, eps, h, d) * h**d
    conv = lambda f: fftconvolve(f, stencil, mode="same")
    rho_hat_grid = conv(rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(rho_hat_grid > 0, rho / rho_hat_grid, 0.0)

    # initial field: cell-averaged eta_eps centered at x0
    sub = 4
    fine_axes = []
    for i in range(d):
        shift = ((np.arange(sub) + 0.5) / sub - 0.5) * h
        fine_axes.append((axes[i][:, None] + shift[None, :]).ravel())
    fmesh = np.meshgrid(*fine_axes, indexing="ij")
    r = np.sqrt(sum((gg - x0[i]) ** 2 for i, gg in enumerate(fmesh)))
    phi = kernel.eta_eps(r, eps)
    newshape = []
    for i in range(d):
        newshape.extend([m[i], sub])
    phi = phi.reshape(newshape)
    for i in range(d):
        phi = phi.mean(axis=2 * i + 1 - i)
    phi = np.where(inside, phi, 0.0)

    for _ in range(int(k)):
        phi = conv(c * phi)
        phi = np.where(inside, phi, 0.0)
    return GridField(axes, phi, h)


def _radial_moment(r, v, d):
    """Exact integral of r^{d-1} times the piecewise-linear interpolant of v."""
    r0, r1 = r[:-1], r[1:]
    v0, v1 = v[:-1], v[1:]
    dr, dv = r1 - r0, v1 - v0
    if d == 1:
        seg = v0 + dv / 2
    elif d == 2:
        seg = r0 * (v0 + dv / 2) + dr * (v0 / 2 + dv / 3)
    else:
        seg = (r0**2 * (v0 + dv / 2) + 2 * r0 * dr * (v0 / 2 + dv / 3)
               + dr**2 * (v0 / 3 + dv / 4))
    return float(np.sum(dr * seg))


class RadialKernelTable:
    """Radial samples of a repeated self-convolution psi_k.

    Fields: r (radii), values, d, k, eps, method tag.
    """

    def __init__(self, r, values, d, k, eps, method):
        self.r = np.asarray(r, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.d = d
        self.k = k
        self.eps = eps
        self.method = method

    def evaluate(self, r):
        r = np.asarray(r, dtype=float)
        return np.interp(r, self.r, self.values, right=0.0)

    def mass(self):
        """d-dimensional mass by radial quadrature of the table."""
        return self.d * BALL_VOLUME[self.d] * _radial_moment(self.r, self.values, self.d)

    def tail_mass(self, t):
        """Mass outside radius t, by radial quadrature of the table."""
        if t >= self.r[-1]:
            return 0.0
        after = self.r > t
        rr = np.concatenate([[t], self.r[after]])
        vv = np.concatenate([[float(self.evaluate(t))], self.values[after]])
        return self.d * BALL_VOLUME[self.d] * _radial_moment(rr, vv, self.d)


def _psi_grid(kernel, d, k):
    """psi_k at eps = 1 by binary-exponentiation grid self-convolution."""
    from scipy.signal import fftconvolve  # deferred: scipy.signal is slow to import

    # resolution: resolve the base kernel well and keep the final grid small
    h = min(1.0 / 128, np.sqrt(k) / 256) if d == 2 else min(1.0 / 1024, np.sqrt(k) / 4096)
    base = _cell_average_axes(kernel, 1.0, h, d, sub=8)
    # renormalize the discrete mass exactly; the cell-average is already
    # within O(h^2) so this is a tiny correction
    base = base / (base.sum() * h**d)
    result = None
    power = base
    kk = int(k)
    while kk:
        if kk & 1:
            result = power if result is None else fftconvolve(result, power) * h**d
        kk >>= 1
        if kk:
            power = fftconvolve(power, power) * h**d
    # radial profile by annulus averaging (kills the O(h^2) lattice anisotropy)
    mgrid = (np.array(result.shape) - 1) // 2
    axes = [(np.arange(s) - mm) * h for s, mm in zip(result.shape, mgrid)]
    mesh = np.meshgrid(*axes, indexing="ij")
    rr = np.sqrt(sum(gg**2 for gg in mesh)).ravel()
    vals = result.ravel()
    rmax = float(k)
    nb = int(np.ceil(rmax / h))
    keep = rr <= (nb + 1) * h
    rr, vals = rr[keep], vals[keep]
    bins = np.minimum(np.floor(rr / h + 1e-9).astype(np.int64), nb)
    sums = np.bincount(bins, weights=vals, minlength=nb + 1)
    rsum = np.bincount(bins, weights=rr, minlength=nb + 1)
    cnts = np.bincount(bins, minlength=nb + 1)
    # drop empty annuli; each kept radius is the mean sample radius of its bin
    full = cnts > 0
    return rsum[full] / cnts[full], sums[full] / cnts[full]


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


def psi_table(kernel, d, k, eps, method="auto"):
    """Repeated self-convolution table
    ======

    Builds psi_k at eps = 1 (grid self-convolution for d <= 2, radial
    Fourier representation for d = 3) and rescales to
    psi_{k,eps}(x) = eps^{-d} psi_k(x/eps).

    Parameters
    ----------
    kernel : KernelProfile
    d : int in {1,2,3}
    k : int >= 1
    eps : float
    method : 'auto', 'grid-convolution', or 'radial-fourier'

    Returns
    -------
    RadialKernelTable
    """
    if d not in (1, 2, 3):
        raise ValueError("unsupported dimension %r" % (d,))
    if k < 1:
        raise ValueError("k must be >= 1")
    if kernel.d != d:
        raise ValueError("kernel dimension mismatch")
    if method == "auto":
        method = "grid-convolution" if d <= 2 else "radial-fourier"
    if k == 1:
        # empty convolution product: eta_eps itself
        r = np.linspace(0.0, 1.0, 4097)
        return RadialKernelTable(r * eps, kernel.eta(r) * eps ** (-d), d, k, eps, method)
    if method == "grid-convolution":
        if d == 3:
            raise ValueError("grid convolution is memory-prohibitive in d=3")
        r, vals = _psi_grid(kernel, d, k)
        # the discrete grid mass is exactly one; renormalize the radial view
        # so its own quadrature agrees (a relative adjustment of order h^2)
        vals = vals / (d * BALL_VOLUME[d] * _radial_moment(r, vals, d))
    elif method == "radial-fourier":
        r, vals = _psi_fourier(kernel, d, k)
    else:
        raise ValueError("unknown method %r" % (method,))
    return RadialKernelTable(r * eps, vals * eps ** (-d), d, k, eps, method)


class ScaleConstants:
    """Scale constants for psi_{k,eps}: eps_k, R_k, Theta_dk, phi."""

    def __init__(self, d, k, eps):
        self.d = d
        self.k = k
        self.eps = eps
        self.eps_k = eps * np.sqrt(k)
        self.R_k = 5 * eps + self.eps_k * np.sqrt(8 * d * np.log(k * eps ** (-(d + 2))))
        if d == 1:
            self.Theta_dk = float(np.sqrt(k))
        elif d == 2:
            self.Theta_dk = float(np.log(k + 1))
        else:
            self.Theta_dk = d / (d - 2)

    def phi(self, r):
        """Envelope min(Theta_dk, k exp(-((r-eps)_+)^2 / (8 d eps_k^2))) at distance r."""
        r = np.abs(np.asarray(r, dtype=float))
        excess = np.maximum(r - self.eps, 0.0)
        return np.minimum(self.Theta_dk, self.k * np.exp(-excess**2 / (8 * self.d * self.eps_k**2)))


def scale_constants(d, k, eps):
    """Evaluate the scale constants, checking the scaling assumption
    0 < eps <= 1/2 and eps_k = eps sqrt(k) <= 1."""
    if d not in (1, 2, 3):
        raise ValueError("unsupported dimension %r" % (d,))
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 < eps <= 0.5:
        raise ValueError("eps must satisfy 0 < eps <= 1/2")
    if eps * np.sqrt(k) > 1.0 + 1e-12:
        raise ValueError("eps_k = eps sqrt(k) must be <= 1")
    return ScaleConstants(d, k, eps)
