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
support.  psi_k is one Fourier power on a periodic grid in every
dimension: a d-dimensional grid for d <= 2, and for d = 3 one line, by the
radial reduction t psi_k(|t|) (see `psi_table`).
"""

import numpy as np

from .geometry import BALL_VOLUME, _cell_grid, _gauss_legendre
from .graph_core import GraphFunction, LaplacianKind, graph_delta, laplacian_apply
from .poisson_solver import assemble_source

MAX_HEAT_STEPS = 10**6


def _step_count(k, lo=0):
    """int(k); ValueError unless k is a whole number in [lo, MAX_HEAT_STEPS], not a bool."""
    if isinstance(k, (bool, np.bool_)) or not (lo <= k <= MAX_HEAT_STEPS and k == int(k)):
        raise ValueError("step count k must be a whole number in [%d, %d], got %r"
                         % (lo, MAX_HEAT_STEPS, k))
    return int(k)


def _chebyshev_coefficients(k):
    """Coefficients c_0..c_k of x^k = sum_j c_j T_j(x), normalized to sum to 1.

    c_j = 2 P(Bin(k, 1/2) = (k - j)/2) for j > 0 of the parity of k, and
    c_0 = P(Bin(k, 1/2) = k/2); computed in log space, so k up to
    MAX_HEAT_STEPS neither overflows nor underflows to a zero sum.
    """
    from scipy.special import gammaln  # deferred: scipy.special is slow to import

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


def _walk(g, v, k, adjoint):
    """k random-walk steps of v: W D^-1 on columns (adjoint) or D^-1 W on
    functions; ValueError on a zero-degree node, RuntimeError on a
    non-finite result."""
    deg = g.degrees
    if np.any(deg == 0):
        raise ValueError("zero-degree node; random-walk propagation undefined")
    step = (lambda x: g.wmul(x / deg)) if adjoint else (lambda x: g.wmul(x) / deg)
    v = _walk_power(g, step, v, k)
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
    GraphFunction
    """
    k = _step_count(k)
    if np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0):
        return GraphFunction(g, _walk(g, graph_delta(x, g).values, k, adjoint=True))
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
    return GraphFunction(g, _walk(g, g.n * w / deg_x, k - 1, adjoint=True))


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
    k = _step_count(k)
    v = np.array(u.values if isinstance(u, GraphFunction) else u, dtype=float)
    return GraphFunction(g, _walk(g, v, k, adjoint=False))


def smooth_poisson(g, u, s, k):
    """Smoothed Poisson pair
    ======

    Given u solving the graph Poisson problem for s (residual checked to
    1e-8 relative), returns u_k = H_k * u and the smoothed source
    f_k = sum_x a_x H_k^{tau(x)}, which satisfy L u_k = f_k with the
    geometric-scaled Laplacian and (u_k)_deg = (u)_deg.
    """
    k = _step_count(k)
    f = assemble_source(g, s)
    lu = laplacian_apply(u, LaplacianKind.GeometricScaled).values
    fnorm = np.linalg.norm(f.values)
    if np.linalg.norm(lu - f.values) > 1e-8 * max(fnorm, 1e-300):
        raise ValueError("u does not solve the graph Poisson problem for s")
    uk = heat_convolve(g, k, u)
    # f_k = P^k f with P = W D^{-1}, identical to summing columns H_k^{tau(x)}
    fk = _walk(g, f.values.copy(), k, adjoint=True)
    return uk, GraphFunction(g, fk)


def rho_hat(density, domain, kernel, eps, x):
    """Kernel-smoothed density
    ======

    Computes rho_hat_eps(x) = int_Omega eta_eps(|x-y|) rho(y) dy as a
    weighted sum over directions u of the Gauss-Legendre integrals of
    eta_eps(r) rho(x + r u) r^(d-1) over [0, min(eps, t_exit(u))], so each
    ray is clipped exactly at the (convex) domain's boundary.  Directions:
    u = -1, +1 for d = 1; for d = 2, 48-node Gauss-Legendre arcs split at
    domain.arc_breaks(x, eps), the closed-form angles where min(eps, t_exit)
    can kink; for d = 3, 48 Gauss-Legendre nodes in cos(theta) times 96
    azimuths offset by half a step, so none lies in a coordinate plane and
    box faces, edges and corners cut no arc.  Near a side at distance delta
    the d = 2 arcs cannot resolve t_exit = delta / sin(theta): in the unit
    box (constant density, indicator kernel, eps = 0.1, x = (0.5, 1 - delta))
    the relative error is 1.2e-15, 3.5e-6 and 1.3e-4 at delta = 0.01, 1e-3
    and 2e-4.

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
    if not 0 < eps < np.inf:
        raise ValueError("eps must be finite and positive")
    x = np.asarray(x, dtype=float)
    if not domain.contains(x):
        raise ValueError("x is outside the domain")
    d = domain.d
    if d == 1:
        return _clipped_rays(density, domain, kernel, eps, x,
                             np.array([[-1.0], [1.0]]), np.ones(2), 128)
    if d == 2:
        angles = np.unique(np.concatenate([[-np.pi, np.pi], domain.arc_breaks(x, eps)]))
        gn, gw = _gauss_legendre(48)
        total = 0.0
        for a, b in zip(angles[:-1], angles[1:]):
            if b - a < 1e-14:
                continue
            th = 0.5 * (b - a) * gn + 0.5 * (a + b)
            dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
            total += _clipped_rays(density, domain, kernel, eps, x, dirs, 0.5 * (b - a) * gw, 96)
        return total
    un, uw = _gauss_legendre(48)
    az = (np.arange(96) + 0.5) * (2 * np.pi / 96)
    sin_t = np.sqrt(1 - un**2)
    dirs = np.stack([np.outer(sin_t, np.cos(az)).ravel(),
                     np.outer(sin_t, np.sin(az)).ravel(),
                     np.repeat(un, az.size)], axis=1)
    wdir = np.repeat(uw, az.size) * (2 * np.pi / az.size)
    return _clipped_rays(density, domain, kernel, eps, x, dirs, wdir, 64)


def _clipped_rays(density, domain, kernel, eps, x, dirs, wdir, n_r):
    """sum_u wdir_u int_0^{min(eps, t_exit(u))} eta_eps(r) rho(x + r u) r^(d-1) dr,
    each ray integral by n_r-node Gauss-Legendre."""
    d = x.size
    rn, rw = _gauss_legendre(n_r)
    rmax = np.minimum(eps, domain.ray_exit(x, dirs))
    r = 0.5 * rmax[:, None] * (rn[None, :] + 1.0)
    wr = 0.5 * rmax[:, None] * rw[None, :]
    pts = x[None, None, :] + r[:, :, None] * dirs[:, None, :]
    vals = kernel.eta_eps(r, eps) * density.evaluate(pts.reshape(-1, d)).reshape(r.shape)
    return float(wdir @ np.sum(vals * r ** (d - 1) * wr, axis=1))


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
            i0 = np.minimum(t.astype(np.int64), ax.size - 2)
            idx.append(i0)
            frac.append(t - i0)
        out = np.zeros(pts.shape[0])
        for corner in range(2**d):
            wgt = np.ones(pts.shape[0])
            loc = []
            for i in range(d):
                bit = (corner >> i) & 1
                loc.append(idx[i] + bit)
                wgt = wgt * (frac[i] if bit else (1.0 - frac[i]))
            out += wgt * self.values[tuple(loc)]
        return out

    def integrate(self, weight=None):
        v = self.values if weight is None else self.values * weight
        return float(v.sum() * self.h ** len(self.axes))


def _cell_average(kernel, eps, axes, center, h, sub):
    """eta_eps(|y - center|) averaged over sub^d midpoints of each grid cell.

    axes are the cell-center coordinates along each axis (cells of side h);
    returns one value per cell.
    """
    shift = ((np.arange(sub) + 0.5) / sub - 0.5) * h
    fine = [(ax[:, None] + shift[None, :]).ravel() for ax in axes]
    mesh = np.meshgrid(*fine, indexing="ij")
    r = np.sqrt(sum((gg - c) ** 2 for gg, c in zip(mesh, center)))
    # split each fine axis into (cell, midpoint) and average the midpoints
    vals = kernel.eta_eps(r, eps).reshape([s for ax in axes for s in (ax.size, sub)])
    for i in range(len(axes)):
        vals = vals.mean(axis=i + 1)
    return vals


def _cell_average_axes(kernel, eps, h, d, sub=4):
    """Kernel eta_eps cell-averaged onto a (2m+1,)*d offset stencil.

    m is the offset of the cell holding r = eps: rounding keeps the partly
    covered outer cell that floor(eps / h) drops when frac(eps / h) > 1/2,
    as `_psi_line` does.
    """
    m = int(np.floor(eps / h + 0.5))
    coarse = np.arange(-m, m + 1) * h
    return _cell_average(kernel, eps, [coarse] * d, np.zeros(d), h, sub)


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
    from scipy.fft import irfftn, next_fast_len, rfftn  # deferred: scipy.fft is slow to import

    k = _step_count(k)
    x0 = np.asarray(x0, dtype=float)
    if h > eps / 8 + 1e-12:
        raise ValueError("grid too coarse: h must be <= eps/8")
    if domain.boundary_distance(x0) < eps:
        raise ValueError("x0 too close to the boundary (need B(x0,eps) inside)")
    shape, axes, pts = _cell_grid(domain, h)
    inside = domain.contains(pts).reshape(shape)
    rho = density.evaluate(pts).reshape(shape)
    rho = np.where(inside, rho, 0.0)

    stencil = _cell_average_axes(kernel, eps, h, domain.d) * h**domain.d
    # zero-padded linear convolution, cropped to the grid: the FFT sizes and
    # crop of fftconvolve(f, stencil, mode="same"), with the stencil's
    # transform taken once
    m = (stencil.shape[0] - 1) // 2
    fshape = [next_fast_len(s + 2 * m, real=True) for s in shape]
    spec = rfftn(stencil, fshape)
    crop = tuple(slice(m, m + s) for s in shape)
    conv = lambda f: irfftn(rfftn(f, fshape) * spec, fshape)[crop]
    rho_hat_grid = conv(rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(rho_hat_grid > 0, rho / rho_hat_grid, 0.0)

    # initial field: cell-averaged eta_eps centered at x0, evaluated only on
    # the cells whose centre lies within eps + h of x0 along every axis
    # (each cell's sub-cell midpoints lie within 3h/8 of its centre)
    near = tuple(slice(np.searchsorted(ax, a - eps - h), np.searchsorted(ax, a + eps + h, "right"))
                 for ax, a in zip(axes, x0))
    phi = np.zeros(shape)
    phi[near] = np.where(inside[near], _cell_average(
        kernel, eps, [ax[sl] for ax, sl in zip(axes, near)], x0, h, 4), 0.0)

    for _ in range(k):
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

    Fields: r (radii), values, d, k, eps.
    """

    def __init__(self, r, values, d, k, eps):
        self.r = np.asarray(r, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.d = d
        self.k = k
        self.eps = eps

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
    """psi_k at eps = 1 as the k-th Fourier power of the cell-averaged kernel
    on a periodic grid of half-period nb + m cells (see `psi_table`)."""
    from scipy.fft import irfftn, next_fast_len, rfftn  # deferred: scipy.fft is slow to import

    # resolution: resolve the base kernel well and keep the final grid small
    h = min(1.0 / 128, np.sqrt(k) / 256) if d == 2 else min(1.0 / 1024, np.sqrt(k) / 4096)
    # beyond nb h the Gaussian tail of psi_k holds mass below 1e-16, so the
    # wrap-around stays at rounding level
    nb = int(np.ceil(min(k, 8.5 * np.sqrt(k / (d + 2))) / h))
    if d == 3:
        return _psi_line(kernel, k, h, nb)
    base = _cell_average_axes(kernel, 1.0, h, d, sub=8)
    # unit sum before the power: an h^d-scaled spectrum would overflow at DC
    base = base / base.sum()
    m = (base.shape[0] - 1) // 2
    size = next_fast_len(2 * (nb + m) + 1, real=True)
    grid = np.zeros((size,) * d)
    grid[np.ix_(*[np.arange(-m, m + 1) % size] * d)] = base
    spec = rfftn(grid)
    spec **= k
    psi = irfftn(spec, grid.shape, overwrite_x=True) / h**d
    del grid, spec  # room for the radial pass
    # radial profile by annulus averaging (kills the O(h^2) lattice anisotropy)
    offset = ((np.arange(size) + size // 2) % size - size // 2) * h
    mesh = np.meshgrid(*[offset] * d, indexing="ij", sparse=True)
    rr = np.sqrt(sum(gg**2 for gg in mesh)).ravel()
    keep = rr <= (nb + 1) * h
    rr, vals = rr[keep], psi.ravel()[keep]
    bins = np.minimum(np.floor(rr / h + 1e-9).astype(np.int64), nb)
    sums = np.bincount(bins, weights=vals, minlength=nb + 1)
    rsum = np.bincount(bins, weights=rr, minlength=nb + 1)
    cnts = np.bincount(bins, minlength=nb + 1)
    # drop empty annuli; each kept radius is the mean sample radius of its bin
    full = cnts > 0
    return rsum[full] / cnts[full], sums[full] / cnts[full]


def _psi_line(kernel, k, h, nb):
    """d = 3 branch of `_psi_grid`, by the radial reduction to one line.

    For radial f on R^3 the odd line function F(t) = t f(|t|) has the
    transform Fhat(s) = -i s fhat(s).  So t psi_k(|t|) is the inverse line
    transform of -i s (i Fhat_eta(s) / s)^k, where F_eta(t) = t eta(|t|) and
    the s = 0 factor is the unit mass.
    """
    from scipy.fft import irfftn, next_fast_len, rfftn  # deferred: scipy.fft is slow to import

    # cells up to the one holding r = 1: rounding keeps the partly covered
    # outer cell that floor(1 / h) drops when frac(1 / h) > 1/2
    m = int(np.floor(1.0 / h + 0.5))
    j = np.arange(-m, m + 1)
    shift = ((np.arange(8) + 0.5) / 8 - 0.5) * h
    t = j[:, None] * h + shift[None, :]
    base = (t * kernel.eta(np.abs(t))).mean(axis=1)
    # sum_j j base_j = 1 makes the transformed power 1 at s = 0 and at most
    # 1 in modulus elsewhere (t eta(|t|) >= 0 for t > 0); as the unit mass
    # gives int t^2 eta(|t|) dt = 1 / (2 pi), this scales by about 2 pi h^2
    base /= j @ base
    size = next_fast_len(2 * (nb + m) + 1, real=True)
    line = np.zeros(size)
    line[j % size] = base
    spec = rfftn(line)
    s = 2 * np.pi * np.arange(spec.size) / size  # angular frequency per cell
    spec[1:] *= 1j / s[1:]
    spec[0] = 1.0
    spec **= k
    spec *= -1j * s
    tpsi = irfftn(spec, line.shape, overwrite_x=True)[:nb + 1] / (2 * np.pi * h**2)
    r = np.arange(nb + 1) * h
    psi = np.empty(nb + 1)
    psi[1:] = tpsi[1:] / r[1:]
    # psi_k is even in r: extrapolate r = 0 from r = h and 2h
    psi[0] = (4 * psi[1] - psi[2]) / 3
    return r, psi


def psi_table(kernel, d, k, eps):
    """Repeated self-convolution table
    ======

    Builds psi_k at eps = 1 as one Fourier power on a periodic grid, with
    the table ending at min(k, 8.5 sqrt(k / (d + 2))), and rescales to
    psi_{k,eps}(x) = eps^{-d} psi_k(x/eps).  For d <= 2 the grid is
    d-dimensional and the radial profile comes from annulus averages.  For
    d = 3 the radial reduction puts the whole power on one line: t psi_k(|t|)
    is the odd line function whose transform is -i s psihat_k(s), so one
    rfft of the cell-averaged t eta(|t|), its transformed k-th power and one
    irfft give psi_k in about 0.01 s for k = 64, where a 3-d grid of the
    same step would hold about 3e14 cells.  Either way the table is
    renormalized to unit radial mass.

    Parameters
    ----------
    kernel : KernelProfile
    d : int in {1,2,3}
    k : int >= 1
    eps : float > 0

    Returns
    -------
    RadialKernelTable
    """
    if d not in (1, 2, 3):
        raise ValueError("unsupported dimension %r" % (d,))
    k = _step_count(k, 1)
    if not 0 < eps < np.inf:
        raise ValueError("eps must be finite and positive")
    if kernel.d != d:
        raise ValueError("kernel dimension mismatch")
    if k == 1:
        # empty convolution product: eta_eps itself
        r = np.linspace(0.0, 1.0, 4097)
        return RadialKernelTable(r * eps, kernel.eta(r) * eps ** (-d), d, k, eps)
    r, vals = _psi_grid(kernel, d, k)
    # the grid's spectrum is exactly one at zero frequency; renormalize the
    # radial view so its own quadrature agrees (a relative adjustment of
    # order h^2)
    vals = vals / (d * BALL_VOLUME[d] * _radial_moment(r, vals, d))
    return RadialKernelTable(r * eps, vals * eps ** (-d), d, k, eps)


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
    k = _step_count(k, 1)
    if not 0 < eps <= 0.5:
        raise ValueError("eps must satisfy 0 < eps <= 1/2")
    if eps * np.sqrt(k) > 1.0 + 1e-12:
        raise ValueError("eps_k = eps sqrt(k) must be <= 1")
    return ScaleConstants(d, k, eps)
