"""Finite-difference reference solver for the weighted continuum Poisson
problem -div(rho^2 grad u) = f on a box with zero-flux boundary.

The discretization is flux-form on a cell-centered grid: each interior
face carries the harmonic mean of rho^2 from its two cells, boundary
faces carry no flux.  The resulting operator is symmetric, conserves
mass exactly, and has only constants in its kernel, so the solver fixes
the gauge int rho^2 u = 0.  Atomic sources are deposited on their
containing cell with value a / h^d.  Green's functions use the source
delta_y - rho^2 / int rho^2.
"""

import numpy as np

from .geometry import Box, _cell_grid
from .graph_core import _write_columns
from .heat_kernel import GridField
from .poisson_solver import SourceSpec, _gauged_cg, _jacobi


class ReferenceGrid:
    """Cell-centered grid with the assembled weighted-Laplacian stencil."""

    def __init__(self, domain, h, density):
        if not isinstance(domain, Box):
            raise TypeError("the reference solver requires a box domain")
        self.domain = domain
        self.h = float(h)
        self.density = density
        self.shape, self.axes, pts = _cell_grid(domain, self.h)
        self.rho = density.evaluate(pts).reshape(self.shape)
        self.rho2 = self.rho**2
        # per axis i, over the C-ordered cell vector: the harmonic mean of
        # rho^2 on the face between cells c and c + stride_i, for every c <
        # n_cells - stride_i, and zero where that pair wraps across the end
        # of axis i (there is no face there)
        r2 = self.rho2.ravel()
        self._faces = []
        for i in range(domain.d):
            s, inner = _axis_pairs(self.shape, i)
            lo, hi = r2[:-s][inner], r2[s:][inner]
            a = np.zeros(r2.size - s)
            a[inner] = 2.0 * lo * hi / (lo + hi)
            self._faces.append((s, a))

    @property
    def d(self):
        return self.domain.d

    @property
    def n_cells(self):
        return int(np.prod(self.shape))

    def apply(self, u):
        """Stencil application: (A u)_c = h^{-2} sum_faces a_f (u_c - u_nb).

        Each axis is four contiguous 1-D passes over the flat cell vector.
        A wrap pair has a = 0, so for finite u it adds a signed zero to out,
        and that changes nothing.  In round-to-nearest x + y is -0.0 only
        when x and y both are, and x - y only when x is -0.0 and y is +0.0;
        so out, which starts at +0.0, never becomes -0.0, and adding or
        subtracting a signed zero leaves every other value as it is.  The
        result is bitwise that of the sum over the faces alone.
        """
        v = u.ravel()
        out = np.zeros_like(v)
        flux = np.empty(v.size - 1)
        for s, a in self._faces:
            f = np.subtract(v[:-s], v[s:], out=flux[:v.size - s])
            f *= a
            out[:-s] += f
            out[s:] -= f
        out /= self.h**2
        return out.reshape(u.shape)

    def stencil_diagonal(self):
        diag = np.zeros(self.n_cells)
        for s, a in self._faces:
            diag[:-s] += a
            diag[s:] += a
        diag /= self.h**2
        return diag.reshape(self.shape)

    def operator_matrix(self):
        """Sparse assembly of the stencil, for small-grid checks."""
        import scipy.sparse as sparse  # deferred: scipy.sparse is slow to import

        rows, cols, vals = [], [], []
        for i, (s, a) in enumerate(self._faces):
            lo_i = np.flatnonzero(_axis_pairs(self.shape, i)[1])
            hi_i = lo_i + s
            af = a[lo_i] / self.h**2
            rows.extend([lo_i, hi_i, lo_i, hi_i])
            cols.extend([lo_i, hi_i, hi_i, lo_i])
            vals.extend([af, af, -af, -af])
        mat = sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n_cells, self.n_cells))
        return mat.tocsr()

    def cell_of(self, x):
        """Index tuple of the cell containing x."""
        lo, up = self.domain.bounding_box()
        x = np.asarray(x, dtype=float)
        ij = np.floor((x - lo) / self.h).astype(int)
        ij = np.minimum(np.maximum(ij, 0), np.array(self.shape) - 1)
        return tuple(int(v) for v in ij)

    def func(self, values):
        return GridFunction(self, values)


class GridFunction(GridField):
    """Cell-centered values bound to a reference grid."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.size != grid.n_cells:
            raise ValueError("value count does not match the grid")
        super().__init__(grid.axes, values.reshape(grid.shape), grid.h)
        self.grid = grid

    def __len__(self):
        return self.grid.n_cells


def _axis_pairs(shape, i):
    """Stride s of axis i in a C-ordered grid, and the mask over the cells
    c < n_cells - s that is true where the pair (c, c + s) shares a face and
    false where it wraps across the end of axis i."""
    s = int(np.prod(shape[i + 1:]))
    inner = np.ones(shape, dtype=bool)
    inner[(slice(None),) * i + (-1,)] = False
    return s, inner.ravel()[:-s]


def build_grid(domain, h, density):
    """Assemble the flux-form reference grid
    ======

    Parameters
    ----------
    domain : Box
    h : float
        Must divide each box side.
    density : DensityModel

    Returns
    -------
    ReferenceGrid
    """
    return ReferenceGrid(domain, h, density)


def _deposit(grid, s):
    b = np.zeros(grid.shape)
    for x, a in zip(s.anchors, s.coefficients):
        if not grid.domain.contains(np.asarray(x, dtype=float)):
            raise ValueError("source anchor outside the domain")
        b[grid.cell_of(x)] += a / grid.h**grid.d
    return b


def solve_weighted_poisson(grid, f, tol=1e-10):
    """Solve -div(rho^2 grad u) = f with zero-flux boundary
    ======

    Accepts a GridFunction right-hand side or a SourceSpec whose atoms are
    deposited on their containing cells with value a / h^d.  The solution
    is gauged to int rho^2 u = 0.

    Parameters
    ----------
    grid : ReferenceGrid
    f : GridFunction or SourceSpec
    tol : float
        Relative residual target; must be positive.

    Returns
    -------
    GridFunction
    """
    hd = grid.h**grid.d
    if isinstance(f, SourceSpec):
        b = _deposit(grid, f)
    else:
        b = np.asarray(f.values, dtype=float).reshape(grid.shape)
    # a non-finite b sums to inf or NaN, which passes this check quietly;
    # _gauged_cg then rejects it
    with np.errstate(invalid="ignore"):
        total = b.sum() * hd
    if abs(total) > 1e-10 * max(1.0, np.abs(b).sum() * hd):
        raise ValueError("incompatible source: cell-volume integral %g is not zero" % total)
    x, _ = _gauged_cg(lambda v: grid.apply(v.reshape(grid.shape)).ravel(), b.ravel(),
                      _jacobi(grid.stencil_diagonal().ravel()), grid.rho2.ravel() * hd, tol,
                      200 * int(np.sum(grid.shape)))
    return GridFunction(grid, x)


def greens_function(grid, y, tol=1e-10):
    """Green's function with pole y
    ======

    Solves -div(rho^2 grad G) = delta_y - rho^2 / int rho^2 with the
    gauge int rho^2 G = 0, so that u = sum_x a_x G^x reproduces the
    solve for the atomic source sum_x a_x delta_x.
    """
    y = np.asarray(y, dtype=float)
    if not grid.domain.contains(y):
        raise ValueError("pole outside the domain")
    hd = grid.h**grid.d
    b = np.zeros(grid.shape)
    b[grid.cell_of(y)] = 1.0 / hd
    b -= grid.rho2 / (grid.rho2.sum() * hd)
    return solve_weighted_poisson(grid, GridFunction(grid, b), tol=tol)


def interpolate_at(u, pts):
    """Multilinear interpolation of a grid function at interior points."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    inside = u.grid.domain.contains(pts)
    if not np.all(inside):
        raise ValueError("point outside the domain")
    return u.sample(pts)


def save_grid_solution(path, u):
    """Write a grid solution as CSV with columns i0,...,x0,...,u."""
    grid = u.grid
    d = grid.d
    idx = np.indices(grid.shape).reshape(d, -1)
    mesh = np.meshgrid(*grid.axes, indexing="ij")
    cols = [idx[i] for i in range(d)]
    cols += [mesh[i].ravel() for i in range(d)]
    cols.append(u.values.ravel())
    header = ",".join(["i%d" % i for i in range(d)]
                      + ["x%d" % i for i in range(d)] + ["u"])
    _write_columns(path, header, cols, ["%d"] * d + ["%.17g"] * (d + 1))
