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
from scipy import sparse

from .geometry import Box, _cell_grid
from .graph_core import _write_columns
from .heat_kernel import GridField
from .poisson_solver import SourceSpec, _gauged_cg


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
        # per axis: harmonic mean of rho^2 on each interior face, and the
        # slices of the cells below and above those faces
        self._faces = []
        d = domain.d
        for i in range(d):
            lo_sl = tuple(slice(0, -1) if j == i else slice(None) for j in range(d))
            hi_sl = tuple(slice(1, None) if j == i else slice(None) for j in range(d))
            a, b = self.rho2[lo_sl], self.rho2[hi_sl]
            self._faces.append((2.0 * a * b / (a + b), lo_sl, hi_sl))

    @property
    def d(self):
        return self.domain.d

    @property
    def n_cells(self):
        return int(np.prod(self.shape))

    def apply(self, u):
        """Stencil application: (A u)_c = h^{-2} sum_faces a_f (u_c - u_nb)."""
        out = np.zeros_like(u)
        for a, lo_sl, hi_sl in self._faces:
            flux = a * (u[lo_sl] - u[hi_sl])
            out[lo_sl] += flux
            out[hi_sl] -= flux
        return out / self.h**2

    def stencil_diagonal(self):
        diag = np.zeros(self.shape)
        for a, lo_sl, hi_sl in self._faces:
            diag[lo_sl] += a
            diag[hi_sl] += a
        return diag / self.h**2

    def operator_matrix(self):
        """Sparse assembly of the stencil, for small-grid checks."""
        idx = np.arange(self.n_cells).reshape(self.shape)
        rows, cols, vals = [], [], []
        for a, lo_sl, hi_sl in self._faces:
            lo_i, hi_i = idx[lo_sl].ravel(), idx[hi_sl].ravel()
            af = a.ravel() / self.h**2
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
        Relative residual target.

    Returns
    -------
    GridFunction
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    hd = grid.h**grid.d
    if isinstance(f, SourceSpec):
        b = _deposit(grid, f)
    else:
        b = np.asarray(f.values, dtype=float).reshape(grid.shape)
    total = b.sum() * hd
    if abs(total) > 1e-10 * max(1.0, np.abs(b).sum() * hd):
        raise ValueError("incompatible source: cell-volume integral %g is not zero" % total)
    b = b.ravel()
    if np.linalg.norm(b) == 0.0:
        return GridFunction(grid, np.zeros(grid.shape))
    shape = grid.shape
    x, _, _ = _gauged_cg(lambda v: grid.apply(v.reshape(shape)).ravel(), b,
                         grid.stencil_diagonal().ravel(), grid.rho2.ravel() * hd, tol,
                         200 * int(np.sum(shape)))
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
