import os
import warnings

import numpy as np
import pytest
from scipy import sparse

from rgglearn.continuum_ref import (GridFunction, build_grid, greens_function,
                                    interpolate_at, save_grid_solution,
                                    solve_weighted_poisson)
from rgglearn.geometry import Box, Disk, make_density
from rgglearn.poisson_solver import SourceSpec


class ExpDensity:
    # rho = e^{x/2}, so the operator weight rho^2 is e^x
    def evaluate(self, pts):
        return np.exp(np.asarray(pts)[:, 0] / 2)


def test_build_grid_validation():
    box = Box([0, 0], [1, 1])
    rho = make_density("constant", box)
    with pytest.raises(ValueError):
        build_grid(box, 0.3, rho)
    with pytest.raises(TypeError):
        build_grid(Disk([0, 0], 1.0), 0.1, make_density("constant", Disk([0, 0], 1.0)))
    g = build_grid(box, 0.25, rho)
    assert g.shape == (4, 4)


def test_constant_rho_hand_stencil():
    # on [0,2] the normalized constant density is 1/2, so rho^2 = 1/4 and
    # with h = 1/2 the matrix is exactly the unit Neumann second difference
    box = Box([0.0], [2.0])
    rho = make_density("constant", box)
    g = build_grid(box, 0.5, rho)
    A = g.operator_matrix().toarray()
    want = np.array([[1.0, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 1]])
    assert np.max(np.abs(A - want)) < 1e-14


def test_row_sums_and_symmetry():
    box = Box([0, 0], [1, 1])
    rho = make_density("bump", box)
    g = build_grid(box, 1.0 / 16, rho)
    A = g.operator_matrix().toarray()
    scale = np.abs(A).max()
    assert np.max(np.abs(A.sum(axis=1))) < 1e-12 * scale
    assert np.max(np.abs(A - A.T)) < 1e-12 * scale
    rng = np.random.default_rng(0)
    u = rng.normal(size=g.n_cells)
    v = rng.normal(size=g.n_cells)
    au = g.apply(u.reshape(g.shape)).ravel()
    av = g.apply(v.reshape(g.shape)).ravel()
    assert abs(au @ v - u @ av) < 1e-12 * max(1.0, abs(au @ v))
    # matrix assembly agrees with the stencil application
    assert np.max(np.abs(A @ u - au)) < 1e-12 * max(1.0, np.abs(au).max())


def _sliced_faces(grid):
    # the per-axis 2-D slicing stencil that the flat face vectors replaced,
    # kept as the reference for bitwise equality
    faces = []
    for i in range(grid.d):
        lo_sl = tuple(slice(0, -1) if j == i else slice(None) for j in range(grid.d))
        hi_sl = tuple(slice(1, None) if j == i else slice(None) for j in range(grid.d))
        a, b = grid.rho2[lo_sl], grid.rho2[hi_sl]
        faces.append((2.0 * a * b / (a + b), lo_sl, hi_sl))
    return faces


def sliced_apply(grid, u):
    out = np.zeros_like(u)
    for a, lo_sl, hi_sl in _sliced_faces(grid):
        flux = a * (u[lo_sl] - u[hi_sl])
        out[lo_sl] += flux
        out[hi_sl] -= flux
    return out / grid.h**2


def sliced_stencil_diagonal(grid):
    diag = np.zeros(grid.shape)
    for a, lo_sl, hi_sl in _sliced_faces(grid):
        diag[lo_sl] += a
        diag[hi_sl] += a
    return diag / grid.h**2


def sliced_operator_matrix(grid):
    idx = np.arange(grid.n_cells).reshape(grid.shape)
    rows, cols, vals = [], [], []
    for a, lo_sl, hi_sl in _sliced_faces(grid):
        lo_i, hi_i = idx[lo_sl].ravel(), idx[hi_sl].ravel()
        af = a.ravel() / grid.h**2
        rows.extend([lo_i, hi_i, lo_i, hi_i])
        cols.extend([lo_i, hi_i, hi_i, lo_i])
        vals.extend([af, af, -af, -af])
    mat = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n_cells, grid.n_cells))
    return mat.tocsr()


@pytest.mark.parametrize("density", ["constant", "affine", "bump"])
@pytest.mark.parametrize("shape", [(7,), (5, 9), (3, 4, 6)])
def test_flat_stencil_is_bitwise_the_sliced_stencil(shape, density):
    h = 0.1
    box = Box([0.0] * len(shape), [m * h for m in shape])
    grid = build_grid(box, h, make_density(density, box))
    assert grid.shape == shape
    rng = np.random.default_rng(len(shape))
    u = rng.normal(size=shape)
    u[rng.random(shape) < 0.25] = 0.0
    u[rng.random(shape) < 0.25] = -0.0
    signed_zeros = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    for v in (u, -u, signed_zeros, -signed_zeros, np.ones(shape)):
        before = v.tobytes()
        out = grid.apply(v)
        assert out.shape == shape and not np.shares_memory(out, v)
        assert out.tobytes() == sliced_apply(grid, v).tobytes()
        assert v.tobytes() == before
    assert grid.stencil_diagonal().tobytes() == sliced_stencil_diagonal(grid).tobytes()
    A, B = grid.operator_matrix(), sliced_operator_matrix(grid)
    for attr in ("data", "indices", "indptr"):
        assert getattr(A, attr).tobytes() == getattr(B, attr).tobytes()


@pytest.mark.parametrize("lo, up, h, density, calls", [
    ([0, 0], [1, 1], 1 / 32, "bump", 153),
    ([0], [1], 1 / 64, "affine", 65),
], ids=["32x32-bump", "d1-affine"])
def test_apply_calls_per_solve_are_pinned(lo, up, h, density, calls):
    # perfbench's traced reference-fd check compares the apply calls per
    # solve exactly; a change that moves a single CG iterate shifts these
    # counts and fails here first
    box = Box(lo, up)
    grid = build_grid(box, h, make_density(density, box))
    counted = []
    apply = grid.apply
    grid.apply = lambda u: counted.append(1) or apply(u)
    d = len(lo)
    s = SourceSpec([[0.3] * d, [0.7] + [0.4] * (d - 1)], [1.0, -1.0])
    solve_weighted_poisson(grid, s)
    assert len(counted) == calls


def test_solves_leave_inputs_untouched():
    box = Box([0, 0], [1, 1])
    grid = build_grid(box, 1.0 / 16, make_density("affine", box))
    rng = np.random.default_rng(3)
    f = rng.normal(size=grid.shape)
    f -= f.mean()
    rhs = GridFunction(grid, f)
    probe = rng.normal(size=grid.shape)

    def snapshot():
        return [a.tobytes() for a in (rhs.values, grid.rho2, grid.rho,
                                      grid.stencil_diagonal(), grid.apply(probe))]

    state = snapshot()
    u = solve_weighted_poisson(grid, rhs)
    assert not np.shares_memory(u.values, rhs.values)
    y = np.array([0.4, 0.6])
    G = greens_function(grid, y)
    assert not np.shares_memory(G.values, u.values)
    assert y.tobytes() == np.array([0.4, 0.6]).tobytes()
    assert snapshot() == state


def test_zero_source():
    box = Box([0, 0], [1, 1])
    g = build_grid(box, 0.125, make_density("constant", box))
    u = solve_weighted_poisson(g, GridFunction(g, np.zeros(g.shape)))
    assert np.all(u.values == 0.0)


def exact_g(x, y):
    return (x**2 + y**2) / 2 - np.maximum(x, y) + 1.0 / 3.0


def test_d1_green_matches_closed_form():
    box = Box([0.0], [1.0])
    rho = make_density("constant", box)
    errs = []
    for m in (129, 257):
        g = build_grid(box, 1.0 / m, rho)
        G = greens_function(g, [0.5], tol=1e-12)
        x = g.axes[0]
        want = exact_g(x, 0.5)
        # the discrete and continuum gauges differ by O(h^2); align them
        diff = (G.values - G.values.mean()) - (want - want.mean())
        assert np.max(np.abs(diff)) < 1e-10
        errs.append(abs(G.values[(m - 1) // 2] - 1.0 / 12.0))
    assert errs[0] < 1e-5
    assert errs[1] < errs[0] / 3


def test_negated_source():
    box = Box([0, 0], [1, 1])
    g = build_grid(box, 1.0 / 32, make_density("constant", box))
    s = SourceSpec(np.array([[0.3, 0.4], [0.7, 0.6]]), np.array([1.0, -1.0]))
    sneg = SourceSpec(np.array([[0.3, 0.4], [0.7, 0.6]]), np.array([-1.0, 1.0]))
    u = solve_weighted_poisson(g, s, tol=1e-11)
    un = solve_weighted_poisson(g, sneg, tol=1e-11)
    assert np.max(np.abs(u.values + un.values)) < 1e-10 * np.max(np.abs(u.values))


def test_greens_gauge_reciprocity_superposition():
    box = Box([0, 0], [1, 1])
    rho = make_density("bump", box)
    g = build_grid(box, 1.0 / 48, rho)
    tol = 1e-11
    Gx = greens_function(g, [0.3, 0.4], tol=tol)
    Gy = greens_function(g, [0.7, 0.6], tol=tol)
    h2 = g.h**2
    assert abs((Gx.values * g.rho2).sum() * h2) < 1e-10
    assert abs((Gy.values * g.rho2).sum() * h2) < 1e-10
    ix, iy = g.cell_of([0.3, 0.4]), g.cell_of([0.7, 0.6])
    assert abs(Gx.values[iy] - Gy.values[ix]) < 5 * tol
    s = SourceSpec(np.array([[0.3, 0.4], [0.7, 0.6]]), np.array([1.0, -1.0]))
    us = solve_weighted_poisson(g, s, tol=tol)
    assert np.max(np.abs(us.values - (Gx.values - Gy.values))) < 1e-8


@pytest.mark.parametrize("bad, tol, match", [
    ((np.nan, 0.0), 1e-10, "non-finite"),
    ((np.inf, 0.0), 1e-10, "non-finite"),
    ((np.inf, -np.inf), 1e-10, "non-finite"),
    ((0.0, 0.0), 0.0, "tol must be positive"),
], ids=["nan-source", "inf-source", "opposite-infinities", "zero-tol"])
def test_broken_inputs_fail_before_any_apply(bad, tol, match):
    # a nan source used to run all 200 * 64 CG iterations at h = 1/32, an
    # infinite one returned u = 0 after a first apply, and inf + (-inf) in
    # the compatibility sum printed numpy's "invalid value" warning first
    box = Box([0, 0], [1, 1])
    grid = build_grid(box, 1.0 / 32, make_density("constant", box))
    counted = []
    apply = grid.apply
    grid.apply = lambda u: counted.append(1) or apply(u)
    f = np.zeros(grid.shape)
    f[3, 4], f[9, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            solve_weighted_poisson(grid, GridFunction(grid, f), tol=tol)
    assert counted == []


def test_incompatible_source_rejected():
    box = Box([0, 0], [1, 1])
    g = build_grid(box, 0.125, make_density("constant", box))
    with pytest.raises(ValueError):
        solve_weighted_poisson(g, GridFunction(g, np.ones(g.shape)))


def test_anchor_outside_rejected():
    box = Box([0, 0], [1, 1])
    g = build_grid(box, 0.125, make_density("constant", box))
    s = SourceSpec(np.array([[1.5, 0.5], [0.5, 0.5]]), np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        solve_weighted_poisson(g, s)
    with pytest.raises(ValueError):
        greens_function(g, [2.0, 0.0])


def test_manufactured_variable_rho_convergence():
    # rho^2 = e^x, u = cos(pi x):  f = pi e^x sin(pi x) + pi^2 e^x cos(pi x)
    box = Box([0.0], [1.0])
    errs = []
    for m in (64, 128):
        g = build_grid(box, 1.0 / m, ExpDensity())
        x = g.axes[0]
        f = np.pi * np.exp(x) * np.sin(np.pi * x) + np.pi**2 * np.exp(x) * np.cos(np.pi * x)
        f = f - f.sum() / m  # discrete compatibility; the analytic integral is 0
        u = solve_weighted_poisson(g, GridFunction(g, f), tol=1e-12)
        want = np.cos(np.pi * x)
        want = want - (want * g.rho2).sum() / g.rho2.sum()
        errs.append(np.abs(u.values - want).sum() / m)
    assert errs[1] < 5e-5
    assert np.log2(errs[0] / errs[1]) > 1.8


def test_smooth_source_grid_convergence():
    # constant rho, u = cos(pi x) cos(2 pi y), f = 5 pi^2 u
    box = Box([0, 0], [1, 1])
    rho = make_density("constant", box)
    errs = []
    for m in (32, 64):
        g = build_grid(box, 1.0 / m, rho)
        mesh = np.meshgrid(*g.axes, indexing="ij")
        want = np.cos(np.pi * mesh[0]) * np.cos(2 * np.pi * mesh[1])
        f = 5 * np.pi**2 * want
        u = solve_weighted_poisson(g, GridFunction(g, f), tol=1e-12)
        shift = want - (want * g.rho2).sum() / g.rho2.sum()
        errs.append(np.abs(u.values - shift).sum() * g.h**2)
    assert np.log2(errs[0] / errs[1]) > 1.8


def radial_bump_source(grid, y, radius, coeff):
    mesh = np.meshgrid(*grid.axes, indexing="ij")
    r2 = sum((mm - yy) ** 2 for mm, yy in zip(mesh, y)) / radius**2
    q = np.maximum(0.0, 1.0 - r2) ** 2
    q /= q.sum() * grid.h**grid.d
    return coeff * q


def snap_to_center(grid, x):
    return tuple(grid.axes[i][grid.cell_of(x)[i]] for i in range(grid.d))


def test_mollified_source_quadratic_rate():
    # replacing each atom by a radius-r bump perturbs the solution by O(r^2);
    # anchors sit at cell centers so the deposit offset does not pollute the rate
    box = Box([0, 0], [1, 1])
    rho = make_density("constant", box)
    g = build_grid(box, 1.0 / 128, rho)
    y1 = snap_to_center(g, (0.3, 0.5))
    y2 = snap_to_center(g, (0.7, 0.5))
    s = SourceSpec(np.array([y1, y2]), np.array([1.0, -1.0]))
    u_atom = solve_weighted_poisson(g, s, tol=1e-11)
    radii = (0.04, 0.08, 0.16)
    gaps = []
    for r in radii:
        f = radial_bump_source(g, y1, r, 1.0) + radial_bump_source(g, y2, r, -1.0)
        u_b = solve_weighted_poisson(g, GridFunction(g, f), tol=1e-11)
        gaps.append(np.abs(u_b.values - u_atom.values).sum() * g.h**2)
    slope = np.polyfit(np.log(radii), np.log(gaps), 1)[0]
    assert 1.5 < slope < 2.6


def test_interpolation():
    box = Box([0, 0], [1, 1])
    rho = make_density("constant", box)
    g = build_grid(box, 1.0 / 32, rho)
    mesh = np.meshgrid(*g.axes, indexing="ij")
    u = GridFunction(g, 2.0 * mesh[0] - 0.5 * mesh[1])
    centers = np.array([[g.axes[0][3], g.axes[1][7]], [g.axes[0][20], g.axes[1][0]]])
    got = interpolate_at(u, centers)
    assert np.max(np.abs(got - (2.0 * centers[:, 0] - 0.5 * centers[:, 1]))) < 1e-13
    pts = np.array([[0.37, 0.52], [0.11, 0.93]])
    assert np.max(np.abs(interpolate_at(u, pts) - (2 * pts[:, 0] - 0.5 * pts[:, 1]))) < 1e-13
    with pytest.raises(ValueError):
        interpolate_at(u, np.array([[1.2, 0.5]]))


def test_interpolation_order():
    box = Box([0, 0], [1, 1])
    rho = make_density("constant", box)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.1, 0.9, size=(50, 2))
    want = np.cos(np.pi * pts[:, 0]) * np.cos(2 * np.pi * pts[:, 1])
    errs = []
    for m in (32, 64):
        g = build_grid(box, 1.0 / m, rho)
        mesh = np.meshgrid(*g.axes, indexing="ij")
        u = GridFunction(g, np.cos(np.pi * mesh[0]) * np.cos(2 * np.pi * mesh[1]))
        errs.append(np.max(np.abs(interpolate_at(u, pts) - want)))
    assert np.log2(errs[0] / errs[1]) > 1.8


def test_export_csv(tmp_path):
    box = Box([0, 0], [1, 1])
    g = build_grid(box, 0.25, make_density("constant", box))
    vals = np.arange(16.0).reshape(4, 4)
    path = os.path.join(tmp_path, "u.csv")
    save_grid_solution(path, GridFunction(g, vals))
    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "i0,i1,x0,x1,u"
    assert len(lines) == 17
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert abs(float(first[2]) - 0.125) < 1e-15
    assert float(first[4]) == 0.0
    last = lines[-1].split(",")
    assert last[0] == "3" and last[1] == "3" and float(last[4]) == 15.0


@pytest.mark.parametrize("count", [15, 17])
def test_grid_function_needs_one_value_per_cell(count):
    box = Box([0, 0], [1, 1])
    grid = build_grid(box, 0.25, make_density("constant", box))
    with pytest.raises(ValueError, match="value count does not match the grid"):
        GridFunction(grid, np.zeros(count))
