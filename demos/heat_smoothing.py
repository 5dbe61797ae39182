"""Random-walk heat kernel on a graph: mass conservation, smoothing of a
Poisson solution, and the Gaussian tail of the continuum surrogate psi."""

import math

import numpy as np

from rgglearn import (
    Box,
    LaplacianKind,
    SourceSpec,
    build_graph,
    closest_point,
    heat_column,
    heat_convolve,
    laplacian_apply,
    make_density,
    make_kernel,
    psi_table,
    sample_points,
    scale_constants,
    smooth_poisson,
    solve_graph_poisson,
)

box = Box([0, 0], [1, 1])
rho = make_density("constant", box)
pts = sample_points(box, rho, 2000, seed=11)
g = build_graph(pts, 0.12, make_kernel("indicator", 2))

# columns keep unit mass under the (1/n) sum for any number of steps
x = closest_point(np.array([0.5, 0.5]), g)
for k in (1, 10, 100, 1000):
    col = heat_column(g, x, k).values
    print("k = %4d   mass defect %.2e   max %8.3f"
          % (k, abs(np.mean(col) - 1), col.max()))

# smoothing a Poisson solution keeps it a Poisson solution (smoothed source)
s = SourceSpec(np.array([[0.3, 0.5], [0.7, 0.5]]), np.array([1.0, -1.0]))
u, _ = solve_graph_poisson(g, s, tol=1e-12)
for k in (0, 4, 16):
    uk, fk = smooth_poisson(g, u, s, k)
    lu = laplacian_apply(uk, LaplacianKind.GeometricScaled)
    res = np.max(np.abs(lu.values - fk.values)) / np.max(np.abs(fk.values))
    print("k = %3d   |u - u_k|_max %.4f   smoothed residual %.2e"
          % (k, np.max(np.abs(u.values - uk.values)), res))

# heat_convolve agrees with summing columns against the source
v = heat_convolve(g, 4, u)
print("convolve vs smooth gap %.2e"
      % np.max(np.abs(v.values - smooth_poisson(g, u, s, 4)[0].values)))

# psi is the k-fold self-convolution profile; its tails are Gaussian
d, eps = 2, 0.15
for k in (8, 32):
    tab = psi_table(make_kernel("indicator", d), d, k, eps)
    ek = eps * math.sqrt(k)
    sc = scale_constants(d, k, eps)
    print("k = %3d  eps_k = %.3f  R_k = %.3f" % (k, ek, sc.R_k))
    for m in (1, 2, 3):
        t = m * ek
        bound = 2 * d * math.exp(-t**2 / (2 * d * ek**2))
        print("   tail beyond %d eps_k: %.3e  (Gaussian bound %.3e)"
              % (m, tab.tail_mass(t), bound))
