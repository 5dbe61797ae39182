"""Semi-supervised solvers on weighted graphs.

Three methods share the machinery here: Poisson learning (graph Poisson
equation with mean-zero point sources), Laplace learning (harmonic
extension of boundary labels), and Poisson-reweighted Laplace learning
(Laplace learning after amplifying weights near labels by a graph-Poisson
factor gamma).  All linear solves use preconditioned conjugate gradients
with the degree-weighted mean projected out each iteration.
"""

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .geometry import closest_point
from .graph_core import GraphFunction, _run_pair


class SourceSpec:
    """Atomic source term: anchor points with zero-sum coefficients.

    Parameters
    ----------
    anchors : (m,d) array-like
        Continuum anchor locations.
    coefficients : (m,) array-like
        Source coefficients a_x with sum a_x = 0 (within 1e-14).
    domain : Box or Disk, optional
        If given, every anchor must lie strictly inside it.
    """

    def __init__(self, anchors, coefficients, domain=None):
        self.anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
        self.coefficients = np.asarray(coefficients, dtype=float)
        if self.anchors.shape[0] != self.coefficients.size:
            raise ValueError("anchor/coefficient count mismatch")
        total = abs(self.coefficients.sum())
        scale = max(1.0, np.abs(self.coefficients).sum())
        if total > 1e-14 * scale:
            raise ValueError("source coefficients must sum to zero (got %.3g)" % total)
        if domain is not None:
            for x in self.anchors:
                if not domain.contains(x) or domain.boundary_distance(x) <= 0:
                    raise ValueError("anchor %s is not strictly inside the domain" % (x,))


@dataclass
class SolveReport:
    iterations: int
    residual: float
    wall_time: float


def assemble_source(g, s):
    """Graph source f = sum_x a_x delta_{tau(x)} with closest-point anchors.

    Anchors mapping to the same node merge additively.
    """
    f = np.zeros(g.n)
    for x, a in zip(s.anchors, s.coefficients):
        f[closest_point(x, g)] += a
    return GraphFunction(g, f * g.n)


def _pcg(matvec, b, tol_check, x0=None, minv=None, project=None, maxiter=1000):
    """Preconditioned CG with optional iterate projection.

    tol_check(r) decides convergence; the recurrence residual is confirmed
    against a freshly computed one before returning.  When the recurrence
    residual passes but the fresh one fails, CG restarts from the fresh one;
    if that residual is not below half of the previous restart's, the
    tolerance is out of reach in floating point and RuntimeError is raised
    at once.  A restart after a non-positive curvature p.Ap counts toward
    maxiter but not toward the returned iteration count.
    """
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    if project is not None:
        x = project(x)
    total = 0
    restarts = 0
    rnorm_prev = None
    passed = False  # the last inner pass ended with the recurrence residual passing
    while True:
        r = b - matvec(x)
        if tol_check(r):
            return x, total, float(np.linalg.norm(r))
        rnorm = float(np.linalg.norm(r))
        if passed and not rnorm < 0.5 * rnorm_prev:
            raise RuntimeError("CG stagnated at residual %.6g (previous restart %.6g) after "
                               "%d iterations; the tolerance is not reachable"
                               % (rnorm, rnorm_prev, total))
        rnorm_prev = rnorm
        passed = False
        if total + restarts >= maxiter:
            raise RuntimeError("CG did not converge within %d iterations (%d restarts)"
                               % (maxiter, restarts))
        z = r * minv if minv is not None else r
        p = z.copy()
        rz = float(r @ z)
        while total + restarts < maxiter:
            Ap = matvec(p)
            pAp = float(p @ Ap)
            if pAp <= 0:
                restarts += 1  # loss of positive-definiteness in finite precision
                break
            alpha = rz / pAp
            x += alpha * p
            if project is not None:
                x = project(x)
            r -= alpha * Ap
            total += 1
            if tol_check(r):
                passed = True
                break
            z = r * minv if minv is not None else r
            rz_new = float(r @ z)
            p = z + (rz_new / rz) * p
            rz = rz_new


def solve_graph_poisson(g, s, tol=1e-10, x0=None, jacobi=True):
    """Solve the graph Poisson learning problem
    ======

    Finds the degree-mean-zero u with L u = f, where L is the
    geometric-scaled Laplacian and f = sum_x a_x delta_{tau(x)}.

    Parameters
    ----------
    g : Graph
        Must be connected.
    s : SourceSpec
    tol : float
        Relative residual target, ||L u - f||_2 <= tol ||f||_2.
    x0 : array, optional
        Starting iterate (default zero).
    jacobi : bool
        Diagonal preconditioning toggle (default on).

    Returns
    -------
    (GraphFunction, SolveReport)
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not g.connected:
        raise ValueError("graph is disconnected; the Poisson problem is ill-posed")
    t0 = time.perf_counter()
    f = assemble_source(g, s)
    b = f.values
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return GraphFunction(g, np.zeros(g.n)), SolveReport(0, 0.0, time.perf_counter() - t0)
    deg = g.degrees
    scale = g.sigma_eta * g.eps**2 * (g.n - 1)
    matvec = lambda v: (deg * v - g.wmul(v)) / scale
    diag = (deg - g.self_weights) / scale
    minv = 1.0 / diag if jacobi else None
    degsum = deg.sum()
    project = lambda v: v - (deg @ v) / degsum
    check = lambda r: np.linalg.norm(r) <= tol * bnorm
    x, iters, res = _pcg(matvec, b, check, x0=x0, minv=minv, project=project,
                         maxiter=10 * g.n)
    return GraphFunction(g, x), SolveReport(iters, res, time.perf_counter() - t0)


def _collect_labels(g, labels):
    if not labels:
        raise ValueError("label set is empty")
    seen = {}
    for node, value in labels:
        node = int(node)
        if not 0 <= node < g.n:
            raise IndexError("label node %d out of range" % node)
        if node in seen and seen[node] != value:
            raise ValueError("conflicting labels at node %d" % node)
        seen[node] = float(value)
    idx = np.array(sorted(seen), dtype=np.int64)
    vals = np.array([seen[i] for i in idx])
    return idx, vals


def _row_halves(A):
    """Split a CSR matrix at its middle stored entry into two row blocks.

    The blocks are views of A's data and index arrays, and each row is
    summed exactly as A @ v sums it, so stacking their products reproduces
    A @ v bit for bit.
    """
    mid = int(np.searchsorted(A.indptr, A.nnz // 2))
    blocks = []
    for start, stop in ((0, mid), (mid, A.shape[0])):
        lo, hi = A.indptr[start], A.indptr[stop]
        block = sparse.csr_matrix((stop - start, A.shape[1]), dtype=A.dtype)
        # assigned after construction: the constructor copies a view that
        # holds less than half of its base array
        block.indptr = A.indptr[start:stop + 1] - lo
        block.indices = A.indices[lo:hi]
        block.data = A.data[lo:hi]
        blocks.append(block)
    return blocks


def solve_laplace_learning(g, labels, tol=1e-9):
    """Laplace learning (harmonic label extension)
    ======

    Returns u with u = g on the labeled nodes exactly and the mean value
    property u(x) = sum_y w_xy u(y) / deg(x) at every unlabeled node, with
    max residual <= tol.

    Parameters
    ----------
    g : Graph
    labels : list of (node, value)
    tol : float
        Bound on the mean-value-property residual.
    """
    idx, vals = _collect_labels(g, labels)
    comp = g.component_labels()
    if not set(np.unique(comp)) <= set(comp[idx]):
        raise ValueError("a connected component has no labeled node; system singular")
    out = np.empty(g.n)
    out[idx] = vals
    mask = np.ones(g.n, dtype=bool)
    mask[idx] = False
    U = np.nonzero(mask)[0]
    if U.size == 0:
        return GraphFunction(g, out)
    WU = g.weight_matrix()[U, :]
    WUU = WU[:, U]
    b = np.asarray(WU[:, idx] @ vals).ravel()
    top, bottom = _row_halves(WUU)
    degU = g.degrees[U]
    diagU = degU - g.self_weights[U]
    matvec = lambda v: degU * v - np.concatenate(
        _run_pair(lambda: top @ v, lambda: bottom @ v, WUU.nnz // 2))
    check = lambda r: np.max(np.abs(r) / degU) <= tol
    x0 = np.full(U.size, vals.mean())
    x, _, _ = _pcg(matvec, b, check, x0=x0, minv=1.0 / diagU, maxiter=10 * g.n)
    out[U] = x
    return GraphFunction(g, out)


def pwll_gamma(g, label_nodes, tol=1e-10):
    """Reweighting factor gamma for PWLL.

    Solves the unnormalized graph Poisson equation
    sum_y w_xy (gamma(x) - gamma(y)) = sum_z (1_{x=z} - 1/n) over the
    label set, then shifts so min gamma = 1.
    """
    nodes = sorted(set(int(z) for z in label_nodes))
    q = np.full(g.n, -float(len(nodes)) / g.n)
    q[nodes] += 1.0
    qnorm = np.linalg.norm(q)
    if qnorm == 0.0:
        return GraphFunction(g, np.ones(g.n))
    if not g.connected:
        raise ValueError("graph is disconnected; the Poisson problem is ill-posed")
    deg = g.degrees
    matvec = lambda v: deg * v - g.wmul(v)
    minv = 1.0 / (deg - g.self_weights)
    degsum = deg.sum()
    project = lambda v: v - (deg @ v) / degsum
    check = lambda r: np.linalg.norm(r) <= tol * qnorm
    x, _, _ = _pcg(matvec, q, check, minv=minv, project=project, maxiter=10 * g.n)
    return GraphFunction(g, x - x.min() + 1.0)


def solve_pwll(g, labels, tol=1e-9):
    """Poisson-reweighted Laplace learning
    ======

    Computes gamma via pwll_gamma, forms reweighted weights
    w~_xy = gamma(x) gamma(y) w_xy, and runs Laplace learning on the
    reweighted graph.  The returned function is bound to the input graph.
    """
    idx, vals = _collect_labels(g, labels)
    gamma = pwll_gamma(g, idx, tol=min(tol, 1e-10))
    g2 = g.reweighted(gamma.values)
    u = solve_laplace_learning(g2, list(zip(idx, vals)), tol=tol)
    return GraphFunction(g, u.values)
