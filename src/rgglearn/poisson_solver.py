"""Semi-supervised solvers on weighted graphs.

Three methods share the machinery here: Poisson learning (graph Poisson
equation with mean-zero point sources), Laplace learning (harmonic
extension of boundary labels), and Poisson-reweighted Laplace learning
(Laplace learning after amplifying weights near labels by a graph-Poisson
factor gamma).  All linear solves use preconditioned conjugate gradients.
The singular ones (graph Poisson, gamma, and the continuum reference in
continuum_ref) share `_gauged_cg`, which keeps the iterates in a
weighted-mean-zero gauge and holds the guards of all three; graph Poisson
and gamma reach it through `_solve_graph_laplacian`.  Each caller passes
its preconditioner: Jacobi for the singular solves, and for Laplace
learning Jacobi plus a coarse correction on cells of side eps (`_two_level`).
"""

from dataclasses import dataclass

import numpy as np

from .geometry import closest_point
from .graph_core import GraphFunction


class SourceSpec:
    """Atomic source term: anchor points with zero-sum coefficients.

    Parameters
    ----------
    anchors : (m,d) array-like
        Finite continuum anchor locations.
    coefficients : (m,) array-like
        Finite source coefficients a_x with sum a_x = 0 (within 1e-14).
    domain : Box or Disk, optional
        If given, every anchor must have its dimension and lie strictly
        inside it.
    """

    def __init__(self, anchors, coefficients, domain=None):
        self.anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
        self.coefficients = np.asarray(coefficients, dtype=float)
        if self.anchors.shape[0] != self.coefficients.size:
            raise ValueError("anchor/coefficient count mismatch")
        if not (np.all(np.isfinite(self.anchors)) and np.all(np.isfinite(self.coefficients))):
            raise ValueError("anchors and coefficients must be finite")
        total = abs(self.coefficients.sum())
        scale = max(1.0, np.abs(self.coefficients).sum())
        if total > 1e-14 * scale:
            raise ValueError("source coefficients must sum to zero (got %.3g)" % total)
        if domain is not None:
            if self.anchors.shape[1] != domain.d:
                raise ValueError("anchors have dimension %d, the domain %d"
                                 % (self.anchors.shape[1], domain.d))
            for x in self.anchors:
                if not domain.contains(x) or domain.boundary_distance(x) <= 0:
                    raise ValueError("anchor %s is not strictly inside the domain" % (x,))


@dataclass
class SolveReport:
    iterations: int
    residual: float


def assemble_source(g, s):
    """Graph source f = sum_x a_x delta_{tau(x)} with closest-point anchors.

    Anchors mapping to the same node merge additively.
    """
    f = np.zeros(g.n)
    for x, a in zip(s.anchors, s.coefficients):
        f[closest_point(x, g)] += a
    return GraphFunction(g, f * g.n)


def _pcg(matvec, b, tol_check, precond, x0=None, project=None, maxiter=1000):
    """Preconditioned CG with optional iterate projection.

    precond(r, out) writes the preconditioned residual into out and
    project(x) maps x into the gauge in place; b and x0 are never written
    to.  tol_check(r) decides convergence; the recurrence residual is
    confirmed against a freshly computed one before returning.
    When the recurrence residual passes but the fresh one fails, CG
    restarts from the fresh one; if that residual is not below half of the
    previous restart's, the tolerance is out of reach in floating point and
    RuntimeError is raised at once.  A restart after a non-positive
    curvature p.Ap counts toward maxiter but not toward the reported
    iteration count.  Returns (x, SolveReport).
    """
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    if project is not None:
        project(x)
    # work vectors, allocated once: every update below writes into them in
    # the operation order of the textbook recurrence, so the iterates are
    # bitwise those of x += alpha p, r -= alpha Ap, p = z + beta p
    r = np.empty_like(x)
    z = np.empty_like(x)
    p = np.empty_like(x)
    step = np.empty_like(x)
    total = 0
    restarts = 0
    rnorm_prev = None
    passed = False  # the last inner pass ended with the recurrence residual passing
    while True:
        np.subtract(b, matvec(x), out=r)
        if tol_check(r):
            return x, SolveReport(total, float(np.linalg.norm(r)))
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
        precond(r, z)
        np.copyto(p, z)
        rz = float(r @ z)
        while total + restarts < maxiter:
            Ap = matvec(p)
            pAp = float(p @ Ap)
            if pAp <= 0:
                restarts += 1  # loss of positive-definiteness in finite precision
                break
            alpha = rz / pAp
            x += np.multiply(p, alpha, out=step)
            if project is not None:
                project(x)
            r -= np.multiply(Ap, alpha, out=step)
            total += 1
            if tol_check(r):
                passed = True
                break
            precond(r, z)
            rz_new = float(r @ z)
            p *= rz_new / rz
            p += z
            rz = rz_new


def _jacobi(diag):
    """Jacobi preconditioner z = r / diag as a precond(r, out) callable."""
    minv = 1.0 / diag
    return lambda r, out: np.multiply(r, minv, out=out)


# Weight of the Jacobi term in _two_level.  Any positive weight keeps the
# preconditioner SPD; CG counts hardly depend on it (22-24 iterations for
# every weight from 0.4 to 1.0 at n = 10^4, eps = 0.08 in d = 2).
_JACOBI_WEIGHT = 0.7


def _two_level(g, nodes, diag):
    """Two-level preconditioner for the Dirichlet Laplacian L_UU of g.

    L_UU is L restricted to `nodes`, whose diagonal is diag; it must be SPD,
    as it is when every component of g has a node outside `nodes`.
    Returns a precond(r, out) callable for

        z = 0.7 D^-1 r + P A_c^-1 P^T r,   A_c = P^T L_UU P,

    with P piecewise constant on the eps-cells of Graph._cell_aggregates.
    Jacobi damps the frequencies above about 1/eps, and the cells, of side
    about eps, resolve the smooth modes below it that Jacobi leaves alone.
    A_c is diag(sum of diag per cell) - (M + M^T), formed from the stored
    weights without building W, and factored once.
    """
    from scipy.linalg import cho_factor, cho_solve  # deferred: scipy.linalg is slow to import

    agg, M = g._cell_aggregates(nodes)
    m = M.shape[0]
    coarse = cho_factor(np.diag(np.bincount(agg, diag, minlength=m)) - M - M.T)
    minv = _JACOBI_WEIGHT / diag

    def precond(r, out):
        np.multiply(r, minv, out=out)
        out += cho_solve(coarse, np.bincount(agg, r, minlength=m))[agg]

    return precond


def _gauged_cg(matvec, b, precond, weights, tol, maxiter, x0=None):
    """Preconditioned CG for a singular symmetric system A x = b.

    A is symmetric positive semi-definite with only the constants in its
    kernel (a Neumann or graph Laplacian), and precond is as in _pcg.  The
    iterates are projected onto the gauge weights @ x = 0 and CG stops when
    ||b - A x||_2 <= tol ||b||_2.  Returns (x, SolveReport).  Before the
    first matvec it rejects a tol that is not positive or a non-finite b
    with ValueError, and returns (0, SolveReport(0, 0.0)) for b = 0.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not np.all(np.isfinite(b)):
        raise ValueError("the source has non-finite values")
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), SolveReport(0, 0.0)
    wsum = weights.sum()

    def project(v):
        v -= (weights @ v) / wsum

    check = lambda r: np.linalg.norm(r) <= tol * bnorm
    return _pcg(matvec, b, check, x0=x0, precond=precond, project=project, maxiter=maxiter)


def _solve_graph_laplacian(g, b, scale, tol, x0=None):
    """_gauged_cg on (D - W) x / scale = b, gauged by the degrees of the connected g."""
    if not g.connected:
        raise ValueError("graph is disconnected; the Poisson problem is ill-posed")
    deg = g.degrees
    return _gauged_cg(lambda v: (deg * v - g.wmul(v)) / scale, b,
                      _jacobi((deg - g.self_weights) / scale), deg, tol, 10 * g.n, x0=x0)


def solve_graph_poisson(g, s, tol=1e-10, x0=None):
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

    Returns
    -------
    (GraphFunction, SolveReport)
    """
    b = assemble_source(g, s).values
    x, report = _solve_graph_laplacian(g, b, g.sigma_eta * g.eps**2 * (g.n - 1), tol, x0)
    return GraphFunction(g, x), report


def _label_node(g, node):
    node = int(node)
    if not 0 <= node < g.n:
        raise IndexError("label node %d out of range" % node)
    return node


def _collect_labels(g, labels):
    if not labels:
        raise ValueError("label set is empty")
    seen = {}
    for node, value in labels:
        node, value = _label_node(g, node), float(value)
        if not np.isfinite(value):
            raise ValueError("label value %r at node %d is not finite" % (value, node))
        if node in seen and seen[node] != value:
            raise ValueError("conflicting labels at node %d" % node)
        seen[node] = value
    idx = np.array(sorted(seen), dtype=np.int64)
    vals = np.array([seen[i] for i in idx])
    return idx, vals


def solve_laplace_learning(g, labels, tol=1e-9):
    """Laplace learning (harmonic label extension)
    ======

    Returns u with u = g on the labeled nodes exactly and the mean value
    property u(x) = sum_y w_xy u(y) / deg(x) at every unlabeled node, with
    max residual <= tol.

    The unlabeled values solve L_UU u = W_UL g by conjugate gradients
    from the mean label value.  The preconditioner adds to weighted Jacobi
    a coarse solve on the cells of side eps that hold unlabeled nodes
    (see `_two_level`), so the iteration count stays near 20 as eps
    shrinks; its set-up sums the stored weights once and factors a dense
    matrix of at most sqrt(nnz) rows.

    Parameters
    ----------
    g : Graph
    labels : list of (node, value)
    tol : float
        Bound on the mean-value-property residual; must be positive.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    idx, vals = _collect_labels(g, labels)
    comp = g.component_labels()
    if not set(np.unique(comp)) <= set(comp[idx]):
        raise ValueError("a connected component has no labeled node; system singular")
    out = np.zeros(g.n)
    out[idx] = vals
    U = np.setdiff1d(np.arange(g.n), idx)
    if U.size == 0:
        return GraphFunction(g, out)
    b = g.wmul(out)[U]  # W_UL vals: out is zero on U
    full = np.zeros(g.n)  # v padded with zeros at the labeled nodes
    degU = g.degrees[U]
    diagU = degU - g.self_weights[U]

    def matvec(v):
        full[U] = v
        return degU * v - g.wmul(full)[U]

    check = lambda r: np.max(np.abs(r) / degU) <= tol
    x0 = np.full(U.size, vals.mean())
    x, _ = _pcg(matvec, b, check, x0=x0, precond=_two_level(g, U, diagU), maxiter=10 * g.n)
    out[U] = x
    return GraphFunction(g, out)


def pwll_gamma(g, label_nodes, tol=1e-10):
    """Reweighting factor gamma for PWLL.

    Solves the unnormalized graph Poisson equation
    sum_y w_xy (gamma(x) - gamma(y)) = sum_z (1_{x=z} - 1/n) over the
    label set, then shifts so min gamma = 1.  tol is the relative residual
    target and must be positive; a node outside range(g.n) raises IndexError.
    """
    nodes = sorted(set(_label_node(g, z) for z in label_nodes))
    q = np.full(g.n, -float(len(nodes)) / g.n)
    q[nodes] += 1.0
    x, _ = _solve_graph_laplacian(g, q, 1.0, tol)
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
