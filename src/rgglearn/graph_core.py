"""Calculus on weighted graphs.

Inner products, norms, degree-weighted means, graph deltas, Laplacian
variants, and Dirichlet energies for functions on the nodes of a weighted
geometric graph.  All operations use the normalized inner product

    <u,v> = (1/n) sum_x u(x) v(x)

so that graph quantities have continuum counterparts as n grows.  Weights
are stored once per undirected edge (strict upper triangle plus a diagonal
of self-weights) and applied symmetrically.

``Graph.wmul`` computes W u = U u + U^T u + diag*u.  On large graphs with
at least two usable CPUs it runs the U^T u pass on one background worker
thread while the calling thread runs U u; scipy's sparse kernels release
the interpreter lock, so the two passes overlap.  Small graphs and
single-CPU processes take the serial path.  Both paths do the same
floating-point operations in the same order, so W u is bit-identical
either way, and no matrix is stored twice.
"""

import enum
import os
import threading

import numpy as np
import scipy.sparse as sparse
from scipy.sparse import csgraph


# Below this many stored entries per pass, _run_pair runs both passes on the
# calling thread.  Handing a pass to the worker costs about 130-200 us per
# call.  On a 2-vCPU VM serial still won at 87k upper entries (0.36 vs
# 0.41 ms) and the split won at 344k (1.13 -> 0.89 ms) and at 2.65M
# (10.2 -> 5.7 ms); on another 2-vCPU VM the split already won at 85k
# (0.28 -> 0.21 ms) and lost at 57k (0.16 -> 0.19 ms).
_SPLIT_MIN_NNZ = 100_000

_worker_lock = threading.Lock()
_worker = None  # (pid, ThreadPoolExecutor) of the process that created it


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_executor():
    """The single worker thread of this process, created on first use.

    A forked child inherits the executor without its thread, and submitting
    to it would hang, so a new one is made whenever the pid has changed.
    """
    global _worker
    pid = os.getpid()
    with _worker_lock:
        if _worker is None or _worker[0] != pid:
            from concurrent.futures import ThreadPoolExecutor  # deferred: import cost

            _worker = (pid, ThreadPoolExecutor(max_workers=1,
                                               thread_name_prefix="rgglearn-matvec"))
        return _worker[1]


def _run_pair(first, second, nnz):
    """Return (first(), second()), overlapping the two calls when it pays.

    nnz is the number of stored sparse entries each call reads.  second runs
    on the worker thread while first runs here, unless nnz is below
    _SPLIT_MIN_NNZ or fewer than two CPUs are usable.  Both must be
    independent: each reads shared inputs and writes only its own result.
    second must not call _run_pair itself, or the one worker waits on itself.
    """
    if nnz < _SPLIT_MIN_NNZ or _usable_cpus() < 2:
        return first(), second()
    future = _worker_executor().submit(second)
    try:
        a = first()
    finally:
        b = future.result()
    return a, b


class LaplacianKind(enum.Enum):
    """The four Laplacian variants used throughout."""

    Unnormalized = "unnormalized"          # L u = deg*u - W u
    RandomWalk = "random_walk"             # L_rw u = u - (W u)/deg
    RandomWalkAdjoint = "random_walk_adjoint"  # L_rw^T u = u - W(u/deg)
    GeometricScaled = "geometric_scaled"   # L / (sigma_eta eps^2 (n-1))


class Graph:
    """Weighted geometric graph
    ======

    Immutable weighted graph on points in R^d.  Each undirected edge is
    stored once (i < j); self-weights sit on the diagonal.  Degrees are
    cached at construction and include the self-weight.

    Parameters
    ----------
    points : (n,d) array
        Node coordinates.
    upper : scipy sparse matrix
        Strict upper-triangular weights, one entry per undirected edge.  A
        canonical CSR matrix (sorted indices, no duplicates) is used as is,
        without a copy; other input is converted to one.
    diag : (n,) array
        Self-weights w_xx.
    eps : float
        Graph bandwidth.
    kernel : KernelProfile or None
        Radial profile the weights came from, if any.
    sigma_eta : float or None
        Second-moment constant; defaults to kernel.sigma_eta.
    seed : int or None
        Sampling seed recorded for provenance.
    """

    def __init__(self, points, upper, diag, eps, kernel=None, sigma_eta=None, seed=None):
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        if self.points.ndim != 2:
            raise ValueError("points must be a 2-d array of shape (n,d)")
        n = self.points.shape[0]
        if not np.all(np.isfinite(self.points)):
            raise ValueError("non-finite point coordinate")
        self._upper = sparse.csr_matrix(upper, shape=(n, n))
        self._upper.sum_duplicates()
        if not np.all(np.isfinite(self._upper.data)):
            raise ValueError("non-finite edge weight")
        if np.any(self._upper.data < 0):
            raise ValueError("negative edge weight")
        self._diag = np.asarray(diag, dtype=np.float64)
        if self._diag.shape != (n,):
            raise ValueError("diagonal length mismatch")
        if not np.all(np.isfinite(self._diag)):
            raise ValueError("non-finite self-weight")
        if np.any(self._diag < 0):
            raise ValueError("negative self-weight")
        self.eps = float(eps)
        self.kernel = kernel
        self._sigma_eta = sigma_eta
        self.seed = seed
        # cache degrees once; every normalized operator divides by them
        self.degrees = self.wmul(np.ones(n))
        if not np.all(np.isfinite(self.degrees)):
            raise ValueError("non-finite degree (edge weights overflow)")
        ncomp, self._components = csgraph.connected_components(self._upper, directed=False)
        self.connected = bool(ncomp == 1)

    @classmethod
    def from_weights(cls, points, W, eps, kernel=None, sigma_eta=None, seed=None):
        """Build a graph from a full symmetric weight matrix (dense or sparse)."""
        W = sparse.coo_matrix(W)
        if (abs(W - W.T) > 0).nnz != 0:
            raise ValueError("weight matrix must be symmetric")
        n = W.shape[0]
        diag = np.zeros(n)
        mask = W.row == W.col
        np.add.at(diag, W.row[mask], W.data[mask])
        keep = W.row < W.col
        upper = sparse.coo_matrix((W.data[keep], (W.row[keep], W.col[keep])), shape=(n, n))
        return cls(points, upper, diag, eps, kernel=kernel, sigma_eta=sigma_eta, seed=seed)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.points.shape[1]

    @property
    def sigma_eta(self):
        if self._sigma_eta is not None:
            return self._sigma_eta
        if self.kernel is not None:
            return self.kernel.sigma_eta
        raise ValueError("graph has no sigma_eta (no kernel attached)")

    @property
    def self_weights(self):
        """Diagonal weights w_xx."""
        return self._diag

    def wmul(self, u):
        """Apply the full symmetric weight matrix W to a vector.

        Returns U u + U^T u + diag*u, summed in that order, with U the
        stored upper triangle.  On large graphs with two or more usable
        CPUs the U^T u pass runs on a background worker thread while this
        thread computes U u; otherwise both run here.  The result is
        bit-identical on either path.
        """
        u = np.asarray(u, dtype=np.float64)
        upper = self._upper
        a, b = _run_pair(lambda: upper @ u, lambda: upper.T @ u, upper.nnz)
        return a + b + self._diag * u

    def reweighted(self, factors):
        """New graph with weights w~_xy = factors[x] factors[y] w_xy."""
        f = np.asarray(factors, dtype=np.float64)
        if f.shape != (self.n,):
            raise ValueError("factor length mismatch")
        # same sparsity pattern: the new CSR shares this graph's index arrays
        coo = self._upper.tocoo(copy=False)
        upper = sparse.csr_matrix((coo.data * f[coo.row] * f[coo.col],
                                   self._upper.indices, self._upper.indptr),
                                  shape=(self.n, self.n))
        return Graph(self.points, upper, self._diag * f**2, self.eps,
                     kernel=self.kernel, sigma_eta=self._sigma_eta, seed=self.seed)

    def weight_matrix(self):
        """Materialize the full symmetric weight matrix as CSR."""
        n = self.n
        return (self._upper + self._upper.T
                + sparse.diags(self._diag, format="csr", shape=(n, n))).tocsr()

    def edge_arrays(self):
        """Stored entries as (i, j, w) with i <= j, row-major order."""
        coo = self._upper.tocoo()
        i = coo.row
        j = coo.col
        w = coo.data
        keep = self._diag > 0
        di = np.nonzero(keep)[0]
        i = np.concatenate([i, di])
        j = np.concatenate([j, di])
        w = np.concatenate([w, self._diag[keep]])
        order = np.lexsort((j, i))
        return i[order], j[order], w[order]

    def component_labels(self):
        """Connected-component label per node."""
        return self._components.copy()

    def func(self, values):
        return GraphFunction(self, values)


class GraphFunction:
    """Real-valued function on the nodes of a graph."""

    def __init__(self, graph, values):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (graph.n,):
            raise ValueError("values length %d does not match graph size %d"
                             % (values.size, graph.n))
        self.graph = graph
        self.values = values

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.values, dtype=dtype)

    def __len__(self):
        return self.values.size


def _check_same_graph(*funcs):
    g = funcs[0].graph
    for f in funcs[1:]:
        if f.graph is not g:
            raise ValueError("graph mismatch between GraphFunction arguments")
    return g


def inner(u, v):
    """Normalized inner product
    ======

    Computes (1/n) sum_x u(x) v(x).

    Parameters
    ----------
    u, v : GraphFunction
        Functions on the same graph.

    Returns
    -------
    float
    """
    g = _check_same_graph(u, v)
    return float(u.values @ v.values) / g.n


def pnorm(u, p):
    """Normalized p-norm
    ======

    Computes ((1/n) sum |u(x)|^p)^(1/p) for p >= 1.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    v = np.abs(u.values)
    return float(np.mean(v**p) ** (1.0 / p))


def weighted_mean(u):
    """Degree-weighted mean (u)_deg = sum deg(x)u(x) / sum deg(x)."""
    g = u.graph
    total = g.degrees.sum()
    if total <= 0:
        raise ValueError("zero total degree")
    return float(g.degrees @ u.values) / total


def graph_delta(x, g):
    """Graph delta at node x: value n at x and 0 elsewhere, so <delta_x, u> = u(x)."""
    x = int(x)
    if not 0 <= x < g.n:
        raise IndexError("node index %d out of range for n=%d" % (x, g.n))
    v = np.zeros(g.n)
    v[x] = g.n
    return GraphFunction(g, v)


def laplacian_apply(u, kind):
    """Apply a graph Laplacian
    ======

    Applies one of the four Laplacian variants to u.

    Parameters
    ----------
    u : GraphFunction
    kind : LaplacianKind
        Unnormalized       deg*u - W u
        RandomWalk         u - (W u)/deg
        RandomWalkAdjoint  u - W (u/deg)
        GeometricScaled    (deg*u - W u) / (sigma_eta eps^2 (n-1))

    Returns
    -------
    GraphFunction
    """
    g = u.graph
    v = u.values
    if kind in (LaplacianKind.RandomWalk, LaplacianKind.RandomWalkAdjoint):
        if np.any(g.degrees == 0):
            raise ValueError("zero-degree node; normalized Laplacian undefined")
    if kind == LaplacianKind.Unnormalized:
        out = g.degrees * v - g.wmul(v)
    elif kind == LaplacianKind.RandomWalk:
        out = v - g.wmul(v) / g.degrees
    elif kind == LaplacianKind.RandomWalkAdjoint:
        out = v - g.wmul(v / g.degrees)
    elif kind == LaplacianKind.GeometricScaled:
        out = (g.degrees * v - g.wmul(v)) / (g.sigma_eta * g.eps**2 * (g.n - 1))
    else:
        raise ValueError("unknown LaplacianKind: %r" % (kind,))
    return GraphFunction(g, out)


def dirichlet_energy(u):
    """Graph Dirichlet energy
    ======

    The quadratic form <u, L u> with L the geometric-scaled Laplacian,
    equal to half the ordered-pair sum

        (sigma_eta eps^2 n (n-1))^{-1} sum_{x,y} w_xy (u(x)-u(y))^2 / 2.

    Self-weights contribute nothing since u(x)-u(x) = 0.
    """
    g = u.graph
    v = u.values
    lv = g.degrees * v - g.wmul(v)
    return float(v @ lv) / (g.sigma_eta * g.eps**2 * g.n * (g.n - 1))


def energy_discrete(u, f):
    """Discrete variational energy E(u;f) = (1/2)<u,Lu> - <u,f>.

    Its minimizer over degree-mean-zero functions solves L u = f with the
    geometric-scaled Laplacian.
    """
    _check_same_graph(u, f)
    return 0.5 * dirichlet_energy(u) - inner(u, f)


_CSV_ROWS_PER_BLOCK = 4096


def _write_columns(path, header, columns, fmt, nan="nan"):
    """Write equal-length numeric arrays as CSV columns under a one-line header.

    The one table writer behind the points, graph, node-value, psi and grid
    files.  Row i is ``",".join(fmt) % (columns[0][i], columns[1][i], ...)``:
    one printf format per column, as for ``np.savetxt``, so ``"%.17g"``
    round-trips every float64.  printf writes a NaN as ``nan``; the text
    `nan` replaces it (``""`` leaves the field empty).  Columns are
    formatted as Python scalars (``tolist()``) in blocks of rows, which is
    about twice as fast as ``np.savetxt``'s NumPy scalars and keeps the
    transient memory small for any row count.
    """
    line = ",".join(fmt) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), _CSV_ROWS_PER_BLOCK):
            block = [c[lo:lo + _CSV_ROWS_PER_BLOCK].tolist() for c in columns]
            text = "".join(line % row for row in zip(*block))
            fh.write(text if nan == "nan" else text.replace("nan", nan))


def save_graph(g, path):
    """Serialize a graph
    ======

    Writes an edge-list CSV with header ``i,j,w`` (one row per stored
    entry, i <= j, self-weights on i == j), a sidecar ``<path>.meta``
    with n, d, eps, kernel name, sigma_eta, seed, and a companion points
    CSV ``<path>.points`` referenced from the sidecar by its file name, so
    the three files load from any working directory and can be moved
    together.
    """
    _write_columns(path, "i,j,w", g.edge_arrays(), ("%d", "%d", "%.17g"))
    pts_path = path + ".points"
    _write_columns(pts_path, ",".join("x%d" % a for a in range(g.d)), g.points.T,
                   ["%.17g"] * g.d)
    kname = getattr(g.kernel, "name", "") if g.kernel is not None else ""
    with open(path + ".meta", "w") as fh:
        fh.write("n=%d\n" % g.n)
        fh.write("d=%d\n" % g.d)
        fh.write("eps=%.17g\n" % g.eps)
        fh.write("kernel=%s\n" % kname)
        fh.write("sigma_eta=%.17g\n" % g.sigma_eta)
        fh.write("seed=%s\n" % ("" if g.seed is None else g.seed))
        fh.write("points=%s\n" % os.path.basename(pts_path))


def load_graph(path):
    """Load a graph written by save_graph.

    A relative ``points=`` path in the sidecar is resolved against the
    directory of the graph file; an absolute one is used as is.
    """
    meta = {}
    with open(path + ".meta") as fh:
        for line in fh:
            line = line.strip()
            if line and "=" in line:
                key, val = line.split("=", 1)
                meta[key] = val
    n = int(meta["n"])
    d = int(meta["d"])
    eps = float(meta["eps"])
    sigma_eta = float(meta["sigma_eta"])
    seed = int(meta["seed"]) if meta.get("seed") else None
    pts_path = os.path.join(os.path.dirname(path), meta["points"])
    points = np.loadtxt(pts_path, delimiter=",", skiprows=1, ndmin=2)
    if points.shape != (n, d):
        raise ValueError("points file shape %r does not match metadata (n=%d, d=%d)"
                         % (points.shape, n, d))
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if raw.size == 0:
        raw = raw.reshape(0, 3)
    i = raw[:, 0].astype(np.int64)
    j = raw[:, 1].astype(np.int64)
    w = raw[:, 2]
    diag = np.zeros(n)
    mask = i == j
    np.add.at(diag, i[mask], w[mask])
    upper = sparse.coo_matrix((w[~mask], (i[~mask], j[~mask])), shape=(n, n))
    kernel = None
    if meta.get("kernel"):
        from .geometry import make_kernel  # deferred to avoid import cycle
        kernel = make_kernel(meta["kernel"], d)
    return Graph(points, upper, diag, eps, kernel=kernel, sigma_eta=sigma_eta, seed=seed)
