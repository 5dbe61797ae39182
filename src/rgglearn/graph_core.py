"""Calculus on weighted graphs.

Inner products, norms, degree-weighted means, graph deltas, Laplacian
variants, and Dirichlet energies for functions on the nodes of a weighted
geometric graph.  All operations use the normalized inner product

    <u,v> = (1/n) sum_x u(x) v(x)

so that graph quantities have continuum counterparts as n grows.  Weights
are stored once per undirected edge (strict upper triangle plus a diagonal
of self-weights) and applied symmetrically.

``Graph.wmul`` applies W by one of two routes, fixed when the graph is
made:

- CSR (every graph but the one below).  W u = U u + U^T u + diag*u with U
  the stored upper triangle.  On large graphs with at least two usable
  CPUs the U^T u pass runs on one background worker thread while the
  calling thread runs U u; scipy's sparse kernels release the interpreter
  lock, so the two passes overlap.  Small graphs and single-CPU processes
  take the serial path.  Both paths do the same floating-point operations
  in the same order, so W u is bit-identical either way, and no matrix is
  stored twice.
- Windows (d = 1 and the indicator kernel; ``geometry._windows``).  Every
  edge has the one weight c, and with the points sorted the neighbours of
  a point are a window [lo, hi) of consecutive sorted points, so
  (W u)_i = c (sum of u over the window - u_i) + w_ii u_i: a difference of
  prefix sums (summed-area tables, Crow 1984).  The prefix sums restart
  every B sorted points, B the longest window, so each window spans at
  most two blocks and each window sum is a difference of partial sums of
  at most B terms.  Recursive summation bounds their error (Higham, SIAM
  J. Sci. Comput. 1993), so (W u)_i differs from the CSR product, which
  also sums up to B terms, by at most about 4 B^2 2^-53 c ||u||_inf.  A
  prefix sum over all n points would replace B by n.  Measured at
  n = 40000, B = 284, on a positive u (where prefix sums only grow), the
  gap to the CSR product is 5.0e-13 c ||u||_inf with blocks and 4.8e-11
  over all n.  ``Graph._upper`` builds the CSR upper triangle of such a
  graph from its points, eps and kernel only when something reads it
  (``reweighted``, ``weight_matrix``, ``edge_arrays``, ``save_graph``,
  ``Graph._cell_aggregates``), and connectivity comes from the windows.
"""

import enum
import math
import os
import threading
import warnings

import numpy as np


# Below this many stored entries per pass, _run_pair runs both passes on the
# calling thread.  Handing a pass to the worker costs about 130-200 us per
# call.  On a 2-vCPU VM serial still won at 87k upper entries (0.36 vs
# 0.41 ms) and the split won at 344k (1.13 -> 0.89 ms) and at 2.65M
# (10.2 -> 5.7 ms); on another 2-vCPU VM the split already won at 85k
# (0.28 -> 0.21 ms) and lost at 57k (0.16 -> 0.19 ms).
_SPLIT_MIN_NNZ = 100_000

# Graph.__init__ first looks for connectivity in the spanning subgraph made of
# the first _SPAN_PER_ROW stored entries of each row; only when that subgraph
# is disconnected does it search the whole graph, which needs a transposed
# copy of the upper triangle (12 bytes per stored entry).
_SPAN_PER_ROW = 8

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


def _components(upper):
    """(count, labels) of the connected components of an upper-triangular CSR.

    Only positive weights count as edges.  A connected spanning subgraph
    means a connected graph, whose labels are all 0, so the first
    _SPAN_PER_ROW stored entries of each row are searched first and the
    whole matrix only when they leave the graph disconnected; the labels
    are exact either way.
    """
    import scipy.sparse as sparse  # deferred: scipy.sparse is slow to import
    from scipy.sparse import csgraph  # deferred: scipy.sparse.csgraph is slow to import

    indptr = upper.indptr
    count = np.minimum(np.diff(indptr), _SPAN_PER_ROW)
    span_ptr = np.concatenate(([0], np.cumsum(count)))
    take = np.repeat(indptr[:-1] - span_ptr[:-1], count) + np.arange(span_ptr[-1])
    span = sparse.csr_matrix((upper.data[take], upper.indices[take], span_ptr),
                             shape=upper.shape)
    span.eliminate_zeros()
    ncomp, labels = csgraph.connected_components(span, directed=False)
    if ncomp > 1:
        if not upper.data.all():
            upper = upper.copy()
            upper.eliminate_zeros()
        ncomp, labels = csgraph.connected_components(upper, directed=False)
    return ncomp, labels


def _checked_upper(upper, n):
    """upper as a canonical (n, n) CSR of finite, nonnegative weights above the diagonal."""
    import scipy.sparse as sparse  # deferred: scipy.sparse is slow to import

    upper = sparse.csr_matrix(upper, shape=(n, n))
    upper.sum_duplicates()
    if not np.all(np.isfinite(upper.data)):
        raise ValueError("non-finite edge weight")
    if np.any(upper.data < 0):
        raise ValueError("negative edge weight")
    # indices are sorted within each row, so a row's first column is its smallest
    rows = np.flatnonzero(np.diff(upper.indptr))
    if np.any(upper.indices[upper.indptr[rows]] <= rows):
        raise ValueError("upper holds an entry on or below the diagonal")
    return upper


class _Windows:
    """W of a graph whose edges join each node to a window of sorted nodes.

    order sorts the nodes; sorted node p is joined with the one weight c > 0
    to each other sorted node in [lo[p], hi[p]).  Windows must be symmetric
    (q in p's window exactly when p is in q's), as they are for an
    eps-graph on the line.

    The prefix sums of the sorted u sit in a padded (nb, B + 1) array Q,
    one row per block of B sorted nodes (B the longest window), with
    Q[b, 0] = 0 and Q[b, r + 1] the sum of the block's first r + 1 values.
    A window [lo, hi) then sums to (Q[head] - Q[start]) + Q[tail], where
    start is the prefix before lo.  In one block, head is the prefix
    through hi - 1 and tail a zero; across two, head is lo's block total
    and tail the next block's prefix through hi - 1.  The three flat
    indices per node are computed here once.
    """

    def __init__(self, order, lo, hi, c):
        self.order, self.lo, self.hi, self.c = order, lo, hi, c
        self.block = block = int(np.max(hi - lo))
        self.nblocks = -(-order.size // block)
        stride = block + 1
        first, last = lo // block, (hi - 1) // block
        self.start = first * stride + lo % block
        end = last * stride + (hi - 1) % block + 1
        cross = last != first
        self.head = np.where(cross, first * stride + block, end)
        self.tail = np.where(cross, end, last * stride)

    def matvec(self, u):
        """c (window sum - u) per node, in node order."""
        n, block = self.order.size, self.block
        us = np.zeros(self.nblocks * block)
        np.take(u, self.order, out=us[:n])
        q = np.zeros((self.nblocks, block + 1))
        np.cumsum(us.reshape(self.nblocks, block), axis=1, out=q[:, 1:])
        q = q.ravel()
        s = q[self.head]
        s -= q[self.start]
        s += q[self.tail]
        s -= us[:n]
        s *= self.c
        out = np.empty(n)
        out[self.order] = s
        return out

    def components(self):
        """(count, labels), numbered by smallest node as csgraph numbers them.

        Sorted node p reaches p + 1 unless its window ends at itself, so the
        components are the runs between such breaks.
        """
        n = self.order.size
        breaks = np.flatnonzero(self.hi[:-1] == np.arange(1, n)) + 1
        run = np.zeros(n, dtype=np.int64)
        run[breaks] = 1
        np.cumsum(run, out=run)
        smallest = np.minimum.reduceat(self.order, np.concatenate(([0], breaks)))
        rank = np.empty(smallest.size, dtype=np.int64)
        rank[np.argsort(smallest)] = np.arange(smallest.size)
        labels = np.empty(n, dtype=np.int32)
        labels[self.order] = rank[run]
        return smallest.size, labels


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
    upper : scipy sparse matrix, CSR triple (data, indices, indptr) or (data, (i, j))
        Strict upper-triangular weights, one entry per undirected edge; an
        entry on or below the diagonal raises ValueError.  A canonical CSR
        matrix or triple (sorted indices, no duplicates) keeps its data and
        indices arrays, without a copy; other input is converted to one.
        ``build_graph`` and ``load_graph`` pass the private window form here
        instead for d = 1 indicator graphs.
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
        if isinstance(upper, _Windows):
            self._windows, self._csr = upper, None
        else:
            self._windows, self._csr = None, _checked_upper(upper, n)
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
        if self._windows is None:
            ncomp, self._components = _components(self._csr)
        else:
            ncomp, self._components = self._windows.components()
        self.connected = bool(ncomp == 1)

    @classmethod
    def from_weights(cls, points, W, eps, kernel=None, sigma_eta=None, seed=None):
        """Build a graph from a full symmetric weight matrix (dense or sparse)."""
        import scipy.sparse as sparse  # deferred: scipy.sparse is slow to import

        W = sparse.coo_matrix(W)
        if W.shape[0] != len(points) or (abs(W - W.T) > 0).nnz != 0:
            raise ValueError("weight matrix must be symmetric, with one row per point")
        keep = W.row <= W.col
        return cls._from_entries(points, W.row[keep], W.col[keep], W.data[keep], eps,
                                 kernel=kernel, sigma_eta=sigma_eta, seed=seed)

    @classmethod
    def _from_entries(cls, points, i, j, w, eps, kernel=None, sigma_eta=None, seed=None):
        """Build a graph from entries (i, j, w) with i <= j: the self-weights
        where i == j (repeats summed), the strict upper triangle elsewhere."""
        on = i == j
        diag = np.bincount(i[on], w[on], minlength=len(points))
        return cls(points, (w[~on], (i[~on], j[~on])), diag, eps,
                   kernel=kernel, sigma_eta=sigma_eta, seed=seed)

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

    @property
    def _upper(self):
        """The strict upper triangle as canonical CSR, built on first read
        for a window graph."""
        if self._csr is None:
            import scipy.sparse as sparse  # deferred: scipy.sparse is slow to import

            from .geometry import _upper_triangle  # deferred: geometry imports this module

            self._csr = sparse.csr_matrix(_upper_triangle(self.points, self.eps, self.kernel),
                                          shape=(self.n, self.n))
        return self._csr

    def wmul(self, u):
        """Apply the full symmetric weight matrix W to a vector.

        u must have shape (n,); any other shape raises ValueError.  A d = 1
        indicator graph returns
        c (window sum - u) + diag*u from block-local prefix sums of the
        sorted u (see the module docstring, which bounds its gap to the CSR
        product by about 4 B^2 2^-53 c ||u||_inf, B the longest window).
        Every other graph returns U u + U^T u + diag*u, summed in that
        order, with U the stored upper triangle.  On large graphs with two
        or more usable CPUs the U^T u pass runs on a background worker
        thread while this thread computes U u; otherwise both run here.
        The result is bit-identical on either path.
        """
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (self.n,):
            raise ValueError("wmul needs a vector of shape (%d,), got shape %s"
                             % (self.n, u.shape))
        if self._windows is not None:
            out = self._windows.matvec(u)
            out += self._diag * u
            return out
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
        upper = (coo.data * f[coo.row] * f[coo.col], self._upper.indices, self._upper.indptr)
        return Graph(self.points, upper, self._diag * f**2, self.eps,
                     kernel=self.kernel, sigma_eta=self._sigma_eta, seed=self.seed)

    def weight_matrix(self):
        """Materialize the full symmetric weight matrix as CSR."""
        import scipy.sparse as sparse  # deferred: scipy.sparse is slow to import

        n = self.n
        return (self._upper + self._upper.T
                + sparse.diags(self._diag, format="csr", shape=(n, n))).tocsr()

    def edge_arrays(self):
        """Stored entries as (i, j, w) with i <= j, row-major order."""
        coo = self._upper.tocoo()
        di = np.flatnonzero(self._diag > 0)
        i = np.concatenate([coo.row, di])
        j = np.concatenate([coo.col, di])
        w = np.concatenate([coo.data, self._diag[di]])
        order = np.lexsort((j, i))
        return i[order], j[order], w[order]

    def component_labels(self):
        """Connected-component label per node; zero-weight edges connect nothing."""
        return self._components.copy()

    def _cell_aggregates(self, nodes):
        """Cells of side about eps as aggregates of some nodes, and the weights between them.

        The cells tile the bounding box of all points, and each non-empty
        cell that holds one of `nodes` is an aggregate.  Their side starts
        at eps and doubles while there are more than sqrt(nnz) aggregates,
        with nnz the number of stored edges, so the dense (m, m) result is
        never larger than the graph whatever eps is (it need not be a
        bandwidth for from_weights or load_graph graphs).

        Returns (agg, M): agg[k] in 0..m-1 is the aggregate of nodes[k], and
        M[a, b] sums the stored weights w_ij, i < j, over the edges with i in
        aggregate a and j in aggregate b.  Edges that touch a node outside
        `nodes` are left out.  M is P^T U P with U the stored upper triangle
        and P the one-hot (n, m+1) matrix of the aggregates, the last column
        collecting the nodes outside `nodes`.  U P holds at most one entry
        per row and neighbouring cell, 3^d for a graph of bandwidth eps.
        """
        import scipy.sparse as sparse  # deferred: scipy.sparse is slow to import

        upper = self._upper
        cap = max(1.0, math.sqrt(upper.nnz))
        lo = self.points.min(axis=0)
        extent = float(np.max(self.points.max(axis=0) - lo))
        side = max(extent / cap, self.eps) or 1.0
        cells = np.floor((self.points[nodes] - lo) / side).astype(np.int64)
        while True:
            # number the non-empty cells in lexicographic order, one axis at
            # a time so that the key stays below len(nodes) * (cap + 2)
            agg = np.zeros(len(cells), dtype=np.int64)
            for col in cells.T:
                _, agg = np.unique(agg * (col.max() + 1) + col, return_inverse=True)
            m = int(agg.max()) + 1
            if m <= cap:
                break
            cells //= 2
        full = np.full(self.n, m, dtype=np.int64)
        full[nodes] = agg
        P = sparse.csr_matrix((np.ones(self.n), full, np.arange(self.n + 1)),
                              shape=(self.n, m + 1))
        return agg, (P.T @ (upper @ P)).toarray()[:m, :m]

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


def _node_index(g, x):
    """x as a node of g: an integer or a whole float in range(g.n), else an
    IndexError that names x (a bool, a fraction or a non-finite value too)."""
    a = np.asarray(x)
    if a.ndim == 0 and a.dtype.kind in "iuf" and float(a).is_integer() and 0 <= a < g.n:
        return int(a)
    raise IndexError("node index %s out of range(%d)" % (x, g.n))


def graph_delta(x, g):
    """Graph delta at node x: value n at x and 0 elsewhere, so <delta_x, u> = u(x)."""
    x = _node_index(g, x)
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
    lv = laplacian_apply(u, LaplacianKind.Unnormalized).values
    return float(u.values @ lv) / (g.sigma_eta * g.eps**2 * g.n * (g.n - 1))


def energy_discrete(u, f):
    """Discrete variational energy E(u;f) = (1/2)<u,Lu> - <u,f>.

    Its minimizer over degree-mean-zero functions solves L u = f with the
    geometric-scaled Laplacian.
    """
    _check_same_graph(u, f)
    return 0.5 * dirichlet_energy(u) - inner(u, f)


_CSV_ROWS_PER_BLOCK = 4096


def _write_columns(path, header, columns, fmt):
    """Write equal-length numeric arrays as CSV columns under a one-line header.

    The one table writer behind the points, graph, node-value, psi and grid
    files.  Row i is ``",".join(fmt) % (columns[0][i], columns[1][i], ...)``:
    one printf format per column, as for ``np.savetxt``, so ``"%.17g"``
    round-trips every float64.  Columns are
    formatted as Python scalars (``tolist()``) in blocks of rows, which is
    about twice as fast as ``np.savetxt``'s NumPy scalars and keeps the
    transient memory small for any row count.
    """
    line = ",".join(fmt) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), _CSV_ROWS_PER_BLOCK):
            block = [c[lo:lo + _CSV_ROWS_PER_BLOCK].tolist() for c in columns]
            fh.write("".join(line % row for row in zip(*block)))


def _write_nodes(path, values):
    """Write one value per node as the CSV ``node,value``."""
    _write_columns(path, "node,value", (np.arange(len(values)), values), ("%d", "%.17g"))


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
    from .geometry import save_points  # deferred: geometry imports this module

    _write_columns(path, "i,j,w", g.edge_arrays(), ("%d", "%d", "%.17g"))
    pts_path = path + ".points"
    save_points(g.points, pts_path)
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
    directory of the graph file; an absolute one is used as is.  A d = 1
    indicator graph whose edges are those of ``build_graph`` (one kd-tree
    search checks) takes the window form, any other the file's CSR.
    """
    from . import geometry  # deferred: geometry imports this module

    with open(path + ".meta") as fh:
        meta = dict(line.strip().split("=", 1) for line in fh if "=" in line)
    n = int(meta["n"])
    d = int(meta["d"])
    eps = float(meta["eps"])
    sigma_eta = float(meta["sigma_eta"])
    seed = int(meta["seed"]) if meta.get("seed") else None
    pts_path = os.path.join(os.path.dirname(path), meta["points"])
    points = geometry.load_points(pts_path)
    if points.shape != (n, d):
        raise ValueError("points file shape %r does not match metadata (n=%d, d=%d)"
                         % (points.shape, n, d))
    with warnings.catch_warnings():  # a header-only file holds a graph with no edges
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if raw.size and raw.shape[1] != 3:
        raise ValueError("%s: edge rows are i,j,w, not %d fields" % (path, raw.shape[1]))
    i, j, w = raw.reshape(-1, 3).T
    ok = (np.trunc(i) == i) & (np.trunc(j) == j) & (0 <= i) & (i <= j) & (j < n)
    if not ok.all():
        r = int(np.argmin(ok))
        raise ValueError("%s data row %d: (i, j) = (%g, %g) is not two nodes i <= j < %d; "
                         "only self-weights lie on or below the diagonal"
                         % (path, r + 1, i[r], j[r], n))
    kernel = geometry.make_kernel(meta["kernel"], d) if meta.get("kernel") else None
    g = Graph._from_entries(points, i.astype(np.int64), j.astype(np.int64), w, eps,
                            kernel=kernel, sigma_eta=sigma_eta, seed=seed)
    windows = geometry._windows(g.points, g.eps, kernel)
    upper = g._csr.data, g._csr.indices, g._csr.indptr
    if windows and all(map(np.array_equal, upper,
                           geometry._upper_triangle(g.points, g.eps, kernel))):
        g = Graph(g.points, windows, g.self_weights, g.eps, kernel, sigma_eta, seed)
    return g
