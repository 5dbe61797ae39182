"""Span tracing of rgglearn from outside the library.

`Tracer.install()` replaces every public function of the layer modules (in
every rgglearn namespace that binds it) and a few hot methods with timing
wrappers; `uninstall()` puts the originals back.  Spans (name, layer, start,
end, parent) stay in memory.  A layer's self time is a span's duration minus
the time its child spans cover.
"""

import functools
import inspect
import sys
import time
import weakref

import numpy as np

LAYERS = ("geometry", "graph_core", "poisson_solver", "heat_kernel",
          "continuum_ref", "experiments")
ROOT = "experiments"   # the timed region outside any layer span counts here
BOOKKEEPING = "trace"  # counter work done by the wrappers themselves

# (module, class, method) wrapped in addition to the public functions.
METHODS = (("graph_core", "Graph", "__init__"),
           ("graph_core", "Graph", "wmul"),
           ("continuum_ref", "ReferenceGrid", "apply"))


def weight_nnz(g):
    """(undirected edges, stored entries of the full symmetric W) of a graph.

    Reads the stored upper triangle when the graph keeps one (O(1)); falls
    back to the public edge list for any other storage.
    """
    upper = getattr(g, "_upper", None)
    if upper is not None:
        edges = int(upper.nnz)
    else:
        i, j, _ = g.edge_arrays()
        edges = int(np.count_nonzero(i < j))
    return edges, 2 * edges + int(np.count_nonzero(g.self_weights))


class Tracer:
    def __init__(self):
        self.spans = []     # [name, layer, start, end, parent index]
        self.counts = {}    # counter name -> summed value
        self.edges = []     # undirected edge count per build_graph call, in order
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self._nnz = weakref.WeakKeyDictionary()

    # -- spans -------------------------------------------------------------
    def _wrap(self, fn, name, layer, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append([name, layer, time.perf_counter(), 0.0, parent])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = time.perf_counter()
                spans[idx][3] = end
            if after is not None:
                after(args, kwargs, out)
                spans.append([BOOKKEEPING, BOOKKEEPING, end, time.perf_counter(), parent])
            return out

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _count(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    # -- counters at layer boundaries ---------------------------------------
    def _after_build_graph(self, args, kwargs, g):
        edges, _ = weight_nnz(g)
        self.edges.append(edges)

    def _after_wmul(self, args, kwargs, out):
        g = args[0]
        nnz = self._nnz.get(g)
        if nnz is None:
            nnz = self._nnz[g] = weight_nnz(g)[1]
        n = out.shape[0]
        # one multiply-add per stored entry of W; CSR traffic: 8 B value +
        # 4 B column index per entry, row pointers, read x once, write y once
        self._count("wmul.flops", 2 * nnz)
        self._count("wmul.bytes_computed", 12 * nnz + 4 * (n + 1) + 16 * n)

    def _after_solve_graph_poisson(self, args, kwargs, out):
        self._count("solve_graph_poisson.iters", out[1].iterations)

    def _after_heat_convolve(self, args, kwargs, out):
        k = args[1] if len(args) > 1 else kwargs["k"]
        self._count("heat_convolve.steps", int(k))

    # -- install / uninstall -------------------------------------------------
    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        import rgglearn  # noqa: F401 - loads every layer module

        mods = {name: mod for name, mod in sys.modules.items()
                if name == "rgglearn" or name.startswith("rgglearn.")}
        after = {"build_graph": self._after_build_graph,
                 "solve_graph_poisson": self._after_solve_graph_poisson,
                 "heat_convolve": self._after_heat_convolve}
        wrapped = {}
        for layer in LAYERS:
            mod = mods["rgglearn." + layer]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped[id(fn)] = (fn, self._wrap(fn, "%s.%s" % (layer, attr),
                                                  layer, after.get(attr)))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        method_after = {"wmul": self._after_wmul}
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods["rgglearn." + layer], cls_name)
            fn = cls.__dict__[meth]
            name = "%s.%s" % (layer, cls_name if meth == "__init__" else meth)
            self._patch(cls, meth, self._wrap(fn, name, layer, method_after.get(meth)))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def root(self, fn):
        """Run fn() as the root span of one timed repetition."""
        return self._wrap(fn, ROOT + ".root", ROOT)()

    # -- aggregation ------------------------------------------------------------
    def self_times(self):
        """Per span: duration minus the summed durations of its children."""
        child = [0.0] * len(self.spans)
        for name, layer, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(s[0], s[1], (s[3] - s[2]) - c) for s, c in zip(self.spans, child)]

    def calls_per_parent(self, parent, child):
        """Direct `child` calls under each `parent` span, in call order."""
        counts = {}
        for i, span in enumerate(self.spans):
            if span[0] == parent:
                counts[i] = 0
        for span in self.spans:
            if span[0] == child and span[4] in counts:
                counts[span[4]] += 1
        return [counts[i] for i in sorted(counts)]

    def summary(self):
        """Self time and call count per span name and per layer."""
        by_name, by_layer = {}, {}
        for name, layer, st in self.self_times():
            s, c = by_name.get(name, (0.0, 0))
            by_name[name] = (s + st, c + 1)
            by_layer[layer] = by_layer.get(layer, 0.0) + st
        return by_name, by_layer


def installed_wrappers():
    """Names in rgglearn that are still tracing wrappers (should be none)."""
    left = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "rgglearn" and not mod_name.startswith("rgglearn."):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, "__perfbench_original__"):
                left.append("%s.%s" % (mod_name, attr))
            if inspect.isclass(value) and value.__module__ == mod_name:
                for meth, fn in vars(value).items():
                    if hasattr(fn, "__perfbench_original__"):
                        left.append("%s.%s.%s" % (mod_name, attr, meth))
    return left
