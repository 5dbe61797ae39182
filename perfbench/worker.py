"""One benchmark run of one workload, in a process of its own.

Started by run.py with the BLAS thread count fixed in the environment and
`src/` on PYTHONPATH.  Prints one JSON object on its last stdout line:
per-repetition wall times, operation counts and failures, the per-layer
numbers of traced repetitions, and the process's peak RSS.

A repetition is one workload run: a whole ladder, one demo call, or the
five reference solves.  Inputs are built before the clock starts; outputs
are checked after it stops.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import specs
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
RESULTS = os.path.join(HERE, "results")
REFERENCE = os.path.join(HERE, "reference.json")

# CG stops at relative residual 1e-10 (graph and FD solves alike); with
# condition numbers below 1e5 (graph Laplacians at these eps, the h = 1/256
# grid) a solver that meets the same residual differs by at most 1e-5 relative.
RTOL = 1e-5


def _close(a, b):
    return (not math.isnan(a)) and abs(a - b) <= RTOL * max(abs(b), 1e-300)


def _sha256_files(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def radial_bump(grid, y, radius, coeff):
    """Compactly supported bump of mass `coeff` centred at y (criterion 4)."""
    mesh = np.meshgrid(*grid.axes, indexing="ij")
    r2 = sum((mm - yy) ** 2 for mm, yy in zip(mesh, y)) / radius**2
    q = np.maximum(0.0, 1.0 - r2) ** 2
    q /= q.sum() * grid.h**grid.d
    return coeff * q


class Rep:
    """Inputs, outputs and verdict of one repetition."""

    def __init__(self, key, inputs, outdir):
        self.key = key          # reference / digest key (master seed)
        self.inputs = inputs
        self.outdir = outdir
        self.output = None
        self.error = None


class Workload:
    ops = 1

    def __init__(self, rgg, name, seed, reference):
        self.rgg = rgg
        self.name = name
        self.seed = seed
        self.reference = reference

    def prepare(self, rep):
        mseed = specs.master_seed(self.name, self.seed, rep)
        outdir = os.path.join(WORK, "out", self.name)
        shutil.rmtree(outdir, ignore_errors=True)
        inputs = specs.make_inputs(self.rgg, self.name, mseed, outdir)
        return Rep(mseed, inputs, outdir)

    def expected(self, rep):
        return self.reference[self.name][str(rep.key)]


class Ladder(Workload):
    """Criterion 6b ladder: one operation per (eps, seed) job."""

    def __init__(self, *args):
        super().__init__(*args)
        self.ops = len(specs.LADDER_OVERRIDES[self.name]["ladder.eps"].split()) * int(
            specs.LADDER_OVERRIDES[self.name]["run.seeds"])

    def execute(self, rep):
        return self.rgg.run_convergence(rep.inputs)

    def check(self, rep, tr):
        ref = self.expected(rep)
        records = rep.output.records
        digest = _sha256_files([rep.output.csv_path])
        if len(records) != len(ref["jobs"]) or (tr is not None and len(tr.edges) != len(records)):
            return [(None, "%d jobs, expected %d" % (len(records), len(ref["jobs"])))], digest
        bad = []
        for j, (rec, want) in enumerate(zip(records, ref["jobs"])):
            if not (_close(rec.l1_error, want["l1_error"])
                    and _close(rec.moll_error, want["moll_error"])
                    and rec.iterations == want["iterations"]):
                bad.append((j, "job %d: l1 %r moll %r iters %d, expected %r %r %d" % (
                    j, rec.l1_error, rec.moll_error, rec.iterations,
                    want["l1_error"], want["moll_error"], want["iterations"])))
            elif tr is not None and tr.edges[j] != ref["edges"][j]:
                bad.append((j, "job %d: %d edges, expected %d" % (j, tr.edges[j], ref["edges"][j])))
        return bad, digest

    def record(self, rep, tr):
        return {"jobs": [{"l1_error": r.l1_error, "moll_error": r.moll_error,
                          "iterations": r.iterations} for r in rep.output.records],
                "edges": list(tr.edges)}


class TwoLabel(Workload):
    """Criterion 8 demo: one operation per demo_two_point call."""

    def execute(self, rep):
        return self.rgg.demo_two_point(rep.inputs)

    def check(self, rep, tr):
        ref = self.expected(rep)
        rec = rep.output.records[0]
        bad = []
        if not (_close(rec.l1_error, ref["l1_error"]) and _close(rec.moll_error, ref["moll_error"])
                and rec.iterations == ref["iterations"]):
            bad.append((0, "spike %r iqr %r iters %d, expected %r %r %d" % (
                rec.l1_error, rec.moll_error, rec.iterations,
                ref["l1_error"], ref["moll_error"], ref["iterations"])))
        elif tr is not None and tr.edges != ref["edges"]:
            bad.append((0, "edges %r, expected %r" % (tr.edges, ref["edges"])))
        files = [os.path.join(rep.outdir, f + ".csv")
                 for f in ("results", "laplace", "poisson", "pwll")]
        return bad, _sha256_files(files)

    def record(self, rep, tr):
        rec = rep.output.records[0]
        return {"l1_error": rec.l1_error, "moll_error": rec.moll_error,
                "iterations": rec.iterations, "edges": list(tr.edges)}


class ReferenceFD(Workload):
    """Criterion 4 on h = 1/256: one operation per FD solve."""

    ops = 1 + len(specs.FD_RADII)

    def expected(self, rep):
        return self.reference[self.name]

    def execute(self, rep):
        rgg, grid = self.rgg, rep.inputs
        y1, y2 = (tuple(grid.axes[i][grid.cell_of(a)[i]] for i in range(2))
                  for a in specs.FD_ANCHORS)
        s = rgg.SourceSpec(np.array([y1, y2]), np.array([1.0, -1.0]))
        u_atom = rgg.solve_weighted_poisson(grid, s, tol=1e-10)
        h = hashlib.sha256(u_atom.values.tobytes())
        gaps = []
        for r in specs.FD_RADII:
            f = radial_bump(grid, y1, r, 1.0) + radial_bump(grid, y2, r, -1.0)
            u_b = rgg.solve_weighted_poisson(grid, rgg.GridFunction(grid, f), tol=1e-10)
            h.update(u_b.values.tobytes())
            gaps.append(float(np.abs(u_b.values - u_atom.values).sum() * grid.h**2))
        slope = float(np.polyfit(np.log(specs.FD_RADII), np.log(gaps), 1)[0])
        atom_l1 = float(np.abs(u_atom.values).sum() * grid.h**2)
        return {"atom_l1": atom_l1, "gaps": gaps, "slope": slope, "digest": h.hexdigest()}

    def check(self, rep, tr):
        ref, out = self.expected(rep), rep.output
        bad = []
        if not _close(out["atom_l1"], ref["atom_l1"]):
            bad.append((0, "atomic solve: l1 %r, expected %r" % (out["atom_l1"], ref["atom_l1"])))
        lo, hi = specs.FD_SLOPE_BAND
        for i, (r, got, want) in enumerate(zip(specs.FD_RADII, out["gaps"], ref["gaps"])):
            if not (_close(got, want) and lo <= out["slope"] <= hi):
                bad.append((1 + i, "bump r=%g: gap %r (slope %.4f), expected %r" % (
                    r, got, out["slope"], want)))
        if tr is not None:
            calls = tr.calls_per_parent("continuum_ref.solve_weighted_poisson",
                                        "continuum_ref.apply")
            if len(calls) != self.ops:
                bad.append((None, "%d solves, expected %d" % (len(calls), self.ops)))
            else:
                bad.extend((i, "solve %d: %d apply calls, expected %d" % (i, c, w))
                           for i, (c, w) in enumerate(zip(calls, ref["apply_calls"])) if c != w)
        return bad, out["digest"]

    def record(self, rep, tr):
        out = rep.output
        return {"atom_l1": out["atom_l1"], "gaps": out["gaps"], "slope": out["slope"],
                "apply_calls": tr.calls_per_parent("continuum_ref.solve_weighted_poisson",
                                                   "continuum_ref.apply")}


CLASSES = {"ladder-d1": Ladder, "ladder-d2": Ladder,
           "two-label": TwoLabel, "reference-fd": ReferenceFD}


def make_workload(name, seed, reference=None):
    import rgglearn

    if reference is None:
        with open(REFERENCE) as fh:
            reference = json.load(fh)
    return CLASSES[name](rgglearn, name, seed, reference)


def run_rep(wl, rep, tr=None):
    """Time one repetition; tracing wraps it in a root span when tr is given."""
    t0 = time.perf_counter()
    try:
        if tr is None:
            rep.output = wl.execute(rep)
        else:
            rep.output = tr.root(lambda: wl.execute(rep))
    except Exception as exc:  # noqa: BLE001 - a failed repetition is counted, not fatal
        rep.error = "%s: %s" % (type(exc).__name__, exc)
    return time.perf_counter() - t0


def layer_numbers(tr, wall):
    """Per-layer metrics of one traced repetition."""
    by_name, by_layer = tr.summary()

    def s(name):
        return by_name.get(name, (0.0, 0))[0]

    def calls(name):
        return by_name.get(name, (0.0, 0))[1]

    wmul_s = s("graph_core.wmul")
    nbytes = tr.counts.get("wmul.bytes_computed", 0)
    out = {
        "geometry.build_graph.s": s("geometry.build_graph"),
        "geometry.build_graph.calls": calls("geometry.build_graph"),
        "geometry.build_graph.edges": sum(tr.edges),
        "geometry.sample_points.s": s("geometry.sample_points"),
        "graph_core.Graph.s": s("graph_core.Graph"),
        "graph_core.wmul.s": wmul_s,
        "graph_core.wmul.calls": calls("graph_core.wmul"),
        "graph_core.wmul.flops": tr.counts.get("wmul.flops", 0),
        "graph_core.wmul.bytes_computed": nbytes,
        "graph_core.wmul.gbytes_per_s": nbytes / wmul_s / 1e9 if wmul_s > 0 else 0.0,
        "poisson_solver.solve_graph_poisson.s": s("poisson_solver.solve_graph_poisson"),
        "poisson_solver.solve_graph_poisson.iters": tr.counts.get("solve_graph_poisson.iters", 0),
        "poisson_solver.solve_laplace_learning.s": s("poisson_solver.solve_laplace_learning"),
        "poisson_solver.solve_pwll.s": s("poisson_solver.solve_pwll"),
        "heat_kernel.heat_convolve.s": s("heat_kernel.heat_convolve"),
        "heat_kernel.heat_convolve.steps": tr.counts.get("heat_convolve.steps", 0),
        "continuum_ref.solve_weighted_poisson.s": s("continuum_ref.solve_weighted_poisson"),
        "continuum_ref.apply.calls": calls("continuum_ref.apply"),
        "continuum_ref.interpolate_at.s": s("continuum_ref.interpolate_at"),
        "trace.wall_s": wall,
    }
    for layer in tracing.LAYERS + (tracing.BOOKKEEPING,):
        out["%s.self_s" % layer] = by_layer.get(layer, 0.0)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src-digest", required=True)
    args = ap.parse_args(argv)

    import rgglearn

    src = os.path.join(ROOT, "src", "rgglearn")
    if os.path.dirname(os.path.abspath(rgglearn.__file__)) != src:
        raise SystemExit("rgglearn imported from %s, not %s" % (rgglearn.__file__, src))

    wl = make_workload(args.workload, args.seed)
    # earlier outputs are comparable only for the same library and workload definitions
    with open(specs.__file__, "rb") as fh:
        spec_digest = hashlib.sha256(fh.read()).hexdigest()
    digest_path = os.path.join(WORK, "digests-%s-%s.json" % (args.src_digest[:16], spec_digest[:8]))
    os.makedirs(WORK, exist_ok=True)
    digests = {}
    if os.path.exists(digest_path):
        with open(digest_path) as fh:
            digests = json.load(fh)

    reps, problems, harness, traced, untraced = [], [], [], [], []

    def finish(rep, wall, tr):
        """Check one repetition; a failed operation is one listed in `bad`,
        and every operation fails when the whole repetition does (op None)."""
        if rep.error:
            bad = [(None, rep.error)]
        else:
            bad, digest = wl.check(rep, tr)
            key = "%s/%s" % (wl.name, rep.key)
            if digests.setdefault(key, digest) != digest:
                bad.append((None, "outputs differ from an earlier run of this source"))
        ops = {op for op, _ in bad}
        failed = wl.ops if None in ops else len(ops)
        problems.extend("%s seed %s: %s" % (wl.name, rep.key, msg) for _, msg in bad[:5])
        reps.append({"wall_s": wall, "attempted": wl.ops, "failed": failed,
                     "master_seed": rep.key, "traced": tr is not None})

    start = time.perf_counter()
    while True:
        if args.trace:
            # an untraced and a traced repetition on identical inputs
            if tracing.installed_wrappers():
                harness.append("wrappers present before an untraced repetition")
            rep = wl.prepare(0)
            wall = run_rep(wl, rep)
            untraced.append(wall)
            finish(rep, wall, None)
            tr = tracing.Tracer()
            rep = wl.prepare(0)
            tr.install()
            try:
                wall = run_rep(wl, rep, tr)
            finally:
                tr.uninstall()
            left = tracing.installed_wrappers()
            if left:
                harness.append("wrappers left after tracing: %s" % ", ".join(left[:5]))
            finish(rep, wall, tr)
            nums = layer_numbers(tr, wall)
            total = sum(v for k, v in nums.items() if k.endswith(".self_s"))
            if abs(total - wall) > 1e-3 * wall + 2e-3:
                harness.append("layer self times sum to %.6f s, traced wall is %.6f s"
                               % (total, wall))
            traced.append(nums)
            per_rep = statistics.median(untraced) + statistics.median(
                [t["trace.wall_s"] for t in traced])
        else:
            rep = wl.prepare(len(reps))
            wall = run_rep(wl, rep)
            finish(rep, wall, None)
            per_rep = statistics.median(r["wall_s"] for r in reps)
        if time.perf_counter() - start + per_rep > args.seconds:
            break

    with open(digest_path, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
    if args.trace:  # spans of the last traced repetition, times relative to its start
        os.makedirs(RESULTS, exist_ok=True)
        t0 = min(span[2] for span in tr.spans)
        path = os.path.join(RESULTS, "%s-seed%d-spans.json" % (wl.name, args.seed))
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "layer", "start_s", "end_s", "parent"],
                       "spans": [[n, layer, a - t0, b - t0, p]
                                 for n, layer, a, b, p in tr.spans]}, fh)
    print(json.dumps({
        "reps": reps, "traced": traced, "untraced_walls": untraced,
        "problems": problems, "harness": harness,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": __import__("scipy").__version__,
                     "openblas": np.show_config(mode="dicts")["Build Dependencies"]
                     ["blas"].get("version", "unknown")},
    }))


if __name__ == "__main__":
    main()
