"""Experiment orchestration: parameter sweeps, graph-vs-continuum errors,
rate fits, and CSV artifacts.

The four runners share one job pipeline, `_run_jobs`: each does its own
set-up and passes a `measure` closure that fills the records of one job;
`_run_jobs` runs the sweep and writes its results.csv and meta.txt.
"""

import configparser
import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Box,
    build_graph,
    closest_point,
    make_density,
    make_kernel,
    sample_points,
)
from .graph_core import _write_nodes, pnorm, weighted_mean
from .poisson_solver import (
    SourceSpec,
    solve_graph_poisson,
    solve_laplace_learning,
    solve_pwll,
)
from .heat_kernel import (
    heat_column,
    heat_convolve,
    psi_table,
    repeated_average,
    rho_hat,
    scale_constants,
)
from .continuum_ref import build_grid, interpolate_at, solve_weighted_poisson

CSV_COLUMNS = ("experiment", "d", "n", "eps", "k", "seed",
               "l1_error", "moll_error", "slope", "runtime_s")

DEFAULTS = """
[run]
experiment = converge
outdir = out
master_seed = 1
seeds = 5

[domain]
d = 2
box = 0 0 1 1
density = constant
slope = 0.8
kernel = indicator

[source]
anchors = 0.3 0.5 ; 0.7 0.5
coefficients = 1 -1
center = 0.5 0.5

[ladder]
eps = 0.2 0.14 0.1
n_rule = power
n_list =
n_const = 10
n_power = 3
n_max = 100000
k_rule = fixed
k = 0
k_list = 4 16 64 256

[solver]
ref_h = 0
"""


def _floats(s):
    return [float(t) for t in s.split()]


def _ints(s):
    return [int(t) for t in s.split()]


def _points(s):
    return [np.array(_floats(part)) for part in s.split(";") if part.strip()]


class ExperimentConfig:
    """Sweep configuration from an INI file plus --key value overrides.

    The 22 keys of `DEFAULTS` are the schema: [run] experiment/outdir/
    master_seed/seeds, [domain] d/box/density/slope/kernel, [source]
    anchors/coefficients/center, [ladder] eps/n_rule/n_list/n_const/
    n_power/n_max/k_rule/k/k_list, [solver] ref_h.  File
    entries, then overrides, are checked against it (KeyError for an
    unknown section or option).  Overrides use 'section.option' keys, or
    the bare option name when it is unambiguous.
    """

    def __init__(self, path=None, overrides=None):
        cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
        cp.read_string(DEFAULTS)
        entries = []
        if path is not None:
            fp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                           interpolation=None)
            with open(path) as fh:
                fp.read_file(fh)
            entries = [("%s.%s" % (s, o), v) for s in fp.sections()
                       for o, v in fp.items(s)]
        for key, value in entries + list((overrides or {}).items()):
            section, option = self._locate(cp, key)
            cp.set(section, option, str(value))
        self._cp = cp

        run = cp["run"]
        self.experiment = run.get("experiment").strip()
        self.outdir = run.get("outdir").strip()
        self.master_seed = run.getint("master_seed")
        self.seeds = run.getint("seeds")
        if self.seeds < 1:
            raise ValueError("need at least one seed")

        dom = cp["domain"]
        self.d = dom.getint("d")
        box = _floats(dom.get("box"))
        if len(box) != 2 * self.d:
            raise ValueError("box needs %d numbers (lower then upper)" % (2 * self.d))
        self.domain = Box(box[: self.d], box[self.d:])
        self.density = make_density(dom.get("density").strip(), self.domain,
                                    slope=dom.getfloat("slope"))
        self.kernel = make_kernel(dom.get("kernel").strip(), self.d)

        src = cp["source"]
        self.anchors = _points(src.get("anchors"))
        self.coefficients = np.array(_floats(src.get("coefficients")))
        self.center = np.array(_floats(src.get("center")))
        if any(p.size != self.d for p in self.anchors + [self.center]):
            raise ValueError("anchor or center dimension mismatch: need %d numbers "
                             "each" % self.d)
        if len(self.anchors) != self.coefficients.size:
            raise ValueError("anchor/coefficient count mismatch")

        lad = cp["ladder"]
        self.eps_list = _floats(lad.get("eps"))
        if not self.eps_list:
            raise ValueError("empty eps ladder")
        if any(b >= a for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ValueError("eps ladder must be strictly decreasing")
        self.n_rule = lad.get("n_rule").strip()
        self.n_list = _ints(lad.get("n_list")) if lad.get("n_list").strip() else []
        self.n_const = lad.getfloat("n_const")
        self.n_power = lad.getfloat("n_power")
        self.n_max = lad.getint("n_max")
        self.k_rule = lad.get("k_rule").strip()
        self.k = lad.getint("k")
        self.k_list = _ints(lad.get("k_list"))

        self.ref_h = cp["solver"].getfloat("ref_h")

    @staticmethod
    def _locate(cp, key):
        if "." in key:
            section, option = key.split(".", 1)
            if not cp.has_option(section, option):
                raise KeyError("unknown config key %r" % key)
            return section, option
        hits = [s for s in cp.sections() if cp.has_option(s, key)]
        if len(hits) != 1:
            raise KeyError("ambiguous or unknown config key %r" % key)
        return hits[0], key

    def n_for(self, eps):
        if self.n_rule == "list":
            raise ValueError("n_for undefined under the list rule")
        if self.n_rule != "power":
            raise ValueError("unknown n_rule %r" % self.n_rule)
        return min(int(math.ceil(self.n_const * eps ** (-self.n_power))), self.n_max)

    def ns_for(self, eps):
        """The n ladder at eps: n_list under the list rule, else [n_for(eps)]."""
        ns = self.n_list if self.n_rule == "list" else [self.n_for(eps)]
        if not ns:
            raise ValueError("empty n ladder")
        return ns

    def k_for(self, eps):
        d = self.d
        if self.k_rule == "fixed":
            return self.k
        if self.k_rule == "cor52":
            return int(math.ceil(eps ** (-2.0 * (d + 1) / (d + 2))))
        if self.k_rule == "cor53":
            return int(math.ceil(eps ** (-2.0 * (d + 3) / (d + 4))))
        raise ValueError("unknown k_rule %r" % self.k_rule)

    def source_spec(self):
        return SourceSpec(np.stack(self.anchors), self.coefficients, self.domain)

    def reference_h(self):
        """Auto grid step: largest 1/m <= min(eps)/10 that divides every side."""
        if self.ref_h > 0:
            return self.ref_h
        lo, up = self.domain.bounding_box()
        sides = up - lo
        base = float(np.min(sides))
        m = int(math.ceil(10.0 * base / min(self.eps_list)))
        for mm in range(m, 12 * m):
            h = base / mm
            if np.max(np.abs(sides - np.round(sides / h) * h)) < 1e-9 * h:
                return h
        raise ValueError("no admissible reference grid step; set solver.ref_h")

    def checks(self, n, eps, k, points=None):
        """Scaling-hypothesis booleans for one ladder point.

        graph_scaling: n >= 2, 0 < eps <= 1 and n eps^d >= 1.
        heat_scaling:  0 < eps <= 1/2 and eps sqrt(k) <= 1.
        label_margin:  eps_k log(1/eps)^(1/2) <= dist(anchors, boundary)
                       / (24 (d + 2)).
        """
        kk = max(int(k), 1)
        eps_k = eps * math.sqrt(kk)
        pts = self.anchors if points is None else points
        dist = min(self.domain.boundary_distance(p) for p in pts)
        margin = dist / (24.0 * (self.d + 2))
        return {
            "graph_scaling": bool(n >= 2 and 0 < eps <= 1 and n * eps**self.d >= 1 - 1e-12),
            "heat_scaling": bool(0 < eps <= 0.5 and eps_k <= 1 + 1e-12),
            "label_margin": bool(eps_k * math.sqrt(math.log(1.0 / eps)) <= margin),
        }

    def describe(self):
        buf = io.StringIO()
        for section in self._cp.sections():
            for option in sorted(self._cp.options(section)):
                buf.write("%s.%s = %s\n" % (section, option,
                                            self._cp.get(section, option).strip()))
        return buf.getvalue()


@dataclass
class RateRecord:
    """One sweep point: errors plus solver stats for a (n, eps, k, seed) job."""
    experiment: str
    d: int
    n: int
    eps: float
    k: int
    seed: int
    l1_error: float = math.nan
    moll_error: float = math.nan
    iterations: int = 0
    residual: float = 0.0

    def csv_row(self):
        """The record's results.csv fields.  The runtime_s column stays blank
        on purpose: a timing would make results.csv differ between runs of
        one config; each job's wall time goes to meta.txt instead."""
        return {"experiment": self.experiment, "d": self.d, "n": self.n,
                "eps": self.eps, "k": self.k, "seed": self.seed,
                "l1_error": self.l1_error, "moll_error": self.moll_error}


@dataclass
class RunResult:
    records: list
    slope: float = math.nan
    slope_band: float = math.nan
    medians: dict = field(default_factory=dict)
    csv_path: str = ""
    jobs: int = 0
    failures: list = field(default_factory=list)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if math.isnan(value):
        return ""
    return "%.17g" % value


def _aligned(g, values):
    """Subtract the degree-weighted graph mean; verify the gauge."""
    out = values - weighted_mean(g.func(values))
    gauge = abs(weighted_mean(g.func(out)))
    if gauge > 1e-10 * max(1.0, np.abs(out).max()):
        raise RuntimeError("gauge alignment failed (residual mean %.3g)" % gauge)
    return out


def fit_slope(xs, ys):
    """OLS slope of log(ys) against log(xs) with a 2-sigma half band."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    if lx.size < 2:
        raise ValueError("need at least two points for a slope")
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, res, _, _ = np.linalg.lstsq(A, ly, rcond=None)
    slope = coef[0]
    if lx.size > 2 and res.size:
        var = res[0] / (lx.size - 2) / np.sum((lx - lx.mean()) ** 2)
        band = 2.0 * math.sqrt(var)
    else:
        band = math.nan
    return slope, band


def _median_rows(records, key):
    """Group records by key(r) preserving first appearance; median l1/moll."""
    groups = {}
    for r in records:
        groups.setdefault(key(r), []).append(r)
    out = {}
    for g_key, rs in groups.items():
        out[g_key] = (float(np.median([r.l1_error for r in rs])),
                      float(np.median([r.moll_error for r in rs])))
    return out


def _run_jobs(cfg, rungs, measure, meta, ladder_key=None, stat="l1", fit=True,
              seeds=None, points=None):
    """Run a sweep from start to finish: create cfg.outdir, run every job
    through one sample -> build -> measure loop, then write results.csv and
    meta.txt (see `_summarize` for ladder_key, stat and fit).

    A rung is (eps, n, ks).  Job j, counted over the rungs and then the
    seeds, samples n points with seed [master_seed, j], builds the
    eps-graph g and calls measure(records, pts, g), which fills one
    RateRecord per k of the rung (in ks order).  An exception fails only
    that job: its records keep NaN errors, its message is kept in
    `failures`, and the sweep goes on.  Records come out rung by rung and
    k-major within a rung.  meta gets the scaling checks of each (rung, k),
    with `points` passed to cfg.checks, and one line per job.  `seeds`
    (default cfg.seeds) is the number of jobs per rung.

    Returns the RunResult: records, job count, failure messages, medians,
    slope and the results.csv path.
    """
    os.makedirs(cfg.outdir, exist_ok=True)
    seeds = cfg.seeds if seeds is None else seeds
    result = RunResult([])
    for eps, n, ks in rungs:
        for k in ks:
            meta.append("point eps=%.17g n=%d k=%d: %s" % (eps, n, k, " ".join(
                "%s=%s" % item for item in cfg.checks(n, eps, k, points=points).items())))
        per_seed = []
        for seed in range(seeds):
            blank = lambda: [RateRecord(cfg.experiment, cfg.d, n, eps, k, seed)  # noqa: E731
                             for k in ks]
            tag = "job %d (eps=%.17g n=%d seed=%d)" % (result.jobs, eps, n, seed)
            recs = blank()
            t0 = time.perf_counter()
            try:
                pts = sample_points(cfg.domain, cfg.density, n, [cfg.master_seed, result.jobs])
                g = build_graph(pts, eps, cfg.kernel)
                measure(recs, pts, g)
                status = "iters=%d resid=%.3g" % (recs[0].iterations, recs[0].residual)
            except Exception as exc:  # noqa: BLE001 - recorded per job
                result.failures.append("%s: %s" % (tag, exc))
                recs, status = blank(), "failed"
            finally:
                pts = g = None  # free this job's graph before the next one is built
            meta.append("%s: %s wall=%.2fs" % (tag, status, time.perf_counter() - t0))
            per_seed.append(recs)
            result.jobs += 1
        result.records.extend(rec for row in zip(*per_seed) for rec in row)  # k-major
    return _summarize(cfg, result, meta, ladder_key, stat, fit)


def run_convergence(config):
    """Graph solutions vs the continuum superposition reference.

    For each (eps, n, seed) draws a graph, solves the graph Poisson
    problem, samples the continuum reference at the graph nodes, aligns
    both gauges, and records the l1 error (1/n) sum |u_graph/2 - u|.  The
    factor 1/2 converts the graph normalization (whose limit is the
    operator -div(rho^2 grad)/2rho against the rho-weighted inner product)
    to the reference equation -div(rho^2 grad u) = sum a_x delta_x.  The
    moll_error column carries |u - H_k u|_l1 of the raw graph solution
    when the k rule gives k >= 1.
    """
    cfg = config
    ladder_key = lambda r: r.eps  # noqa: E731
    if cfg.n_rule != "list":
        pairs = [(eps, cfg.n_for(eps)) for eps in cfg.eps_list]
    elif len(cfg.eps_list) == 1 and len(cfg.n_list) > 1:
        # n ladder at fixed eps: medians keyed by n
        pairs = [(cfg.eps_list[0], n) for n in cfg.n_list]
        ladder_key = lambda r: r.n  # noqa: E731
    elif len(cfg.n_list) == len(cfg.eps_list):
        pairs = list(zip(cfg.eps_list, cfg.n_list))
    else:
        raise ValueError("n_list length must match the eps ladder")
    spec = cfg.source_spec()

    t0 = time.perf_counter()
    h = cfg.reference_h()
    grid = build_grid(cfg.domain, h, cfg.density)
    u_ref = solve_weighted_poisson(grid, spec)
    t_ref = time.perf_counter() - t0

    meta = ["columns: l1_error = (1/n) sum |u_graph/2 - u_ref| (gauge aligned); "
            "moll_error = (1/n) sum |u_graph - H_k u_graph|",
            "reference grid: h = %.17g, cells = %s, solve time %.2fs"
            % (h, "x".join(str(s) for s in grid.shape), t_ref)]

    def measure(recs, pts, g):
        (rec,) = recs
        u, report = solve_graph_poisson(g, spec)
        ref_at = interpolate_at(u_ref, pts)
        diff = _aligned(g, 0.5 * u.values) - _aligned(g, ref_at)
        rec.l1_error = pnorm(g.func(diff), 1)
        if rec.k >= 1:
            uk = heat_convolve(g, rec.k, u)
            rec.moll_error = pnorm(g.func(u.values - uk.values), 1)
        rec.iterations = report.iterations
        rec.residual = report.residual

    rungs = [(eps, n, [cfg.k_for(eps)]) for eps, n in pairs]
    return _run_jobs(cfg, rungs, measure, meta, ladder_key=ladder_key)


def run_mollification_rate(config):
    """Heat smoothing error |u - H_k u|_l1 against eps_k on fixed graphs.

    One graph and one Poisson solve per seed (at the first ladder eps); the
    k ladder reuses running powers of the smoothing operator.
    """
    cfg = config
    eps = cfg.eps_list[0]
    ks = sorted(cfg.k_list)
    if not ks or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("k_list must be non-empty and strictly increasing")
    for k in ks:
        if k < 0:
            raise ValueError("k must be >= 0")
        if k >= 1:
            scale_constants(cfg.d, k, eps)  # validates eps sqrt(k) <= 1
    n = cfg.ns_for(eps)[0]
    spec = cfg.source_spec()

    meta = ["columns: moll_error = (1/n) sum |u_graph - H_k u_graph|; "
            "l1_error unused"]

    def measure(recs, pts, g):
        u, report = solve_graph_poisson(g, spec)
        v, done = u, 0
        for rec in recs:
            v = heat_convolve(g, rec.k - done, v)
            done = rec.k
            rec.moll_error = pnorm(g.func(u.values - v.values), 1)
            rec.iterations = report.iterations
            rec.residual = report.residual

    return _run_jobs(cfg, [(eps, n, ks)], measure, meta,
                     ladder_key=lambda r: r.eps * math.sqrt(r.k), stat="moll")


def run_heat_asymptotics(config):
    """Heat columns vs their two continuum surrogates on an n ladder.

    The column is taken at the sampled node closest to the configured
    center (the graph delta can only sit on a node; the offset is part of
    the discretization error and shrinks as n grows).  l1_error compares
    H_k^x with rho_hat(x)^{-1} M^{k-1} eta_eps(.-x) (iterated-average
    surrogate); moll_error compares with rho(x)^{-1} psi_{k,eps}(|.-x|)
    (self-convolution surrogate, exact for constant density).  The
    residual field stores |mass(H_k) - 1|.
    """
    cfg = config
    eps = cfg.eps_list[0]
    k = cfg.k_for(eps)
    if k < 1:
        raise ValueError("heat ladder needs k >= 1")
    ns = cfg.ns_for(eps)
    sc = scale_constants(cfg.d, k, eps)
    x0 = cfg.center
    if cfg.domain.boundary_distance(x0) < sc.R_k:
        raise ValueError("center too close to the boundary: need B(x, R_k) inside, "
                         "R_k = %.4g" % sc.R_k)

    meta = ["columns: l1_error = (1/n) sum |H_k - rho_hat^-1 M^(k-1) eta|; "
            "moll_error = (1/n) sum |H_k - rho^-1 psi_k|; "
            "residual = |mass - 1|"]
    t0 = time.perf_counter()
    h = eps / 8.0
    avg = repeated_average(cfg.density, cfg.domain, cfg.kernel, eps, x0, k - 1, h)
    rh = rho_hat(cfg.density, cfg.domain, cfg.kernel, eps, x0)
    psi = psi_table(cfg.kernel, cfg.d, k, eps)
    rho_x = float(cfg.density.evaluate(x0[None, :])[0])
    meta.append("surrogates: grid h = %.17g, rho_hat(x) = %.17g, rho(x) = %.17g, "
                "setup %.2fs" % (h, rh, rho_x, time.perf_counter() - t0))

    def measure(recs, pts, g):
        (rec,) = recs
        xi = closest_point(x0, g)
        meta.append("n=%d seed=%d: nearest node %d, center offset %.3g"
                    % (rec.n, rec.seed, xi, float(np.linalg.norm(pts[xi] - x0))))
        hvals = heat_column(g, xi, k).values
        rec.residual = abs(np.mean(hvals) - 1.0)
        sur_a = avg.sample(pts) / rh
        r = np.linalg.norm(pts - x0[None, :], axis=1)
        sur_b = psi.evaluate(r) / rho_x
        rec.l1_error = float(np.mean(np.abs(hvals - sur_a)))
        rec.moll_error = float(np.mean(np.abs(hvals - sur_b)))

    return _run_jobs(cfg, [(eps, n, [k]) for n in ns], measure, meta,
                     ladder_key=lambda r: r.n, fit=False, points=[x0])


def demo_two_point(config):
    """Two-label comparison fields: Laplace, Poisson, and reweighted Laplace.

    Writes laplace.csv / poisson.csv / pwll.csv (node,value) for one
    sampled graph with labels +1/-1, plus results.csv where l1_error is
    the Laplace spike statistic (fraction of unlabeled values within
    0.05 * gap of their median) and moll_error is the interquartile range
    of the Poisson field.  The demo is one job (job 0) whatever run.seeds
    says; a failure of that job is recorded like any runner's.
    """
    cfg = config
    if len(cfg.anchors) != 2:
        raise ValueError("demo needs exactly two anchors")
    values = cfg.coefficients
    if sorted(values) != [-1.0, 1.0]:
        raise ValueError("demo labels must be +1 and -1")
    eps = cfg.eps_list[0]
    n = cfg.ns_for(eps)[0]
    gap = abs(values[0] - values[1])

    meta = ["columns: l1_error = Laplace spike fraction; moll_error = Poisson "
            "interquartile range"]

    def measure(recs, pts, g):
        (rec,) = recs
        nodes = [closest_point(a, g) for a in cfg.anchors]
        if nodes[0] == nodes[1]:
            raise RuntimeError("both anchors map to one node")
        labels = list(zip(nodes, values))
        meta.append("label nodes: %d %d" % tuple(nodes))

        lap = solve_laplace_learning(g, labels, tol=1e-10)
        poi, report = solve_graph_poisson(g, cfg.source_spec())
        pw = solve_pwll(g, labels, tol=1e-10)

        unlabeled = np.setdiff1d(np.arange(g.n), nodes)
        v = lap.values[unlabeled]
        rec.l1_error = float(np.mean(np.abs(v - np.median(v)) <= 0.05 * gap))
        q1, q3 = np.percentile(poi.values, [25.0, 75.0])
        rec.moll_error = float(q3 - q1)
        rec.iterations = report.iterations
        rec.residual = report.residual

        for name, f in (("laplace", lap), ("poisson", poi), ("pwll", pw)):
            _write_nodes(os.path.join(cfg.outdir, name + ".csv"), f.values)
        meta.append("laplace band half-width = %.17g (0.05 * gap)" % (0.05 * gap))

    return _run_jobs(cfg, [(eps, n, [cfg.k])], measure, meta, seeds=1)


def _summarize(cfg, result, meta, ladder_key, stat, fit):
    """Fill in a run's medians and slope, then write results.csv (data rows
    plus an optional slope row) and meta.txt.

    ladder_key(record) groups the records into ladder points (None: no
    medians); stat, "l1" or "moll", names the error whose medians are kept
    and fitted; fit asks for the log-log slope."""
    rows = [r.csv_row() for r in result.records]

    if ladder_key is not None:
        med = _median_rows([r for r in result.records if not math.isnan(
            r.l1_error if stat == "l1" else r.moll_error)], ladder_key)
        result.medians = {key: (m[0] if stat == "l1" else m[1])
                          for key, m in med.items()}
        for key, (m_l1, m_moll) in med.items():
            meta.append("median at x = %.17g: l1 %.17g, moll %.17g"
                        % (key, m_l1, m_moll))
        if fit:
            # log-log fit needs positive abscissae and medians (k=0 rungs
            # are exact identities, not rate information)
            kept = [x for x in sorted(result.medians, reverse=True)
                    if x > 0 and result.medians[x] > 0]
            if len(kept) >= 4:
                slope, band = fit_slope(kept, [result.medians[x] for x in kept])
                result.slope, result.slope_band = slope, band
                rows.append({"experiment": cfg.experiment, "d": cfg.d,
                             "slope": slope})
                meta.append("slope %.17g (half band %.3g) on %d points"
                            % (slope, band, len(kept)))
            else:
                meta.append("slope skipped: only %d positive ladder points"
                            % len(kept))

    if result.failures:
        meta.append("failures:")
        meta.extend("  " + f for f in result.failures)

    result.csv_path = os.path.join(cfg.outdir, "results.csv")
    with open(result.csv_path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.writelines(",".join(_fmt(row.get(c)) for c in CSV_COLUMNS) + "\n"
                      for row in rows)
    with open(os.path.join(cfg.outdir, "meta.txt"), "w") as fh:
        fh.write("resolved config\n---------------\n%s\n" % cfg.describe())
        fh.writelines(line + "\n" for line in meta)
    return result


RUNNERS = {
    "converge": run_convergence,
    "mollify": run_mollification_rate,
    "heat-asymptotics": run_heat_asymptotics,
    "demo": demo_two_point,
}
