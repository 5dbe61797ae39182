"""Command line front end: sampling, solvers, heat kernels, and the
experiment runners behind one `rgglearn` entry point."""

import argparse
import sys

import numpy as np

from .geometry import (
    Box,
    Disk,
    build_graph,
    closest_point,
    make_density,
    make_kernel,
    sample_points,
    save_points,
)
from .graph_core import _write_columns, _write_nodes, load_graph, save_graph
from .poisson_solver import SourceSpec, solve_graph_poisson
from .heat_kernel import heat_column, psi_table
from .continuum_ref import build_grid, save_grid_solution, solve_weighted_poisson
from .experiments import RUNNERS, ExperimentConfig


def _build_domain(args):
    # argparse's choices admit only "box", and "disk" for `sample`
    if args.domain == "disk":
        return Disk([float(v) for v in args.center], args.radius)
    vals = [float(v) for v in args.box]
    if len(vals) % 2 != 0:
        raise SystemExit("--box needs an even number of bounds (lower then upper)")
    d = len(vals) // 2
    return Box(vals[:d], vals[d:])


def _load_sources(path, domain=None):
    # columns x0,...,x{d-1},a with a header row
    arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if arr.shape[1] < 2:
        raise SystemExit("sources CSV needs columns x0,...,a")
    return SourceSpec(arr[:, :-1], arr[:, -1], domain)


def _cmd_sample(args):
    domain = _build_domain(args)
    density = make_density(args.density, domain, slope=args.slope)
    pts = sample_points(domain, density, args.n, args.seed)
    save_points(pts, args.out)
    print("wrote %s (n=%d, d=%d)" % (args.out, pts.shape[0], pts.shape[1]))
    if args.graph_out:
        if args.eps <= 0:
            raise SystemExit("--graph-out needs --eps > 0")
        kernel = make_kernel(args.kernel, domain.d)
        g = build_graph(pts, args.eps, kernel, seed=args.seed)
        save_graph(g, args.graph_out)
        # undirected edges: the stored upper triangle, which save_graph has built
        print("wrote %s (edges=%d, connected=%s)" % (args.graph_out, g._upper.nnz, g.connected))
    return 0


def _cmd_solve(args):
    g = load_graph(args.graph)
    spec = _load_sources(args.sources)
    # a graph file records no domain: each anchor needs a node within eps
    for x in spec.anchors:
        if not np.linalg.norm(g.points[closest_point(x, g)] - x) <= g.eps:
            raise SystemExit("anchor %s has no node within eps = %g" % (x, g.eps))
    u, report = solve_graph_poisson(g, spec, tol=args.tol)
    _write_nodes(args.out, u.values)
    print("wrote %s (iters=%d, residual=%.3g)"
          % (args.out, report.iterations, report.residual))
    return 0


def _cmd_heat(args):
    g = load_graph(args.graph)
    try:  # a node index if int() reads the text, else a point
        center = int(args.center)
    except ValueError:
        center = np.array([float(p) for p in args.center.replace(",", " ").split()])
    col = heat_column(g, center, args.k).values
    _write_nodes(args.out, col)
    print("wrote %s (k=%d, mass=%.17g)" % (args.out, args.k, float(np.mean(col))))
    return 0


def _cmd_psi(args):
    kernel = make_kernel(args.kernel, args.d)
    table = psi_table(kernel, args.d, args.k, args.eps)
    _write_columns(args.out, "r,psi", (table.r, table.values), ("%.17g", "%.17g"))
    print("wrote %s (%d radii, mass=%.12g)" % (args.out, table.r.size, table.mass()))
    return 0


def _cmd_continuum(args):
    domain = _build_domain(args)
    density = make_density(args.density, domain, slope=args.slope)
    grid = build_grid(domain, args.h, density)
    spec = _load_sources(args.sources, domain)
    u = solve_weighted_poisson(grid, spec, tol=args.tol)
    save_grid_solution(args.out, u)
    print("wrote %s (cells=%s)" % (args.out, "x".join(str(s) for s in grid.shape)))
    return 0


def _overrides_from(extras):
    if len(extras) % 2 != 0:
        raise SystemExit("overrides come in --key value pairs")
    out = {}
    for flag, value in zip(extras[::2], extras[1::2]):
        if not flag.startswith("--"):
            raise SystemExit("expected an option, got %r" % flag)
        out[flag[2:]] = value
    return out


def _cmd_experiment(name, args, extras):
    overrides = _overrides_from(extras)
    overrides["run.experiment"] = name
    cfg = ExperimentConfig(args.config, overrides)
    result = RUNNERS[name](cfg)
    print("wrote %s" % result.csv_path)
    for key, med in result.medians.items():
        print("median at %.6g: %.6g" % (key, med))
    if np.isfinite(result.slope):
        print("slope %.6g (half band %.3g)" % (result.slope, result.slope_band))
    if result.failures:
        print("%d of %d jobs failed (see meta.txt)"
              % (len(result.failures), result.jobs))
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="rgglearn",
        description="Random geometric graph learning and its continuum limits")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample points, optionally build a graph")
    p.add_argument("--domain", default="box", choices=("box", "disk"))
    p.add_argument("--box", nargs="+", default=["0", "0", "1", "1"],
                   help="lower bounds then upper bounds")
    p.add_argument("--center", nargs="+", default=["0", "0"], help="disk center")
    p.add_argument("--radius", type=float, default=1.0, help="disk radius")
    p.add_argument("--density", default="constant")
    p.add_argument("--slope", type=float, default=0.8)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--kernel", default="indicator",
                   choices=("indicator", "cone", "bump"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--graph-out", default="")

    p = sub.add_parser("solve", help="graph Poisson solve from files")
    p.add_argument("--graph", required=True)
    p.add_argument("--sources", required=True, help="CSV x0,...,a")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", required=True)

    p = sub.add_parser("heat", help="heat-kernel column of a saved graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--center", required=True, help="node index or a point")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("psi", help="radial table of the k-fold kernel convolution")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--kernel", default="indicator",
                   choices=("indicator", "cone", "bump"))
    p.add_argument("--out", required=True)

    p = sub.add_parser("continuum", help="weighted Neumann Poisson reference solve")
    p.add_argument("--domain", default="box", choices=("box",))
    p.add_argument("--box", nargs="+", default=["0", "0", "1", "1"])
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--density", default="constant")
    p.add_argument("--slope", type=float, default=0.8)
    p.add_argument("--sources", required=True, help="CSV x0,...,a")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", required=True)

    for name in RUNNERS:
        p = sub.add_parser(name, help="experiment runner (config + overrides)")
        p.add_argument("--config", default=None)

    args, extras = parser.parse_known_args(argv)
    cmd = args.command
    if cmd in RUNNERS:
        return _cmd_experiment(cmd, args, extras)
    if extras:
        raise SystemExit("unrecognized arguments: %s" % " ".join(extras))
    return {"sample": _cmd_sample, "solve": _cmd_solve, "heat": _cmd_heat,
            "psi": _cmd_psi, "continuum": _cmd_continuum}[cmd](args)


if __name__ == "__main__":
    sys.exit(main())
