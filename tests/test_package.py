import importlib.util
import json
import os
import subprocess
import sys

import rgglearn

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_imported_modules_match_benchmark_metrics():
    # perfbench reports `<module>.import_s` for every rgglearn module that
    # `import rgglearn` loads and checks that set against BENCHMARK.json,
    # so a module added to (or dropped from) the package must show up here.
    # A fresh interpreter: this session has loaded rgglearn.cli as well.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = [m["name"] for m in json.load(fh)["per_layer"]]
    declared = {m[: -len(".import_s")] for m in metrics if m.endswith(".import_s")}

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(rgglearn.__file__))
    code = ("import sys, rgglearn; print(' '.join(m for m in sys.modules "
            "if m == 'rgglearn' or m.startswith('rgglearn.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = {m.split(".", 1)[-1] for m in out.split()}
    assert loaded == declared


def _load_tracer():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_attributes_solver_work_to_the_public_solves(monkeypatch):
    # perfbench checks the FD `apply` calls per solve_weighted_poisson and
    # the graph CG iterations of solve_graph_poisson through the spans of
    # its tracer, which wraps every public layer function.  The solvers'
    # shared helpers and preconditioners are private, so no span sits
    # between a solve and its matvecs; a public one would re-parent them and
    # break those checks.
    from rgglearn import continuum_ref, graph_core

    calls = {"apply": 0, "wmul": 0}
    for cls, meth in ((continuum_ref.ReferenceGrid, "apply"), (graph_core.Graph, "wmul")):
        def counting(self, u, _orig=getattr(cls, meth), _meth=meth):
            calls[_meth] += 1
            return _orig(self, u)
        monkeypatch.setattr(cls, meth, counting)

    box = rgglearn.Box([0.0, 0.0], [1.0, 1.0])
    grid = rgglearn.build_grid(box, 1.0 / 16, rgglearn.make_density("affine", box))
    pts = rgglearn.sample_points(box, rgglearn.make_density("constant", box), 300, seed=2)
    g = rgglearn.build_graph(pts, 0.2, rgglearn.make_kernel("cone", 2))
    s = rgglearn.SourceSpec([[0.3, 0.5], [0.7, 0.5]], [1.0, -1.0])
    calls.update(apply=0, wmul=0)

    tracing = _load_tracer()
    tr = tracing.Tracer()
    tr.install()
    try:
        rgglearn.solve_weighted_poisson(grid, s)
        _, report = rgglearn.solve_graph_poisson(g, s)
        poisson_wmul = calls["wmul"]
        rgglearn.solve_laplace_learning(g, [(10, 1.0), (200, -1.0)])
    finally:
        tr.uninstall()
    assert tracing.installed_wrappers() == []
    assert calls["apply"] > 0 and report.iterations > 0
    assert tr.calls_per_parent("continuum_ref.solve_weighted_poisson",
                               "continuum_ref.apply") == [calls["apply"]]
    assert tr.calls_per_parent("poisson_solver.solve_graph_poisson",
                               "graph_core.wmul") == [poisson_wmul]
    assert tr.counts["solve_graph_poisson.iters"] == report.iterations
    laplace_wmul = calls["wmul"] - poisson_wmul
    assert laplace_wmul > 0
    assert tr.calls_per_parent("poisson_solver.solve_laplace_learning",
                               "graph_core.wmul") == [laplace_wmul]
