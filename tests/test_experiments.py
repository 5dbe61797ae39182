import math
import os
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rgglearn import experiments
from rgglearn.experiments import (
    CSV_COLUMNS,
    ExperimentConfig,
    RUNNERS,
    _run_jobs,
    demo_two_point,
    fit_slope,
    run_convergence,
    run_heat_asymptotics,
    run_mollification_rate,
)
from rgglearn.geometry import build_graph, closest_point, sample_points
from rgglearn.graph_core import weighted_mean


def make_config(tmp_path, **keys):
    overrides = {"run.outdir": str(tmp_path / "out")}
    overrides.update(keys)
    return ExperimentConfig(overrides=overrides)


def read_csv_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def test_defaults():
    cfg = ExperimentConfig()
    assert cfg.d == 2
    assert cfg.seeds == 5
    assert cfg.eps_list == [0.2, 0.14, 0.1]
    assert cfg.experiment == "converge"
    assert len(cfg.anchors) == 2
    assert cfg.coefficients.tolist() == [1.0, -1.0]
    assert sum(len(cfg._cp.options(s)) for s in cfg._cp.sections()) == 22


def test_overrides_dotted_and_bare():
    cfg = ExperimentConfig(overrides={"run.seeds": "7", "eps": "0.3 0.2"})
    assert cfg.seeds == 7
    assert cfg.eps_list == [0.3, 0.2]
    with pytest.raises(KeyError):
        ExperimentConfig(overrides={"no_such_key": "1"})
    with pytest.raises(KeyError):
        ExperimentConfig(overrides={"run.no_such_option": "1"})
    for removed in ("solver.heat_h", "ladder.drop_preasymptotic", "solver.tol",
                    "solver.ref_tol"):
        with pytest.raises(KeyError):
            ExperimentConfig(overrides={removed: "0"})


@pytest.mark.parametrize("call, match", [
    (lambda: ExperimentConfig(overrides={"ladder.eps": ""}), "empty eps ladder"),
    (lambda: ExperimentConfig(overrides={"ladder.k_rule": "cor99"}).k_for(0.1),
     "unknown k_rule 'cor99'"),
], ids=["empty-eps-ladder", "unknown-k-rule"])
def test_config_guards(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_config_file(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text("[ladder]\neps = 0.4 0.3\nn_rule = power\nn_const = 123\n"
                    "[run]\nseeds = 6\n")
    cfg = ExperimentConfig(str(path), overrides={"n_const": "77"})
    assert cfg.eps_list == [0.4, 0.3]
    assert cfg.seeds == 6
    assert cfg.n_const == 77.0


@pytest.mark.parametrize("text, key", [
    ("[ladder]\nn_cosnt = 800\n", "ladder.n_cosnt"),
    ("[solvr]\ntol = 1e-3\n", "solvr.tol"),
], ids=["option", "section"])
def test_config_file_keys_are_checked(tmp_path, text, key):
    # a config file meets the same key check as --section.key overrides
    path = tmp_path / "sweep.ini"
    path.write_text(text)
    with pytest.raises(KeyError, match=key):
        ExperimentConfig(str(path))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(overrides={"run.seeds": "0"})
    with pytest.raises(ValueError):
        ExperimentConfig(overrides={"ladder.eps": "0.1 0.2"})
    with pytest.raises(ValueError):
        ExperimentConfig(overrides={"ladder.eps": "0.1 0.1"})
    with pytest.raises(ValueError):
        ExperimentConfig(overrides={"domain.box": "0 1"})
    with pytest.raises(ValueError):
        ExperimentConfig(overrides={"source.coefficients": "1 -1 0"})
    with pytest.raises(ValueError):
        ExperimentConfig(overrides={"source.anchors": "0.3 ; 0.7"})
    with pytest.raises(ValueError, match="center"):
        ExperimentConfig(overrides={"source.center": "0.5"})
    # a 2-number center on a d = 1 box used to broadcast in the heat runner
    with pytest.raises(ValueError, match="center"):
        ExperimentConfig(overrides={"domain.d": "1", "domain.box": "0 12.5",
                                    "source.anchors": "3 ; 9",
                                    "source.center": "6.25 6.25"})


def test_n_and_k_rules():
    cfg = ExperimentConfig(overrides={"ladder.n_const": "100",
                                      "ladder.n_power": "2",
                                      "ladder.n_max": "5000"})
    assert cfg.n_for(0.2) == 2500
    assert cfg.n_for(0.1) == 5000  # capped
    assert cfg.k_for(0.1) == cfg.k  # fixed rule
    cor52 = ExperimentConfig(overrides={"ladder.k_rule": "cor52"})
    assert cor52.k_for(0.1) == 32  # ceil(0.1^(-3/2))
    cor53 = ExperimentConfig(overrides={"domain.d": "1", "domain.box": "0 1",
                                        "source.anchors": "0.3 ; 0.7",
                                        "source.center": "0.5",
                                        "ladder.k_rule": "cor53"})
    assert cor53.k_for(0.1) == 40  # ceil(0.1^(-8/5))
    with pytest.raises(ValueError):
        ExperimentConfig(overrides={"ladder.n_rule": "nope"}).n_for(0.1)
    assert cfg.ns_for(0.2) == [2500]
    listed = ExperimentConfig(overrides={"ladder.n_rule": "list",
                                         "ladder.n_list": "300 500"})
    assert listed.ns_for(0.2) == [300, 500]
    with pytest.raises(ValueError, match="empty n ladder"):
        ExperimentConfig(overrides={"ladder.n_rule": "list"}).ns_for(0.2)


def test_reference_h():
    cfg = ExperimentConfig(overrides={"ladder.eps": "0.2 0.1"})
    h = cfg.reference_h()
    assert h == pytest.approx(0.01)
    forced = ExperimentConfig(overrides={"solver.ref_h": "0.025"})
    assert forced.reference_h() == 0.025


def test_checks_booleans():
    cfg = ExperimentConfig()
    good = cfg.checks(n=1000, eps=0.2, k=1)
    assert good["graph_scaling"] and good["heat_scaling"]
    assert not good["label_margin"]  # eps_k log term >> anchor margin
    assert not cfg.checks(n=1, eps=0.2, k=1)["graph_scaling"]
    assert not cfg.checks(n=1000, eps=0.6, k=1)["heat_scaling"]
    assert not cfg.checks(n=1000, eps=0.3, k=16)["heat_scaling"]  # eps_k = 1.2
    tiny = cfg.checks(n=10**6, eps=1e-3, k=1)
    assert tiny["label_margin"]


def test_graph_scaling_accepts_rounded_boundary():
    # n * eps^d rounds to 0.9999999999999999; build_graph accepts this graph
    cfg = ExperimentConfig()
    assert cfg.d == 2 and 20 * (20 ** -0.5) ** 2 < 1.0
    assert cfg.checks(n=20, eps=20 ** -0.5, k=1)["graph_scaling"]


def test_zero_coefficient_source(tmp_path):
    cfg = make_config(tmp_path, **{"run.seeds": "2",
                                   "source.coefficients": "0 0",
                                   "ladder.eps": "0.25",
                                   "ladder.n_const": "300",
                                   "ladder.n_power": "0"})
    res = run_convergence(cfg)
    assert all(r.l1_error == 0.0 for r in res.records)


def test_convergence_csv_and_meta(tmp_path):
    cfg = make_config(tmp_path, **{"run.seeds": "2",
                                   "ladder.eps": "0.3 0.26 0.22 0.19",
                                   "ladder.n_const": "400",
                                   "ladder.n_power": "0",
                                   "ladder.k": "2"})
    res = run_convergence(cfg)
    assert len(res.records) == 8
    assert math.isfinite(res.slope)
    assert all(r.l1_error > 0 and r.moll_error > 0 for r in res.records)

    lines = read_csv_lines(res.csv_path)
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 8 + 1  # header, jobs, slope row
    for row in lines[1:-1]:
        cells = row.split(",")
        assert cells[0] == "converge" and cells[1] == "2"
        assert cells[-1] == "" and cells[-2] == ""  # runtime_s, slope empty
    slope_row = lines[-1].split(",")
    assert slope_row[0] == "converge" and slope_row[-2] != ""
    assert slope_row[2] == "" and slope_row[5] == ""  # no n, no seed

    meta = (tmp_path / "out" / "meta.txt").read_text()
    assert "graph_scaling=True" in meta
    assert "heat_scaling=True" in meta
    assert "label_margin=False" in meta
    assert "median at x" in meta
    assert "slope" in meta


def test_convergence_determinism(tmp_path):
    keys = {"run.seeds": "2", "ladder.eps": "0.3 0.24",
            "ladder.n_const": "300", "ladder.n_power": "0"}
    a = make_config(tmp_path / "a", **keys)
    b = make_config(tmp_path / "b", **keys)
    ra = run_convergence(a)
    rb = run_convergence(b)
    with open(ra.csv_path, "rb") as fa, open(rb.csv_path, "rb") as fb:
        assert fa.read() == fb.read()


def test_convergence_n_ladder_at_fixed_eps(tmp_path):
    cfg = make_config(tmp_path, **{"run.seeds": "2",
                                   "ladder.eps": "0.25",
                                   "ladder.n_rule": "list",
                                   "ladder.n_list": "300 500 800"})
    res = run_convergence(cfg)
    assert list(res.medians) == [300, 500, 800]
    assert math.isnan(res.slope)  # 3 rungs: no fit
    meta = (tmp_path / "out" / "meta.txt").read_text()
    assert "slope skipped" in meta


def test_convergence_n_list_mismatch(tmp_path):
    cfg = make_config(tmp_path, **{"ladder.eps": "0.3 0.2",
                                   "ladder.n_rule": "list",
                                   "ladder.n_list": "100 200 300"})
    with pytest.raises(ValueError):
        run_convergence(cfg)
    # lists of one length zip into the rungs (eps_i, n_i), keyed by eps
    cfg = make_config(tmp_path, **{"run.seeds": "2",
                                   "ladder.eps": "0.3 0.25",
                                   "ladder.n_rule": "list",
                                   "ladder.n_list": "300 400",
                                   "ladder.k": "2"})
    res = run_convergence(cfg)
    assert [(r.eps, r.n, r.k, r.seed) for r in res.records] == [
        (0.3, 300, 2, 0), (0.3, 300, 2, 1), (0.25, 400, 2, 0), (0.25, 400, 2, 1)]
    assert list(res.medians) == [0.3, 0.25]
    assert all(r.l1_error > 0 and r.moll_error > 0 for r in res.records)
    lines = read_csv_lines(res.csv_path)
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert [row.split(",")[:6] for row in lines[1:]] == [
        ["converge", "2", n, eps, "2", seed]
        for eps, n in [("0.29999999999999999", "300"), ("0.25", "400")]
        for seed in "01"]  # two rungs: no slope row
    assert [row.split(",")[6:8] for row in lines[1:]] == [
        ["%.17g" % r.l1_error, "%.17g" % r.moll_error] for r in res.records]
    meta = (tmp_path / "out" / "meta.txt").read_text()
    assert "median at x = 0.29999999999999999" in meta and "median at x = 0.25" in meta


def test_convergence_gauge(tmp_path):
    # the compared fields carry degree-weighted mean zero on the sample
    cfg = make_config(tmp_path, **{"run.seeds": "1", "ladder.eps": "0.25",
                                   "ladder.n_const": "400",
                                   "ladder.n_power": "0"})
    run_convergence(cfg)
    pts = sample_points(cfg.domain, cfg.density, 400, [cfg.master_seed, 0])
    g = build_graph(pts, 0.25, cfg.kernel)
    from rgglearn.poisson_solver import solve_graph_poisson
    u, _ = solve_graph_poisson(g, cfg.source_spec())
    aligned = u.values - weighted_mean(u)
    assert abs(weighted_mean(g.func(aligned))) <= 1e-10 * np.abs(aligned).max()


def mollify_config(tmp_path, coeffs="1 -1", ks="0 2 4", **extra):
    return make_config(tmp_path, **{"run.experiment": "mollify",
                                    "run.seeds": "2",
                                    "source.coefficients": coeffs,
                                    "ladder.eps": "0.3",
                                    "ladder.n_const": "400",
                                    "ladder.n_power": "0",
                                    "ladder.k_list": ks, **extra})


def test_mollify_k0_is_exact(tmp_path):
    res = run_mollification_rate(mollify_config(tmp_path))
    at0 = [r for r in res.records if r.k == 0]
    assert at0 and all(r.moll_error == 0.0 for r in at0)
    at4 = [r for r in res.records if r.k == 4]
    assert all(r.moll_error > 0 for r in at4)


def test_mollify_linearity(tmp_path):
    base = run_mollification_rate(mollify_config(tmp_path / "a"))
    double = run_mollification_rate(mollify_config(tmp_path / "b", coeffs="2 -2"))
    for r1, r2 in zip(base.records, double.records):
        assert (r2.k, r2.seed) == (r1.k, r1.seed)
        assert r2.moll_error == 2.0 * r1.moll_error


def test_mollify_k_list_validation(tmp_path):
    with pytest.raises(ValueError):
        run_mollification_rate(mollify_config(tmp_path, ks="2 2"))
    with pytest.raises(ValueError):
        run_mollification_rate(mollify_config(tmp_path, ks="-1 2"))
    with pytest.raises(ValueError):
        run_mollification_rate(mollify_config(tmp_path, ks="4 16 64"))  # eps_k > 1


def test_mollify_empty_k_list_rejected(tmp_path):
    with pytest.raises(ValueError, match="non-empty"):
        run_mollification_rate(mollify_config(tmp_path, ks=""))


def test_empty_n_ladder_rejected(tmp_path):
    # under the list rule with no n_list, no runner starts a job
    keys = {"ladder.n_rule": "list", "ladder.n_list": ""}
    with pytest.raises(ValueError, match="empty n ladder"):
        run_mollification_rate(mollify_config(tmp_path / "m", **keys))
    with pytest.raises(ValueError, match="empty n ladder"):
        demo_two_point(demo_config(tmp_path / "d", **keys))
    with pytest.raises(ValueError, match="empty n ladder"):
        run_heat_asymptotics(heat_config(tmp_path / "h", n_list=""))


def test_mollify_failures_counted_per_seed(tmp_path):
    # n eps^d < 1 fails each seed's graph; records stay one per (k, seed)
    cfg = make_config(tmp_path, **{"run.experiment": "mollify", "run.seeds": "2",
                                   "ladder.eps": "0.3", "ladder.n_const": "2",
                                   "ladder.n_power": "0", "ladder.k_list": "0 2 4"})
    res = run_mollification_rate(cfg)
    assert (res.jobs, len(res.records)) == (2, 6)
    assert len(res.failures) == 2
    assert all("graph too sparse" in f for f in res.failures)


def heat_config(tmp_path, box="0 0 14 14", center="7 7", n_list="1500 2500"):
    return make_config(tmp_path, **{"run.experiment": "heat-asymptotics",
                                    "run.seeds": "2",
                                    "domain.box": box,
                                    "source.center": center,
                                    "ladder.eps": "0.25",
                                    "ladder.n_rule": "list",
                                    "ladder.n_list": n_list,
                                    "ladder.k_rule": "fixed",
                                    "ladder.k": "4"})


def test_heat_asymptotics_small(tmp_path):
    res = run_heat_asymptotics(heat_config(tmp_path))
    assert len(res.records) == 4
    assert all(math.isfinite(r.l1_error) for r in res.records)
    assert all(math.isfinite(r.moll_error) for r in res.records)
    assert all(r.residual <= 1e-12 for r in res.records)  # exact unit mass
    assert list(res.medians) == [1500, 2500]
    meta = (tmp_path / "out" / "meta.txt").read_text()
    assert "nearest node" in meta
    assert "rho_hat" in meta


def test_heat_center_too_close(tmp_path):
    with pytest.raises(ValueError):
        run_heat_asymptotics(heat_config(tmp_path, box="0 0 4 4", center="2 2"))


def demo_config(tmp_path, **extra):
    keys = {"run.experiment": "demo", "run.seeds": "1",
            "ladder.eps": "0.12", "ladder.n_const": "800",
            "ladder.n_power": "0"}
    keys.update(extra)
    return make_config(tmp_path, **keys)


def test_demo_fields(tmp_path):
    cfg = demo_config(tmp_path)
    res = demo_two_point(cfg)
    out = tmp_path / "out"
    for name in ("laplace", "poisson", "pwll"):
        lines = read_csv_lines(out / (name + ".csv"))
        assert lines[0] == "node,value"
        assert len(lines) == 1 + 800

    meta = (out / "meta.txt").read_text()
    tag = [ln for ln in meta.splitlines() if ln.startswith("label nodes:")][0]
    nodes = [int(t) for t in tag.split(":")[1].split()]

    lap = np.array([float(ln.split(",")[1])
                    for ln in read_csv_lines(out / "laplace.csv")[1:]])
    assert int(np.argmax(lap)) in nodes  # extrema at the labeled nodes
    assert int(np.argmin(lap)) in nodes

    # Poisson field keeps the degree-weighted gauge
    poi = np.array([float(ln.split(",")[1])
                    for ln in read_csv_lines(out / "poisson.csv")[1:]])
    pts = sample_points(cfg.domain, cfg.density, 800, [cfg.master_seed, 0])
    g = build_graph(pts, 0.12, cfg.kernel)
    assert [closest_point(a, g) for a in cfg.anchors] == nodes
    assert abs(weighted_mean(g.func(poi))) <= 1e-10 * np.abs(poi).max()

    rec = res.records[0]
    assert 0.0 <= rec.l1_error <= 1.0  # spike fraction
    assert rec.moll_error > 0.0  # Poisson IQR


def test_demo_deterministic(tmp_path):
    demo_two_point(demo_config(tmp_path / "a"))
    demo_two_point(demo_config(tmp_path / "b"))
    for name in ("laplace.csv", "poisson.csv", "pwll.csv", "results.csv"):
        one = (tmp_path / "a" / "out" / name).read_bytes()
        two = (tmp_path / "b" / "out" / name).read_bytes()
        assert one == two


def test_demo_label_validation(tmp_path):
    with pytest.raises(ValueError):
        demo_two_point(demo_config(tmp_path, **{"source.coefficients": "2 -2"}))
    with pytest.raises(ValueError):
        demo_two_point(demo_config(
            tmp_path, **{"source.anchors": "0.3 0.5 ; 0.7 0.5 ; 0.5 0.3",
                         "source.coefficients": "1 -1 0"}))


def test_demo_is_one_job_whatever_the_seed_count(tmp_path):
    res = demo_two_point(demo_config(tmp_path, **{"run.seeds": "5"}))
    assert (res.jobs, len(res.records), res.failures) == (1, 1, [])
    lines = read_csv_lines(res.csv_path)
    assert len(lines) == 2  # header and one data row
    assert lines[1].split(",")[5] == "0"  # job 0 at seed 0


def test_demo_failure_is_recorded(tmp_path):
    # two anchors a hair apart map to the same sampled node
    cfg = demo_config(tmp_path, **{"source.anchors": "0.5 0.5 ; 0.5 0.500001"})
    res = demo_two_point(cfg)
    assert res.jobs == 1
    assert len(res.failures) == 1
    assert "both anchors map to one node" in res.failures[0]
    rec = res.records[0]
    assert math.isnan(rec.l1_error) and math.isnan(rec.moll_error)
    assert not (tmp_path / "out" / "laplace.csv").exists()
    meta = (tmp_path / "out" / "meta.txt").read_text()
    assert "both anchors map to one node" in meta


def test_failed_jobs_logged_as_failed(tmp_path):
    # n eps^d < 1 on both rungs: every job fails at the graph build
    cfg = make_config(tmp_path, **{"run.seeds": "1", "ladder.eps": "0.3 0.24",
                                   "ladder.n_const": "2", "ladder.n_power": "1"})
    res = run_convergence(cfg)
    assert (res.jobs, len(res.failures)) == (2, 2)
    meta = (tmp_path / "out" / "meta.txt").read_text()
    jobs = [ln for ln in meta.splitlines() if ln.startswith("job ")]
    assert len(jobs) == 2
    for j, line in enumerate(jobs):
        assert line.startswith("job %d (" % j)
        assert " failed wall=" in line
        assert "iters=0" not in line


def test_run_jobs_order_and_failed_job_reset(tmp_path):
    # records come out k-major within a rung; a job that fails after
    # filling its records still leaves them blank
    cfg = make_config(tmp_path, **{"run.seeds": "2"})

    def measure(recs, pts, g):
        for rec in recs:
            rec.l1_error, rec.iterations = float(g.n), 7
        if recs[0].seed == 1:
            raise RuntimeError("late failure")

    res = _run_jobs(cfg, [(0.3, 300, [0, 2])], measure, [])
    assert res.jobs == 2
    assert [(r.k, r.seed) for r in res.records] == [(0, 0), (0, 1), (2, 0), (2, 1)]
    for r in res.records:
        if r.seed == 0:
            assert (r.l1_error, r.iterations) == (300.0, 7)
        else:
            assert math.isnan(r.l1_error) and r.iterations == 0
    assert res.failures == ["job 1 (eps=0.29999999999999999 n=300 seed=1): late failure"]


def test_run_jobs_frees_each_graph_before_the_next_build(tmp_path, monkeypatch):
    # job j's graph is gone when job j+1's build starts, also when job j
    # failed after its graph was built
    graphs, alive = [], []

    def build(pts, eps, kernel):
        alive.append([ref() is not None for ref in graphs])
        g = build_graph(pts, eps, kernel)
        graphs.append(weakref.ref(g))
        return g

    def measure(recs, pts, g):
        if recs[0].seed == 1:
            raise RuntimeError("late failure")

    monkeypatch.setattr(experiments, "build_graph", build)
    cfg = make_config(tmp_path, **{"run.seeds": "3"})
    res = _run_jobs(cfg, [(0.3, 300, [0])], measure, [])
    assert res.jobs == len(graphs) == 3 and len(res.failures) == 1
    assert alive == [[], [False], [False, False]]


def test_job_lines_carry_solver_stats(tmp_path):
    cfg = mollify_config(tmp_path)
    res = run_mollification_rate(cfg)
    meta = (tmp_path / "out" / "meta.txt").read_text()
    jobs = [ln for ln in meta.splitlines() if ln.startswith("job ")]
    assert len(jobs) == res.jobs == 2  # one line per seed, not per (k, seed)
    for seed, line in enumerate(jobs):
        rec = [r for r in res.records if r.seed == seed][0]
        assert line.startswith("job %d (eps=0.29999999999999999 n=400 seed=%d): "
                               "iters=%d resid=" % (seed, seed, rec.iterations))
        assert rec.iterations > 0


def test_fit_slope_recovers_power_law():
    xs = [1.0, 2.0, 4.0, 8.0]
    slope, band = fit_slope(xs, [3.0 * x**1.7 for x in xs])
    assert slope == pytest.approx(1.7, abs=1e-12)
    assert band == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(ValueError):
        fit_slope([1.0], [1.0])


@settings(max_examples=25, deadline=None)
@given(st.floats(-3, 3), st.floats(-2, 2))
def test_fit_slope_property(slope, logc):
    xs = np.logspace(-1, 1, 5)
    fitted, _ = fit_slope(xs, np.exp(logc) * xs**slope)
    assert fitted == pytest.approx(slope, abs=1e-8)


def test_runner_registry():
    assert set(RUNNERS) == {"converge", "mollify", "heat-asymptotics", "demo"}


@pytest.mark.parametrize("call, match", [
    (lambda tmp: make_config(tmp, **{"ladder.n_rule": "list", "ladder.n_list": "100"}).n_for(0.1),
     "n_for undefined under the list rule"),
    (lambda tmp: make_config(tmp, **{"domain.box": "0 0 1 1.0000001"}).reference_h(),
     "no admissible reference grid step"),
    (lambda tmp: run_heat_asymptotics(make_config(tmp, **{
        "run.experiment": "heat-asymptotics", "ladder.k_rule": "fixed", "ladder.k": "0"})),
     r"heat ladder needs k >= 1"),
], ids=["n-for-list-rule", "no-reference-step", "heat-k-0"])
def test_runner_guards(call, match, tmp_path):
    with pytest.raises(ValueError, match=match):
        call(tmp_path)


def test_fit_slope_on_two_points_has_no_band():
    slope, band = fit_slope([1.0, 2.0], [3.0, 12.0])
    assert slope == pytest.approx(2.0, rel=1e-12)
    assert math.isnan(band)
