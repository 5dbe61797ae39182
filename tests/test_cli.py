import re

import numpy as np
import pytest

from rgglearn.cli import main
from rgglearn.experiments import RUNNERS, RunResult
from rgglearn.geometry import build_graph, load_points, make_kernel
from rgglearn.graph_core import _write_nodes, load_graph
from rgglearn.heat_kernel import heat_column
from rgglearn.poisson_solver import SourceSpec, solve_graph_poisson


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def write_sources(path):
    path.write_text("x0,x1,a\n0.3,0.5,1\n0.7,0.5,-1\n")
    return str(path)


def test_sample_points_and_graph(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    gfile = tmp_path / "g.csv"
    rc = main(["sample", "--n", "200", "--eps", "0.2", "--seed", "4",
               "--out", str(pts), "--graph-out", str(gfile)])
    assert rc == 0
    lines = read_lines(pts)
    assert lines[0] == "x0,x1"
    assert len(lines) == 201
    g = load_graph(str(gfile))
    assert g.n == 200 and g.eps == 0.2
    # the printed count is of undirected edges: self-weights are not edges
    edges = int(re.search(r"edges=(\d+)", capsys.readouterr().out).group(1))
    W = g.weight_matrix()
    assert edges == (W.nnz - np.count_nonzero(W.diagonal())) // 2


def test_sample_disk(tmp_path):
    out = tmp_path / "disk.csv"
    main(["sample", "--domain", "disk", "--center", "0", "0", "--radius", "1",
          "--n", "50", "--seed", "1", "--out", str(out)])
    arr = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.all(np.linalg.norm(arr, axis=1) <= 1.0)


def test_sample_graph_needs_eps(tmp_path):
    with pytest.raises(SystemExit):
        main(["sample", "--n", "50", "--out", str(tmp_path / "p.csv"),
              "--graph-out", str(tmp_path / "g.csv")])


def test_solve_and_heat(tmp_path):
    gfile = tmp_path / "g.csv"
    main(["sample", "--n", "300", "--eps", "0.2", "--seed", "2",
          "--out", str(tmp_path / "p.csv"), "--graph-out", str(gfile)])
    src = write_sources(tmp_path / "src.csv")

    ufile = tmp_path / "u.csv"
    assert main(["solve", "--graph", str(gfile), "--sources", src,
                 "--out", str(ufile)]) == 0
    rows = read_lines(ufile)
    assert rows[0] == "node,value"
    assert len(rows) == 301

    cfile = tmp_path / "col.csv"
    assert main(["heat", "--graph", str(gfile), "--center", "7", "--k", "3",
                 "--out", str(cfile)]) == 0
    vals = np.array([float(r.split(",")[1]) for r in read_lines(cfile)[1:]])
    g = load_graph(str(gfile))
    direct = heat_column(g, 7, 3).values
    assert np.allclose(vals, direct, rtol=0, atol=1e-14)
    # point-mode center
    assert main(["heat", "--graph", str(gfile), "--center", "0.5 0.5",
                 "--k", "3", "--out", str(tmp_path / "col2.csv")]) == 0


def test_saved_window_graph_solves_and_smooths_as_built(tmp_path):
    # a saved d = 1 indicator graph loads back onto its windows, so solve and
    # heat give bit for bit what the graph built in memory gives
    gfile = str(tmp_path / "g.csv")
    assert main(["sample", "--box", "0", "1", "--n", "2000", "--eps", "0.02", "--seed", "4",
                 "--out", str(tmp_path / "p.csv"), "--graph-out", gfile]) == 0
    g = build_graph(load_points(str(tmp_path / "p.csv")), 0.02, make_kernel("indicator", 1))
    src = tmp_path / "src.csv"
    src.write_text("x0,a\n0.3,1\n0.7,-1\n")
    assert main(["solve", "--graph", gfile, "--sources", str(src),
                 "--out", str(tmp_path / "u.csv")]) == 0
    u, _ = solve_graph_poisson(g, SourceSpec([[0.3], [0.7]], [1.0, -1.0]), tol=1e-10)
    _write_nodes(tmp_path / "want.csv", u.values)
    assert (tmp_path / "u.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert main(["heat", "--graph", gfile, "--center", "100", "--k", "200",
                 "--out", str(tmp_path / "col.csv")]) == 0
    col = np.loadtxt(tmp_path / "col.csv", delimiter=",", skiprows=1)[:, 1]
    assert np.array_equal(col, heat_column(g, 100, 200).values)


def test_psi_table(tmp_path):
    out = tmp_path / "psi.csv"
    assert main(["psi", "--d", "2", "--k", "4", "--eps", "0.1",
                 "--out", str(out)]) == 0
    rows = read_lines(out)
    assert rows[0] == "r,psi"
    r0, v0 = (float(t) for t in rows[1].split(","))
    assert r0 == 0.0 and v0 > 0.0


def test_psi_table_d3(tmp_path, capsys):
    out = tmp_path / "psi3.csv"
    assert main(["psi", "--d", "3", "--k", "2", "--eps", "0.1",
                 "--out", str(out)]) == 0
    mass = float(re.search(r"mass=(\S+)\)", capsys.readouterr().out).group(1))
    assert abs(mass - 1.0) < 1e-9


def test_continuum(tmp_path):
    src = write_sources(tmp_path / "src.csv")
    out = tmp_path / "ref.csv"
    assert main(["continuum", "--h", "0.025", "--sources", src,
                 "--out", str(out)]) == 0
    rows = read_lines(out)
    assert rows[0] == "i0,i1,x0,x1,u"
    assert len(rows) == 1 + 40 * 40
    with pytest.raises(SystemExit):
        main(["continuum", "--domain", "disk", "--h", "0.025",
              "--sources", src, "--out", str(out)])


def test_sources_of_the_wrong_dimension_are_rejected(tmp_path):
    # one-coordinate anchors against a 2-d graph and a 2-d box
    gfile = tmp_path / "g.csv"
    main(["sample", "--n", "300", "--eps", "0.2", "--seed", "2",
          "--out", str(tmp_path / "p.csv"), "--graph-out", str(gfile)])
    src = tmp_path / "src1.csv"
    src.write_text("x0,a\n0.3,1\n0.7,-1\n")
    with pytest.raises(ValueError, match="shape"):
        main(["solve", "--graph", str(gfile), "--sources", str(src),
              "--out", str(tmp_path / "u.csv")])
    with pytest.raises(ValueError, match="dimension"):
        main(["continuum", "--h", "0.025", "--sources", str(src),
              "--out", str(tmp_path / "ref.csv")])


def _solve_with_one_column_sources(tmp):
    gfile = tmp / "g.csv"
    main(["sample", "--n", "50", "--eps", "0.3", "--seed", "1",
          "--out", str(tmp / "p.csv"), "--graph-out", str(gfile)])
    (tmp / "src.csv").write_text("a\n1\n-1\n")
    return ["solve", "--graph", str(gfile), "--sources", str(tmp / "src.csv"),
            "--out", str(tmp / "u.csv")]


@pytest.mark.parametrize("argv, match", [
    (lambda tmp: ["sample", "--box", "0", "0", "1", "--n", "10", "--out", str(tmp / "p.csv")],
     "--box needs an even number of bounds"),
    (_solve_with_one_column_sources, "sources CSV needs columns"),
], ids=["odd-box", "one-column-sources"])
def test_cli_input_guards(argv, match, tmp_path):
    with pytest.raises(SystemExit, match=match):
        main(argv(tmp_path))


def test_solve_rejects_anchors_with_no_node_within_eps(tmp_path):
    # a graph file records no domain; such anchors used to go to their
    # nearest node, and the solve wrote u.csv and exited 0
    gfile = tmp_path / "g.csv"
    main(["sample", "--n", "300", "--eps", "0.2", "--seed", "2",
          "--out", str(tmp_path / "p.csv"), "--graph-out", str(gfile)])
    src = tmp_path / "src.csv"
    ufile = tmp_path / "u.csv"
    for anchor, error in (("5,5", SystemExit), ("-3,0.5", SystemExit), ("nan,0.5", ValueError)):
        src.write_text("x0,x1,a\n%s,1\n0.5,0.5,-1\n" % anchor)
        with pytest.raises(error, match="no node within|finite"):
            main(["solve", "--graph", str(gfile), "--sources", str(src), "--out", str(ufile)])
        assert not ufile.exists()


def test_experiment_subcommands_follow_the_runner_registry(tmp_path, monkeypatch):
    # a runner added to RUNNERS is a subcommand with no other change
    seen = []

    def probe(cfg):
        seen.append(cfg.experiment)
        return RunResult([], csv_path=str(tmp_path / "results.csv"))

    monkeypatch.setitem(RUNNERS, "probe", probe)
    assert main(["probe", "--run.outdir", str(tmp_path)]) == 0
    assert seen == ["probe"]


def test_experiment_subcommand(tmp_path):
    out = tmp_path / "run"
    rc = main(["converge", "--run.outdir", str(out), "--run.seeds", "2",
               "--ladder.eps", "0.3 0.24", "--ladder.n_const", "300",
               "--ladder.n_power", "0"])
    assert rc == 0
    rows = read_lines(out / "results.csv")
    assert rows[0].startswith("experiment,d,n,eps,k,seed")
    assert len(rows) == 1 + 4  # two rungs, two seeds, no slope row
    assert (out / "meta.txt").exists()


def test_experiment_failures_exit_nonzero(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["converge", "--run.outdir", str(out), "--run.seeds", "1",
               "--ladder.eps", "0.3 0.24", "--ladder.n_const", "2",
               "--ladder.n_power", "1"])
    assert rc == 1
    assert "2 of 2 jobs failed (see meta.txt)" in capsys.readouterr().out
    assert "graph too sparse" in (out / "meta.txt").read_text()


def test_demo_failure_exits_nonzero(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["demo", "--run.outdir", str(out), "--ladder.eps", "0.12",
               "--ladder.n_const", "800", "--ladder.n_power", "0",
               "--source.anchors", "0.5 0.5 ; 0.5 0.500001"])
    assert rc == 1
    assert "1 of 1 jobs failed (see meta.txt)" in capsys.readouterr().out
    assert "both anchors map to one node" in (out / "meta.txt").read_text()


def test_experiment_config_file(tmp_path):
    ini = tmp_path / "sweep.ini"
    ini.write_text("[run]\nseeds = 1\noutdir = %s\n"
                   "[ladder]\neps = 0.12\nn_const = 800\nn_power = 0\n"
                   % (tmp_path / "demo_out"))
    assert main(["demo", "--config", str(ini)]) == 0
    assert (tmp_path / "demo_out" / "poisson.csv").exists()


def test_override_parsing_errors(tmp_path):
    with pytest.raises(SystemExit):
        main(["converge", "--run.seeds"])  # missing value
    with pytest.raises(SystemExit):
        main(["converge", "run.seeds", "2"])  # not an option
    with pytest.raises(SystemExit):
        main(["solve", "--graph", "g", "--sources", "s",
              "--out", "u", "--bogus", "1"])


def test_experiment_prints_the_slope_of_four_rungs(tmp_path, capsys):
    rc = main(["converge", "--run.outdir", str(tmp_path / "run"), "--run.seeds", "1",
               "--ladder.eps", "0.3 0.26 0.22 0.19", "--ladder.n_const", "300",
               "--ladder.n_power", "0"])
    assert rc == 0
    assert re.search(r"^slope \S+ \(half band \S+\)$", capsys.readouterr().out, re.M)


def test_heat_center_tokens(tmp_path):
    # one token that int() reads is a node; 5e-1 is the point 0.5 on a line
    gfile = tmp_path / "g.csv"
    main(["sample", "--box", "0", "1", "--n", "200", "--eps", "0.1", "--seed", "3",
          "--out", str(tmp_path / "p.csv"), "--graph-out", str(gfile)])
    g = load_graph(str(gfile))
    for token, center in (("7", 7), ("5e-1", np.array([0.5])), ("0.5", np.array([0.5]))):
        out = tmp_path / "col.csv"
        assert main(["heat", "--graph", str(gfile), "--center", token, "--k", "3",
                     "--out", str(out)]) == 0
        vals = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
        assert np.array_equal(vals, heat_column(g, center, 3).values), token
