"""Every CSV table writer produces the bytes of its hand-written format."""

import numpy as np
import pytest

from rgglearn import graph_core
from rgglearn.cli import _write_nodes, main
from rgglearn.continuum_ref import GridFunction, build_grid, save_grid_solution
from rgglearn.experiments import _fmt
from rgglearn.geometry import Box, build_graph, make_density, make_kernel, save_points
from rgglearn.graph_core import _write_columns, save_graph
from rgglearn.heat_kernel import psi_table

AWKWARD = np.array([np.nan, -0.0, 0.0, 1e-300, 5e-324, np.inf, -np.inf,
                    0.1, -1.0 / 3.0, 1e300, 2.0**53 + 1.0, 7.0])


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def reference(header, rows, line):
    return (header + "\n" + "".join(line % tuple(r) for r in rows)).encode()


@pytest.fixture(params=[1, 3, 4096])
def block_rows(request, monkeypatch):
    # small blocks put block boundaries inside these short tables
    monkeypatch.setattr(graph_core, "_CSV_ROWS_PER_BLOCK", request.param)


def test_write_columns_matches_printf(tmp_path, block_rows):
    n = AWKWARD.size
    i32 = np.arange(n, dtype=np.int32)
    i64 = np.arange(n, dtype=np.int64) * 2**40
    path = tmp_path / "t.csv"
    _write_columns(path, "i,j,w", (i32, i64, AWKWARD), ("%d", "%d", "%.17g"))
    want = reference("i,j,w", zip(i32, i64, AWKWARD), "%d,%d,%.17g\n")
    assert read(path) == want
    assert b",nan\n" in want and b",-0\n" in want
    _write_columns(path, "i,j,w", (i32[:0], i64[:0], AWKWARD[:0]), ("%d", "%d", "%.17g"))
    assert read(path) == b"i,j,w\n"


def test_point_and_node_writers(tmp_path, block_rows):
    pts = np.stack([AWKWARD, AWKWARD[::-1]], axis=1)
    save_points(pts, tmp_path / "p.csv")
    assert read(tmp_path / "p.csv") == reference(
        "x0,x1", pts, "%.17g,%.17g\n")
    _write_nodes(tmp_path / "n.csv", AWKWARD)
    assert read(tmp_path / "n.csv") == reference(
        "node,value", enumerate(AWKWARD), "%d,%.17g\n")
    # the demo node files write NaN as an empty field, as _fmt does
    _write_columns(tmp_path / "d.csv", "node,value",
                   (np.arange(AWKWARD.size), AWKWARD), ("%d", "%.17g"), nan="")
    want = reference("node,value", ((i, _fmt(v)) for i, v in enumerate(AWKWARD)),
                     "%d,%s\n")
    assert read(tmp_path / "d.csv") == want
    assert want.startswith(b"node,value\n0,\n1,-0\n")


def test_graph_grid_and_psi_writers(tmp_path, block_rows):
    box = Box([0, 0], [1, 1])
    pts = np.random.default_rng(3).random((40, 2))
    g = build_graph(pts, 0.4, make_kernel("cone", 2))
    save_graph(g, str(tmp_path / "g.csv"))
    assert read(tmp_path / "g.csv") == reference(
        "i,j,w", zip(*g.edge_arrays()), "%d,%d,%.17g\n")
    assert read(tmp_path / "g.csv.points") == reference(
        "x0,x1", g.points, "%.17g,%.17g\n")

    grid = build_grid(box, 0.25, make_density("constant", box))
    vals = AWKWARD[:12].copy()
    vals = np.concatenate([vals, -vals[:4]]).reshape(4, 4)
    save_grid_solution(str(tmp_path / "u.csv"), GridFunction(grid, vals))
    idx = np.indices(grid.shape).reshape(2, -1)
    mesh = np.meshgrid(*grid.axes, indexing="ij")
    rows = zip(idx[0], idx[1], mesh[0].ravel(), mesh[1].ravel(), vals.ravel())
    assert read(tmp_path / "u.csv") == reference(
        "i0,i1,x0,x1,u", rows, "%d,%d,%.17g,%.17g,%.17g\n")

    assert main(["psi", "--d", "1", "--k", "1", "--eps", "0.1",
                 "--out", str(tmp_path / "psi.csv")]) == 0
    table = psi_table(make_kernel("indicator", 1), 1, 1, 0.1)
    assert read(tmp_path / "psi.csv") == reference(
        "r,psi", zip(table.r, table.values), "%.17g,%.17g\n")
