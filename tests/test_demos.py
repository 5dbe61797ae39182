import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# the demos that take about a second each, in a fresh interpreter so that
# each one pays its own deferred scipy imports; heat_smoothing (about 5 s)
# and convergence_rates (an (eps, n) ladder) are left out for time
@pytest.mark.parametrize("demo", ["continuum_reference", "graph_calculus", "learning_methods"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo + ".py")],
                          env=env, cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
