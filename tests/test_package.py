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
