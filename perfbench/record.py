"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py [workload ...]

Runs one traced repetition per recorded master seed with the benchmark's
BLAS setting and writes perfbench/reference.json: per-job errors and CG
iterations, edge counts per graph, and FD apply calls per solve.  Run it
only when a change is meant to alter these outputs, as its own change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import specs  # noqa: E402

os.environ.update(run.child_env())  # before numpy loads OpenBLAS
sys.path.insert(0, run.SRC)

import tracer as tracing  # noqa: E402
import worker  # noqa: E402


def record(name):
    if name == "reference-fd":
        seeds = [0]
    else:
        count = specs.DEMO_SEEDS if name == "two-label" else specs.LADDER_SEEDS
        seeds = range(count)   # seed s records master seed 1 + s
    out = {}
    for s in seeds:
        wl = worker.make_workload(name, s, reference={})
        rep = wl.prepare(0)
        tr = tracing.Tracer()
        tr.install()
        try:
            worker.run_rep(wl, rep, tr)
        finally:
            tr.uninstall()
        if rep.error:
            raise SystemExit("%s master seed %s failed: %s" % (name, rep.key, rep.error))
        out[str(rep.key)] = wl.record(rep, tr)
        print(name, rep.key, flush=True)
    return out["0"] if name == "reference-fd" else out


def main():
    names = sys.argv[1:] or list(specs.WORKLOADS)
    ref = {}
    if os.path.exists(worker.REFERENCE):
        with open(worker.REFERENCE) as fh:
            ref = json.load(fh)
    for name in names:
        ref[name] = record(name)
    ref["recorded_at"] = {"git_sha": run.git_sha(), "src_sha256": run.src_digest(),
                          "blas_threads": run.BLAS_THREADS}
    with open(worker.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
