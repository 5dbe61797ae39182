"""rgglearn benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  With --trace 0 it reports the
end-to-end metrics of BENCHMARK.json (wall_s, setup_s, peak_rss_mb); with
--trace 1 the per-layer metrics, from repetitions traced by wrapping the
library's public functions.  Every metric is printed as `name value unit`,
then a result file with provenance is written to perfbench/results/, and the
last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import specs  # noqa: E402

SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
BLAS_THREADS = 1        # fixed, at most nproc; recorded in every result file
SETUP_REPEATS = 5       # fresh interpreters per run for setup_s (median)
IMPORTTIME_REPEATS = 3  # `python -X importtime` runs per traced run (median)
TIME_LIMIT = 175.0      # seconds for the whole run, children included


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, deadline):
    """Run a Python child to completion (killed at the deadline); return stdout, stderr."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit("benchmark time limit reached")
    try:
        proc = subprocess.run([sys.executable] + args, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit("child %s exceeded the time limit" % args[:2])
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("child %s exited with %d" % (args[:2], proc.returncode))
    return proc.stdout, proc.stderr


def src_digest():
    """sha256 over src/rgglearn/*.py: identifies the code when git is absent."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "rgglearn")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def measure_setup(workload, seed, deadline):
    outdir = os.path.join(HERE, "_work", "setup")
    times = [float(run_child([os.path.join(HERE, "setup_probe.py"), workload,
                              str(specs.master_seed(workload, seed)), outdir],
                             deadline)[0].split()[-1])
             for _ in range(SETUP_REPEATS)]
    return statistics.median(times), times


def parse_importtime(text):
    """Seconds of `import rgglearn` attributed to each rgglearn module.

    Every imported module is charged to its nearest enclosing rgglearn
    module, so numpy is charged to whichever layer imported it first.
    """
    stack = []  # (name, self_us, level, children); roots once all lines are read
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        head, _, name = line.split("|", 2)
        name = name[1:]
        level = (len(name) - len(name.lstrip(" "))) // 2
        node = (name.strip(), int(head.split(":")[1]), level, [])
        while stack and stack[-1][2] > level:
            node[3].append(stack.pop())
        stack.append(node)
    totals = {}

    def charge(node, owner):
        if node[0].startswith("rgglearn"):
            owner = node[0]
        totals[owner] = totals.get(owner, 0) + node[1]
        for child in node[3]:
            charge(child, owner)

    for root in stack:
        charge(root, None)
    out = {}
    for mod, us in totals.items():
        if mod is not None and mod.startswith("rgglearn."):
            out["%s.import_s" % mod.split(".", 1)[1]] = us / 1e6
    top = [n for n in stack if n[0] == "rgglearn"]
    out["rgglearn.import_s"] = sum(_cumulative(n) for n in top) / 1e6
    return out


def _cumulative(node):
    return node[1] + sum(_cumulative(c) for c in node[3])


def import_attribution(deadline):
    runs = [parse_importtime(run_child(["-X", "importtime", "-c", "import rgglearn"],
                                       deadline)[1])
            for _ in range(IMPORTTIME_REPEATS)]
    return {k: statistics.median(r.get(k, 0.0) for r in runs) for k in runs[0]}


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def bench(workload, seed, seconds, trace, deadline):
    """One run of one workload; returns (result line dict, full record)."""
    digest = src_digest()
    values, harness = {}, []
    if not trace:
        values["setup_s"], setup_times = measure_setup(workload, seed, deadline)
    else:
        setup_times = None
        values.update(import_attribution(deadline))
    out, _ = run_child([os.path.join(HERE, "worker.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", str(trace), "--src-digest", digest], deadline)
    child = json.loads(out.strip().splitlines()[-1])
    harness.extend(child["harness"])
    reps = child["reps"]
    if trace:
        traced = child["traced"]
        for key in traced[0]:
            vals = [t[key] for t in traced]
            if isinstance(vals[0], int):  # counts must repeat exactly
                if len(set(vals)) != 1:
                    harness.append("count %s differs between identical repetitions: %r"
                                   % (key, vals))
                values[key] = vals[0]
            else:
                values[key] = statistics.median(vals)
        values["trace.overhead_s"] = (values["trace.wall_s"]
                                      - statistics.median(child["untraced_walls"]))
        values["trace.peak_rss_mb"] = child["peak_rss_mb"]
    else:
        values["wall_s"] = statistics.median(r["wall_s"] for r in reps)
        values["peak_rss_mb"] = child["peak_rss_mb"]

    units = declared_metrics(trace)
    if set(values) != set(units):
        harness.append("metric names differ from BENCHMARK.json: extra %s, missing %s" % (
            sorted(set(values) - set(units)), sorted(set(units) - set(values))))
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    line = {"correct": failed == 0 and not harness, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units.get(k, "?")}
                        for k in sorted(values)}}
    record = {
        "result": line,
        "reps": reps,
        "problems": child["problems"],
        "harness": harness,
        "setup_times_s": setup_times,
        "provenance": {
            "git_sha": git_sha(),
            "src_sha256": digest,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "versions": child["versions"],
            "blas_threads": BLAS_THREADS,
            "blas_env": {k: v for k, v in child_env().items() if k.endswith("_NUM_THREADS")},
            "workload": workload,
            "seed": seed,
            "master_seeds": sorted({r["master_seed"] for r in reps}),
            "seconds": seconds,
            "trace": trace,
            "scale_down": specs.SCALE_DOWN[workload],
            "load": "closed loop, one process, repetitions one after another",
        },
    }
    return line, record


def report(workload, line, record):
    for name, m in line["metrics"].items():
        print("%-14s %-44s %.10g %s" % (workload, name, m["value"], m["unit"]))
    print("%-14s %-44s %.4g (%d/%d operations)" % (
        workload, "failed_frac", line["failed"] / line["attempted"],
        line["failed"], line["attempted"]))
    for msg in record["problems"] + record["harness"]:
        print("%-14s problem: %s" % (workload, msg))
    os.makedirs(RESULTS, exist_ok=True)
    prov = record["provenance"]
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (workload, prov["seed"], prov["trace"]))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=specs.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rgglearn", "__init__.py")):
        sys.exit("no rgglearn sources at %s: run from the root of a source checkout" % SRC)

    if args.workload != "all":
        deadline = time.monotonic() + TIME_LIMIT
        line, record = bench(args.workload, args.seed, args.seconds, args.trace, deadline)
        report(args.workload, line, record)
        print(json.dumps(line))
        return
    # every workload, untraced then traced; metric names are prefixed by workload
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in specs.WORKLOADS:
        for trace in (0, 1):
            deadline = time.monotonic() + TIME_LIMIT
            line, record = bench(workload, args.seed, args.seconds, trace, deadline)
            report(workload, line, record)
            total["correct"] &= line["correct"]
            total["attempted"] += line["attempted"]
            total["failed"] += line["failed"]
            for name, m in line["metrics"].items():
                total["metrics"]["%s/%s" % (workload, name)] = m
    print(json.dumps(total))


if __name__ == "__main__":
    main()
