"""Time `import rgglearn` plus building one workload's config objects.

Run in a fresh interpreter by run.py; prints the seconds taken.
Usage: python3 perfbench/setup_probe.py <workload> <master seed> <outdir>
"""

import sys
import time

import specs

t0 = time.perf_counter()
import rgglearn  # noqa: E402 - the import is what is timed

specs.make_inputs(rgglearn, sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(repr(time.perf_counter() - t0))
