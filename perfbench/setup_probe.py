"""Set-up time of one workload in a fresh interpreter.

Times the import of detlab plus the workload's `prepare` (ground sets and
temp files) and prints the seconds taken. Interpreter start-up itself is not
counted. Usage: setup_probe.py <workload> <seed> <scale> <tmpdir>
"""

import time

t0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

name, seed, scale, tmpdir = sys.argv[1:5]
workloads.WORKLOADS[name](workloads.SCALES[scale], int(seed), tmpdir, {}, Tracer(False)).prepare()
print(time.perf_counter() - t0)
