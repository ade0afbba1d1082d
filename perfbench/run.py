"""detlab benchmark: one workload per run, end-to-end metrics or the traced run.

    python3 perfbench/run.py --workload count_q --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; detlab is imported from its `src/`. With
`--trace 0` the named workload runs pass after pass for `--seconds` and the
end-to-end metrics are reported. With `--trace 1` the traced run covers every
workload (untraced and traced passes, then small probes) and reports the
per-layer metrics, whatever `--workload` names. The last line of standard
output is the JSON result; the lines before it summarise each metric.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction

from spans import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("count_q", "field_cli", "spectrum_mt", "incidence_energy")

SETUP_REPS = 7  # set-up is timed this many times per run; the median is reported
CALIBRATION_REF_S = 0.002  # calibrate() on a quiet 2-core Xeon host; a constant scale
TRACE_REPS = 2  # untraced/traced pass pairs per workload in the traced run


class RssSampler:
    """Peak resident memory of this process plus its child processes (pool
    workers), sampled from /proc every `period` seconds while active; the
    process's own exact peak from getrusage is a lower limit."""

    def __init__(self, period: float = 0.02):
        self.period = period
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        own_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.peak_kb = max(self.peak_kb, own_peak_kb)

    def _run(self):
        while not self._stop.wait(self.period):
            self.peak_kb = max(self.peak_kb, self._tree_kb())

    @staticmethod
    def _tree_kb() -> int:
        pids = [str(os.getpid())]
        try:
            for tid in os.listdir("/proc/self/task"):
                with open(f"/proc/self/task/{tid}/children") as fh:
                    pids.extend(fh.read().split())
        except OSError:
            pass
        total = 0
        for pid in pids:
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmRSS:"):
                            total += int(line.split()[1])
                            break
            except OSError:  # the child exited between listing and reading
                continue
        return total


class _Residue:
    """A minimal modular integer, so the calibration also exercises
    user-defined arithmetic methods, as detlab's Mod does."""

    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v % 101

    def __add__(self, other):
        return _Residue(self.v + other.v)

    def __mul__(self, other):
        return _Residue(self.v * other.v)


def calibrate() -> float:
    """Host speed right now: the median of three timings of a fixed loop with
    the mix of detlab's hot loops (tuple arithmetic on ints with dict
    updates, Fraction arithmetic, user-defined arithmetic methods). It uses
    no detlab code, so a change to detlab cannot move it."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        table = {}
        for y1, y2, y3, z1 in itertools.product(range(1, 8), repeat=4):
            m = (y1 * z1 - y2 * y3, y2 * z1 - y1, y3 - z1 * y2)
            table[m] = table.get(m, 0) + 1
        acc = Fraction(0)
        for i in range(1, 80):
            acc = acc + Fraction(i, 7) * Fraction(3, i + 1) - acc / 3
        res = _Residue(1)
        for i in range(1, 500):
            res = res * _Residue(i) + _Residue(3)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def corrected(times: list, calibrations: list) -> list:
    """Times rescaled to the reference host speed; calibrations[i] and
    calibrations[i + 1] were taken just before and just after times[i]."""
    return [CALIBRATION_REF_S * t / ((a + b) / 2)
            for t, a, b in zip(times, calibrations, calibrations[1:])]


def spread_line(name: str, values: list, unit: str) -> str:
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return (f"# {name}: min {min(values):.6g} median {q2:.6g} quartiles {q1:.6g}..{q3:.6g} "
            f"{unit} over {len(values)} samples")


def setup_seconds(name: str, seed: int, scale: str, tmpdir: str) -> float:
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    done = subprocess.run([sys.executable, probe, name, str(seed), scale, tmpdir],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def measure(name: str, seed: int, seconds: float, scale: str, refs: dict, tmpdir: str):
    """End-to-end metrics of one workload, tracing off."""
    import workloads  # only importable once main() has put src/ on the path

    setups, setup_cals = [], [calibrate()]
    for _ in range(SETUP_REPS):
        setups.append(setup_seconds(name, seed, scale, tmpdir))
        setup_cals.append(calibrate())
    wl = workloads.WORKLOADS[name](workloads.SCALES[scale], seed, tmpdir, refs, Tracer(False))
    wl.prepare()
    wl.run_checks()
    wl.calibrate = calibrate
    walls = []
    with RssSampler() as rss:
        t_end = time.perf_counter() + seconds
        while not walls or time.perf_counter() < t_end:
            t0 = time.perf_counter()
            results = wl.run_pass()
            walls.append(time.perf_counter() - t0)
            wl.check(results)
    # On a shared host the same case runs up to 2x slower for seconds at a
    # time while other tenants load the machine. Each case is therefore
    # rescaled by the host speed measured just before and after it, and a
    # pass is the sum of each case's median rescaled time.
    keys, times, cals = zip(*wl.samples)
    per_case: dict = {}
    for key, t in zip(keys, corrected(times, cals + (calibrate(),))):
        per_case.setdefault(key, []).append(t)
    wall = sum(statistics.median(ts) for ts in per_case.values())
    print(spread_line("raw wall_s per pass", walls, "s"))
    print(spread_line("calibration", cals, "s"))
    print(spread_line("raw setup_s per set-up", setups, "s"))
    return wl, {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(corrected(setups, setup_cals)), "s"),
        "peak_rss_mb": (rss.peak_kb / 1024.0, "MB"),
        "matrices_per_s": (wl.matrices() / wall, "1/s"),
    }


def trace_run(seed: int, scale: str, refs: dict, tmpdir: str):
    """Per-layer metrics of every workload from one traced run."""
    import workloads

    tracer = Tracer(True)
    metrics = {}
    attempted = 0
    failures = []
    for name in WORKLOAD_NAMES:
        tracer.enabled, tracer.pass_id = True, f"{name}:setup"
        wl = workloads.WORKLOADS[name](workloads.SCALES[scale], seed, tmpdir, refs, tracer)
        wl.prepare()
        tracer.enabled = False
        wl.run_checks()
        # Untraced and traced passes alternate; the overhead compares their
        # host-speed-corrected times, as wall_s is reported.
        times, cals, traced = [], [calibrate()], []
        for rep in range(TRACE_REPS):
            for enabled in (False, True):
                tracer.enabled, tracer.pass_id = enabled, f"{name}:{rep}"
                t0 = time.perf_counter()
                with tracer.span("pass", workload=name):
                    results = wl.run_pass()
                times.append(time.perf_counter() - t0)
                tracer.enabled = False
                cals.append(calibrate())
                wl.check(results)
                if enabled:
                    traced.append((times[-1], tracer.pass_id, results))
        wall, pass_id, results = min(traced, key=lambda t: t[0])
        metrics.update(wl.layer_metrics(results, pass_id, wall))
        fixed = corrected(times, cals)  # untraced at even, traced at odd positions
        metrics[f"{name}.trace_overhead_s"] = (min(fixed[1::2]) - min(fixed[0::2]), "s")
        print(f"# {name}: fastest traced pass {wall:.6g} s, untraced {min(times[0::2]):.6g} s")
        attempted += wl.attempted
        failures += wl.failures
    metrics["families.generate_s"] = (tracer.total("families.generate"), "s")
    tracer.write(os.path.join(OUT_DIR, f"spans-seed{seed}.jsonl"))
    return attempted, failures, metrics


def main(argv=None, scale: str = "bench") -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "detlab", "__init__.py")):
        print(f"error: no detlab sources under {SRC}", file=sys.stderr)
        return 2
    # Thread counts are passed on every call; the environment must not override them.
    os.environ.pop("DETLAB_THREADS", None)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import detlab

    if not os.path.abspath(detlab.__file__).startswith(SRC + os.sep):
        print(f"error: detlab imported from {detlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(BENCH_DIR, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)

    os.makedirs(OUT_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        if args.trace:
            attempted, failures, metrics = trace_run(args.seed, scale, refs, tmpdir)
        else:
            wl, metrics = measure(args.workload, args.seed, args.seconds, scale, refs, tmpdir)
            attempted, failures = wl.attempted, wl.failures
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    package = os.path.join(SRC, "detlab")
    lines = 0
    for module in sorted(os.listdir(package)):
        if module.endswith(".py"):
            with open(os.path.join(package, module), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    print(f"# src/detlab: {lines} lines (informational, not a metric)")
    print(f"# ops_failed_frac: {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
