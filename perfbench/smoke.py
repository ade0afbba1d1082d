"""Smoke test of the benchmark itself: every workload at toy sizes.

    python3 perfbench/smoke.py

Runs each workload untraced for one second and the traced run once, all at
the "toy" scale, and asserts that every metric named in BENCHMARK.json is
printed with its unit and that no case failed (ops_failed_frac == 0).
Takes well under a minute.
"""

import contextlib
import io
import json
import os
import sys

import run


def result_of(argv: list) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, scale="toy")
    assert code == 0, f"{argv}: exit code {code}"
    return json.loads(out.getvalue().splitlines()[-1])


def check(result: dict, wanted: list, what: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"], (what, result)
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        assert got is not None, f"{what}: {metric['name']} not printed"
        assert got["unit"] == metric["unit"], f"{what}: {metric['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{what}: {metric['name']} value"


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    for name in names:
        argv = ["--workload", name, "--seed", "7", "--seconds", "1", "--trace", "0"]
        check(result_of(argv), spec["end_to_end"], name)
        print(f"ok {name}")
    argv = ["--workload", names[0], "--seed", "7", "--seconds", "1", "--trace", "1"]
    check(result_of(argv), spec["per_layer"], "traced run")
    print("ok traced run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
