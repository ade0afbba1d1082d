import json
import subprocess
import sys
from pathlib import Path

import pytest

from detlab.cli import main
from detlab.parallel import resolve_threads


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run_cli(capsys, *argv)
    assert rc == 0, out
    return json.loads(out)


def test_count_gp_anchor(capsys):
    obj = run_json(
        capsys, "count", "--family", "gp", "--size", "4", "--n", "2", "--d", "0", "--engine", "conv"
    )
    assert obj["count"] == "44"
    assert obj["engine"] == "conv"


def test_count_engines_agree(capsys):
    a = run_json(capsys, "count", "--family", "interval", "--size", "3", "--n", "2", "--d", "1", "--engine", "brute")
    b = run_json(capsys, "count", "--family", "interval", "--size", "3", "--n", "2", "--d", "1", "--engine", "rowblock")
    assert a["count"] == b["count"]


def test_count_from_set_file(tmp_path, capsys):
    path = tmp_path / "set.txt"
    path.write_text("# two scalars\n1\n2\n", encoding="utf-8")
    obj = run_json(capsys, "count", "--set", str(path), "--n", "2", "--d", "0")
    assert obj["count"] == "6"


def test_spectrum_prime_field(capsys):
    obj = run_json(
        capsys, "spectrum", "--field", "fp:7", "--family", "interval", "--size", "3", "--n", "2", "--engine", "brute"
    )
    assert obj["total_mass"] == str(3**4)
    assert obj["field"] == "fp:7"
    assert sum(int(c) for _, c in obj["entries"]) == 3**4


def test_rank_command(capsys):
    obj = run_json(capsys, "rank", "--family", "interval", "--size", "2", "--m", "2", "--n", "2", "--r", "1")
    assert obj["count"] == "6"


def test_energy_commands(capsys):
    assert run_json(capsys, "energy", "--kind", "T", "--family", "interval", "--size", "2")["count"] == "54"
    assert run_json(capsys, "energy", "--kind", "N", "--family", "interval", "--size", "2")["count"] == "20"
    table = run_json(capsys, "energy", "--kind", "Estar", "--family", "interval", "--size", "2")
    brute = run_json(capsys, "energy", "--kind", "Estar", "--family", "interval", "--size", "2", "--engine", "brute")
    assert table["count"] == brute["count"]


def test_energy_bilinear(capsys, tmp_path):
    c2 = tmp_path / "c.txt"
    c2.write_text("1\n2\n3\n", encoding="utf-8")
    obj = run_json(
        capsys,
        "energy", "--kind", "bilinear", "--family", "interval", "--size", "2",
        "--matrix", "1,0;0,1", "--omega", "4", "--set2", str(c2),
    )
    brute = run_json(
        capsys,
        "energy", "--kind", "bilinear", "--family", "interval", "--size", "2",
        "--matrix", "1,0;0,1", "--omega", "4", "--set2", str(c2), "--engine", "brute",
    )
    assert obj["count"] == brute["count"]


def test_incidence_commands(capsys):
    minors = run_json(capsys, "incidence", "--kind", "minors", "--family", "interval", "--size", "2", "--d", "1")
    assert minors["total_weight"] == "64"
    count = run_json(capsys, "count", "--family", "interval", "--size", "2", "--n", "3", "--d", "1", "--engine", "brute")
    assert minors["det_count_via_incidences"] == count["count"]

    brute = run_json(capsys, "incidence", "--kind", "brute", "--family", "interval", "--size", "2", "--d", "1")
    assert int(brute["incidences"]) >= 0

    cls = run_json(capsys, "incidence", "--kind", "classify", "--family", "interval", "--size", "2", "--d", "1")
    assert int(cls["i1"]) + int(cls["i2"]) + int(cls["i3"]) == int(brute["incidences"])
    assert cls["max_cells_hit"] <= cls["cell_bound"]

    curves = run_json(capsys, "incidence", "--kind", "curves", "--family", "interval", "--size", "2")
    assert curves["count"] == "40"


def test_scan_and_fit_pipeline(tmp_path, capsys):
    out = tmp_path / "rows.jsonl"
    rc, _ = run_cli(
        capsys,
        "scan", "--family", "gp", "--sizes", "2,4,8", "--n", "2", "--dmode", "zero",
        "--engine", "conv", "--out", str(out), "--cache", str(tmp_path / "cache.jsonl"),
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[1])["count"] == "44"  # the size-4 row

    fit = run_json(capsys, "fit", "--input", str(out))
    assert fit["points_used"] == 3
    assert 2.0 < fit["slope"] < 3.0


def test_scan_csv_format(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc, _ = run_cli(
        capsys,
        "scan", "--family", "interval", "--sizes", "2:4", "--n", "2",
        "--dmode", "zero", "--engine", "conv", "--out", str(out), "--format", "csv",
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("family,kind-params,seed,X")
    assert len(lines) == 4


def test_scan_deterministic_bytes(tmp_path, capsys):
    args = [
        "scan", "--family", "random", "--seed", "5", "--sizes", "2,3", "--n", "2",
        "--dmode", "sup_nonzero", "--engine", "brute",
    ]
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0

    def strip(path):
        rows = []
        for line in path.read_text().splitlines():
            obj = json.loads(line)
            obj.pop("elapsed_ms")
            rows.append(json.dumps(obj, sort_keys=True))
        return rows

    assert strip(a) == strip(b)


def test_exit_code_precondition(capsys):
    rc, _ = run_cli(capsys, "count", "--family", "interval", "--size", "3", "--n", "3", "--d", "0", "--engine", "conv")
    assert rc == 2
    rc, _ = run_cli(capsys, "count", "--family", "interval", "--size", "3", "--n", "2", "--d", "x")
    assert rc == 2
    rc, _ = run_cli(capsys, "count", "--family", "gp", "--ratio", "1", "--size", "3", "--n", "2", "--d", "0")
    assert rc == 2
    rc, _ = run_cli(capsys, "count", "--field", "fp:6", "--family", "interval", "--size", "2", "--n", "2", "--d", "0")
    assert rc == 2


def test_exit_code_budget(capsys):
    rc, _ = run_cli(
        capsys,
        "count", "--family", "interval", "--size", "3", "--n", "3", "--d", "0",
        "--engine", "brute", "--budget", "10",
    )
    assert rc == 3


def test_exit_code_io(capsys, tmp_path):
    rc, _ = run_cli(capsys, "count", "--set", str(tmp_path / "missing.txt"), "--n", "2", "--d", "0")
    assert rc == 4
    rc, _ = run_cli(capsys, "fit", "--input", str(tmp_path / "missing.jsonl"))
    assert rc == 4


def test_threads_resolution(monkeypatch):
    monkeypatch.delenv("DETLAB_THREADS", raising=False)
    assert resolve_threads(3) == 3
    monkeypatch.setenv("DETLAB_THREADS", "7")
    assert resolve_threads(None) == 7
    assert resolve_threads(2) == 2  # flag wins
    monkeypatch.setenv("DETLAB_THREADS", "junk")
    assert resolve_threads(None) >= 1


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script,flag,value",
    [
        ("growth_probe.py", "--sizes", "1:2:3:4"),
        ("growth_probe.py", "--sizes", "8:4"),
        ("spectrum_report.py", "--field", "rationals"),
    ],
)
def test_scripts_reject_bad_input(script, flag, value):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), flag, value],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert f"argument {flag}" in proc.stderr and "Traceback" not in proc.stderr
