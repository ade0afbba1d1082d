import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from detlab import cli
from detlab.cli import main, resolve_threads
from detlab.errors import PreconditionError


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
        capsys, "count", "--family", "gp", "--size", "4", "--n", "2", "--d", "0", "--engine", "rowblock"
    )
    assert obj["count"] == "44"
    assert obj["engine"] == "rowblock"


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
        "--engine", "rowblock", "--out", str(out), "--cache", str(tmp_path / "cache.jsonl"),
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
        "--dmode", "zero", "--engine", "rowblock", "--out", str(out), "--format", "csv",
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
    # an unknown engine name is refused by argparse, before main's handlers
    with pytest.raises(SystemExit) as exc:
        main(["count", "--family", "interval", "--size", "3", "--n", "2", "--d", "0", "--engine", "conv"])
    assert exc.value.code == 2
    rc, _ = run_cli(capsys, "count", "--family", "interval", "--size", "3", "--n", "2", "--d", "x")
    assert rc == 2
    rc, _ = run_cli(capsys, "count", "--family", "gp", "--ratio", "1", "--size", "3", "--n", "2", "--d", "0")
    assert rc == 2
    rc, _ = run_cli(capsys, "count", "--field", "fp:6", "--family", "interval", "--size", "2", "--n", "2", "--d", "0")
    assert rc == 2


def test_parser_is_built_once_on_first_use():
    assert cli.build_parser() is cli.build_parser()
    # importing the CLI builds nothing; the first main call does
    probe = (
        "import detlab.cli as c; n = c.build_parser.cache_info().currsize; "
        "c.main(['fit', '--input', '/nonexistent/report.jsonl']); "
        "print(n, c.build_parser.cache_info().currsize)"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["0", "1"], out.stderr


def test_shared_parser_carries_nothing_between_calls(capsys, tmp_path):
    # --out on one call leaves the next call's report on stdout
    path = tmp_path / "count.json"
    argv = ["--family", "interval", "--size", "3", "--n", "2"]
    assert main(["count", *argv, "--d", "1", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(path.read_text(encoding="utf-8"))["count"] == "8"
    obj = run_json(capsys, "spectrum", *argv)
    assert (obj["op"], obj["total_mass"]) == ("spectrum", str(3**4))
    assert "d" not in obj and "count" not in obj
    assert len(list(tmp_path.iterdir())) == 1
    # an argparse refusal leaves the parser as it was
    with pytest.raises(SystemExit) as exc:
        main(["count", *argv, "--d", "1", "--engine", "conv"])
    assert exc.value.code == 2
    obj = run_json(capsys, "count", *argv, "--d", "1")
    assert (obj["engine"], obj["count"]) == ("rowblock", "8")


def test_exit_code_budget(capsys):
    rc, _ = run_cli(
        capsys,
        "count", "--family", "interval", "--size", "3", "--n", "3", "--d", "0",
        "--engine", "brute", "--budget", "10",
    )
    assert rc == 3
    # a budget of 0 is a budget, refused by the estimate
    rc, _ = run_cli(capsys, "count", "--family", "interval", "--size", "3", "--n", "3", "--d", "1", "--budget", "0")
    assert rc == 3


@pytest.mark.parametrize("flag,value", [("--threads", "0"), ("--budget", "-5")])
def test_threads_below_1_and_negative_budget_are_preconditions(capsys, flag, value):
    rc = main(["count", "--family", "interval", "--size", "3", "--n", "3", "--d", "1", flag, value])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_rowblock_n2_charges_pair_table(capsys):
    # 40^2 pair products, then 40^2 plus the 517 distinct ones for the lookups
    argv = ["count", "--family", "interval", "--size", "40", "--n", "2", "--d", "1", "--engine", "rowblock"]
    assert run_cli(capsys, *argv, "--budget", str(40**2 - 1))[0] == 3
    assert run_cli(capsys, *argv, "--budget", str(40**2 + 516))[0] == 3
    assert run_json(capsys, *argv, "--budget", str(40**2 + 517))["count"] == "1878"


@pytest.mark.parametrize("engine", ["mu", "pivot"])
def test_energy_rejects_dropped_engine_names(capsys, engine):
    with pytest.raises(SystemExit) as exc:
        main(["energy", "--kind", "T", "--family", "interval", "--size", "3", "--engine", engine])
    assert exc.value.code == 2


@pytest.mark.parametrize("kind", ["T", "S", "N"])
def test_fast_energies_honour_budget(capsys, kind):
    argv = ["energy", "--kind", kind, "--family", "interval", "--size", "12"]
    assert run_cli(capsys, *argv, "--budget", "1")[0] == 3
    assert run_cli(capsys, *argv, "--budget", str(12**4))[0] == 0


def _subcommands_with(flag):
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    return {
        name for name, p in sub.choices.items()
        if any(flag in a.option_strings for a in p._actions)
    }


def test_threads_only_where_brute_can_use_it():
    assert _subcommands_with("--threads") == {"count", "spectrum", "scan"}


def test_flags_only_where_read():
    every = {"count", "spectrum", "rank", "energy", "incidence", "scan", "fit"}
    assert _subcommands_with("--out") == every
    assert _subcommands_with("--field") == _subcommands_with("--budget") == every - {"fit"}
    assert _subcommands_with("--set") == _subcommands_with("--size") == every - {"scan", "fit"}
    assert _subcommands_with("--family") == every - {"fit"}
    assert _subcommands_with("--format") == {"scan"}


@pytest.mark.parametrize("e", ["0", "5"])
@pytest.mark.parametrize("d", ["0", "1"])
def test_classify_on_a_set_with_no_planes(capsys, tmp_path, e, d):
    path = tmp_path / "set.txt"
    path.write_text(e + "\n", encoding="utf-8")
    for extra in ([], ["--r", "1"]):
        obj = run_json(capsys, "incidence", "--kind", "classify", "--set", str(path), "--d", d, *extra)
        assert (obj["planes"], obj["r"], obj["chosen_r"]) == (0, 1, 1)
        assert (obj["i1"], obj["i2"], obj["i3"], obj["max_cells_hit"]) == ("0", "0", "0", 0)


def test_exit_code_io(capsys, tmp_path):
    rc, _ = run_cli(capsys, "count", "--set", str(tmp_path / "missing.txt"), "--n", "2", "--d", "0")
    assert rc == 4
    rc, _ = run_cli(capsys, "fit", "--input", str(tmp_path / "missing.jsonl"))
    assert rc == 4


@pytest.mark.parametrize("line", ['{"X": 4}', "not json", "[]"])
def test_fit_rejects_malformed_report(capsys, tmp_path, line):
    path = tmp_path / "report.jsonl"
    good = {"family": "interval", "X": 2, "n": 2, "dmode": "zero", "engine": "rowblock", "count": "6"}
    path.write_text(json.dumps(good) + "\n" + line + "\n", encoding="utf-8")
    rc = main(["fit", "--input", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: {path}:2: not a scan row\n"


@pytest.mark.parametrize(
    "callee,kind",
    [("curve_incidences_n3", "curves"), ("cells_hit", "classify")],
)
def test_exit_code_internal_invariant(capsys, monkeypatch, callee, kind):
    def broken(*args, **kwargs):
        raise AssertionError("invariant broken")

    monkeypatch.setattr(cli, callee, broken)
    rc = main(["incidence", "--kind", kind, "--family", "interval", "--size", "2", "--d", "1"])
    err = capsys.readouterr().err
    assert rc == 5
    assert err.startswith("error: ") and err.count("\n") == 1 and "invariant broken" in err


def test_threads_resolution(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 7)
    assert resolve_threads(3) == 3
    assert resolve_threads(None) == 7
    for flag in (0, -3):
        with pytest.raises(PreconditionError, match="at least 1"):
            resolve_threads(flag)


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(script, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize(
    "script,flag,value",
    [
        ("growth_probe.py", "--sizes", "1:2:3:4"),
        ("growth_probe.py", "--sizes", "8:4"),
        ("spectrum_report.py", "--field", "rationals"),
    ],
)
def test_scripts_reject_bad_input(script, flag, value):
    proc = run_script(script, flag, value)
    assert proc.returncode == 2
    assert f"argument {flag}" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv,code",
    [
        (["spectrum_report.py", "--size", "0"], 2),
        (["spectrum_report.py", "--n", "3", "--size", "6", "--budget", "10"], 3),
        (["incidence_census.py", "--d", "x"], 2),
        (["growth_probe.py", "--sizes", "4", "--n", "1"], 2),
        (["spectrum_report.py", "--threads", "-2", "--size", "2", "--n", "2"], 2),
    ],
)
def test_scripts_refuse_like_the_cli(argv, code):
    proc = run_script(*argv)
    assert proc.returncode == code
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_incidence_census_takes_the_cli_family_flags():
    argv = ["--family", "ap", "--start", "1/2", "--step", "1/2", "--size", "3", "--d", "1"]
    proc = run_script("incidence_census.py", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("set: {1/2, 1, 3/2}, d = 1\n")
    assert "exact match" in proc.stdout


def test_incidence_census_exits_1_on_mismatch(monkeypatch, capsys):
    import detlab.detcount

    monkeypatch.setattr(detlab.detcount, "count_det_rowblock", lambda *a, **k: -1)
    monkeypatch.setattr(sys, "argv", ["incidence_census.py", "--size", "2", "--d", "1"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "incidence_census.py"), run_name="__main__")
    assert exc.value.code == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_spectrum_report_computes_the_spectrum_once(monkeypatch, capsys):
    # the sup over nonzero d is read from the spectrum the report already holds
    import detlab.detcount

    engine, calls = detlab.detcount.SPECTRUM_ENGINES["rowblock"], []
    monkeypatch.setitem(detlab.detcount.SPECTRUM_ENGINES, "rowblock", lambda *a, **k: calls.append(a) or engine(*a, **k))
    argv = ["spectrum_report.py", "--family", "gp", "--ratio", "2", "--size", "4", "--n", "3"]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "spectrum_report.py"), run_name="__main__")
    assert exc.value.code == 0
    assert len(calls) == 1
    assert "sup over nonzero d: D_n(X, 192) = 6318" in capsys.readouterr().out
