import hashlib
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
from detlab.harness import parse_sizes
from detlab.scalars import FieldSpec


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


def test_prime_field_spectrum_report_is_byte_pinned(capsys):
    # the n = 3 spectrum over F_101, sorted by residue: sha256 of the exact stdout
    rc, out = run_cli(capsys, "spectrum", "--field", "fp:101", "--family", "interval", "--size", "4", "--n", "3")
    assert rc == 0 and out.startswith('{"X": 4, "distinct": 101, "engine": "rowblock", "entries": [["0", "29104"], ["1",')
    assert hashlib.sha256(out.encode()).hexdigest() == "51a1211351fd522f1ab20b3c0a09ca90cab0f50607ae440a38598ad39e6249ef"


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


def test_scan_sup_nonzero_goes_on_past_an_all_singular_size(capsys):
    rc, out = run_cli(capsys, "scan", "--family", "interval", "--sizes", "1:3", "--n", "2", "--dmode", "sup_nonzero")
    assert rc == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(r["X"], r["d"], r["count"]) for r in rows] == [(1, None, "0"), (2, "1", "2"), (3, "1", "8")]


# README examples and their exact stdout: key order, spacing and the newline
README_REPORTS = [
    (
        "count --family gp --ratio 2 --size 4 --n 2 --d 0 --engine rowblock",
        '{"X": 4, "count": "44", "d": "0", "engine": "rowblock", "field": "rational", "n": 2, "op": "count"}',
    ),
    (
        "count --family ap --start 1/2 --step 1/2 --size 4 --n 3 --d 0",
        '{"X": 4, "count": "29104", "d": "0", "engine": "rowblock", "field": "rational", "n": 3, "op": "count"}',
    ),
    (
        "count --engine rowblock --family ap --start 1/2 --step 1/2 --size 6 --n 2 --d 1",
        '{"X": 6, "count": "44", "d": "1", "engine": "rowblock", "field": "rational", "n": 2, "op": "count"}',
    ),
    (
        "spectrum --field fp:101 --family interval --size 4 --n 2 --engine rowblock",
        '{"X": 4, "distinct": 31, "engine": "rowblock", "entries": [["0", "32"], ["1", "14"], ["2", "18"], '
        '["3", "11"], ["4", "16"], ["5", "9"], ["6", "10"], ["7", "5"], ["8", "9"], ["9", "4"], ["10", "6"], '
        '["11", "2"], ["12", "3"], ["13", "2"], ["14", "2"], ["15", "1"], ["86", "1"], ["87", "2"], ["88", "2"], '
        '["89", "3"], ["90", "2"], ["91", "6"], ["92", "4"], ["93", "9"], ["94", "5"], ["95", "10"], ["96", "9"], '
        '["97", "16"], ["98", "11"], ["99", "18"], ["100", "14"]], "field": "fp:101", "n": 2, "op": "spectrum", '
        '"total_mass": "256"}',
    ),
    (
        "rank --family interval --size 2 --m 2 --n 2 --r 1",
        '{"X": 2, "count": "6", "field": "rational", "m": 2, "n": 2, "op": "rank", "r": 1}',
    ),
    (
        "energy --kind T --family interval --size 3",
        '{"X": 3, "count": "591", "engine": "table", "field": "rational", "kind": "T", "op": "energy"}',
    ),
    (
        "energy --kind bilinear --family interval --size 2 --matrix 1,0;0,1 --omega 4",
        '{"C": 2, "X": 2, "count": "4", "engine": "table", "field": "rational", "k": 2, "kind": "bilinear", '
        '"omega": "4", "op": "energy"}',
    ),
    (
        "incidence --kind minors --family interval --size 3 --d 1",
        '{"X": 3, "d": "1", "det_count_via_incidences": "1134", "field": "rational", "kind": "minors", '
        '"op": "incidence", "planes": 462, "total_weight": "729", "weight_square_sum": "1776", '
        '"zero_multiplicity": "33"}',
    ),
    (
        "incidence --kind classify --family interval --size 3 --d 1",
        '{"X": 3, "cell_bound": 3, "chosen_r": 1, "d": "1", "field": "rational", "i1": "324", "i2": "234", '
        '"i3": "117", "kind": "classify", "max_cells_hit": 1, "op": "incidence", "planes": 462, "r": 1, '
        '"zero_multiplicity": "33"}',
    ),
    (
        "incidence --kind curves --family interval --size 3",
        '{"X": 3, "count": "273", "field": "rational", "kind": "curves", "op": "incidence"}',
    ),
]


@pytest.mark.parametrize("argv,report", README_REPORTS, ids=[a.split(" --")[0] for a, _ in README_REPORTS])
def test_readme_reports_are_byte_pinned(capsys, argv, report):
    assert run_cli(capsys, *argv.split()) == (0, report + "\n")


def test_fit_report_is_byte_pinned(capsys, tmp_path):
    path = tmp_path / "rows.jsonl"
    rows = [{"family": "interval", "X": x, "n": 2, "dmode": "zero", "engine": "rowblock", "count": c}
            for x, c in ((2, "6"), (4, "64"), (8, "1000"), (16, "0"))]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    assert run_cli(capsys, "fit", "--input", str(path)) == (
        0,
        '{"excluded_zero": 1, "intercept": -0.8298631992307941, "op": "fit", "points_used": 3, '
        '"residual_stderr": 0.1558482057806437, "slope": 3.690410891970466}\n',
    )


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


def assert_not_utf8_refusal(capsys, rc, path):
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: {path}: not UTF-8 text\n"


UNDECODABLE = b"\xff\xfe1\n2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "2", "--d", "0"],
        ["spectrum", "--n", "2"],
        ["rank", "--m", "2", "--n", "2", "--r", "1"],
        ["energy", "--kind", "T"],
        ["incidence", "--kind", "curves"],
    ],
    ids=lambda argv: argv[0],
)
def test_set_file_not_utf8_is_a_precondition(capsys, tmp_path, argv):
    path = tmp_path / "set.txt"
    path.write_bytes(UNDECODABLE)
    assert_not_utf8_refusal(capsys, main([*argv, "--set", str(path)]), path)


def test_bilinear_set2_not_utf8_is_a_precondition(capsys, tmp_path):
    path = tmp_path / "c.txt"
    path.write_bytes(UNDECODABLE)
    argv = ["energy", "--kind", "bilinear", "--family", "interval", "--size", "2",
            "--matrix", "1,0;0,1", "--omega", "4", "--set2", str(path)]
    assert_not_utf8_refusal(capsys, main(argv), path)


def test_fit_input_not_utf8_is_a_precondition(capsys, tmp_path):
    path = tmp_path / "report.jsonl"
    path.write_bytes(UNDECODABLE)
    assert_not_utf8_refusal(capsys, main(["fit", "--input", str(path)]), path)


def test_scan_skips_an_undecodable_cache_line(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    argv = ["scan", "--family", "gp", "--sizes", "4", "--n", "3", "--cache", str(cache)]
    rc, cold = run_cli(capsys, *argv)
    assert rc == 0
    cache.write_bytes(b"\xff\xfe{\n" + cache.read_bytes())
    rc = main(argv)
    warm, err = capsys.readouterr()
    assert rc == 0
    assert warm == cold  # served from the valid row, elapsed_ms included
    assert err.splitlines() == [f"warning: {cache}:1: skipping corrupt cache line"]
    assert len(cache.read_bytes().splitlines()) == 2


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


def test_threads_resolution():
    assert resolve_threads(3) == 3
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
        ("spectrum_report.py", "--field", "fp:4"),
    ],
)
def test_scripts_reject_bad_input(script, flag, value):
    # the script parses the value itself, so its refusal is the parser's own
    # message on one line, not argparse's usage block
    parse = parse_sizes if flag == "--sizes" else FieldSpec.parse
    with pytest.raises(PreconditionError) as exc:
        parse(value)
    proc = run_script(script, flag, value)
    assert (proc.returncode, proc.stderr) == (2, f"error: {exc.value}\n")


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


def test_incidence_census_slices_the_grid_once(monkeypatch, capsys):
    # the cells-hit bound reads the decomposition classify_incidences returned
    import detlab.incidence

    decompose, calls = detlab.incidence.cell_decompose, []
    monkeypatch.setattr(detlab.incidence, "cell_decompose", lambda *a: calls.append(a) or decompose(*a))
    monkeypatch.setattr(sys, "argv", ["incidence_census.py", "--size", "3", "--d", "1"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "incidence_census.py"), run_name="__main__")
    assert exc.value.code == 0
    assert len(calls) == 1
    assert "worst cells-hit per plane: 1 (bound 3)" in capsys.readouterr().out


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
