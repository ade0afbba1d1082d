import io
import json
import math

import pytest

import detlab.detcount as detcount
from detlab.errors import PreconditionError
from detlab.detcount import COUNT_ENGINES, count_det_brute
from detlab.families import FamilySpec
from detlab.harness import (
    ARTIFACT_VERSION,
    ExponentFit,
    ResultCache,
    ScanRow,
    fit_exponent,
    parse_sizes,
    read_jsonl,
    run_scan,
    scan_key,
    write_csv,
    write_jsonl,
)
from detlab.scalars import FieldSpec, make_ground_set

from conftest import QQ, F7


def make_row(size=2, count=6, **over):
    base = dict(
        family="interval",
        params={},
        seed=None,
        size=size,
        n=2,
        dmode="zero",
        d="0",
        engine="rowblock",
        count=count,
        elapsed_ms=1.0,
        budget_hit=False,
    )
    base.update(over)
    return ScanRow(**base)


def test_scan_interval_counts_match_oracle():
    rows = run_scan(FamilySpec("interval", 2), [2, 3, 4], QQ, 2, "zero", "rowblock")
    assert [r.count for r in rows] == [6, 15, 32]
    for r in rows:
        X = make_ground_set(range(1, r.size + 1), QQ)
        assert r.count == count_det_brute(X, 2, 0)
        assert r.d == "0" and not r.budget_hit


def test_scan_gp_anchor():
    rows = run_scan(FamilySpec("gp", 4, ratio=2), [4], QQ, 2, "zero", "rowblock")
    assert rows[0].count == 44


def test_scan_sup_modes():
    rows = run_scan(FamilySpec("interval", 2), [2], QQ, 2, "sup_nonzero", "brute")
    assert rows[0].count == 2 and rows[0].d == "1"
    rows = run_scan(FamilySpec("interval", 2), [2], QQ, 2, "sup_all", "rowblock")
    assert rows[0].count == 6 and rows[0].d == "0"


def test_scan_rows_reproducible_by_named_engine():
    from detlab.detcount import count_det_rowblock
    from detlab.families import generate

    spec = FamilySpec("random", 2, seed=17)
    rows = run_scan(spec, [2, 3], QQ, 3, "fixed", "rowblock", d=1)
    for row in rows:
        X = generate(FamilySpec("random", row.size, seed=17), QQ)
        assert count_det_rowblock(X, row.n, QQ.coerce(row.d)) == row.count


def test_scan_prime_field():
    rows = run_scan(FamilySpec("interval", 3), [3], F7, 2, "zero", "rowblock")
    X = make_ground_set([1, 2, 3], F7)
    assert rows[0].count == count_det_brute(X, 2, 0)


def test_scan_validation_errors():
    with pytest.raises(PreconditionError):
        run_scan(FamilySpec("interval", 2), [], QQ, 2, "zero", "rowblock")
    with pytest.raises(PreconditionError):
        run_scan(FamilySpec("interval", 2), [2], QQ, 2, "zero", "conv")
    with pytest.raises(PreconditionError):
        run_scan(FamilySpec("interval", 2), [2], QQ, 2, "fixed", "rowblock")
    with pytest.raises(PreconditionError):
        run_scan(FamilySpec("interval", 2), [2], QQ, 2, "modal", "rowblock")


def test_scan_budget_hit_rows_continue():
    rows = run_scan(
        FamilySpec("interval", 2), [2, 3], QQ, 3, "zero", "brute", budget=2000
    )
    assert rows[0].count == count_det_brute(make_ground_set([1, 2], QQ), 3, 0)
    assert rows[1].count is None and rows[1].budget_hit


def test_scan_rowblock_n2_budget_hit():
    # |X| = 4 costs 4^2 pair products plus 9 distinct ones; |X| = 5 costs 25 + 14
    rows = run_scan(FamilySpec("interval", 2), [4, 5], QQ, 2, "zero", "rowblock", budget=25)
    assert rows[0].count == 32 and not rows[0].budget_hit
    assert rows[1].count is None and rows[1].budget_hit


def test_cache_round_trip(tmp_path):
    cache = ResultCache(tmp_path / "cache.jsonl")
    key = scan_key("interval", {}, None, 2, 2, "zero", "0", "rowblock", "rational")
    assert cache.get(key) is None
    row = make_row()
    cache.put(key, row)
    assert cache.get(key) == row
    # a fresh handle reads it back from disk
    assert ResultCache(tmp_path / "cache.jsonl").get(key) == row


def test_cache_warm_scan_identical_and_no_recompute(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path / "cache.jsonl")
    spec = FamilySpec("gp", 4, ratio=2)
    first = run_scan(spec, [2, 3, 4], QQ, 2, "zero", "rowblock", cache=cache)

    def boom(*a, **k):
        raise AssertionError("engine ran despite warm cache")

    monkeypatch.setitem(COUNT_ENGINES, "rowblock", boom)
    second = run_scan(spec, [2, 3, 4], QQ, 2, "zero", "rowblock", cache=cache)
    assert second == first  # elapsed times included: rows come back verbatim


def test_cache_does_not_serve_budget_refusals(tmp_path):
    # the key holds no budget: a refusal under budget=100 must not answer a
    # later scan without one, nor may a refused row an older cache file holds
    cache = ResultCache(tmp_path / "cache.jsonl")
    spec = FamilySpec("interval", 4)
    refused = run_scan(spec, [4], QQ, 3, "zero", "rowblock", budget=100, cache=cache)[0]
    assert refused.budget_hit and refused.count is None
    want = count_det_brute(make_ground_set([1, 2, 3, 4], QQ), 3, 0)
    row = run_scan(spec, [4], QQ, 3, "zero", "rowblock", cache=cache)[0]
    assert not row.budget_hit and row.count == want
    key = scan_key("interval", {}, None, 4, 3, "zero", "0", "rowblock", "rational")
    assert cache.get(key) == row
    ResultCache(cache.path).put(key, refused)
    row = run_scan(spec, [4], QQ, 3, "zero", "rowblock", cache=ResultCache(cache.path))[0]
    assert not row.budget_hit and row.count == want


def test_negative_budget_is_refused_on_a_warm_cache(tmp_path):
    # a cache hit runs no engine, so the scan itself must refuse the budget
    cache = ResultCache(tmp_path / "cache.jsonl")
    spec = FamilySpec("gp", 4, ratio=2)
    run_scan(spec, [4], QQ, 3, "zero", "rowblock", cache=cache)
    for c in (cache, None):
        with pytest.raises(PreconditionError, match="run_scan: budget must be at least 0, got -1"):
            run_scan(spec, [4], QQ, 3, "zero", "rowblock", budget=-1, cache=c)


def test_sup_scan_neither_keys_nor_labels_rows_by_d(tmp_path):
    # the sup modes never read d: a refused row carries none, and a scan
    # with d and one without share one cache line
    spec = FamilySpec("gp", 4, ratio=2)
    refused = run_scan(spec, [4], QQ, 3, "sup_nonzero", "rowblock", d=5, budget=1)[0]
    assert refused.budget_hit and refused.d is None
    cache = ResultCache(tmp_path / "cache.jsonl")
    first = run_scan(spec, [4], QQ, 3, "sup_nonzero", "rowblock", d=5, cache=cache)[0]
    second = run_scan(spec, [4], QQ, 3, "sup_nonzero", "rowblock", cache=cache)[0]
    assert second == first and (first.d, first.count) == ("192", 6318)
    assert len(cache.path.read_text().splitlines()) == 1


def test_cache_key_separates_fields(tmp_path):
    cache = ResultCache(tmp_path / "cache.jsonl")
    spec = FamilySpec("interval", 3)
    F5 = FieldSpec.prime(5)
    for n, q_count, fp_count in ((2, 15, 21), (3, 3975, 5787)):
        assert run_scan(spec, [3], QQ, n, "zero", "rowblock", cache=cache)[0].count == q_count
        assert run_scan(spec, [3], F5, n, "zero", "rowblock", cache=cache)[0].count == fp_count


def test_cache_keys_are_pinned(tmp_path):
    # digests written by earlier releases: a cache file from before a change
    # to the key inputs must still hit after it
    cache = ResultCache(tmp_path / "cache.jsonl")
    run_scan(FamilySpec("gp", 4, ratio=2), [4], QQ, 3, "zero", "rowblock", cache=cache)
    random_spec = FamilySpec("random", 5, seed=7, low=-9, high=9)
    run_scan(random_spec, [5], FieldSpec.prime(101), 3, "fixed", "rowblock", d=1, cache=cache)
    keys = [json.loads(line)["key"] for line in cache.path.read_text().splitlines()]
    assert keys == [
        "6091eedcf66fe82aa1623808d9bddf5e3e39e738d4eb187dfb3f258c5d8baa6c",
        "9e03434cf42636f77b5e0ba60ebf4aa157dab460682a35adbf71a18c0f200e98",
    ]


def test_cache_skips_corrupt_lines(tmp_path):
    path = tmp_path / "cache.jsonl"
    key = scan_key("interval", {}, None, 2, 2, "zero", "0", "rowblock", "rational")
    good = json.dumps({"key": key, "version": ARTIFACT_VERSION, "row": make_row().to_json_dict()})
    path.write_text("{not json\n" + good + "\n[]\n", encoding="utf-8")
    cache = ResultCache(path)
    with pytest.warns(UserWarning):
        row = cache.get(key)
    assert row == make_row()


def test_cache_key_includes_version():
    a = scan_key("interval", {}, None, 2, 2, "zero", "0", "rowblock", "rational", version="1")
    b = scan_key("interval", {}, None, 2, 2, "zero", "0", "rowblock", "rational", version="2")
    assert a != b


def test_parse_sizes():
    assert parse_sizes("4,6,8") == [4, 6, 8]
    assert parse_sizes("2:4") == [2, 3, 4]
    assert parse_sizes("4:10:3") == [4, 7, 10]


@pytest.mark.parametrize("text", ["1:2:3:4", "8:4", "4:8:0", "4,x", ""])
def test_parse_sizes_rejects(text):
    with pytest.raises(PreconditionError):
        parse_sizes(text)


def test_fit_exact_power_law():
    rows = [make_row(size=s, count=s * s) for s in (2, 4, 8)]
    fit = fit_exponent(rows)
    assert abs(fit.slope - 2.0) < 1e-12
    assert abs(fit.residual_stderr) < 1e-12
    assert fit.points_used == 3 and fit.excluded_zero == 0


def test_fit_excludes_zero_counts():
    rows = [make_row(size=2, count=4), make_row(size=4, count=16), make_row(size=8, count=0)]
    fit = fit_exponent(rows)
    assert fit.points_used == 2 and fit.excluded_zero == 1
    assert abs(fit.slope - 2.0) < 1e-12


def test_fit_preconditions():
    with pytest.raises(PreconditionError):
        fit_exponent([make_row()])
    with pytest.raises(PreconditionError):
        fit_exponent([make_row(count=0), make_row(count=0)])
    with pytest.raises(PreconditionError):
        fit_exponent([make_row(size=3, count=5), make_row(size=3, count=7)])
    # rows whose count never materialized are just skipped
    with pytest.raises(PreconditionError):
        fit_exponent([make_row(count=None), make_row(count=None)])


def test_fit_noisy_slope_reasonable():
    rows = [make_row(size=s, count=round(3 * s**2.5)) for s in (2, 4, 8, 16)]
    fit = fit_exponent(rows)
    assert 2.3 < fit.slope < 2.7
    assert fit.residual_stderr < 0.1


def test_jsonl_round_trip():
    rows = [make_row(), make_row(size=3, count=None, budget_hit=True)]
    buf = io.StringIO()
    write_jsonl(rows, buf)
    buf.seek(0)
    assert read_jsonl(buf) == rows


def test_csv_mirror():
    rows = [make_row(params={"ratio": "2"}, family="gp", seed=None)]
    buf = io.StringIO()
    write_csv(rows, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "family,kind-params,seed,X,n,dmode,d,engine,count,elapsed_ms,budget_hit"
    assert lines[1].startswith("gp,ratio=2,,2,2,zero,0,rowblock,6,")
    refused = make_row(count=None, d=None, budget_hit=True)
    buf = io.StringIO()
    write_csv([refused], buf)
    assert buf.getvalue().splitlines()[1] == "interval,,,2,2,zero,,rowblock,,1.0,True"


@pytest.mark.parametrize("dmode", ["fixed", "zero", "sup_nonzero", "sup_all"])
def test_rowblock_scan_refuses_n1_in_every_mode(dmode):
    # a row names the engine that ran it, so rowblock never hands n = 1 to brute
    with pytest.raises(PreconditionError, match="n >= 2"):
        run_scan(FamilySpec("interval", 3), [3], QQ, 1, dmode, "rowblock", d=1)
    row, = run_scan(FamilySpec("interval", 3), [3], QQ, 1, dmode, "brute", d=1)
    assert row.engine == "brute" and row.count == (dmode != "zero")


def test_scan_rows_deterministic_modulo_elapsed():
    spec = FamilySpec("random", 3, seed=9)
    a = run_scan(spec, [3, 4], QQ, 2, "zero", "rowblock")
    b = run_scan(spec, [3, 4], QQ, 2, "zero", "rowblock")
    strip = lambda r: {k: v for k, v in r.to_json_dict().items() if k != "elapsed_ms"}
    assert [strip(r) for r in a] == [strip(r) for r in b]


def test_scan_threads_agree(monkeypatch):
    monkeypatch.setattr(detcount, "_MIN_PARALLEL_ITEMS", 1)
    spec = FamilySpec("random", 4, seed=3)
    counts = {}
    for threads in (1, 4):
        rows = run_scan(spec, [3, 4], QQ, 3, "zero", "rowblock", threads=threads)
        counts[threads] = [(r.size, r.d, r.count) for r in rows]
    assert counts[1] == counts[4]


def test_row_json_dict_shape():
    d = make_row(count=12345678901234567890).to_json_dict()
    assert d["count"] == "12345678901234567890"
    assert ScanRow.from_json_dict(d).count == 12345678901234567890
