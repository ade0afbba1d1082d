"""Experiment orchestration: family scans across sizes, a persistent append-only
result cache keyed by content digests, and log-log exponent fits.

Reports are JSON Lines (one scan row per line, counts and scalars as decimal
strings so arbitrary precision survives serialization) with a mirrored CSV
export. Rows are byte-deterministic given the spec, seed and artifact version;
only the elapsed-time field varies between runs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, replace

from .errors import BudgetExceededError, Meter, PreconditionError
from .detcount import COUNT_ENGINES, det_spectrum
from .families import FamilySpec, generate
from .scalars import FieldSpec, format_scalar

ARTIFACT_VERSION = "2"

DMODE_FIXED = "fixed"
DMODE_ZERO = "zero"
DMODE_SUP_NONZERO = "sup_nonzero"
DMODE_SUP_ALL = "sup_all"
DMODES = (DMODE_FIXED, DMODE_ZERO, DMODE_SUP_NONZERO, DMODE_SUP_ALL)

CSV_HEADER = [
    "family",
    "kind-params",
    "seed",
    "X",
    "n",
    "dmode",
    "d",
    "engine",
    "count",
    "elapsed_ms",
    "budget_hit",
]


@dataclass(frozen=True)
class ScanRow:
    family: str
    params: dict
    seed: int | None
    size: int
    n: int
    dmode: str
    d: str | None
    engine: str
    count: int | None
    elapsed_ms: float
    budget_hit: bool

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "seed": self.seed,
            "X": self.size,
            "n": self.n,
            "dmode": self.dmode,
            "d": self.d,
            "engine": self.engine,
            "count": None if self.count is None else str(self.count),
            "elapsed_ms": self.elapsed_ms,
            "budget_hit": self.budget_hit,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ScanRow":
        return cls(
            family=obj["family"],
            params=dict(obj.get("params", {})),
            seed=obj.get("seed"),
            size=int(obj["X"]),
            n=int(obj["n"]),
            dmode=obj["dmode"],
            d=obj.get("d"),
            engine=obj["engine"],
            count=None if obj.get("count") is None else int(obj["count"]),
            elapsed_ms=float(obj.get("elapsed_ms", 0.0)),
            budget_hit=bool(obj.get("budget_hit", False)),
        )

    def csv_record(self) -> list:
        """The JSON row's values in order, `params` as `k=v;...` and None as empty."""
        obj = self.to_json_dict()
        obj["params"] = ";".join(f"{k}={v}" for k, v in sorted(obj["params"].items()))
        return ["" if v is None else v for v in obj.values()]


def parse_sizes(text: str) -> list[int]:
    """Scan sizes from a comma list (4,6,8) or an inclusive range lo:hi[:step]."""
    sep = ":" if ":" in text else ","
    try:
        parts = [int(v) for v in text.split(sep)]
    except ValueError:
        raise PreconditionError(f"bad sizes {text!r}") from None
    if sep == ",":
        return parts
    if len(parts) not in (2, 3):
        raise PreconditionError(f"bad sizes range {text!r}")
    lo, hi, step = parts if len(parts) == 3 else (*parts, 1)
    if step < 1 or hi < lo:
        raise PreconditionError(f"bad sizes range {text!r}")
    return list(range(lo, hi + 1, step))


def scan_key(
    family: str,
    params: dict,
    seed: int | None,
    size: int,
    n: int,
    dmode: str,
    d: str | None,
    engine: str,
    field: str,
    version: str = ARTIFACT_VERSION,
) -> str:
    """Content digest of every input that determines a scan row; `field` is
    the field label ("rational" or "fp:<p>")."""
    payload = json.dumps(
        {
            "family": family,
            "params": params,
            "seed": seed,
            "X": size,
            "n": n,
            "dmode": dmode,
            "d": d,
            "engine": engine,
            "field": field,
            "version": version,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """Append-only JSONL store; newest row wins per key, corrupt lines are skipped."""

    def __init__(self, path):
        self.path = path
        self._rows: dict | None = None

    def _load(self) -> dict:
        if self._rows is None:
            self._rows = {}
            # bytes, decoded per line: a line that is not UTF-8 raises
            # UnicodeDecodeError (a ValueError) and is skipped like any
            # other corrupt line
            try:
                fh = open(self.path, "rb")
            except FileNotFoundError:
                return self._rows
            with fh:
                for lineno, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        obj = json.loads(line.decode("utf-8"))
                        self._rows[obj["key"]] = ScanRow.from_json_dict(obj["row"])
                    except (ValueError, KeyError, TypeError):
                        print(f"warning: {self.path}:{lineno}: skipping corrupt cache line",
                              file=sys.stderr)
        return self._rows

    def get(self, key: str) -> ScanRow | None:
        return self._load().get(key)

    def put(self, key: str, row: ScanRow) -> None:
        line = json.dumps(
            {"key": key, "version": ARTIFACT_VERSION, "row": row.to_json_dict()},
            sort_keys=True,
            separators=(",", ":"),
        )
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        self._load()[key] = row


def run_scan(
    template: FamilySpec,
    sizes,
    field: FieldSpec,
    n: int,
    dmode: str,
    engine: str,
    *,
    d=None,
    threads: int = 1,
    budget: int | None = None,
    cache: ResultCache | None = None,
) -> list[ScanRow]:
    """One row per size, cached by content key; budget misses are recorded as
    rows with budget_hit set and the scan continues. The key holds no budget,
    so refused rows are neither cached nor served from the cache. A negative
    budget is refused before the first cache lookup, warm cache or cold.
    `threads` is accepted and unused. A `sup_nonzero` size where every matrix
    is singular is a row with count 0 and d None: the sup over d != 0 is 0,
    taken at no d."""
    sizes = list(sizes)
    if not sizes:
        raise PreconditionError("no sizes to scan")
    Meter(budget, "run_scan")
    if dmode not in DMODES:
        raise PreconditionError(f"unknown d-mode {dmode!r}")
    if dmode == DMODE_FIXED and d is None:
        raise PreconditionError("fixed d-mode needs a determinant value")
    if engine not in COUNT_ENGINES:
        raise PreconditionError(f"unknown engine {engine!r}")
    # d enters the key and the row only where the count is taken at d
    target = None
    if dmode in (DMODE_FIXED, DMODE_ZERO):
        target = field.coerce(0 if dmode == DMODE_ZERO else d)
    d_text = None if target is None else format_scalar(target)
    rows = []
    for size in sizes:
        spec = replace(template, size=size)
        params = spec.params_dict()
        key = scan_key(
            spec.kind, params, spec.seed, size, n, dmode, d_text, engine, field.label()
        )
        if cache is not None:
            hit = cache.get(key)
            # a refused row says nothing about a scan with a larger budget
            if hit is not None and not hit.budget_hit:
                rows.append(hit)
                continue
        X = generate(spec, field)
        t0 = time.perf_counter()
        row_d, budget_hit = d_text, False
        try:
            if target is None:
                exclude = dmode == DMODE_SUP_NONZERO
                spectrum = det_spectrum(X, n, engine, budget=budget)
                if exclude and not any(spectrum.entries):
                    count = 0
                else:
                    dval, count = spectrum.argmax(exclude)
                    row_d = format_scalar(dval)
            else:
                count = COUNT_ENGINES[engine](X, n, target, budget=budget)
        except BudgetExceededError:
            count, budget_hit = None, True
        elapsed = (time.perf_counter() - t0) * 1000.0
        row = ScanRow(
            family=spec.kind,
            params=params,
            seed=spec.seed,
            size=size,
            n=n,
            dmode=dmode,
            d=row_d,
            engine=engine,
            count=count,
            elapsed_ms=elapsed,
            budget_hit=budget_hit,
        )
        if cache is not None and not budget_hit:
            cache.put(key, row)
        rows.append(row)
    return rows


@dataclass(frozen=True)
class ExponentFit:
    """Ordinary least squares of log(count) against log(size)."""

    slope: float
    intercept: float
    residual_stderr: float
    points_used: int
    excluded_zero: int


def fit_exponent(rows) -> ExponentFit:
    pts = []
    excluded = 0
    for row in rows:
        if row.count is None:
            continue
        if row.count <= 0:
            excluded += 1
            continue
        pts.append((math.log(row.size), math.log(row.count)))
    if len(pts) < 2:
        raise PreconditionError("need at least two rows with positive counts")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    m = len(pts)
    mx = sum(xs) / m
    my = sum(ys) / m
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        raise PreconditionError("need at least two distinct sizes")
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    slope = sxy / sxx
    intercept = my - slope * mx
    ssr = sum((y - (intercept + slope * x)) ** 2 for x, y in pts)
    stderr = math.sqrt(ssr / max(m - 2, 1))
    return ExponentFit(slope, intercept, stderr, m, excluded)


def write_jsonl(rows, stream) -> None:
    for row in rows:
        stream.write(json.dumps(row.to_json_dict(), sort_keys=True, separators=(",", ":")))
        stream.write("\n")


def read_jsonl(stream) -> list[ScanRow]:
    """Scan rows of a JSONL report; a line that is not one raises
    PreconditionError naming the file and line, and a report that is not
    UTF-8 text raises it naming the file."""
    name = getattr(stream, "name", "report")
    rows = []
    try:
        for lineno, line in enumerate(stream, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(ScanRow.from_json_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError):
                raise PreconditionError(f"{name}:{lineno}: not a scan row") from None
    except UnicodeDecodeError:
        raise PreconditionError(f"{name}: not UTF-8 text") from None
    return rows


def write_csv(rows, stream) -> None:
    writer = csv.writer(stream)
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(row.csv_record())
