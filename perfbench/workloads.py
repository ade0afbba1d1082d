"""The four benchmark workloads, driven only through detlab's public functions.

Each workload is a closed loop in one process: `prepare` builds the inputs
(ground sets, temp files), `run_checks` computes the per-run references that
depend on the seed (outside any timed region), `run_pass` is the timed pass,
and `check` compares one pass's results with the references. A case that
raises is recorded as its exception and counted as failed; it never stops
the run. `threads` is passed explicitly on every call that takes it.

The seed only chooses the `random`-family draws; every other input is fixed.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
import os
import time
import traceback
from dataclasses import replace
from fractions import Fraction

from detlab import (
    FamilySpec,
    FieldSpec,
    Matrix,
    ResultCache,
    cells_hit,
    classify_incidences,
    count_bilinear,
    count_det_brute,
    count_det_rowblock,
    cube_grid,
    curve_incidences_n3,
    det_spectrum,
    dsup,
    dyadic_pyramid,
    energy_Estar_mu,
    energy_S,
    energy_T,
    format_scalar,
    generate,
    incidences_brute,
    make_ground_set,
    minor_multiplicity_map,
    planes_from_minors,
    run_scan,
)
from detlab import cli
from detlab.scalars import write_ground_set_file

Q = FieldSpec.rationals()
FP = FieldSpec.prime(101)

# Input sizes. "bench" keeps one pass at one to two seconds on a quiet 2-core
# Xeon, so a 20 s run holds ten or more passes; "toy" is for the smoke test. The sizes the workloads were first specified at (a pass of
# 6-13 s) are pinned in references.json under the same key scheme.
SCALES = {
    "bench": {
        "q_zero": 6, "q_gp": (5, 6), "q_fixed": 6, "q_n4": 2, "q_random": 5,
        "cli_halves": 4, "cli_fp_count": 4, "cli_fp_spectrum": 4,
        "mt_spectrum": 6, "mt_dsup": 6, "mt_table": 8,
        "ie_planes": 4, "ie_curves": 10, "ie_estar": 8, "ie_random": 24, "ie_bilinear": 10,
    },
    "toy": {
        "q_zero": 4, "q_gp": (3, 4), "q_fixed": 3, "q_n4": 2, "q_random": 4,
        "cli_halves": 3, "cli_fp_count": 3, "cli_fp_spectrum": 3,
        "mt_spectrum": 4, "mt_dsup": 4, "mt_table": 4,
        "ie_planes": 3, "ie_curves": 4, "ie_estar": 4, "ie_random": 6, "ie_bilinear": 3,
    },
}

BILINEAR_MATRIX = ((1, 2, 0), (0, 1, 3), (1, 0, 1))
BILINEAR_OMEGA = 30


def spectrum_digest(entries) -> str:
    """sha256 of the canonical `[[d, count], ...]` list, as the CLI prints it."""
    return hashlib.sha256(json.dumps(entries, separators=(",", ":")).encode()).hexdigest()


def histogram_entries(hist) -> list:
    return [[format_scalar(k), str(v)] for k, v in hist.sorted_items()]


def fastest(*fns, reps: int = 2) -> list:
    """Fastest time of each call over `reps` rounds. The calls take turns, so
    a slow spell of a shared host falls on all of them alike."""
    best = [float("inf")] * len(fns)
    for _ in range(reps):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


class Workload:
    """Shared plumbing; subclasses define the inputs, the pass and the checks."""

    name = ""

    def __init__(self, scale: dict, seed: int, tmpdir: str, refs: dict, tracer):
        self.s = scale
        self.seed = seed
        self.tmpdir = tmpdir
        self.refs = refs
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        # Set by the runner to measure host speed just before each case.
        self.calibrate = None
        self.samples: list = []  # (case key, seconds, calibration before it)

    def generate(self, spec: FamilySpec, field: FieldSpec = Q):
        with self.tracer.span("families.generate", kind=spec.kind, size=spec.size):
            return generate(spec, field)

    def call(self, results: dict, key: str, span: str, fn, *args, **kwargs):
        """One timed case of the pass; an exception becomes the case's result."""
        calibration = self.calibrate() if self.calibrate else None
        t0 = time.perf_counter()
        with self.tracer.span(span):
            try:
                results[key] = fn(*args, **kwargs)
            except Exception as exc:  # a failed case is counted, the run goes on
                traceback.print_exc()
                results[key] = exc
        self.samples.append((key, time.perf_counter() - t0, calibration))
        return results[key]

    def expect(self, what: str, got, want) -> None:
        """One checked case: it fails if it raised or differs from its reference."""
        self.attempted += 1
        if isinstance(got, Exception) or got != want:
            self.failures.append(f"{what}: got {got!r}, want {want!r}")

    def run_checks(self) -> None:
        """Per-run references; a reference that raises is a failed case."""
        try:
            self.compute_run_refs()
        except Exception as exc:
            traceback.print_exc()
            self.expect("per-run reference", exc, None)

    def compute_run_refs(self) -> None:
        pass


# ---------------------------------------------------------------------------


class CountQ(Workload):
    """Integer-valued rational sets through harness.run_scan: a cold pass into a
    fresh JSONL cache, then the same scans warm from a new cache reader."""

    name = "count_q"

    def prepare(self):
        s = self.s
        self.random_ref = None
        self.scans = [
            (FamilySpec("interval", s["q_zero"]), [s["q_zero"]], 3, "zero", None),
            (FamilySpec("gp", s["q_gp"][0], ratio=2), list(s["q_gp"]), 3, "zero", None),
            (FamilySpec("interval", s["q_fixed"]), [s["q_fixed"]], 3, "fixed", 1),
            (FamilySpec("interval", s["q_n4"]), [s["q_n4"]], 4, "zero", None),
            (FamilySpec("random", s["q_random"], seed=self.seed, low=-9, high=9),
             [s["q_random"]], 3, "zero", None),
        ]
        self.random_set = self.generate(self.scans[-1][0])
        self.passes = 0

    def compute_run_refs(self):
        self.random_ref = count_det_brute(self.random_set, 3, 0, threads=1)

    def row_ref(self, template, size, n, d):
        if template.kind == "random":
            return self.random_ref
        family = "gp2" if template.kind == "gp" else template.kind
        return self.refs[f"D{n} {family} {size} d={d or 0}"]

    def matrices(self) -> int:
        return sum(size ** (n * n) for _, sizes, n, _, _ in self.scans for size in sizes)

    def _scan_all(self, results: dict, phase: str, cache) -> None:
        for i, (template, sizes, n, dmode, d) in enumerate(self.scans):
            self.call(results, f"{phase}{i}", "harness.run_scan", run_scan,
                      template, sizes, Q, n, dmode, "rowblock", d=d, threads=1, cache=cache)

    def run_pass(self) -> dict:
        self.passes += 1
        path = os.path.join(self.tmpdir, f"scan-cache-{self.passes}.jsonl")
        results = {"cache_path": path}
        with self.tracer.span("harness.cold_scan"):
            self._scan_all(results, "cold", ResultCache(path))
        with self.tracer.span("harness.warm_scan"):
            self._scan_all(results, "warm", ResultCache(path))
        return results

    def check(self, results: dict) -> None:
        hits = 0
        for i, (template, sizes, n, _, d) in enumerate(self.scans):
            cold, warm = results[f"cold{i}"], results[f"warm{i}"]
            for phase, rows in (("cold", cold), ("warm", warm)):
                if isinstance(rows, Exception):
                    rows = [rows] * len(sizes)
                for size, row in zip(sizes, rows):
                    count = row if isinstance(row, Exception) else row.count
                    want = self.row_ref(template, size, n, d)
                    self.expect(f"{phase} D{n} {template.kind} {size}", count, want)
            if not isinstance(cold, Exception) and not isinstance(warm, Exception):
                # A cache hit hands back the stored row, elapsed time included.
                hits += sum(a == b for a, b in zip(cold, warm))
        rows_total = sum(len(sizes) for _, sizes, _, _, _ in self.scans)
        self.expect("warm rows identical to cold rows", hits, rows_total)
        path = results["cache_path"]
        self.cache_stats = {"hits": hits, "misses": rows_total - hits, "bytes": 0}
        if os.path.exists(path):
            self.cache_stats["bytes"] = os.path.getsize(path)
            os.remove(path)

    def layer_metrics(self, results: dict, pass_id: str, wall: float) -> dict:
        tr = self.tracer
        cold_s = tr.total("harness.cold_scan", pass_id)
        compute_s = 0.0
        table_s = 0.0
        blocks = distinct = 0
        for i, (template, sizes, n, _, _) in enumerate(self.scans):
            for row in results[f"cold{i}"]:
                compute_s += row.elapsed_ms / 1000.0
                X = generate(replace(template, size=row.size), Q)
                t0 = time.perf_counter()
                table = minor_multiplicity_map(X, n, threads=1)
                table_s += time.perf_counter() - t0
                blocks += row.size ** (n * (n - 1))
                distinct += len(table.entries)
        solve_s = compute_s - table_s
        return {
            "harness.cold_scan_s": (cold_s, "s"),
            "harness.warm_scan_s": (tr.total("harness.warm_scan", pass_id), "s"),
            "harness.cache_hits": (self.cache_stats["hits"], "count"),
            "harness.cache_misses": (self.cache_stats["misses"], "count"),
            "harness.cache_bytes": (self.cache_stats["bytes"], "bytes"),
            "harness.compute_share": (compute_s / cold_s, "ratio"),
            "detcount.table_s": (table_s, "s"),
            "detcount.solve_s": (solve_s, "s"),
            "detcount.blocks": (blocks, "count"),
            "detcount.distinct_vectors": (distinct, "count"),
            "detcount.solve_us_per_vector": (solve_s / distinct * 1e6, "us"),
            "count_q.solve_share": (solve_s / wall, "ratio"),
        }


# ---------------------------------------------------------------------------


class FieldCli(Workload):
    """The same engine over non-integer and prime-field scalars, through
    detlab.cli.main in-process with --threads 1 and --out to a temp file."""

    name = "field_cli"

    def prepare(self):
        s = self.s
        with self.tracer.span("scalars.make_ground_set"):
            self.halves = make_ground_set(
                [Fraction(i, 2) for i in range(1, s["cli_halves"] + 1)], Q)
        self.halves_path = os.path.join(self.tmpdir, "halves.txt")
        with self.tracer.span("scalars.write_ground_set_file"):
            write_ground_set_file(self.halves_path, self.halves)
        self.outs = [os.path.join(self.tmpdir, f"cli-out-{i}.json") for i in range(3)]
        common = ["--threads", "1", "--n", "3"]
        self.argvs = [
            ["count", "--set", self.halves_path, "--d", "0", *common, "--out", self.outs[0]],
            ["count", "--field", "fp:101", "--family", "interval", "--size",
             str(s["cli_fp_count"]), "--d", "1", *common, "--out", self.outs[1]],
            ["spectrum", "--field", "fp:101", "--family", "interval", "--size",
             str(s["cli_fp_spectrum"]), *common, "--out", self.outs[2]],
        ]

    def compute_run_refs(self):
        # Cross-route: the halves count equals the count over {1..k} (scaling
        # covariance with d = 0), which the brute oracle confirms here.
        k = self.s["cli_halves"]
        brute = count_det_brute(generate(FamilySpec("interval", k), Q), 3, 0, threads=1)
        self.expect(f"brute D3 interval {k}", brute, self.refs[f"D3 interval {k} d=0"])

    def matrices(self) -> int:
        s = self.s
        return s["cli_halves"] ** 9 + s["cli_fp_count"] ** 9 + s["cli_fp_spectrum"] ** 9

    def run_pass(self) -> dict:
        results = {}
        for i, argv in enumerate(self.argvs):
            self.call(results, i, "cli.main", cli.main, argv)
        return results

    def _output(self, results: dict, i: int):
        if isinstance(results[i], Exception) or results[i] != 0:
            return results[i]
        with open(self.outs[i], encoding="utf-8") as fh:
            return json.load(fh)

    def check(self, results: dict) -> None:
        s = self.s
        halves, fp_count, spectrum = (self._output(results, i) for i in range(3))
        if isinstance(halves, dict):
            halves = int(halves["count"])
        self.expect("count halves", halves, self.refs[f"D3 interval {s['cli_halves']} d=0"])
        if isinstance(fp_count, dict):
            fp_count = int(fp_count["count"])
        self.expect("count fp:101", fp_count,
                    self.refs[f"D3 fp101 interval {s['cli_fp_count']} d=1"])
        k = s["cli_fp_spectrum"]
        if isinstance(spectrum, dict):
            spectrum = {
                "mass": int(spectrum["total_mass"]),
                "distinct": spectrum["distinct"],
                "digest": spectrum_digest(spectrum["entries"]),
            }
        want = dict(self.refs[f"spectrum fp101 interval {k} n=3"], mass=k**9)
        self.expect("spectrum fp:101", spectrum, want)
        self.out_bytes = sum(os.path.getsize(p) for p in self.outs if os.path.exists(p))

    def layer_metrics(self, results: dict, pass_id: str, wall: float) -> dict:
        s = self.s
        integers = generate(FamilySpec("interval", s["cli_halves"]), Q)
        fp_set = generate(FamilySpec("interval", s["cli_fp_count"]), FP)
        q_set = generate(FamilySpec("interval", s["cli_fp_count"]), Q)
        spec_set = generate(FamilySpec("interval", s["cli_fp_spectrum"]), FP)
        cli0, cli1, cli2, halves_s, fp_s, spec_s, int_s, q_s = fastest(
            *(lambda argv=argv: cli.main(argv) for argv in self.argvs),
            lambda: count_det_rowblock(self.halves, 3, 0, threads=1),
            lambda: count_det_rowblock(fp_set, 3, 1, threads=1),
            lambda: det_spectrum(spec_set, 3, "rowblock", threads=1),
            lambda: count_det_rowblock(integers, 3, 0, threads=1),
            lambda: count_det_rowblock(q_set, 3, 1, threads=1),
        )
        call_s = cli0 + cli1 + cli2
        engine_s = halves_s + fp_s + spec_s
        return {
            "cli.call_s": (call_s, "s"),
            "cli.engine_s": (engine_s, "s"),
            "cli.overhead_s": (call_s - engine_s, "s"),
            "cli.out_bytes": (self.out_bytes, "bytes"),
            "scalars.frac_over_int": (halves_s / int_s, "ratio"),
            "scalars.fp_over_q": (fp_s / q_s, "ratio"),
        }


# ---------------------------------------------------------------------------


class SpectrumMt(Workload):
    """The only workload where parallel.run_chunked, the process pool and
    merge_tables carry work: both calls use threads=2."""

    name = "spectrum_mt"
    threads = 2

    def prepare(self):
        s = self.s
        self.spectrum_set = self.generate(FamilySpec("interval", s["mt_spectrum"]))
        self.dsup_set = self.generate(FamilySpec("gp", s["mt_dsup"], ratio=2))

    def matrices(self) -> int:
        return self.s["mt_spectrum"] ** 9 + self.s["mt_dsup"] ** 9

    def run_pass(self) -> dict:
        results = {}
        self.call(results, "spectrum", "detcount.det_spectrum", det_spectrum,
                  self.spectrum_set, 3, "rowblock", threads=self.threads)
        self.call(results, "dsup", "detcount.dsup", dsup,
                  self.dsup_set, 3, True, threads=self.threads)
        return results

    def check(self, results: dict) -> None:
        s = self.s
        k = s["mt_spectrum"]
        spectrum = results["spectrum"]
        if not isinstance(spectrum, Exception):
            spectrum = {
                "mass": spectrum.total_mass(),
                "distinct": spectrum.distinct_count(),
                "digest": spectrum_digest(histogram_entries(spectrum)),
            }
        want = dict(self.refs[f"spectrum interval {k} n=3"], mass=k**9)
        self.expect("spectrum", spectrum, want)
        got = results["dsup"]
        if not isinstance(got, Exception):
            got = [format_scalar(got[0]), got[1]]
        self.expect("dsup", got, self.refs[f"dsup gp2 {s['mt_dsup']} n=3 nonzero"])

    def layer_metrics(self, results: dict, pass_id: str, wall: float) -> dict:
        tr = self.tracer
        table_set = generate(FamilySpec("interval", self.s["mt_table"]), Q)
        t1, t2, spec_t1, spec_t2 = fastest(
            lambda: minor_multiplicity_map(table_set, 3, threads=1),
            lambda: minor_multiplicity_map(table_set, 3, threads=2),
            lambda: det_spectrum(self.spectrum_set, 3, "rowblock", threads=1),
            lambda: det_spectrum(self.spectrum_set, 3, "rowblock", threads=2),
        )
        spectrum_s = tr.total("detcount.det_spectrum", pass_id) + tr.total("detcount.dsup", pass_id)
        return {
            "detcount.spectrum_s": (spectrum_s, "s"),
            "detcount.spectrum_distinct_d": (results["spectrum"].distinct_count(), "count"),
            "parallel.table_s_t1": (t1, "s"),
            "parallel.table_s_t2": (t2, "s"),
            "parallel.table_speedup": (t1 / t2, "ratio"),
            "parallel.spectrum_speedup": (spec_t1 / spec_t2, "ratio"),
            "spectrum_mt.spectrum_share": (spectrum_s / wall, "ratio"),
        }


# ---------------------------------------------------------------------------


def _direct_counter(elems, expr) -> int:
    """Sum of squared multiplicities of expr over elems^4: an energy computed
    without any of detlab's value-distribution code."""
    counts = collections.Counter(expr(*t) for t in itertools.product(elems, repeat=4))
    return sum(c * c for c in counts.values())


class IncidenceEnergy(Workload):
    """The incidence and energy layers; detcount is reached only through
    small cofactor tables. Plane coefficients are Fraction-valued."""

    name = "incidence_energy"

    def prepare(self):
        s = self.s
        self.plane_set = self.generate(FamilySpec("interval", s["ie_planes"]))
        with self.tracer.span("incidence.cube_grid"):
            self.grid = cube_grid(self.plane_set, 3)
        self.curve_set = self.generate(FamilySpec("interval", s["ie_curves"]))
        self.estar_set = self.generate(FamilySpec("interval", s["ie_estar"]))
        self.energy_set = self.generate(
            FamilySpec("random", s["ie_random"], seed=self.seed, low=-10**6, high=10**6))
        self.bilinear_set = self.generate(FamilySpec("interval", s["ie_bilinear"]))
        self.matrix = Matrix.from_rows(BILINEAR_MATRIX, Q)
        self.T_ref = self.S_ref = self.incidences_ref = None

    def compute_run_refs(self):
        elems = [int(e) for e in self.energy_set.elements]
        self.T_ref = _direct_counter(elems, lambda u1, u2, v1, v2: u1 * v1 + u2 * v2)
        self.S_ref = _direct_counter(elems, lambda u1, u3, v1, v3: u1 * v3 - u3 * v1)
        family = planes_from_minors(self.plane_set, 0, threads=1).family
        self.incidences_ref = incidences_brute(self.grid, family)

    def matrices(self) -> int:
        return self.s["ie_planes"] ** 9

    def run_pass(self) -> dict:
        r = {}
        call = self.call
        planes = call(r, "planes", "incidence.planes_from_minors",
                      planes_from_minors, self.plane_set, 0, threads=1)
        call(r, "via", "incidence.det_count_via_incidences",
             lambda: planes.det_count_via_incidences())
        cls = call(r, "classify", "incidence.classify_incidences",
                   lambda: classify_incidences(self.grid, planes.family, 2))
        call(r, "cells", "incidence.cells_hit",
             lambda: max(cells_hit(plane, cls) for plane in planes.family))
        call(r, "curves", "incidence.curve_incidences_n3", curve_incidences_n3, self.curve_set)
        call(r, "estar", "energy.energy_Estar_mu", energy_Estar_mu, self.estar_set, threads=1)
        call(r, "pyramid", "energy.dyadic_pyramid", dyadic_pyramid, self.estar_set, threads=1)
        call(r, "T", "energy.energy_T", energy_T, self.energy_set)
        call(r, "S", "energy.energy_S", energy_S, self.energy_set)
        call(r, "bilinear", "energy.count_bilinear", count_bilinear,
             self.matrix, self.bilinear_set, self.bilinear_set, BILINEAR_OMEGA)
        return r

    def check(self, r: dict) -> None:
        s = self.s
        k = s["ie_planes"]
        expect = self.expect
        planes = r["planes"]
        if not isinstance(planes, Exception):
            planes = len(planes.family)
        expect("planes", planes, self.refs[f"planes interval {k} d=0"])
        expect("via incidences", r["via"], self.refs[f"D3 interval {k} d=0"])
        cls = r["classify"]
        classes = cls if isinstance(cls, Exception) else [cls.i1, cls.i2, cls.i3]
        expect("classify", classes, self.refs[f"classify interval {k} d=0 r=2"])
        if not isinstance(cls, Exception):
            expect("i1+i2+i3 vs brute", sum(classes), self.incidences_ref)
        cells = r["cells"]
        expect("max cells_hit", cells, self.refs[f"max cells_hit interval {k} d=0 r=2"])
        if not isinstance(cells, Exception):
            expect("max cells_hit within k*r^(k-1)", cells <= 3 * 2**2, True)
        expect("curves", r["curves"], self.refs[f"curves interval {s['ie_curves']}"])
        expect("Estar", r["estar"], self.refs[f"Estar interval {s['ie_estar']}"])
        pyramid = r["pyramid"]
        if not isinstance(pyramid, Exception):
            pyramid = pyramid.total_mass
        expect("pyramid mass", pyramid, s["ie_estar"] ** 6)
        expect("T", r["T"], self.T_ref)
        expect("S", r["S"], self.S_ref)
        expect("bilinear", r["bilinear"],
               self.refs[f"bilinear interval {s['ie_bilinear']} omega={BILINEAR_OMEGA}"])

    def layer_metrics(self, r: dict, pass_id: str, wall: float) -> dict:
        tr = self.tracer
        spans = {
            "energy.estar_s": "energy.energy_Estar_mu",
            "energy.pyramid_s": "energy.dyadic_pyramid",
            "energy.T_s": "energy.energy_T",
            "energy.S_s": "energy.energy_S",
            "energy.bilinear_s": "energy.count_bilinear",
            "incidence.planes_s": "incidence.planes_from_minors",
            "incidence.via_incidences_s": "incidence.det_count_via_incidences",
            "incidence.classify_s": "incidence.classify_incidences",
            "incidence.cells_hit_s": "incidence.cells_hit",
            "incidence.curves_s": "incidence.curve_incidences_n3",
        }
        out = {metric: (tr.total(span, pass_id), "s") for metric, span in spans.items()}
        tests = 2 * len(r["planes"].family) * self.s["ie_planes"] ** 3
        tested_s = out["incidence.via_incidences_s"][0] + out["incidence.classify_s"][0]
        layers_s = tr.total("incidence.", pass_id) + tr.total("energy.", pass_id)
        out["incidence.point_plane_tests"] = (tests, "count")
        out["incidence.tests_per_s"] = (tests / tested_s, "1/s")
        out["incidence_energy.layer_share"] = (layers_s / wall, "ratio")
        return out


WORKLOADS = {w.name: w for w in (CountQ, FieldCli, SpectrumMt, IncidenceEnergy)}
