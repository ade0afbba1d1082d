"""Confirm every count pinned in references.json, once, by a second route.

    python3 perfbench/verify_refs.py

Each pinned value is recomputed with the brute oracles (`count_det_brute`,
`det_spectrum(..., "brute")`, `incidences_brute`, `count_bilinear_brute`)
where they finish in about a minute, and otherwise with the plain-integer
code below, which shares nothing with detlab's engines. Prints one line per
key and exits 1 on any mismatch. Takes several minutes on one core.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import os
import re
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from detlab import (  # noqa: E402
    Matrix,
    count_bilinear_brute,
    count_det_brute,
    cube_grid,
    det_spectrum,
    incidences_brute,
    make_ground_set,
    planes_from_minors,
)
from workloads import BILINEAR_MATRIX, Q, spectrum_digest  # noqa: E402


def ints(family: str, k: int) -> list:
    """The interval {1..k} or the progression {2, 4, ..., 2^k}, as plain ints."""
    return list(range(1, k + 1)) if family == "interval" else [2**i for i in range(1, k + 1)]


def ground_set(family: str, k: int):
    return make_ground_set(ints(family, k), Q)


def cofactor_triples(X: list):
    for y1, y2, y3, z1, z2, z3 in itertools.product(X, repeat=6):
        yield (y2 * z3 - y3 * z2, y3 * z1 - y1 * z3, y1 * z2 - y2 * z1)


def det3(rows) -> int:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def count_n4(X: list, target: int) -> int:
    """D_4 by first-row expansion: tally the cofactor vectors of the bottom
    3 x 4 blocks, then test every first row against each distinct vector."""
    tally = collections.Counter()
    for block in itertools.product(itertools.product(X, repeat=4), repeat=3):
        tally[tuple((-1) ** j * det3([r[:j] + r[j + 1:] for r in block]) for j in range(4))] += 1
    rows = list(itertools.product(X, repeat=4))
    return sum(mu for m, mu in tally.items() for r in rows
               if sum(a * b for a, b in zip(m, r)) == target)


def brute_spectrum(family: str, k: int) -> dict:
    return det_spectrum(ground_set(family, k), 3, "brute").entries


def mod_entries(spectrum: dict, p: int) -> list:
    reduced = collections.Counter()
    for d, count in spectrum.items():
        reduced[int(d) % p] += count
    return [[str(r), str(c)] for r, c in sorted(reduced.items())]


def projective_planes(X: list) -> list:
    """Distinct planes <m, x> = 0 over the nonzero cofactor triples, each as
    the primitive integer normal whose first nonzero entry is positive."""
    planes = set()
    for m in cofactor_triples(X):
        if any(m):
            g = math.gcd(*m)
            m = tuple(v // g for v in m)
            if next(v for v in m if v) < 0:
                m = tuple(-v for v in m)
            planes.add(m)
    return sorted(planes)


def cut_twice(X: list) -> int:
    """Twice the midpoint cut splitting sorted X into two groups (r = 2)."""
    first = (len(X) + 1) // 2
    return X[first - 1] + X[first]


def classify(X: list) -> list:
    """Incidences of the minor planes with X^3 split by class in 2^3 cells:
    at most two points in a cell, points spanning the plane, or collinear."""
    cut2 = cut_twice(X)
    counts = [0, 0, 0]
    for m in projective_planes(X):
        cells = collections.defaultdict(list)
        for p in itertools.product(X, repeat=3):
            if m[0] * p[0] + m[1] * p[1] + m[2] * p[2] == 0:
                cells[tuple(2 * x > cut2 for x in p)].append(p)
        for pts in cells.values():
            if len(pts) <= 2:
                counts[0] += len(pts)
                continue
            base = pts[0]
            diffs = [tuple(a - b for a, b in zip(q, base)) for q in pts[1:]]
            spans = any(
                (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
                != (0, 0, 0)
                for u, v in itertools.combinations(diffs, 2)
            )
            counts[1 if spans else 2] += len(pts)
    return counts


def max_cells_hit(X: list) -> int:
    """Most of the 2^3 closed cells that any minor plane meets."""
    cut2 = cut_twice(X)
    best = 0
    for m in projective_planes(X):
        hit = 0
        for cell in itertools.product((0, 1), repeat=3):
            low = high = 0  # bounds of 2 * <m, x> over the cell; None = unbounded
            for a, side in zip(m, cell):
                if a == 0:
                    continue
                lo, hi = (None, cut2) if side == 0 else (cut2, None)
                if a < 0:
                    lo, hi = hi, lo
                low = None if low is None or lo is None else low + a * lo
                high = None if high is None or hi is None else high + a * hi
            if (low is None or low <= 0) and (high is None or high >= 0):
                hit += 1
        best = max(best, hit)
    return best


def curves(U: list) -> int:
    return sum(
        1
        for u1, u2, v1, v2, w1, w2 in itertools.product(U, repeat=6)
        if u1 * (v2 - w2) - u2 * (v1 - w1) + v1 * w2 - v2 * w1 == 0
    )


def estar(X: list) -> int:
    return sum(c * c for c in collections.Counter(cofactor_triples(X)).values())


def dsup_nonzero(spectrum: dict) -> list:
    best = max(c for d, c in spectrum.items() if d)
    d = min((d for d, c in spectrum.items() if d and c == best), key=lambda d: (abs(d), d < 0))
    return [str(d), best]


def confirm(key: str):
    """(route, value) for one pinned key."""
    if m := re.fullmatch(r"D3 (interval|gp2) (\d+) d=(\d+)", key):
        family = "gp" if m.group(1) == "gp2" else "interval"
        k, d = int(m.group(2)), int(m.group(3))
        return "count_det_brute", count_det_brute(ground_set(family, k), 3, d, threads=1)
    if m := re.fullmatch(r"D4 interval (\d+) d=0", key):
        k = int(m.group(1))
        if k ** 16 <= 10**6:
            return "count_det_brute", count_det_brute(ground_set("interval", k), 4, 0, threads=1)
        return "first-row expansion in plain ints", count_n4(ints("interval", k), 0)
    if m := re.fullmatch(r"D3 fp101 interval (\d+) d=(\d+)", key):
        entries = mod_entries(brute_spectrum("interval", int(m.group(1))), 101)
        return "brute spectrum over Q, reduced mod 101", sum(
            int(c) for r, c in entries if int(r) == int(m.group(2)))
    if m := re.fullmatch(r"spectrum (fp101 )?interval (\d+) n=3", key):
        spectrum = brute_spectrum("interval", int(m.group(2)))
        if m.group(1):
            entries = mod_entries(spectrum, 101)
            route = "brute spectrum over Q, reduced mod 101"
        else:
            entries = [[str(int(d)), str(c)] for d, c in sorted(spectrum.items())]
            route = "det_spectrum brute"
        return route, {"distinct": len(entries), "digest": spectrum_digest(entries)}
    if m := re.fullmatch(r"dsup gp2 (\d+) n=3 nonzero", key):
        return "det_spectrum brute", dsup_nonzero(brute_spectrum("gp", int(m.group(1))))
    if m := re.fullmatch(r"planes interval (\d+) d=0", key):
        return "primitive integer normals", len(projective_planes(ints("interval", int(m.group(1)))))
    if m := re.fullmatch(r"classify interval (\d+) d=0 r=2", key):
        return "plain-int classifier", classify(ints("interval", int(m.group(1))))
    if m := re.fullmatch(r"max cells_hit interval (\d+) d=0 r=2", key):
        return "plain-int cell bounds", max_cells_hit(ints("interval", int(m.group(1))))
    if m := re.fullmatch(r"curves interval (\d+)", key):
        return "direct count", curves(ints("interval", int(m.group(1))))
    if m := re.fullmatch(r"Estar interval (\d+)", key):
        return "Counter of cofactor triples", estar(ints("interval", int(m.group(1))))
    if m := re.fullmatch(r"bilinear interval (\d+) omega=(\d+)", key):
        X = ground_set("interval", int(m.group(1)))
        M = Matrix.from_rows(BILINEAR_MATRIX, Q)
        return "count_bilinear_brute", count_bilinear_brute(M, X, X, int(m.group(2)))
    raise KeyError(f"no second route for {key!r}")


def main() -> int:
    with open(os.path.join(BENCH_DIR, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    bad = 0
    for key, want in refs.items():
        t0 = time.perf_counter()
        route, got = confirm(key)
        ok = got == want
        bad += not ok
        print(f"{'ok' if ok else 'MISMATCH'} {key}: {got} by {route} "
              f"({time.perf_counter() - t0:.1f} s)", flush=True)
    # The halves sets are pinned under the interval key: D3 is invariant under
    # scaling the set when d = 0. Confirm that on the Fraction sets themselves.
    for k in sorted({int(m.group(1)) for key in refs
                     if (m := re.fullmatch(r"D3 interval (\d+) d=0", key)) and int(m.group(1)) <= 5}):
        halves = make_ground_set([Fraction(i, 2) for i in range(1, k + 1)], Q)
        got = count_det_brute(halves, 3, 0, threads=1)
        want = refs[f"D3 interval {k} d=0"]
        bad += got != want
        print(f"{'ok' if got == want else 'MISMATCH'} D3 halves {k} d=0: {got} by count_det_brute")
    # The per-run cross checks need the planes' incidences to match the oracle too.
    for key in refs:
        if m := re.fullmatch(r"classify interval (\d+) d=0 r=2", key):
            X = ground_set("interval", int(m.group(1)))
            total = incidences_brute(cube_grid(X, 3), planes_from_minors(X, 0).family)
            bad += total != sum(refs[key])
            print(f"{'ok' if total == sum(refs[key]) else 'MISMATCH'} {key} sum: {total} "
                  f"by incidences_brute")
    print("all pinned counts confirmed" if not bad else f"{bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
