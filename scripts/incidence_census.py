#!/usr/bin/env python3
"""Instrumented incidence run for the cofactor-plane construction: build the
weighted plane family of <m, x> = d over the X^3 grid, slice with the
admissible r, and report the class tallies, the per-plane cell bound, the
dyadic multiplicity pyramid, and the cross-checks tying everything back to
the exact determinant count and the twelve-variable energy. Exits 1 when the
weighted incidence count and the rowblock count disagree.

Example:
    python scripts/incidence_census.py --family interval --size 3 --d 1
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from detlab.cli import add_set_source, guarded, resolve_set
from detlab.detcount import count_det_rowblock
from detlab.energy import dyadic_pyramid, energy_Estar_mu
from detlab.incidence import (
    cells_hit,
    choose_r,
    classify_incidences,
    cube_grid,
    incidences_brute,
    nondegeneracy_ratio,
    planes_from_minors,
)
from detlab.scalars import FieldSpec, format_scalar, parse_scalar


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    add_set_source(ap)
    ap.set_defaults(family="interval", size=3)
    ap.add_argument("--d", default="1", help="determinant value indexing the plane family")
    ap.add_argument("--r", type=int, default=None, help="override the slicing parameter")
    ap.add_argument("--budget", type=int, default=None)
    args = ap.parse_args()

    field = FieldSpec.rationals()
    X = resolve_set(args, field)
    d = parse_scalar(args.d, field)

    print(f"set: {{{', '.join(format_scalar(e) for e in X)}}}, d = {format_scalar(d)}")
    mp = planes_from_minors(X, d, budget=args.budget)
    print(f"cofactor planes: {len(mp.family)} distinct, zero-triple multiplicity {mp.zero_multiplicity}, "
          f"total weight {mp.total_weight()} (= X^6 = {len(X) ** 6})")

    det_count = count_det_rowblock(X, 3, d, budget=args.budget)
    via = mp.det_count_via_incidences(budget=args.budget)
    print(f"weighted incidences reproduce the determinant count: {via} vs {det_count} "
          f"({'exact match' if via == det_count else 'MISMATCH'})")
    if via != det_count:
        return 1

    estar = energy_Estar_mu(X, budget=args.budget)
    pyramid = dyadic_pyramid(X, budget=args.budget)
    print(f"\ntwelve-variable energy: {estar}")
    print("dyadic multiplicity pyramid (w, class size, w^2 * size <= energy):")
    for w, cnt in pyramid.classes:
        print(f"  w = {w:>4}: {cnt:>8} classes   w^2*size = {w * w * cnt}")

    if not mp.family:
        print("\nno planes (all cofactor triples vanish); nothing to slice")
        return 0

    grid = cube_grid(X, 3)
    brute = incidences_brute(grid, mp.family, budget=args.budget)
    chosen = choose_r(grid, mp.family)
    r = chosen if args.r is None else args.r
    out = classify_incidences(grid, mp.family, r, budget=args.budget)
    print(f"\nunweighted incidences over the X^3 grid: {brute}")
    print(f"slicing with r = {r} (admissible choice {chosen})")
    print(f"class tallies: sparse {out.i1}, spanning {out.i2}, degenerate {out.i3} "
          f"(sum {out.i1 + out.i2 + out.i3})")

    worst = max(cells_hit(plane, out) for plane in mp.family)
    print(f"worst cells-hit per plane: {worst} (bound {3 * r * r})")

    ratios = [q for q in (nondegeneracy_ratio(grid, pl) for pl in mp.family) if q is not None]
    if ratios:
        worst_ratio = max(ratios)
        print(f"worst flat-concentration diagnostic: {worst_ratio} "
              f"(fraction of a plane's points on one line)")
    return 0


if __name__ == "__main__":
    sys.exit(guarded(main))
