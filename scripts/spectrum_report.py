#!/usr/bin/env python3
"""Spectrum census for one ground set: the full determinant distribution,
its mass check, the most popular nonzero determinant, and the distinct-value
count, with the rank profile alongside.

Example:
    python scripts/spectrum_report.py --family gp --ratio 2 --size 4 --n 3
    python scripts/spectrum_report.py --set my_set.txt --n 2 --field fp:101
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from detlab.detcount import SPECTRUM_ENGINES, count_rank, det_spectrum, dsup
from detlab.families import FamilySpec, generate
from detlab.parallel import resolve_threads
from detlab.scalars import FieldSpec, format_scalar, read_ground_set_file


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--set", dest="set_path", default=None)
    ap.add_argument("--family", default="interval", choices=("interval", "ap", "gp", "random"))
    ap.add_argument("--size", type=int, default=4)
    ap.add_argument("--ratio", default="2")
    ap.add_argument("--start", default="1")
    ap.add_argument("--step", default="1")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--field", default="rational", type=FieldSpec.parse, help="rational or fp:<p>")
    ap.add_argument("--engine", default="rowblock", choices=tuple(SPECTRUM_ENGINES))
    ap.add_argument("--top", type=int, default=8, help="how many heaviest classes to print")
    ap.add_argument("--threads", type=int, default=None)
    ap.add_argument("--budget", type=int, default=None)
    ap.add_argument("--ranks", action="store_true", help="also print the exact rank profile")
    args = ap.parse_args()

    field = args.field
    if args.set_path:
        X = read_ground_set_file(args.set_path, field)
    else:
        kw = {}
        if args.family == "gp":
            kw["ratio"] = args.ratio
        elif args.family == "ap":
            kw["start"], kw["step"] = args.start, args.step
        elif args.family == "random":
            kw["seed"] = args.seed
        X = generate(FamilySpec(args.family, args.size, **kw), field)

    n = args.n
    threads = resolve_threads(args.threads)
    spec = det_spectrum(X, n, args.engine, budget=args.budget, threads=threads)
    mass = spec.total_mass()
    print(f"set: {{{', '.join(format_scalar(e) for e in X)}}}  over {field.label()}")
    print(f"n = {n}, engine = {args.engine}")
    print(f"total mass {mass} (= X^(n^2) = {len(X) ** (n * n)}), "
          f"{spec.distinct_count()} distinct determinant values")

    d0 = spec.entries.get(field.coerce(0), 0)
    dstar, cstar = dsup(X, n, True, engine=args.engine, budget=args.budget, threads=threads)
    print(f"D_n(X, 0) = {d0}")
    print(f"sup over nonzero d: D_n(X, {format_scalar(dstar)}) = {cstar}")

    heavy = sorted(spec.entries.items(), key=lambda kv: (-kv[1], kv[0]))[: args.top]
    print(f"\nheaviest {len(heavy)} classes:")
    for d, c in heavy:
        print(f"  d = {format_scalar(d):>10}   count {c}")

    if args.ranks:
        print("\nrank profile:")
        for r in range(n + 1):
            print(f"  rank {r}: {count_rank(X, n, n, r, budget=args.budget)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
