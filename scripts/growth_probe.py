#!/usr/bin/env python3
"""Growth probe: how fast does the singular count D_3(X, 0) grow with |X|?

Scans geometric-progression sets against intervals (and optionally seeded
random sets), fits log-log slopes, and prints both next to the structural
landmarks: the trivial ceiling at n^2 - 1 = 8 and the sparse-set floor at
n^2 - n + 1 = 7. GP sets should hug the floor from above; intervals land
visibly lower.

Example:
    python scripts/growth_probe.py --sizes 4:10:2 --cache /tmp/probe-cache.jsonl
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from detlab.cli import guarded, resolve_threads
from detlab.detcount import COUNT_ENGINES
from detlab.families import FamilySpec
from detlab.harness import ResultCache, fit_exponent, parse_sizes, run_scan
from detlab.scalars import FieldSpec


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", default="4:8:2",
                    help="sizes to scan (lo:hi[:step] or comma list)")
    ap.add_argument("--n", type=int, default=3, help="matrix dimension")
    ap.add_argument("--engine", default="rowblock", choices=tuple(COUNT_ENGINES))
    ap.add_argument("--with-random", type=int, default=None, metavar="SEED",
                    help="also probe a seeded random family")
    ap.add_argument("--threads", type=int, default=None)
    ap.add_argument("--budget", type=int, default=None)
    ap.add_argument("--cache", default=None, help="JSONL result cache")
    args = ap.parse_args()

    sizes = parse_sizes(args.sizes)
    resolve_threads(args.threads)
    cache = ResultCache(args.cache) if args.cache else None
    field = FieldSpec.rationals()

    families = [
        ("gp(2)", FamilySpec("gp", sizes[0], ratio=2)),
        ("interval", FamilySpec("interval", sizes[0])),
    ]
    if args.with_random is not None:
        families.append(
            ("random", FamilySpec("random", sizes[0], seed=args.with_random))
        )

    n = args.n
    print(f"D_{n}(X, 0) across sizes {sizes} with the {args.engine} engine")
    print(f"landmarks: trivial exponent {n*n - 1}, sparse-set floor {n*n - n + 1}\n")
    fits = {}
    for name, template in families:
        rows = run_scan(template, sizes, field, n, "zero", args.engine,
                        budget=args.budget, cache=cache)
        print(f"  {name}")
        for row in rows:
            cnt = "over budget" if row.budget_hit else row.count
            print(f"    X = {row.size:>3}   count = {cnt!s:>14}   [{row.elapsed_ms:9.1f} ms]")
        fit = fit_exponent(rows)
        fits[name] = fit
        print(f"    fitted exponent {fit.slope:.4f}  (stderr {fit.residual_stderr:.4f}, "
              f"{fit.points_used} points)\n")

    if "gp(2)" in fits and "interval" in fits:
        gap = fits["gp(2)"].slope - fits["interval"].slope
        print(f"GP minus interval slope: {gap:+.4f} "
              f"({'GP grows faster, as the sparse example predicts' if gap > 0 else 'unexpected ordering'})")
    return 0


if __name__ == "__main__":
    sys.exit(guarded(main))
