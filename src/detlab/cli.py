"""Command-line surface: count, spectrum, rank, energy, incidence, scan, fit.

All output is machine-readable (JSON or JSON Lines; CSV mirror for scans),
with counts and scalars rendered as decimal strings. Exit codes: 0 success,
2 precondition violation, 3 budget exceeded, 4 I/O error, 5 internal
invariant failure (a cross-check inside a computation failed).

Every handler takes the parsed flags and the ground set (None for `scan`
and `fit`, which take none) and returns its report as a dict; `scan` writes
its own rows and returns None. `_run` resolves the set, calls the handler
and writes the report once, headed by `op`, plus the set's `field` and size
`X` when the command took one.

The parser is built once per process, on the first `main` call (not at
import), and shared read-only by every later call: no option has a mutable
default, each handler looks up its callees when it runs, and `parse_args`
makes a new namespace per call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from contextlib import contextmanager

from .errors import BudgetExceededError, PreconditionError
from .detcount import COUNT_ENGINES, SPECTRUM_ENGINES, count_rank, det_spectrum
from .energy import (
    count_bilinear,
    count_bilinear_brute,
    energy_Estar_brute,
    energy_Estar_mu,
    energy_N,
    energy_N_brute,
    energy_S,
    energy_S_brute,
    energy_T,
    energy_T_brute,
)
from .families import FamilySpec, generate
from .harness import (
    DMODES,
    ResultCache,
    fit_exponent,
    parse_sizes,
    read_jsonl,
    run_scan,
    write_csv,
    write_jsonl,
)
from .incidence import (
    cells_hit,
    choose_r,
    classify_incidences,
    cube_grid,
    curve_incidences_n3,
    incidences_brute,
    planes_from_minors,
)
from .matrices import Matrix
from .scalars import FieldSpec, format_scalar, parse_scalar, read_ground_set_file

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3
EXIT_IO = 4
EXIT_INTERNAL = 5


def resolve_threads(flag: int | None = None) -> int | None:
    """The `--threads` flag, refused below 1. It is accepted and has no
    effect: every walk runs in one process."""
    if flag is not None and flag < 1:
        raise PreconditionError(f"--threads must be at least 1, got {flag}")
    return flag


def _add_common(p: argparse.ArgumentParser, threads: bool = False) -> None:
    p.add_argument("--field", default="rational", help="rational or fp:<p>")
    if threads:
        p.add_argument("--threads", type=int, default=None, help="accepted and unused; refused below 1")
    p.add_argument("--budget", type=int, default=None, help="enumeration budget in elementary steps")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")


# `_run` resolves a ground set for exactly the commands whose namespace has this dest
_SET_DEST = "set_path"


def add_set_source(p: argparse.ArgumentParser) -> None:
    """Ground-set flags: `--set FILE`, or `--family`/`--size` and the family's parameters."""
    p.add_argument("--set", dest=_SET_DEST, default=None, help="ground-set file (one scalar per line)")
    p.add_argument("--size", type=int, default=None, help="family cardinality X")
    _add_family(p)


# the FamilySpec parameters each --family kind reads
_FAMILY_PARAMS = {"interval": (), "ap": ("start", "step"), "gp": ("ratio",), "random": ("seed", "low", "high")}


def _add_family(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=tuple(_FAMILY_PARAMS), default=None)
    p.add_argument("--start", default=None, help="AP start")
    p.add_argument("--step", default=None, help="AP step")
    p.add_argument("--ratio", default="2", help="GP ratio (default 2)")
    p.add_argument("--seed", type=int, default=0, help="seed for the random family")
    p.add_argument("--low", type=int, default=None, help="random range lower bound")
    p.add_argument("--high", type=int, default=None, help="random range upper bound")


def _family_from_args(args, size: int) -> FamilySpec:
    return FamilySpec(args.family, size, **{k: getattr(args, k) for k in _FAMILY_PARAMS[args.family]})


def resolve_set(args, field: FieldSpec):
    """The ground set named by `add_set_source`'s flags, over `field`."""
    if args.set_path is not None:
        return read_ground_set_file(args.set_path, field)
    if args.family is None:
        raise PreconditionError("select a ground set with --set or --family")
    if args.size is None:
        raise PreconditionError("family input needs --size")
    return generate(_family_from_args(args, args.size), field)


@contextmanager
def _open_out(args):
    if args.out is None:
        yield sys.stdout
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            yield fh


def _parse_matrix(text: str, field: FieldSpec) -> Matrix:
    rows = [
        [parse_scalar(cell, field) for cell in line.split(",")]
        for line in text.split(";")
    ]
    return Matrix.from_rows(rows, field)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_count(args, X) -> dict:
    d = parse_scalar(args.d, X.field)
    resolve_threads(args.threads)
    cnt = COUNT_ENGINES[args.engine](X, args.n, d, budget=args.budget)
    return {
        "n": args.n,
        "d": format_scalar(d),
        "engine": args.engine,
        "count": str(cnt),
    }


def _cmd_spectrum(args, X) -> dict:
    resolve_threads(args.threads)
    spec = det_spectrum(X, args.n, args.engine, budget=args.budget)
    return {
        "n": args.n,
        "engine": args.engine,
        "total_mass": str(spec.total_mass()),
        "distinct": spec.distinct_count(),
        "entries": [[format_scalar(k), str(v)] for k, v in spec.sorted_items()],
    }


def _cmd_rank(args, X) -> dict:
    cnt = count_rank(X, args.m, args.n, args.r, budget=args.budget)
    return {
        "m": args.m,
        "n": args.n,
        "r": args.r,
        "count": str(cnt),
    }


def _cmd_energy(args, X) -> dict:
    kind = args.kind
    out = {"kind": kind, "engine": args.engine}
    if kind == "bilinear":
        if args.matrix is None or args.omega is None:
            raise PreconditionError("bilinear needs --matrix and --omega")
        M = _parse_matrix(args.matrix, X.field)
        C = read_ground_set_file(args.set2, X.field) if args.set2 else X
        omega = parse_scalar(args.omega, X.field)
        fn = count_bilinear_brute if args.engine == "brute" else count_bilinear
        cnt = fn(M, X, C, omega, budget=args.budget)
        out.update({"k": M.rows, "omega": format_scalar(omega), "C": len(C)})
    else:
        fast, brute = {"N": (energy_N, energy_N_brute), "T": (energy_T, energy_T_brute),
                       "S": (energy_S, energy_S_brute), "Estar": (energy_Estar_mu, energy_Estar_brute)}[kind]
        cnt = (brute if args.engine == "brute" else fast)(X, budget=args.budget)
    out["count"] = str(cnt)
    return out


def _cmd_incidence(args, X) -> dict:
    kind = args.kind
    out = {"kind": kind}
    if kind == "curves":
        out["count"] = str(curve_incidences_n3(X, budget=args.budget))
        return out
    if args.d is None:
        raise PreconditionError(f"incidence kind {kind!r} needs --d for the plane family")
    d = parse_scalar(args.d, X.field)
    mp = planes_from_minors(X, d, budget=args.budget)
    out["d"] = format_scalar(d)
    out["planes"] = len(mp.family)
    out["zero_multiplicity"] = str(mp.zero_multiplicity)
    if kind == "minors":
        out["total_weight"] = str(mp.total_weight())
        out["weight_square_sum"] = str(sum(w * w for w in mp.weights))
        out["det_count_via_incidences"] = str(mp.det_count_via_incidences(budget=args.budget))
        return out
    grid = cube_grid(X, 3)
    if kind == "brute":
        out["incidences"] = str(incidences_brute(grid, mp.family, budget=args.budget))
        return out
    chosen = choose_r(grid, mp.family)
    r = chosen if args.r is None else args.r
    cls = classify_incidences(grid, mp.family, r, budget=args.budget)
    out.update(
        {
            "r": r,
            "chosen_r": chosen,
            "i1": str(cls.i1),
            "i2": str(cls.i2),
            "i3": str(cls.i3),
            "max_cells_hit": max((cells_hit(pl, cls) for pl in mp.family), default=0),
            "cell_bound": grid.k * r ** (grid.k - 1),
        }
    )
    return out


def _cmd_scan(args, X) -> None:
    field = FieldSpec.parse(args.field)
    if args.family is None:
        raise PreconditionError("scan needs --family")
    sizes = parse_sizes(args.sizes)
    template = _family_from_args(args, sizes[0])
    cache = ResultCache(args.cache) if args.cache else None
    resolve_threads(args.threads)
    rows = run_scan(
        template,
        sizes,
        field,
        args.n,
        args.dmode,
        args.engine,
        d=None if args.d is None else parse_scalar(args.d, field),
        budget=args.budget,
        cache=cache,
    )
    with _open_out(args) as fh:
        if args.format == "csv":
            write_csv(rows, fh)
        else:
            write_jsonl(rows, fh)


def _cmd_fit(args, X) -> dict:
    with open(args.input, "r", encoding="utf-8") as fh:
        rows = read_jsonl(fh)
    return dataclasses.asdict(fit_exponent(rows))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detlab",
        description="Exact determinant, energy, and incidence counting over finite scalar sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="matrices over X with a prescribed determinant")
    add_set_source(p)
    _add_common(p, threads=True)
    p.add_argument("--n", type=int, required=True, help="matrix dimension")
    p.add_argument("--d", required=True, help="target determinant")
    p.add_argument("--engine", choices=tuple(COUNT_ENGINES), default="rowblock")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("spectrum", help="full determinant distribution")
    add_set_source(p)
    _add_common(p, threads=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--engine", choices=tuple(SPECTRUM_ENGINES), default="rowblock")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("rank", help="m x n matrices over X of exact rank r")
    add_set_source(p)
    _add_common(p)
    p.add_argument("--m", type=int, required=True, help="row count")
    p.add_argument("--n", type=int, required=True, help="column count")
    p.add_argument("--r", type=int, required=True, help="target rank")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("energy", help="additive-energy counts")
    add_set_source(p)
    _add_common(p)
    p.add_argument("--kind", choices=("N", "T", "S", "Estar", "bilinear"), required=True)
    p.add_argument("--engine", choices=("table", "brute"), default="table",
                   help="table = fast route, brute = oracle route")
    p.add_argument("--matrix", default=None, help="bilinear matrix, rows ';'-separated, entries ','-separated")
    p.add_argument("--omega", default=None, help="bilinear target value")
    p.add_argument("--set2", default=None, help="second ground-set file for bilinear")
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("incidence", help="point/hyperplane incidence counting")
    add_set_source(p)
    _add_common(p)
    p.add_argument("--kind", choices=("brute", "classify", "minors", "curves"), required=True)
    p.add_argument("--d", default=None, help="determinant value generating the plane family")
    p.add_argument("--r", type=int, default=None, help="slicing parameter (default: the admissible formula)")
    p.set_defaults(func=_cmd_incidence)

    p = sub.add_parser("scan", help="family scan across sizes")
    _add_family(p)
    _add_common(p, threads=True)
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl", help="scan report format")
    p.add_argument("--sizes", required=True, help="comma list (4,6,8) or range lo:hi[:step]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dmode", choices=DMODES, default="zero")
    p.add_argument("--d", default=None, help="determinant for fixed d-mode")
    p.add_argument("--engine", choices=tuple(COUNT_ENGINES), default="rowblock")
    p.add_argument("--cache", default=None, help="JSONL result cache path")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("fit", help="log-log exponent fit of a scan report")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--input", required=True, help="JSONL scan report")
    p.set_defaults(func=_cmd_fit)

    return parser


def guarded(fn) -> int:
    """Run `fn()` and return its exit code (0 for None), or print one `error:`
    line for a refusal and return its code: 2 precondition, 3 budget, 4 I/O,
    5 internal invariant."""
    try:
        return fn() or EXIT_OK
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except AssertionError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _run(args) -> None:
    """Resolve the ground set when the command takes one, run the handler, and
    write the report it returns, headed by `op` and by the set's field and size."""
    X = resolve_set(args, FieldSpec.parse(args.field)) if _SET_DEST in args else None
    report = args.func(args, X)
    if report is None:
        return
    head = {"op": args.command}
    if X is not None:
        head.update(field=X.field.label(), X=len(X))
    with _open_out(args) as fh:
        fh.write(json.dumps({**head, **report}, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return guarded(lambda: _run(args))


if __name__ == "__main__":
    sys.exit(main())
