"""Command-line surface: count, spectrum, rank, energy, incidence, scan, fit.

All output is machine-readable (JSON or JSON Lines; CSV mirror for scans),
with counts and scalars rendered as decimal strings. Exit codes: 0 success,
2 precondition violation, 3 budget exceeded, 4 I/O error, 5 internal
invariant failure (a cross-check inside a computation failed).
"""

from __future__ import annotations

import argparse
import json
import os
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


def resolve_threads(flag: int | None = None) -> int:
    """Worker count: explicit flag wins, then DETLAB_THREADS, then CPU count."""
    if flag is not None and flag >= 1:
        return flag
    env = os.environ.get("DETLAB_THREADS")
    if env:
        try:
            val = int(env)
            if val >= 1:
                return val
        except ValueError:
            pass
    return os.cpu_count() or 1


def _add_common(p: argparse.ArgumentParser, threads: bool = False) -> None:
    p.add_argument("--field", default="rational", help="rational or fp:<p>")
    if threads:
        p.add_argument("--threads", type=int, default=None, help="brute-engine workers (DETLAB_THREADS honored)")
    p.add_argument("--budget", type=int, default=None, help="enumeration budget in elementary steps")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")


def _add_set_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--set", dest="set_path", default=None, help="ground-set file (one scalar per line)")
    p.add_argument("--size", type=int, default=None, help="family cardinality X")
    _add_family(p)


def _add_family(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=("interval", "ap", "gp", "random"), default=None)
    p.add_argument("--start", default=None, help="AP start")
    p.add_argument("--step", default=None, help="AP step")
    p.add_argument("--ratio", default="2", help="GP ratio (default 2)")
    p.add_argument("--seed", type=int, default=0, help="seed for the random family")
    p.add_argument("--low", type=int, default=None, help="random range lower bound")
    p.add_argument("--high", type=int, default=None, help="random range upper bound")


def _family_from_args(args, size: int) -> FamilySpec:
    kind = args.family
    if kind == "interval":
        return FamilySpec("interval", size)
    if kind == "ap":
        if args.start is None or args.step is None:
            raise PreconditionError("ap family needs --start and --step")
        return FamilySpec("ap", size, start=args.start, step=args.step)
    if kind == "gp":
        return FamilySpec("gp", size, ratio=args.ratio)
    if kind == "random":
        return FamilySpec("random", size, seed=args.seed, low=args.low, high=args.high)
    raise PreconditionError("select a ground set with --set or --family")


def _resolve_set(args, field: FieldSpec):
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


def _emit(args, obj: dict) -> None:
    with _open_out(args) as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")


def _parse_matrix(text: str, field: FieldSpec) -> Matrix:
    rows = [
        [parse_scalar(cell, field) for cell in line.split(",")]
        for line in text.split(";")
    ]
    return Matrix.from_rows(rows, field)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_count(args) -> None:
    field = FieldSpec.parse(args.field)
    X = _resolve_set(args, field)
    d = parse_scalar(args.d, field)
    threads = resolve_threads(args.threads)
    cnt = COUNT_ENGINES[args.engine](X, args.n, d, budget=args.budget, threads=threads)
    _emit(
        args,
        {
            "op": "count",
            "field": field.label(),
            "X": len(X),
            "n": args.n,
            "d": format_scalar(d),
            "engine": args.engine,
            "count": str(cnt),
        },
    )


def _cmd_spectrum(args) -> None:
    field = FieldSpec.parse(args.field)
    X = _resolve_set(args, field)
    threads = resolve_threads(args.threads)
    spec = det_spectrum(X, args.n, args.engine, budget=args.budget, threads=threads)
    entries = [[format_scalar(k), str(v)] for k, v in spec.sorted_items()]
    _emit(
        args,
        {
            "op": "spectrum",
            "field": field.label(),
            "X": len(X),
            "n": args.n,
            "engine": args.engine,
            "total_mass": str(spec.total_mass()),
            "distinct": spec.distinct_count(),
            "entries": entries,
        },
    )


def _cmd_rank(args) -> None:
    field = FieldSpec.parse(args.field)
    X = _resolve_set(args, field)
    cnt = count_rank(X, args.m, args.n, args.r, budget=args.budget)
    _emit(
        args,
        {
            "op": "rank",
            "field": field.label(),
            "X": len(X),
            "m": args.m,
            "n": args.n,
            "r": args.r,
            "count": str(cnt),
        },
    )


def _cmd_energy(args) -> None:
    field = FieldSpec.parse(args.field)
    X = _resolve_set(args, field)
    kind = args.kind
    out = {"op": "energy", "kind": kind, "field": field.label(), "X": len(X)}
    if kind == "bilinear":
        if args.matrix is None or args.omega is None:
            raise PreconditionError("bilinear needs --matrix and --omega")
        M = _parse_matrix(args.matrix, field)
        C = read_ground_set_file(args.set2, field) if args.set2 else X
        omega = parse_scalar(args.omega, field)
        fn = count_bilinear_brute if args.engine == "brute" else count_bilinear
        cnt = fn(M, X, C, omega, budget=args.budget)
        out.update({"k": M.rows, "omega": format_scalar(omega), "C": len(C)})
    else:
        fast, brute = {"N": (energy_N, energy_N_brute), "T": (energy_T, energy_T_brute),
                       "S": (energy_S, energy_S_brute), "Estar": (energy_Estar_mu, energy_Estar_brute)}[kind]
        cnt = (brute if args.engine == "brute" else fast)(X, budget=args.budget)
    out["engine"] = args.engine
    out["count"] = str(cnt)
    _emit(args, out)


def _cmd_incidence(args) -> None:
    field = FieldSpec.parse(args.field)
    X = _resolve_set(args, field)
    kind = args.kind
    out = {"op": "incidence", "kind": kind, "field": field.label(), "X": len(X)}
    if kind == "curves":
        out["count"] = str(curve_incidences_n3(X, budget=args.budget))
        _emit(args, out)
        return
    if args.d is None:
        raise PreconditionError(f"incidence kind {kind!r} needs --d for the plane family")
    d = parse_scalar(args.d, field)
    mp = planes_from_minors(X, d, budget=args.budget)
    out["d"] = format_scalar(d)
    out["planes"] = len(mp.family)
    out["zero_multiplicity"] = str(mp.zero_multiplicity)
    if kind == "minors":
        out["total_weight"] = str(mp.total_weight())
        out["weight_square_sum"] = str(sum(w * w for w in mp.weights))
        out["det_count_via_incidences"] = str(mp.det_count_via_incidences(budget=args.budget))
        _emit(args, out)
        return
    grid = cube_grid(X, 3)
    if kind == "brute":
        out["incidences"] = str(incidences_brute(grid, mp.family, budget=args.budget))
        _emit(args, out)
        return
    r = args.r if args.r is not None else choose_r(grid, mp.family)
    cls = classify_incidences(grid, mp.family, r, budget=args.budget)
    out.update(
        {
            "r": r,
            "chosen_r": choose_r(grid, mp.family),
            "i1": str(cls.i1),
            "i2": str(cls.i2),
            "i3": str(cls.i3),
            "max_cells_hit": max((cells_hit(pl, cls) for pl in mp.family), default=0),
            "cell_bound": grid.k * r ** (grid.k - 1),
        }
    )
    _emit(args, out)


def _cmd_scan(args) -> None:
    field = FieldSpec.parse(args.field)
    if args.family is None:
        raise PreconditionError("scan needs --family")
    sizes = parse_sizes(args.sizes)
    template = _family_from_args(args, sizes[0])
    cache = ResultCache(args.cache) if args.cache else None
    threads = resolve_threads(args.threads)
    rows = run_scan(
        template,
        sizes,
        field,
        args.n,
        args.dmode,
        args.engine,
        d=None if args.d is None else parse_scalar(args.d, field),
        threads=threads,
        budget=args.budget,
        cache=cache,
    )
    with _open_out(args) as fh:
        if args.format == "csv":
            write_csv(rows, fh)
        else:
            write_jsonl(rows, fh)


def _cmd_fit(args) -> None:
    with open(args.input, "r", encoding="utf-8") as fh:
        rows = read_jsonl(fh)
    fit = fit_exponent(rows)
    _emit(args, {"op": "fit", **fit.to_json_dict()})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detlab",
        description="Exact determinant, energy, and incidence counting over finite scalar sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="matrices over X with a prescribed determinant")
    _add_set_source(p)
    _add_common(p, threads=True)
    p.add_argument("--n", type=int, required=True, help="matrix dimension")
    p.add_argument("--d", required=True, help="target determinant")
    p.add_argument("--engine", choices=tuple(COUNT_ENGINES), default="rowblock")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("spectrum", help="full determinant distribution")
    _add_set_source(p)
    _add_common(p, threads=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--engine", choices=tuple(SPECTRUM_ENGINES), default="rowblock")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("rank", help="m x n matrices over X of exact rank r")
    _add_set_source(p)
    _add_common(p)
    p.add_argument("--m", type=int, required=True, help="row count")
    p.add_argument("--n", type=int, required=True, help="column count")
    p.add_argument("--r", type=int, required=True, help="target rank")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("energy", help="additive-energy counts")
    _add_set_source(p)
    _add_common(p)
    p.add_argument("--kind", choices=("N", "T", "S", "Estar", "bilinear"), required=True)
    p.add_argument("--engine", choices=("table", "brute"), default="table",
                   help="table = fast route, brute = oracle route")
    p.add_argument("--matrix", default=None, help="bilinear matrix, rows ';'-separated, entries ','-separated")
    p.add_argument("--omega", default=None, help="bilinear target value")
    p.add_argument("--set2", default=None, help="second ground-set file for bilinear")
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("incidence", help="point/hyperplane incidence counting")
    _add_set_source(p)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
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
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
