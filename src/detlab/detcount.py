"""Counting engines for determinant spectra, rank counts, and block decompositions.

Counts are plain Python ints (arbitrary precision). Two independent routes are
always available: full enumeration with a definition-level determinant (the
master oracle), and a first-row cofactor engine that enumerates the bottom
(n-1) x n block once, aggregates multiplicities of the signed cofactor vector,
merges vectors that are permutations of each other into one sorted-key class,
and counts the first rows per class by a fold over the trie of class keys.

Each enumeration is one walk over itertools.product. Only the brute oracle
shards its walk, in `_brute_histogram`: `_brute_walk` restricts the leading
coordinate (the top-left entry) to a shard of the ground set, workers of a
process pool take contiguous shards and their histograms merge by key-wise
addition, so totals are identical for any worker count. The cofactor table
is walked in one process at any worker count: shipping each worker's table
back cost more than the walk it saved.

At n = 2 the rowblock count is the product correlation `count_det_conv_n2`:
the cofactor vector of the bottom row (y1, y2) is (y2, -y1), so
D_2(X, d) = sum_t P(t) * P(t - d) over the pair-product distribution P,
|X|^2 steps where the linear-form kernel takes |X|^3. It lifts X like the
table below and correlates int pair products against L^2 d (or the residue
of d). The n = 2 spectrum and `minor_multiplicity_map` walk the |X|^2
bottom rows as generic blocks.

The cofactor table is walked in plain ints: `_int_table` lifts X once with
`scalars.int_lift` (L*X over Q, residues over F_p, where each distinct key is
then reduced mod p and keys that vanish mod p join the zero bucket). The
rowblock count maps its target into the lifted problem (L^n d, or the
residue of d) and counts in ints; the rowblock spectrum builds an int
histogram and lowers each distinct value to a field scalar at the end. The
rowblock engines, `energy.energy_Estar_mu`, `energy.dyadic_pyramid` and
`incidence.planes_from_minors` use the int table as is (the energies read
only multiplicities, which the lift keeps: it is injective on keys; the
planes are keyed on the lifted triples); only `minor_multiplicity_map`
lowers its keys to field scalars, except for an integral rational set, whose
int table is already canonical.

Every linear-form count in the package goes through one kernel:
`_count_forms` sums w * #{r in X^k : <c, r> = t} over forms (c, t, w). It
sorts each c, groups the forms by the prefix q = c[:-1], builds the
distribution of <q, r> over r in X^len(q) once per distinct prefix from that
of q[:-1] shifted by q[-1]*y for each y in X (`_shift_add`), and does |X|
lookups per form. Its callers are `count_det_rowblock` (one form per
sorted-key class, on lifted ints), `MinorPlanes.det_count_via_incidences`
and the curve half of `incidence.curve_incidences_n3` (lifted ints, with the
modulus over F_p), and `energy.count_bilinear` (field scalars). The
rowblock spectrum folds the weighted classes over the same prefix trie, from
the leaves up to the root (). The oracles those routes are checked against
use neither the kernel, the prefix fold, the sorted-key table nor the lift:
`count_det_brute`, `_spectrum_brute`, `find_witness`, `count_rank`,
`count_decomposition`, `energy.count_bilinear_brute`,
`incidence.incidences_brute`, the `energy_*_brute` counts and the direct half
of `curve_incidences_n3`.
"""

from __future__ import annotations

import itertools
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .errors import PreconditionError, check_budget
from .matrices import Matrix, _det_rows, _rank_rows
from .scalars import GroundSet, Scalar, int_lift


# ---------------------------------------------------------------------------
# linear-form kernel: sum of w * #{r in X^k : <c, r> = t}


def _shift_add(into: dict, dist: dict, terms, modulus: int | None = None) -> dict:
    """into[v + t] += dist[v] for every v in dist and t in terms, with each
    sum reduced mod `modulus` when one is given; returns `into`."""
    get = into.get
    items = dist.items()
    for t in terms:
        for v, c in items:
            k = v + t
            if modulus:
                k %= modulus
            into[k] = get(k, 0) + c
    return into


def _count_forms(forms, elems, modulus: int | None, budget: int | None, what: str, spent: int = 0) -> int:
    """Sum of w * #{r in elems^k : <c, r> = t} over the forms (c, t, w), all
    of one length k >= 1. The count does not change when c is permuted, so
    each c is sorted and the forms are grouped by their prefix q = c[:-1].
    The value distribution of <q, r> over r in X^len(q) is built from that of
    q[:-1] by shifting with q[-1]*y for each y in X (`_shift_add`), once per
    distinct prefix, from the root {t - t: 1} (a zero of the forms' own
    scalar type: int, Fraction or Mod); a form then needs |X| lookups of
    t - c[-1]*x. With a `modulus`, every key is reduced mod that prime. The
    budget is charged on top of `spent`, level by level before the level
    runs: |X| per parent entry for each prefix built, and |X| per form with
    the last level. An all-zero c counts |X|^k when t = 0 and 0 otherwise."""
    B = len(elems)
    groups: dict = {}
    for c, t, w in forms:
        c = sorted(c)
        groups.setdefault(tuple(c[:-1]), []).append((c[-1], t, w))
    if not groups:
        return 0
    k = len(next(iter(groups))) + 1
    dists = {(): {t - t: 1}}
    for j in range(1, k - 1):
        prefixes = {q[:j] for q in groups}
        spent += B * sum(len(dists[q[:-1]]) for q in prefixes)
        check_budget(spent, budget, what)
        dists = {q: _shift_add({}, dists[q[:-1]], [q[-1] * y for y in elems], modulus) for q in prefixes}
    # one last-level distribution at a time: holding them all raised the
    # peak memory of a GP 10 count from 110 to 133 MB
    spent += B * sum(len(dists[q[:-1]]) for q in groups if q)
    check_budget(spent + B * sum(map(len, groups.values())), budget, what)
    total = 0
    for q, members in groups.items():
        dist = _shift_add({}, dists[q[:-1]], [q[-1] * y for y in elems], modulus) if q else dists[()]
        get = dist.get
        for c, t, w in members:
            keys = [t - c * x for x in elems]
            if modulus:
                keys = [v % modulus for v in keys]
            total += w * sum(get(v, 0) for v in keys)
    return total


# ---------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class SpectrumHistogram:
    """Full map d -> D_n(X, d); total mass is always X^(n^2)."""

    n: int
    ground_set: GroundSet
    engine: str
    entries: dict

    def total_mass(self) -> int:
        return sum(self.entries.values())

    def distinct_count(self) -> int:
        return len(self.entries)

    def get(self, d) -> int:
        return self.entries.get(self.ground_set.field.coerce(d), 0)

    def sorted_items(self) -> list:
        return sorted(self.entries.items())

    def witness(self, d) -> Matrix | None:
        return find_witness(self.ground_set, self.n, d)


@dataclass(frozen=True)
class MinorMultiplicityMap:
    """Multiplicities of the signed first-row cofactor vector over all
    bottom-block choices; the all-zero vector is tallied separately."""

    n: int
    ground_set: GroundSet
    entries: dict
    zero_count: int

    def total_mass(self) -> int:
        return sum(self.entries.values()) + self.zero_count


@dataclass(frozen=True)
class DecompositionCounts:
    """Det-d matrices split by the bordered form: corner entry zero, corner
    nonzero with singular leading block, corner nonzero with regular block."""

    x_zero: int
    y_singular: int
    y_regular: int

    def total(self) -> int:
        return self.x_zero + self.y_singular + self.y_regular


# ---------------------------------------------------------------------------
# brute-force enumeration (master oracle)


def _brute_walk(elems, n, start, stop) -> Counter:
    """Determinant histogram of the n x n matrices whose top-left entry is one
    of elems[start:stop]."""
    lead = elems[start:stop]
    if n == 2:
        dets = (a * d - b * c for a, b, c, d in itertools.product(lead, elems, elems, elems))
    elif n == 3:
        dets = (
            x1 * (y2 * z3 - y3 * z2) - x2 * (y1 * z3 - y3 * z1) + x3 * (y1 * z2 - y2 * z1)
            for x1, x2, x3, y1, y2, y3, z1, z2, z3 in itertools.product(lead, *[elems] * 8)
        )
    else:
        rows = list(itertools.product(elems, repeat=n))
        tops = itertools.product(lead, *[elems] * (n - 1))
        dets = map(_det_rows, itertools.product(tops, *[rows] * (n - 1)))
    return Counter(dets)


# Brute histogram, 1 vs 2 workers on a 2-core host (medians of 7-9 runs): n = 3
# at 3^9 = 19,683 items 8 vs 25 ms, n = 2 at 20^4 = 160,000 items 35 vs 49 ms,
# n = 3 at 4^9 = 262,144 items 115 vs 91 ms; two workers pay from about 2^18.
_MIN_PARALLEL_ITEMS = 1 << 18


def _brute_histogram(X: GroundSet, n: int, budget: int | None, threads: int, what: str) -> Counter:
    """Determinant histogram of X^(n x n). From `_MIN_PARALLEL_ITEMS` matrices
    on, `threads` workers walk contiguous shards of the leading coordinate's
    values (at most |X| of them) and their partials are summed key-wise."""
    if n < 1:
        raise PreconditionError("dimension must be >= 1")
    B = len(X)
    total = B ** (n * n)
    check_budget(total, budget, what)
    if threads <= 1 or total < _MIN_PARALLEL_ITEMS:
        return _brute_walk(X.elements, n, 0, B)
    parts = min(threads, B)
    cuts = [B * i // parts for i in range(parts + 1)]
    hist = Counter()
    with ProcessPoolExecutor(max_workers=parts) as pool:
        shards = zip(cuts, cuts[1:])
        futures = [pool.submit(_brute_walk, X.elements, n, start, stop) for start, stop in shards]
        for f in futures:
            hist.update(f.result())
    return hist


def count_det_brute(X: GroundSet, n: int, d, *, budget: int | None = None, threads: int = 1) -> int:
    """Number of n x n matrices over X with determinant d, by full enumeration."""
    hist = _brute_histogram(X, n, budget, threads, "count_det_brute")
    return hist.get(X.field.coerce(d), 0)


# ---------------------------------------------------------------------------
# signed cofactor vector multiplicities


def _cofactor_vector(block, n):
    """Signed first-row cofactors from the bottom (n-1) x n block."""
    out = []
    for j in range(n):
        minor = tuple(r[:j] + r[j + 1 :] for r in block)
        c = _det_rows(minor)
        if j % 2:
            c = -c
        out.append(c)
    return tuple(out)


def _int_table(X: GroundSet, n: int, budget: int | None, what: str):
    """Cofactor table of the lifted set, walked over every bottom block in
    one process: int keys, reduced mod p over F_p once per distinct key (a
    vector that vanishes mod p joins the zero bucket), the zero count, and
    the lift. Needs n >= 2; the |X|^(n(n-1)) blocks are charged to `what`
    before the walk starts."""
    if n < 2:
        raise PreconditionError("cofactor vectors need dimension >= 2")
    check_budget(len(X) ** (n * (n - 1)), budget, what)
    lift = int_lift(X)
    elems = lift.elements
    if n == 3:
        vectors = (
            (y2 * z3 - y3 * z2, y3 * z1 - y1 * z3, y1 * z2 - y2 * z1)
            for y1, y2, y3, z1, z2, z3 in itertools.product(elems, repeat=6)
        )
    else:
        rows = list(itertools.product(elems, repeat=n))
        vectors = (_cofactor_vector(block, n) for block in itertools.product(rows, repeat=n - 1))
    table = Counter(vectors)
    zero = table.pop((0,) * n, 0)
    if lift.modulus:
        residue = lift.modulus.__rmod__
        reduced: dict = {}
        get = reduced.get
        for m, mu in table.items():
            key = tuple(map(residue, m))
            reduced[key] = get(key, 0) + mu
        zero += reduced.pop((0,) * n, 0)
        table = reduced
    return table, zero, lift


def minor_multiplicity_map(
    X: GroundSet, n: int, *, budget: int | None = None, threads: int = 1
) -> MinorMultiplicityMap:
    """Cofactor table of X keyed by canonical field scalars: the int table,
    lowered once per distinct key (an integral rational set's table is kept
    as walked). Walked in-process; `threads` is accepted and unused."""
    table, zero, lift = _int_table(X, n, budget, "minor_multiplicity_map")
    if not lift.is_identity:
        table = {tuple(lift.lower(c, n - 1) for c in m): mu for m, mu in table.items()}
    return MinorMultiplicityMap(n, X, table, zero)


# ---------------------------------------------------------------------------
# first-row cofactor engine


def _rowblock_table(X: GroundSet, n: int, budget: int | None, what: str):
    """Int cofactor table of the lifted set for a rowblock engine, merged into
    sorted-key classes: the distribution of <m, r> over r in X^n does not
    change when the coordinates of m are permuted, so each class is handled
    once. The blocks `_int_table` charged are returned for the engine to add
    its own steps to."""
    table, zero, lift = _int_table(X, n, budget, what)
    classes = Counter()
    for m, mu in table.items():
        classes[tuple(sorted(m))] += mu
    return classes, zero, lift, len(X) ** (n * (n - 1))


def count_det_rowblock(
    X: GroundSet, n: int, d, *, budget: int | None = None, threads: int = 1
) -> int:
    """Same count as count_det_brute, via cofactor-vector multiplicities, all
    in ints: each sorted-key class m of multiplicity mu is the form
    (m, target, mu) of the linear-form kernel `_count_forms`, which charges
    the budget on top of the table's blocks. At n = 2 the count is the
    product correlation `count_det_conv_n2`. The table is walked in-process;
    `threads` is the registry's signature."""
    if n == 2:
        return count_det_conv_n2(X, d, budget=budget)
    what = "count_det_rowblock"
    classes, zero, lift, spent = _rowblock_table(X, n, budget, what)
    target = lift.target(d, n)
    if target is None:
        return 0
    forms = ((m, target, mu) for m, mu in classes.items())
    total = _count_forms(forms, lift.elements, lift.modulus, budget, what, spent)
    return total + (zero * len(X) ** n if not target else 0)


def _pair_products(elems) -> Counter:
    """P(t) = #{(u, v) in elems^2 : u*v = t}."""
    return Counter(u * v for u, v in itertools.product(elems, repeat=2))


def count_det_conv_n2(X: GroundSet, d, *, budget: int | None = None) -> int:
    """D_2(X, d) as a product-distribution correlation: sum_t P(t) * P(t - d),
    in ints over the lifted set (target L^2 d, 0 when that is not an integer;
    over F_p the pair products are reduced mod p once). The budget is charged
    |X|^2 for the pair-product table P, then |X|^2 + |P| for the lookups."""
    what = "count_det_conv_n2"
    check_budget(len(X) ** 2, budget, what)
    lift = int_lift(X)
    target = lift.target(d, 2)
    if target is None:
        return 0
    elems, p = lift.elements, lift.modulus
    prod = Counter(u * v % p for u, v in itertools.product(elems, repeat=2)) if p else _pair_products(elems)
    check_budget(len(X) ** 2 + len(prod), budget, what)
    get = prod.get
    if p:
        return sum(c * get((t - target) % p, 0) for t, c in prod.items())
    return sum(c * get(t - target, 0) for t, c in prod.items())


# Count engines by name, each called as f(X, n, d, *, budget, threads).
COUNT_ENGINES = {"brute": count_det_brute, "rowblock": count_det_rowblock}


# ---------------------------------------------------------------------------
# spectra


def _spectrum_brute(X: GroundSet, n: int, *, budget: int | None, threads: int) -> dict:
    hist = _brute_histogram(X, n, budget, threads, "det_spectrum[brute]")
    return {X.field.coerce(k): v for k, v in hist.items()}


def _spectrum_rowblock(X: GroundSet, n: int, *, budget: int | None, threads: int) -> dict:
    """Int histogram of <m, r> over r in X^n, summed over the sorted-key
    classes m with their multiplicities, by a fold over the trie of class
    keys. Each class starts as the dict {0: mu}; at every level each node
    (..., c) shift-adds its dict by c*x for x in X into its parent's dict,
    until the root () holds the histogram; over F_p every sum is reduced mod
    p, which keeps each dict within p entries (at |X| = 6 over F_101 the
    fold without it took 1.7 to 2.8 times as long). Before a level runs, the
    budget is charged |X| per entry of the dicts it will shift (|X| per
    class at the leaf level). At the end each int is lowered to its field
    scalar, one to one: k / L^n over Q, a residue over F_p."""
    what = "det_spectrum[rowblock]"
    B = len(X)
    classes, zero, lift, spent = _rowblock_table(X, n, budget, what)
    elems, p = lift.elements, lift.modulus
    nodes = {m: {0: mu} for m, mu in classes.items()}
    for _ in range(n):
        spent += B * sum(map(len, nodes.values()))
        check_budget(spent, budget, what)
        parents: dict = {}
        for q, dist in nodes.items():
            _shift_add(parents.setdefault(q[:-1], {}), dist, [q[-1] * x for x in elems], p)
        nodes = parents
    hist = nodes.get((), {})
    if zero:
        hist[0] = hist.get(0, 0) + zero * B**n
    if lift.is_identity:
        return hist
    return {lift.lower(k, n): v for k, v in hist.items()}


# Spectrum engines by name, each called as f(X, n, *, budget, threads) and
# returning canonical field-scalar keys.
SPECTRUM_ENGINES = {"brute": _spectrum_brute, "rowblock": _spectrum_rowblock}


def det_spectrum(
    X: GroundSet, n: int, engine: str = "brute", *, budget: int | None = None, threads: int = 1
) -> SpectrumHistogram:
    """Full determinant distribution d -> D_n(X, d)."""
    if engine not in SPECTRUM_ENGINES:
        raise PreconditionError(f"unknown spectrum engine {engine!r}")
    hist = SPECTRUM_ENGINES[engine](X, n, budget=budget, threads=threads)
    return SpectrumHistogram(n, X, engine, hist)


def dsup(
    X: GroundSet,
    n: int,
    exclude_zero: bool,
    *,
    engine: str = "rowblock",
    budget: int | None = None,
    threads: int = 1,
) -> tuple[Scalar, int]:
    """Argmax of the spectrum; ties resolved to the smallest |d| then positive
    sign over the rationals, and to the smallest residue over a prime field."""
    if n < 2 and engine == "rowblock":
        engine = "brute"
    spec = det_spectrum(X, n, engine, budget=budget, threads=threads)
    items = spec.entries.items()
    if exclude_zero:
        items = [(k, v) for k, v in items if k]
        if not items:
            raise PreconditionError("spectrum has no nonzero determinant values")
    best = max(v for _, v in items)
    candidates = [k for k, v in items if v == best]
    if X.field.is_rational:
        d = min(candidates, key=lambda k: (abs(k), 0 if k >= 0 else 1))
    else:
        d = min(candidates)
    return d, best


def find_witness(X: GroundSet, n: int, d, *, budget: int | None = None) -> Matrix | None:
    """First enumerated matrix with determinant d, or None."""
    check_budget(len(X) ** (n * n), budget, "find_witness")
    target = X.field.coerce(d)
    for rows in itertools.product(itertools.product(X.elements, repeat=n), repeat=n):
        if _det_rows(rows) == target:
            return Matrix(n, n, tuple(v for r in rows for v in r), X.field)
    return None


# ---------------------------------------------------------------------------
# rank counting and bordered decomposition


def count_rank(X: GroundSet, m: int, n: int, r: int, *, budget: int | None = None) -> int:
    """Number of m x n matrices over X with rank exactly r."""
    if not (0 <= r <= m <= n):
        raise PreconditionError("need 0 <= r <= m <= n")
    check_budget(len(X) ** (m * n), budget, "count_rank")
    count = 0
    for rows in itertools.product(itertools.product(X.elements, repeat=n), repeat=m):
        if _rank_rows(rows) == r:
            count += 1
    return count


def count_decomposition(
    X: GroundSet, n: int, d, *, budget: int | None = None
) -> DecompositionCounts:
    """Partition the det-d matrices by the bordered block form: corner entry
    x = 0, then x != 0 split by whether the leading (n-1) block is singular."""
    if n < 2:
        raise PreconditionError("decomposition needs dimension >= 2")
    check_budget(len(X) ** (n * n), budget, "count_decomposition")
    target = X.field.coerce(d)
    x_zero = y_sing = y_reg = 0
    for rows in itertools.product(itertools.product(X.elements, repeat=n), repeat=n):
        if _det_rows(rows) != target:
            continue
        corner = rows[-1][-1]
        if not corner:
            x_zero += 1
            continue
        block = tuple(r[: n - 1] for r in rows[: n - 1])
        if _det_rows(block):
            y_reg += 1
        else:
            y_sing += 1
    return DecompositionCounts(x_zero, y_sing, y_reg)
