"""Counting engines for determinant spectra, rank counts, and block decompositions.

Counts are plain Python ints (arbitrary precision). Two independent routes are
always available: full enumeration with a definition-level determinant (the
master oracle), and a first-row cofactor engine that enumerates the bottom
(n-1) x n block once, aggregates multiplicities of the signed cofactor vector,
merges vectors that are permutations of each other into one sorted-key class,
and counts the first rows per class by a fold over the trie of class keys.

Each enumeration is one walk over itertools.product. Only the brute oracle
shards its walk: `_brute_walk` restricts the leading coordinate (the
top-left entry) to a shard of the ground set, workers take contiguous shards
and their histograms merge by key-wise addition, so totals are identical for
any worker count. The cofactor table is walked in one process at any worker
count: shipping each worker's table back cost more than the walk it saved.

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
int table is already canonical. The `conv` engine lifts X the same way and
correlates int pair products against L^2 d (or the residue of d).

The rowblock engines group the classes by the prefixes of their sorted
keys. The distribution of <q, r> over r in X^len(q) for a prefix q is that
of q[:-1] shifted by q[-1]*y for each y in X (`_shift_add`): the count
builds it once per distinct proper prefix and does |X| lookups per class;
the spectrum folds the weighted classes from the leaves up to the root ().

Every pivot solve in the package goes through one linear-form kernel:
`_count_form` counts #{r in X^k : <c, r> = t} by solving one pivot
coordinate exactly per choice of the others. Its callers are
`MinorPlanes.det_count_via_incidences` and the curve half of
`incidence.curve_incidences_n3`, on lifted ints (with the modulus over
F_p), and `energy.count_bilinear`, on field scalars. The oracles those
routes are checked against use neither the kernel, the prefix fold, the
sorted-key table nor the lift:
`count_det_brute`, `_spectrum_brute`, `find_witness`, `count_rank`,
`count_decomposition`, `energy.count_bilinear_brute`,
`incidence.incidences_brute`, the `energy_*_brute` counts and the direct half
of `curve_incidences_n3`.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .errors import PreconditionError, check_budget
from .matrices import Matrix, _det_rows, _rank_rows
from .parallel import merge_tables, run_chunked
from .scalars import GroundSet, Scalar, int_lift


# ---------------------------------------------------------------------------
# linear-form kernel: #{r in X^k : <coeffs, r> = target}


def _count_form(coeffs, target, elems, modulus: int | None = None) -> int:
    """#{r in elems^k : <coeffs, r> = target}. The first nonzero coordinate is
    the pivot p, solved exactly for each choice of the others: with
    s = target - (the other terms), r_p = s / c_p lies in X exactly when s
    lies in c_p * X, so membership needs no division and is exact for int,
    Fraction and Mod alike. With a `modulus`, coeffs, target and elems are
    residues and each sum is reduced once; the pivot is invertible mod a
    prime, so membership stays exact. An all-zero `coeffs` gives |X|^k or 0."""
    piv = next((j for j, c in enumerate(coeffs) if c), None)
    if piv is None:
        return 0 if target else len(elems) ** len(coeffs)
    scaled = {coeffs[piv] * e for e in elems}
    sums = [target]
    for j, c in enumerate(coeffs):
        if j != piv:
            terms = [c * e for e in elems]
            sums = [s - t for s in sums for t in terms]
    if modulus:
        scaled = {s % modulus for s in scaled}
        sums = [s % modulus for s in sums]
    return sum(map(scaled.__contains__, sums))


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


def _brute_histogram(X: GroundSet, n: int, budget: int | None, threads: int, what: str) -> dict:
    if n < 1:
        raise PreconditionError("dimension must be >= 1")
    B = len(X)
    total = B ** (n * n)
    check_budget(total, budget, what)
    return merge_tables(run_chunked(_brute_walk, (X.elements, n), B, total, threads))


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


def _int_table(X: GroundSet, n: int):
    """Cofactor table of the lifted set, walked over every bottom block in
    one process: int keys, reduced mod p over F_p once per distinct key (a
    vector that vanishes mod p joins the zero bucket), the zero count, and
    the lift."""
    lift = int_lift(X)
    elems = lift.elements
    if n == 2:
        vectors = ((y2, -y1) for y1, y2 in itertools.product(elems, repeat=2))
    elif n == 3:
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
    if n < 2:
        raise PreconditionError("cofactor vectors need dimension >= 2")
    check_budget(len(X) ** (n * (n - 1)), budget, "minor_multiplicity_map")
    table, zero, lift = _int_table(X, n)
    if not lift.is_identity:
        table = {tuple(lift.lower(c, n - 1) for c in m): mu for m, mu in table.items()}
    return MinorMultiplicityMap(n, X, table, zero)


# ---------------------------------------------------------------------------
# first-row cofactor engine


def _rowblock_table(X: GroundSet, n: int, budget: int | None, what: str):
    """Int cofactor table of the lifted set for a rowblock engine, merged into
    sorted-key classes: the distribution of <m, r> over r in X^n does not
    change when the coordinates of m are permuted, so each class is handled
    once. The budget is checked on the table build before it runs; the
    blocks charged are returned for the engine to add its own steps to."""
    if n < 2:
        raise PreconditionError("rowblock engine needs dimension >= 2")
    blocks = len(X) ** (n * (n - 1))
    check_budget(blocks, budget, what)
    table, zero, lift = _int_table(X, n)
    classes = Counter()
    for m, mu in table.items():
        classes[tuple(sorted(m))] += mu
    return classes, zero, lift, blocks


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


def count_det_rowblock(
    X: GroundSet, n: int, d, *, budget: int | None = None, threads: int = 1
) -> int:
    """Same count as count_det_brute, via cofactor-vector multiplicities, all
    in ints. Classes are grouped by the prefix m[:-1] of their sorted key:
    the value distribution of <q, r> over r in X^len(q) is built once per
    distinct prefix q, from its parent q[:-1] by shifting with q[-1]*y for y
    in X (mod p over F_p), and a class (q, c) then needs |X| lookups of
    target - c*x. The budget is charged |X| per parent entry for each prefix
    built, level by level before the level runs, and |X| per class with the
    last level. The table is walked in-process; `threads` is the registry's
    signature."""
    what = "count_det_rowblock"
    B = len(X)
    classes, zero, lift, spent = _rowblock_table(X, n, budget, what)
    target = lift.target(d, n)
    if target is None:
        return 0
    elems, p = lift.elements, lift.modulus
    groups: dict = {}
    for m, mu in classes.items():
        groups.setdefault(m[:-1], []).append((m[-1], mu))
    dists = {(): {0: 1}}
    for k in range(1, n - 1):
        prefixes = {q[:k] for q in groups}
        spent += B * sum(len(dists[q[:-1]]) for q in prefixes)
        check_budget(spent, budget, what)
        dists = {q: _shift_add({}, dists[q[:-1]], [q[-1] * y for y in elems], p) for q in prefixes}
    # one last-level distribution at a time: holding them all raised the
    # peak memory of a GP 10 count from 110 to 133 MB
    spent += B * sum(len(dists[q[:-1]]) for q in groups)
    check_budget(spent + B * len(classes), budget, what)
    total = zero * B**n if not target else 0
    for q, members in groups.items():
        get = _shift_add({}, dists[q[:-1]], [q[-1] * y for y in elems], p).get
        for c, mu in members:
            keys = [target - c * x for x in elems]
            if p:
                keys = [v % p for v in keys]
            total += mu * sum(get(k, 0) for k in keys)
    return total


def _pair_products(elems) -> Counter:
    """P(t) = #{(u, v) in elems^2 : u*v = t}."""
    return Counter(u * v for u, v in itertools.product(elems, repeat=2))


def count_det_conv_n2(X: GroundSet, d) -> int:
    """D_2(X, d) as a product-distribution correlation: sum_t P(t) * P(t - d),
    in ints over the lifted set (target L^2 d, 0 when that is not an integer;
    over F_p the pair products are reduced mod p once)."""
    lift = int_lift(X)
    target = lift.target(d, 2)
    if target is None:
        return 0
    p = lift.modulus
    if p:
        prod = Counter(u * v % p for u, v in itertools.product(lift.elements, repeat=2))
        return sum(c * prod.get((t - target) % p, 0) for t, c in prod.items())
    prod = _pair_products(lift.elements)
    return sum(c * prod.get(t - target, 0) for t, c in prod.items())


def _count_conv(X: GroundSet, n: int, d, *, budget: int | None = None, threads: int = 1) -> int:
    if n != 2:
        raise PreconditionError("conv engine is the n = 2 product-correlation path")
    check_budget(len(X) ** 2, budget, "count_det_conv_n2")
    return count_det_conv_n2(X, d)


# Count engines by name, each called as f(X, n, d, *, budget, threads).
COUNT_ENGINES = {"brute": count_det_brute, "rowblock": count_det_rowblock, "conv": _count_conv}


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
