"""Counting engines for determinant spectra and rank counts.

Counts are plain Python ints (arbitrary precision). Two independent routes are
always available: full enumeration with a definition-level determinant (the
master oracle), and a first-row cofactor engine that tallies the signed
cofactor vector of the bottom (n-1) x n block by sorted-key class (vectors
that are permutations of each other share a class), pairs each class with
its negation, and counts the first rows per pair by a fold over the trie of
pair keys.

Each enumeration is one walk over itertools.product. Only the brute oracle
shards its walk over a process pool (`_brute_histogram`), and its totals are
identical for any worker count. The cofactor table is walked in one process
at any worker count: shipping each worker's table back cost more than the
walk it saved.

At n = 2 the rowblock engines walk no cofactor classes: D_2(X, d) is the
difference-correlation of the lifted pair products P(t) = #{uv = t}, read
at d by `_conv_n2` (|X|^2 steps where the linear-form kernel takes |X|^3)
and everywhere by `_cross_terms`. Nor does the singular n = 3
count (lifted target 0): `_singular_n3` projects X^3 along each top row,
one sorted row per primitive direction, and counts the pairs of points on
one line through the origin, in |X|^3 steps per direction and memory flat
in |X|. One row's count is `_singular_pairs`; its second caller is the
direct half of `incidence.curve_incidences_n3`, at the row (1, 1, 1).

The one cofactor walk is `_class_table`, at n >= 3: on the set lifted to
plain ints by `scalars.int_lift` (L*X over Q, residues over F_p) it tallies
the signed cofactor vectors by sorted-key class, with the zero vector apart.
It is one stream of (weight, tally) chunks through three stages. `_seed`
walks one top block of two rows per column multiset (read from a table of
the 2 x 2 determinants of column pairs), the last two column indices in
bulk with one `Counter.update` per pair of column runs. At n >= 4 each
further row of the (n - 1)-row block is one `_wedge` level, a Laplace
expansion of the level vectors below, merged with their negations first.
`_fold` is the one weighted merge: by the row swap it keys each vector by
the smaller of it and its negation, so the walk returns one key per +-
pair of classes (`_mirror`) with the pair's mass; over Q a sorted key
whose first and last entries sum below 0 is the smaller one, and its
mirror is never built (at n = 3 it is built by indexing). The rowblock
count maps its target into the lifted problem (L^n d, or the residue of
d) and counts in ints; the rowblock spectrum builds an int histogram,
mirrors it in place and lowers each distinct value to a field scalar at
the end.
`energy.energy_Estar_mu` and `energy.dyadic_pyramid` divide each pair's
mass by its class size (`_class_size`); `minor_multiplicity_map` and
`incidence.planes_from_minors` expand the pairs into their vectors
(`_pair_vectors`), and only `minor_multiplicity_map` lowers its keys to
field scalars.

Every linear-form count in the package goes through one kernel: it sums
w * #{r in X^k : <c, r> = t} over forms (c, t, w). `_group_forms` holds
its one orientation rule and merges the forms: each looks up its lead,
one entry of c (over Q, after negating (c, t) when need be, the entry of
largest absolute value; over F_p the largest residue), and equal forms
merge by prefix, the other entries, sorted. `_count_groups` counts the
merged forms: it builds one value distribution per distinct prefix, then
does |X| lookups per merged form and target, from one list of multiples
of the lead per distinct lead, and from one list of lookups per (lead,
target) that recurs under other prefixes. The
callers are `count_det_rowblock` through `_count_by_classes` (on lifted
ints, each pair key over Q divided by the gcd of its entries, as is the
target, and one form per key, looked up at d and, where -d differs, at -d
too; the pair keys are already sorted and oriented, so it groups them for
`_count_groups` itself, as they leave the walk; at n = 3 it is reached at
d != 0 only, and stays the oracle of `_singular_n3` at d = 0),
`MinorPlanes.det_count_via_incidences`, the curve half of
`incidence.curve_incidences_n3` (its |U|^4 forms share at most
(2|U| - 1)^2 directions and come in swapped pairs; it orients each
unordered pair of directions once, by its lead (`_by_lead`), and merges
its offsets into the kernel's groups itself, weight 2 per swapped pair)
and `energy.count_bilinear` (lifted ints, with the modulus over F_p). The
rowblock spectrum at n >= 3 folds the
weighted pair keys over the same prefix trie, from the leaves up to the
root, one first entry's subtree at a time. At n = 3 over Q it files a key
(a, b, c) under the leaf (a, u), with u the one of b and c larger in |.|,
so that the leaf's dict holds the narrower multiples of the other. A
dense level of a subtree holds each node's distribution packed into one
int (`_pack`, `_shift_add_packed`), from there up to the root, with
cyclic slots over F_p. The oracles of those routes use none of the
kernel, the fold, the class walk, the pair-product correlation or the
lift:
`count_det_brute`, `_spectrum_brute`, `count_rank`,
`energy.count_bilinear_brute`, `incidence.incidences_brute` and the
`energy_*_brute` counts. The direct half of `curve_incidences_n3`, whose
count the curve half checks, uses none of the kernel, but shares
`_singular_pairs` and the lift with `_singular_n3`; the six-variable loop
`tests/test_incidence.py::_curve_solutions` stays the lift-free oracle of
both halves.

Each public call makes one `errors.Meter`, named for itself, and passes it
to the class walk, the kernel, the projection and the brute histogram;
every phase charges its own steps to it before it runs, so a refusal
reports the call's total.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import add, attrgetter, getitem, neg

from .errors import Meter, PreconditionError
from .matrices import _det_rows, _eliminate
from .scalars import GroundSet, IntLift, Scalar, int_lift


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


# Slot widths of a packed value distribution: one int whose slot i holds the
# count of the value lo + i, in native-order bytes for `memoryview.cast`.
_SLOT_BITS = {8: "B", 16: "H", 32: "I", 64: "Q"}

# A level of the spectrum fold packs (`_dense`) when the slots its nodes span
# once shifted, plus _NODE_SLOTS per node for the fixed cost of packing and
# shifting one, come to at most K = _PACK_SPAN per entry. The fold's time
# against never packing, medians of 7-21 alternating calls on a 2-core host
# (Python 3.11.7), at K = 32 and 256 slots per node: interval 6 0.66,
# interval 8 0.52, {-3, ..., 3} 0.62, random 8 in +-12 0.49, random 7 in
# +-30 0.87, interval 3 at n = 4 0.96, GP(2) 6 1.01 (it never packs). With
# no slots per node, interval 2 and 3 at n = 4 read 1.52 and 1.12; K = 16
# left interval 6 at 0.81; K = 64 with 512 slots per node read 1.04 on
# random 7 in +-30. Over F_p, where a node spans p slots, the same K and
# slots per node read 0.92 on F_101 interval 4, 0.71 on interval 6, 0.59 on
# interval 8 and 0.73 on F_31 interval 6; F_10007 interval 6 and the small
# F_5 and F_7 sets never pack (packing every level read 1.83 on F_10007).
_PACK_SPAN = 32
_NODE_SLOTS = 256


def _pack(dist: dict, width: int) -> tuple:
    """The value distribution `dist` packed: (lo, P) with lo its least value
    and slot i of P, `width` bits wide, holding dist[lo + i]."""
    lo = min(dist)
    buf = bytearray((max(dist) - lo + 1) * width // 8)
    view = memoryview(buf).cast(_SLOT_BITS[width])
    for v, c in dist.items():
        view[v - lo] = c
    return lo, int.from_bytes(buf, sys.byteorder)


def _shift_add_packed(into: tuple | None, node: tuple, terms, width: int, modulus: int | None = None) -> tuple:
    """The packed distribution `into` (None for an empty one) plus the packed
    `node` shifted by each term: `_shift_add` in |terms| big-int shifts and
    adds. The shifted copies are summed before they meet `into`, which may be
    much longer, and the sum takes the lower of the two least values. With a
    `modulus` p (terms and values residues) the slots are cyclic: the sum is
    rebased to least value 0 and its slots from p on, at most p - 1 of them,
    fold back onto the low end, so a packed node holds at most p slots."""
    lo, packed = node
    low = min(terms)
    packed = sum([packed << width * (t - low) for t in terms])
    lo += low
    if modulus:
        packed <<= width * lo
        high = packed >> width * modulus
        packed += high - (high << width * modulus)
        lo = 0
    if into is None:
        return lo, packed
    base, total = into
    if base <= lo:
        return base, total + (packed << width * (lo - base))
    return lo, packed + (total << width * (base - lo))


def _nonzero_slots(nodes, width: int) -> int:
    """Number of nonzero `width`-bit slots over the packed (lo, P) `nodes`,
    their slots laid end to end in one int: OR-ing each slot's bits down
    onto its lowest only reads bits of that slot."""
    size = width // 8
    data = b"".join([P.to_bytes(-(-P.bit_length() // width) * size, "little") for _, P in nodes])
    packed = int.from_bytes(data, "little")
    s = width // 2
    while s:
        packed |= packed >> s
        s //= 2
    return (packed & int.from_bytes((1).to_bytes(size, "little") * (len(data) // size), "little")).bit_count()


def _group_forms(forms, modulus: int | None) -> dict:
    """The forms (c, t, w) of plain ints, all of one length, merged as
    `_count_groups` takes them, {q: {(a, t'): w}}. The count of a form
    does not change when c is permuted, nor when (c, t) is negated, so each
    form is oriented: it looks up one entry a of c, its lead, and the other
    entries, sorted, are its prefix q. With a `modulus`, the lead is c's
    largest residue and t' = t mod that prime; without, it is c's entry of
    largest absolute value, the negative one on a tie, and (c, t) is
    negated when that entry is positive. Equal forms merge, their weights
    added. `_by_lead` orders entries by the same rule."""
    groups: dict = {}
    for c, t, w in forms:
        if modulus:
            c = sorted([x % modulus for x in c])
            q, key = tuple(c[:-1]), (c[-1], t % modulus)
        else:
            c = sorted(c)
            if c[-1] > -c[0]:
                c, t = sorted(map(neg, c)), -t
            q, key = tuple(c[1:]), (c[0], t)
        members = groups.get(q)
        if members is None:
            members = groups[q] = {}
        members[key] = members.get(key, 0) + w
    return groups


def _by_lead(values, modulus: int | None) -> list:
    """The distinct plain ints `values` (residues with a `modulus`) sorted so
    that each one is the lead (`_group_forms`) of every pair it forms with a
    later one: descending with a modulus; without, by descending absolute
    value, x < 0 before -x."""
    return sorted(values, key=(lambda x: -x) if modulus else (lambda x: (-abs(x), x)))


def _count_forms(forms, elems, modulus: int | None, meter: Meter) -> int:
    """Sum of w * #{r in elems^k : <c, r> = t} over the forms (c, t, w) of
    plain ints, all of one length k >= 2: `_count_groups` on the merged
    forms of `_group_forms`."""
    return _count_groups(_group_forms(forms, modulus), elems, modulus, meter)


# The merged forms of one (a, t), t != 0, look up t - a*x (and -t - a*x if
# paired) under each prefix. The first such form in a call shifts the list
# of -a*x lazily and marks the (a, t); the second builds one list of its
# lookups, which the later ones reuse. A list at every first form made the
# curve count on random 16 in +-10^6, whose 16,441 (a, t) all differ, 1.29x
# slower. Tests set `_LIST_SIGHTING` to 1 (a list at the first form) and
# to 0 (no lists) against its 2.
_LIST_SIGHTING = 2


def _count_groups(groups: dict, elems, modulus: int | None, meter: Meter, paired: bool = False) -> int:
    """Sum of w * #{r in elems^k : a*r_0 + <q, r'> = t} over the merged
    forms {q: {(a, t): w}} of plain ints, every prefix q of one length
    k - 1 >= 1; if `paired`, a form with t != 0 counts at t and at -t, w
    times the sum of the two. The value distribution of <q, r'> over r' in
    X^len(q) is built from that of q[:-1] by shifting with q[-1]*y for each
    y in X (`_shift_add`), once per distinct prefix, from the root {0: 1};
    a merged form then needs |X| lookups of t - a*x (2|X| if `paired`).
    They come from one list of -a*x per distinct a, the lookups at t = 0,
    shifted by t as they are looked up, until an (a, t) recurs under
    another prefix: from its second form on, one list of its own lookups
    serves it (`_LIST_SIGHTING`). With a `modulus`, every key is reduced
    mod that prime. The `meter` is charged level by level before the level
    runs: |X| per parent entry for each prefix built, and with the last
    level the lookups, |X| or 2|X| per merged form. An all-zero form counts
    |X|^k when t = 0 and 0 otherwise."""
    if not groups:
        return 0
    B = len(elems)
    k = len(next(iter(groups))) + 1
    dists = {(): {0: 1}}
    for j in range(1, k - 1):
        prefixes = {q[:j] for q in groups}
        meter.charge(B * sum(len(dists[q[:-1]]) for q in prefixes))
        dists = {q: _shift_add({}, dists[q[:-1]], [q[-1] * y for y in elems], modulus) for q in prefixes}
    # one last-level distribution at a time: holding them all raised the
    # peak memory of a GP 10 count from 110 to 133 MB
    meter.charge(B * (sum(len(dists[q[:-1]]) for q in groups) + (1 + paired) * sum(map(len, groups.values()))))
    # (a, t): its list of lookups, or 0 once its first form is seen; at
    # (a, 0) the list of -a*x
    lookups: dict = {}
    listed = _LIST_SIGHTING
    # one endless default for every dist.get, never exhausted
    zeros = repeat(0)
    total = 0
    for q, members in groups.items():
        dist = _shift_add({}, dists[q[:-1]], [q[-1] * y for y in elems], modulus)
        get = dist.get
        for key, w in members.items():
            keys = lookups.get(key)
            if not keys:
                a, t = key
                base = lookups.get((a, 0))
                if base is None:
                    base = lookups[a, 0] = [-a * x % modulus for x in elems] if modulus else [-a * x for x in elems]
                if not t:
                    keys = base
                else:
                    found = map(add, base, repeat(t))
                    if paired:
                        found = chain(found, map(add, base, repeat(-t)))
                    if modulus:
                        found = map(modulus.__rmod__, found)
                    if keys is None and listed != 1:
                        if listed:
                            lookups[key] = 0
                        keys = found
                    else:
                        keys = lookups[key] = list(found)
            total += w * sum(map(get, keys, zeros))
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
        """The entries by ascending d: over a prime field by residue."""
        if self.ground_set.field.is_rational:
            return sorted(self.entries.items())
        return sorted(self.entries.items(), key=lambda item: item[0].residue)

    def argmax(self, exclude_zero: bool) -> tuple[Scalar, int]:
        """The most frequent determinant and its count, ties resolved to the
        smallest |d| then positive sign over the rationals, and to the
        smallest residue over a prime field."""
        items = self.entries.items()
        if exclude_zero:
            items = [(k, v) for k, v in items if k]
            if not items:
                raise PreconditionError("spectrum has no nonzero determinant values")
        best = max(v for _, v in items)
        candidates = [k for k, v in items if v == best]
        if self.ground_set.field.is_rational:
            d = min(candidates, key=lambda k: (abs(k), 0 if k >= 0 else 1))
        else:
            d = min(candidates, key=attrgetter("residue"))
        return d, best


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


def _brute_histogram(X: GroundSet, n: int, meter: Meter, threads: int) -> Counter:
    """Determinant histogram of X^(n x n), keyed by canonical field scalars.
    From `_MIN_PARALLEL_ITEMS` matrices on, `threads` workers walk contiguous
    shards of the leading coordinate's values (at most |X| of them) and their
    partials are summed key-wise. Over F_p the walk multiplies residues as
    plain ints, and ints that share a residue are summed into one key. The
    `meter` is charged one step per matrix before the walk."""
    if n < 1:
        raise PreconditionError("dimension must be >= 1")
    B = len(X)
    total = B ** (n * n)
    meter.charge(total)
    field = X.field
    elems = X.elements if field.is_rational else tuple(e.residue for e in X)
    if threads <= 1 or total < _MIN_PARALLEL_ITEMS:
        parts = [_brute_walk(elems, n, 0, B)]
    else:
        # imported here, at the one use of a pool: the import is a sixth of `import detlab`
        from concurrent.futures import ProcessPoolExecutor

        workers = min(threads, B)
        cuts = [B * i // workers for i in range(workers + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            shards = zip(cuts, cuts[1:])
            futures = [pool.submit(_brute_walk, elems, n, start, stop) for start, stop in shards]
            parts = [f.result() for f in futures]
    hist = Counter()
    for part in parts:
        for k, v in part.items():
            hist[field.coerce(k)] += v
    return hist


def count_det_brute(X: GroundSet, n: int, d, *, budget: int | None = None, threads: int = 1) -> int:
    """Number of n x n matrices over X with determinant d, by full enumeration."""
    hist = _brute_histogram(X, n, Meter(budget, "count_det_brute"), threads)
    return hist.get(X.field.coerce(d), 0)


# ---------------------------------------------------------------------------
# signed cofactor vector multiplicities, by +- pair of sorted-key classes


def _perms(key) -> int:
    """Number of distinct permutations of the sorted tuple `key`: len(key)!
    over the product of (run length)! for its runs of equal entries."""
    count, run = math.factorial(len(key)), 1
    for a, b in zip(key, key[1:]):
        run = run + 1 if a == b else 1
        count //= run
    return count


def _mirror(key, p: int | None) -> tuple:
    """Sorted key of -c for the sorted key c: over F_p its leading zeros,
    then p - x for the other residues x in reverse order."""
    if p:
        z = key.count(0)
        return key[:z] + tuple([p - x for x in reversed(key[z:])])
    return tuple(map(neg, key[::-1]))


def _class_size(key, p: int | None) -> int:
    """Cofactor vectors in the +- pair of the sorted n = 3 key c = (a, b, d):
    its 6, 3 or 1 permutations, times 2 unless c is its own mirror, which
    over Q is a = -d and b = 0, and over F_p is p = 2 or a = 0 and
    b + d = 0 mod p."""
    a, b, d = key
    perms = 6 if a != b != d else 3 if a != d else 1
    own = (p == 2 or a == 0 and (b + d) % p == 0) if p else (b == 0 and a == -d)
    return perms if own else 2 * perms


def _seed(elems, p: int | None, n: int):
    """The top blocks of the class walk, as (weight, tally) chunks, the
    largest tally first. A column permutation s maps the cofactor vector m
    to sgn(s)*s(m), so the walk takes one top block per column multiset,
    weighted by its distinct orderings (`_perms`). The top block is the
    first two rows: its columns are index multisets i_0 <= ... <= i_{n-1}
    over the |X|^2 lifted columns in X^2, in three runs (x before y in X,
    x = y, x after y), and its 2-minors are read from the table
    D[i][j] = det(col_i, col_j) (mod p over F_p), built once. Swapping the
    two rows maps m to -m and exchanges a multiset's counts of first-run and
    last-run columns: the walk takes a multiset with more in the first run
    at twice its weight, a tie at its weight, and skips the rest. It loops
    over the prefixes P of n - 2 indices and runs the last two, j <= k, in
    bulk: per pair of runs of j and k, the blocks with P[-1] < j < k share
    one weight and are one update over row slices of D, and so are those
    with k = j (one-entry slices) and those with j = P[-1]. At n = 3 the
    tallies hold the signed cofactors (D[j][k], -D[i][k], D[i][j]) sorted;
    at n >= 4 the level-2 Pluecker vectors."""
    B = len(elems)
    tallies: dict = defaultdict(Counter)
    # columns (x, y) with x before y in X, then (x, x), then (y, x): the
    # row swap maps the first run onto the last and fixes the middle one
    ups = list(itertools.combinations(elems, 2))
    cols = [*ups, *zip(elems, elems), *[(y, x) for x, y in ups]]
    D = [[y * v - u * x for x, v in cols] for y, u in cols]
    if p:
        D = [[x % p for x in row] for row in D]
    # D is antisymmetric, so the rows of its transpose N are rows of -D
    N = [list(col) for col in zip(*D)]
    # minor (a, b) of the block P + (j, k) is T[i_a][i_b]: T is N for the
    # n = 3 middle cofactor -D[i_0][i_2], else D
    sources = [(a, b, N if (n, a, b) == (3, 0, 2) else D) for a, b in itertools.combinations(range(n), 2)]
    m, h = n - 2, len(ups)
    # each run with its count toward the swap's lead: +1 first, -1 last
    runs = ((0, h, 1), (h, h + B, 0), (h + B, B * B, -1))
    # per run of j, its lead and each j's slice of k: k = j (t = 2), then k > j in each run from j's on
    blocks = [(lo, hi, 2 * s, 2, [slice(j, j + 1) for j in range(lo, hi)]) for lo, hi, s in runs]
    blocks += [(lo, hi, s + s2, 1, [slice(max(lo2, j + 1), hi2) for j in range(lo, hi)])
               for J, (lo, hi, s) in enumerate(runs) for lo2, hi2, s2 in runs[J:]]
    for P in itertools.combinations_with_replacement(range(B * B), m):
        # j <= k run in bulk above x = P[-1]: rows j > x have perms(P)·n(n-1)/t! orderings,
        # and the row j = x extends x's run of r in P by t, dividing that by (r+1)..(r+t)
        x = P[-1]
        ahead = sum([(i < h) - (i >= h + B) for i in P])
        r = P.count(x)
        w = _perms(P) * n * (n - 1)
        for lo, hi, s, t, sl in blocks:
            # x2 past a tie of first- and last-run columns, x1 at it, else 0
            lead = ahead + s
            f = (lead > 0) + (lead >= 0)
            for j0, j1, c in ((max(lo, x + 1), hi, 0), (x, x + 1, r)):
                if f and lo <= j0 < j1 <= hi:
                    # the vectors of P + (j, k) for j0 <= j < j1 and k in the slice of j
                    ks = sl[j0 - lo :]
                    vectors = chain.from_iterable(map(zip, *[
                        repeat(repeat(T[P[a]][P[b]])) if b < m else map(getitem, D[j0:j1], ks) if a == m
                        else map(repeat, T[P[a]][j0:j1]) if b == m else map(getitem, repeat(T[P[a]]), ks)
                        for a, b, T in sources]))
                    tallies[f * w // math.perm(c + t, t)].update(map(tuple, map(sorted, vectors)) if n == 3 else vectors)
    # largest first: a popped dict does not shrink until it is dropped
    for _, w in sorted(zip(map(len, tallies.values()), tallies), reverse=True):
        yield w, tallies.pop(w)


def _wedge(level: dict, k: int, n: int, elems, p: int | None):
    """One Laplace level of the class walk at n >= 4: each merged level-k
    vector v (one of v and -v, with its mass) and each further row u give
    the level-(k+1) minors, which expansion along u makes linear forms in
    u. Yields one tally per mass (the chunk's weight), built only when
    asked for, so a fold holds one at a time; the last level's vectors are
    the signed cofactors sorted (reduced mod p first over F_p). Empties
    `level`."""
    minors = {S: i for i, S in enumerate(itertools.combinations(range(n), k))}
    last = k == n - 2
    # the coefficient of u_s in the new minor S is a sign times the minor
    # S without s; the last level's S leaves out column n(n-1)/2 - sum(S)
    forms = []
    for S in itertools.combinations(range(n), k + 1):
        sign = (-1) ** (k + last * (n * (n - 1) // 2 - sum(S)))
        form = [(0, 0)] * n
        for i, s in enumerate(S):
            form[s] = (sign * (-1) ** i, minors[S[:i] + S[i + 1 :]])
        forms.append(form)
    by_weight: dict = {}
    for t, w in level.items():
        by_weight.setdefault(w, []).append(t)
    level.clear()
    while by_weight:
        w, ts = by_weight.popitem()
        tally = Counter()
        for t in ts:
            coords = [map(sum, itertools.product(*[[a * t[i] * x for x in elems] for a, i in f])) for f in forms]
            vectors = zip(*[map(p.__rmod__, c) for c in coords] if p else coords)
            tally.update(map(tuple, map(sorted, vectors)) if last else vectors)
        yield w, tally


def _fold(chunks, p: int | None, key_len: int | None) -> dict:
    """The one weighted merge of the class walk: pops each (weight, tally)
    chunk's tally, emptying it, and adds weight times each count under the
    smaller of the vector v and its negation: -v entry by entry for level
    vectors (`key_len` None), the sorted key of -v (`_mirror`) for sorted
    keys of length `key_len`, built by indexing: over F_p the leading zeros
    of v, then p - x for its other residues x in reverse order. Over Q a
    sorted v with v[0] + v[-1] < 0 is below its mirror, which starts at
    -v[-1] > v[0], so the mirror is built only when v[0] + v[-1] >= 0; a
    3-key's mirror is (-v[2], -v[1], -v[0])."""
    merged: dict = {}
    get = merged.get
    for w, tally in chunks:
        # popping frees keys as they fold: interval 16 peaks at 165, not 182 MB
        for v, a in map(dict.popitem, repeat(tally, len(tally))):
            # inlined: a call per entry cost 3-5% of the interval 6 and 8 walks
            if p:
                if key_len == 3:
                    x, y, z = v
                    u = (p - z, p - y, p - x) if x else (0, p - z, p - y) if y else (0, 0, p - z) if z else v
                elif key_len:
                    z = v.count(0)
                    u = v[:z] + tuple([p - x for x in reversed(v[z:])])
                else:
                    u = tuple([-x % p for x in v])
            elif key_len == 3:
                u = (-v[2], -v[1], -v[0]) if v[0] + v[2] >= 0 else v
            elif key_len:
                u = tuple(map(neg, v[::-1])) if v[0] + v[-1] >= 0 else v
            else:
                u = tuple(map(neg, v))
            if u < v:
                v = u
            merged[v] = get(v, 0) + w * a
    return merged


def _class_table(lift: IntLift, n: int, meter: Meter):
    """+- pairs of the cofactor classes of the lifted set `lift` at n >= 3
    and the zero count, from one stream of (weight, tally) chunks: the
    two-row top blocks (`_seed`), at n >= 4 one Laplace level per further
    row of the (n - 1)-row block (`_wedge`, each level vector merged with
    its negation by `_fold` first, since the levels are linear in it), and
    the fold of the sorted cofactor keys. A
    class c and its mirror share a multiplicity mu_c, so each key is the
    smaller of c and `_mirror(c)`, whose value is the pair's mass
    mu_c + mu_-c (mu_c when c is self-paired). The `meter` is charged
    C(|X|^2 + n - 1, n) top blocks (a bound on those walked) before the
    walk, then |X|^n per merged level vector before each further level."""
    elems, p = lift.elements, lift.modulus
    meter.charge(math.comb(len(elems) ** 2 + n - 1, n))
    chunks = _seed(elems, p, n)
    for k in range(2, n - 1):
        level = _fold(chunks, p, None)
        meter.charge(len(level) * len(elems) ** n)
        chunks = _wedge(level, k, n, elems, p)
    pairs = _fold(chunks, p, n)
    zero = pairs.pop((0,) * n, 0)
    for c, mass in pairs.items():
        if mass % 2 and _mirror(c, p) != c:
            raise AssertionError(f"the pair of {c} has an odd mass {mass}")
    return pairs, zero


def _pair_vectors(key, p: int | None) -> set:
    """The cofactor vectors of the +- pair of the sorted key: every
    permutation of it and of its mirror, which the row swap gives one
    multiplicity, the pair's mass over their number."""
    return {*itertools.permutations(key), *itertools.permutations(_mirror(key, p))}


def minor_multiplicity_map(
    X: GroundSet, n: int, *, budget: int | None = None, threads: int = 1
) -> MinorMultiplicityMap:
    """Cofactor table of X keyed by canonical field scalars: the pairs of
    `_class_table` expanded into their vectors and lowered once per
    distinct key (an integral rational set's ints are kept). Walked
    in-process; `threads` is accepted and unused."""
    if n < 3:
        raise PreconditionError("minor_multiplicity_map needs n >= 3")
    lift = int_lift(X)
    pairs, zero = _class_table(lift, n, Meter(budget, "minor_multiplicity_map"))
    table: dict = {}
    for c, mass in pairs.items():
        vectors = _pair_vectors(c, lift.modulus)
        table.update(dict.fromkeys(vectors, mass // len(vectors)))
    if not lift.is_identity:
        table = {tuple(lift.lower(c, n - 1) for c in m): mu for m, mu in table.items()}
    return MinorMultiplicityMap(n, X, table, zero)


# ---------------------------------------------------------------------------
# first-row cofactor engine


def count_det_rowblock(
    X: GroundSet, n: int, d, *, budget: int | None = None, threads: int = 1
) -> int:
    """Same count as count_det_brute, all in ints on the lifted set
    (`scalars.int_lift`), on one meter. A target whose lift L^n d is not an
    integer is reached by no matrix: the count is 0, charged nothing. At
    n = 2 it is the product correlation `_conv_n2`. At n = 3 with a lifted
    target of 0 (d = 0 over Q, d = 0 mod p over F_p) it projects along the
    top row (`_singular_n3`); otherwise it pairs the cofactor classes with
    the first rows (`_count_by_classes`). The table is walked in-process;
    `threads` is the registry's signature."""
    if n < 2:
        raise PreconditionError("count_det_rowblock needs n >= 2")
    meter = Meter(budget, "count_det_rowblock")
    lift = int_lift(X)
    target = lift.target(d, n)
    if target is None:
        return 0
    if n == 2:
        return _conv_n2(lift, target, meter)
    if n == 3 and target == 0:
        return _singular_n3(lift.elements, lift.modulus, meter)
    return _count_by_classes(lift, n, target, meter)


def _count_by_classes(lift: IntLift, n: int, target: int, meter: Meter) -> int:
    """D_n(X, d) at n >= 3 from the cofactor classes of `_class_table`, on
    the lifted set `lift` at the lifted `target`. The row swap: as
    <-m, r> = t iff <m, r> = -t, a pair key m of mass w is the form
    (m, 0, w) at target 0, and at t != 0 one form (m, t, w) looked up at t
    and at -t (`_count_groups`, paired), halved; over F_2, where t = -t, it
    is looked up once, unhalved.
    Integer scaling, over Q: #{r : <g*m, r> = t} is #{r : <m, r> = t/g}
    when g | t and 0 otherwise, so each key is divided by the gcd g of its
    entries and the target by g, and a key whose g does not divide the
    target is dropped. The keys are already in the kernel's shape, so they
    are grouped for `_count_groups` as they are, with no re-sort or
    negation: over Q a pair key is sorted with m[0] + m[-1] <= 0 (it is the
    smaller of a class and its mirror), which dividing by g > 0 keeps, so
    a = m[0] and q = m[1:]; over F_p it is sorted residues, so a = m[-1],
    q = m[:-1] and the lookups are reduced mod p. The pairs are popped as
    they are grouped, so the pairs and the merged forms peak at about the
    size of one. Past the lift, `_perms` and `_mirror` it shares no code
    with `_singular_n3`, so it is that route's oracle at d = 0 beyond brute
    reach."""
    pairs, zero = _class_table(lift, n, meter)
    p = lift.modulus
    # t and -t are one target at t = 0, and over F_2
    paired = bool(2 * target % p if p else target)
    groups: dict = {}
    while pairs:
        m, w = pairs.popitem()
        t = target
        if p:
            a, q = m[-1], m[:-1]
        else:
            g = math.gcd(*m)
            if g != 1:
                if target % g:
                    continue
                m, t = tuple([x // g for x in m]), target // g
            a, q = m[0], m[1:]
        members = groups.get(q)
        if members is None:
            members = groups[q] = {}
        key = (a, t)
        members[key] = members.get(key, 0) + w
    total = _count_groups(groups, lift.elements, p, meter, paired) // (2 if paired else 1)
    return total + (zero * len(lift.elements) ** n if not target else 0)


def _singular_n3(elems, p: int | None, meter: Meter) -> int:
    """D_3(X, 0) on the lifted ints `elems` (residues mod `p` over F_p), by
    projecting along the top row t: `_singular_pairs` counts the (u, r) of
    each t != 0, and t = 0 gives |X|^6. The count of t does not change
    under a column permutation, which fixes X^3, nor under t -> g*t for
    g != 0, so the walk takes the sorted rows, each weighted by its
    orderings (`_perms`), and merges those of one direction: over Q the
    gcd-reduced row, keyed by the smaller of it and its negation sorted
    (`_mirror`); over F_p the row scaled by the inverse of its first nonzero
    residue, sorted. The `meter` is charged C(|X| + 2, 3) sorted rows before
    the walk, then |X|^3 per direction before the tallies J are built."""
    B = len(elems)
    cube = B**3
    meter.charge(math.comb(B + 2, 3))
    directions: dict = {}
    zero = 0
    for t in itertools.combinations_with_replacement(elems, 3):
        w = _perms(t)
        # the row's scale g: its first nonzero residue, or its gcd; 0 for t = 0
        if p:
            g = next((x for x in t if x), 0)
            if g:
                inv = pow(g, -1, p)
                t = tuple(sorted([x * inv % p for x in t]))
        else:
            g = math.gcd(*t)
            if g:
                t = tuple([x // g for x in t])
                t = min(t, _mirror(t, None))
        if g:
            directions[t] = directions.get(t, 0) + w
        else:
            zero += w
    meter.charge(len(directions) * cube)
    total = zero * cube * cube
    for t, w in directions.items():
        total += w * _singular_pairs(t, elems, p)
    return total


def _singular_pairs(t, elems, p: int | None) -> int:
    """#{(u, r) in X^3 x X^3 : det[t; u; r] = 0} for one row t != 0 of
    plain ints, on the lifted ints `elems` (residues mod `p` over F_p). With
    t_k != 0 and the other indices a, b, the functionals
    alpha = t_k e_a - t_a e_k and beta = t_k e_b - t_b e_k vanish exactly on
    the span of t, so [t; u; r] is singular iff (alpha, beta) maps u and r
    onto one line through the origin. With J the tally of
    (alpha(u), beta(u)) over u in X^3, Z = J(0, 0) and M_l its mass on each
    line l, the count is 2 Z |X|^3 - Z^2 + sum_l M_l^2. A point of J is
    keyed by its line: over Q divided by the gcd of its coordinates, signed
    so that the first nonzero one is positive; over F_p its slope
    beta/alpha, and p for alpha = 0. It charges nothing: its callers charge
    |X|^3 per row."""
    k = next(i for i in range(3) if t[i])
    a, b = (i for i in range(3) if i != k)
    J = Counter()
    for z in elems:
        xs = [t[k] * x - t[a] * z for x in elems]
        ys = [t[k] * y - t[b] * z for y in elems]
        if p:
            xs, ys = [x % p for x in xs], [y % p for y in ys]
        J.update(itertools.product(xs, ys))
    Z = J.pop((0, 0), 0)
    lines: dict = {}
    get = lines.get
    for (x, y), c in J.items():
        if p:
            key = y * pow(x, -1, p) % p if x else p
        else:
            g = math.gcd(x, y)
            if x < 0 or not x and y < 0:
                g = -g
            key = (x // g, y // g)
        lines[key] = get(key, 0) + c
    return 2 * Z * len(elems) ** 3 - Z * Z + sum([m * m for m in lines.values()])


def _pair_products(elems, p: int | None = None) -> Counter:
    """P(t) = #{(u, v) in elems^2 : u*v = t}, mod `p` when one is given."""
    products = (u * v for u, v in itertools.product(elems, repeat=2))
    return Counter((t % p for t in products) if p else products)


def _cross_terms(P: dict, p: int | None = None) -> dict:
    """t -> #{a - b = t} over independent draws a, b from P, one update per
    ordered pair of values; with `p` each difference is then reduced mod p."""
    table: dict = {}
    get = table.get
    for t1, c1 in P.items():
        for t2, c2 in P.items():
            s = t1 - t2
            table[s] = get(s, 0) + c1 * c2
    return _shift_add({}, table, [0], p) if p else table


def _conv_n2(lift: IntLift, target: int, meter: Meter) -> int:
    """D_2(X, d) as a product-distribution correlation: sum_t P(t) * P(t - t'),
    in ints over the lifted set `lift` with the lifted target t' = L^2 d (over
    F_p the pair products are reduced mod p once). The `meter` is charged
    |X|^2 for the pair-product table P, then |P| for the lookups."""
    meter.charge(len(lift.elements) ** 2)
    p = lift.modulus
    prod = _pair_products(lift.elements, p)
    meter.charge(len(prod))
    return sum(c * prod.get((t - target) % p if p else t - target, 0) for t, c in prod.items())


# Count engines by name, each called as f(X, n, d, *, budget, threads).
COUNT_ENGINES = {"brute": count_det_brute, "rowblock": count_det_rowblock}


# ---------------------------------------------------------------------------
# spectra


def _spectrum_brute(X: GroundSet, n: int, *, budget: int | None, threads: int) -> dict:
    return dict(_brute_histogram(X, n, Meter(budget, "det_spectrum[brute]"), threads))


class _Multiples(dict):
    """c -> the terms c*x for x in `elems` (mod `p` when one is given),
    each list built on its first lookup and kept."""

    def __init__(self, elems, p: int | None):
        super().__init__()
        self.elems, self.p = elems, p

    def __missing__(self, c: int) -> list:
        p = self.p
        terms = self[c] = [c * x % p for x in self.elems] if p else [c * x for x in self.elems]
        return terms


def _dense(nodes: dict, k: int, top: int | None, xlo: int, xhi: int, entries: int, p: int | None = None) -> bool:
    """Whether a level of the spectrum fold packs: the slots its `nodes`
    (holding sums of k terms) span once shifted, plus _NODE_SLOTS per node,
    come to at most _PACK_SPAN per entry. Over F_p every node spans the p
    residues. Over Q each node's span is bounded from its key alone: k terms
    c*x with x in [xlo, xhi], shifted by q[-1]*x, and c in [q[-1], top] in
    a trie of sorted keys; with `top` None, in a trie that files each key
    by |entry|, largest first, c in [-|q[-1]|, |q[-1]|]. A node spans at
    least one slot, which rules out a level of few entries per node before
    any node is read, and the sum stops at the first node that takes it
    past the budget, which rules most other sparse levels out after a few."""
    budget = _PACK_SPAN * entries
    if len(nodes) * ((p or 1) + _NODE_SLOTS) > budget:
        return False
    if p:
        return True
    spans = _NODE_SLOTS * len(nodes)
    for q in nodes:
        c = q[-1]
        lo, hi = (c, top) if top else (-abs(c), abs(c))
        # hi >= 0, so hi*x is largest at xhi and least at xlo
        a, b = lo * xlo, lo * xhi
        spans += k * (max(a, b, hi * xhi) - min(a, b, hi * xlo)) + abs(c) * (xhi - xlo) + 1
        if spans > budget:
            return False
    return True


def _spectrum_rowblock(X: GroundSet, n: int, *, budget: int | None, threads: int) -> dict:
    """The spectrum in lifted ints, each lowered to its field scalar at the
    end, one to one: k / L^n over Q, a residue over F_p. At n = 2 it is
    `_cross_terms` of the pair products P, charged |X|^2, then |P|^2.
    At n >= 3 it comes from the int histogram h of <m, r> over r in X^n,
    summed over the cofactor classes m with their multiplicities, by a fold
    over the trie of pair keys. The subtrees under different first entries
    meet only at the root, so the fold takes one first entry c1 at a time
    and holds one subtree: each pair key of mass w adds w at v*x for x in X
    to the dict of its leaf, the key without one entry v, read off the pair
    table, which it empties; at every further level each node (..., c)
    shift-adds its dict by c*x into its parent's, until the one node (c1,)
    shifts into the root (), which holds h once every subtree is in. The
    terms c*x of each entry c come from one table per call (`_Multiples`).
    The distribution of <m, r> over r in X^n does not change when m is
    permuted, so a key's entries may be filed in any order. At n = 3 over
    Q the key (c1, b, c) goes under the leaf (c1, u), with u the one of b
    and c larger in |.| (b on a tie), and adds the multiples of the other.
    A leaf's dict then holds multiples of entries no larger than u in |.|,
    and the next level shifts it |X| times per entry: the fold's dict
    updates at interval 6, 8 and 12 and on {-3, ..., 3} fall to 0.922,
    0.905, 0.872 and 0.817 of filing every key under (c1, b), and to 0.959
    on GP(2) 6. Over F_p and at n >= 4 the keys stay sorted, v their last
    entry: no other order was measured there. Over F_p every sum is reduced
    mod p, which keeps each dict within p entries (at |X| = 6 over F_101
    the fold without it took 1.7 to 2.8 times as long). Each level of a
    subtree whose nodes are dense (`_dense`) packs them (`_pack`): one int
    per node, one slot per value from its least, wide enough for the mass
    |X|^(n^2), and shifting by c*x is one big-int shift and add per x
    (`_shift_add_packed`) where a dict takes one update per entry. Over F_p
    the slots are cyclic: slot r holds the residue r, and after each shift
    the slots past p - 1 fold back onto the low end. The subtree stays
    packed up to the root, whose packed sum over the subtrees is decoded
    into h once, at the end; sparse levels (GP and large random sets over
    Q, large p over F_p) stay dicts. Before each level of each subtree
    runs, the budget is charged |X| per nonzero entry of the distributions
    it will shift, a dict's entries or a packed node's nonzero slots (|X|
    per pair key at the leaf level): per level the same totals as charging
    the whole trie level at once, packed or not. A class and its mirror
    give v and -v the same counts, so the spectrum is (h(v) + h(-v)) / 2
    (-v mod p over F_p), set in h itself."""
    meter = Meter(budget, "det_spectrum[rowblock]")
    B = len(X)
    if n < 2:
        raise PreconditionError(f"{meter.what} needs n >= 2")
    lift = int_lift(X)
    if n == 2:
        meter.charge(B * B)
        P = _pair_products(lift.elements, lift.modulus)
        meter.charge(len(P) ** 2)
        return {k if lift.is_identity else lift.lower(k, 2): v for k, v in _cross_terms(P, lift.modulus).items()}
    pairs, zero = _class_table(lift, n, meter)
    elems, p = lift.elements, lift.modulus
    subtrees: dict = {}
    for m in pairs:
        subtrees.setdefault(m[0], []).append(m)
    multiples = _Multiples(elems, p)
    # at n = 3 over Q the trie files a key by |entry|, largest first (`_dense`)
    by_size = n == 3 and not p
    hist: dict = {}
    # a node may hold its distribution packed (`_pack`): no slot exceeds
    # the mass |X|^(n^2), so its width must hold that
    width = next((w for w in _SLOT_BITS if B ** (n * n) < 1 << w), None)
    xlo, xhi = min(elems), max(elems)
    root = None
    while subtrees:
        c1, keys = subtrees.popitem()
        # the leaves: each pair key of mass w adds w at v*x for x in X to its leaf's dict, where v
        # is its last entry, or at n = 3 over Q its smaller one of b and c in |.| (the leaf keeps the other)
        meter.charge(B * len(keys))
        nodes: dict = {}
        for m in keys:
            w = pairs.pop(m)
            if not by_size:
                leaf, v = m[:-1], m[-1]
            elif m[1] + m[2] <= 0:
                leaf, v = m[:2], m[2]
            else:
                leaf, v = (c1, m[2]), m[1]
            dist = nodes.get(leaf)
            if dist is None:
                dist = nodes[leaf] = {}
            get = dist.get
            for k in multiples[v]:
                dist[k] = get(k, 0) + w
        packed = False
        for j in range(n - 1, 0, -1):
            if packed:
                meter.charge(B * _nonzero_slots(nodes.values(), width))
            else:
                entries = sum(map(len, nodes.values()))
                meter.charge(B * entries)
                if width and _dense(nodes, n - j, None if by_size else -c1, xlo, xhi, entries, p):
                    packed = True
                    for q, dist in nodes.items():
                        nodes[q] = _pack(dist, width)
            if packed:
                # the subtree's one node (c1,) shifts into the packed root
                parents = {(): root} if j == 1 else {}
                while nodes:
                    q, node = nodes.popitem()
                    r = q[:-1]
                    parents[r] = _shift_add_packed(parents.get(r), node, multiples[q[-1]], width, p)
                nodes = parents
                continue
            # the subtree's one node (c1,) shifts into the root
            parents = {(): hist} if j == 1 else {}
            while nodes:
                q, dist = nodes.popitem()
                _shift_add(parents.setdefault(q[:-1], {}), dist, multiples[q[-1]], p)
            nodes = parents
        if packed:
            root = nodes[()]
    if root:
        # the packed root, decoded once: slot i holds h(lo + i)
        lo, P = root
        view = memoryview(P.to_bytes(-(-P.bit_length() // width) * width // 8, sys.byteorder)).cast(_SLOT_BITS[width])
        for i in compress(range(len(view)), view):
            hist[lo + i] = hist.get(lo + i, 0) + view[i]
    # the spectrum is (h(v) + h(-v)) / 2: set once per pair {v, -v}, from its smaller or only member
    for v in list(hist):
        u = -v % p if p else -v
        if v < u or u not in hist:
            hist[v] = hist[u] = (hist[v] + hist.get(u, 0)) // 2
    if zero:
        hist[0] = hist.get(0, 0) + zero * B**n
    return hist if lift.is_identity else {lift.lower(k, n): v for k, v in hist.items()}


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
    """Argmax of the spectrum, by `SpectrumHistogram.argmax`."""
    return det_spectrum(X, n, engine, budget=budget, threads=threads).argmax(exclude_zero)


# ---------------------------------------------------------------------------
# rank counting


def count_rank(X: GroundSet, m: int, n: int, r: int, *, budget: int | None = None) -> int:
    """Number of m x n matrices over X with rank exactly r."""
    if not (0 <= r <= m <= n):
        raise PreconditionError("need 0 <= r <= m <= n")
    Meter(budget, "count_rank").charge(len(X) ** (m * n))
    count = 0
    for rows in itertools.product(itertools.product(X.elements, repeat=n), repeat=m):
        if _eliminate(rows)[0] == r:
            count += 1
    return count
