"""Additive-energy counts: pair products, bilinear forms, and the three-equation
system tying cofactor-vector multiplicities to an eighth-moment quantity.

Each energy has two routes: a value-distribution build (tables keyed by exact
scalars, energies as sums of squared masses) and a literal tuple-by-tuple
brute count kept for cross-validation. The brute routes compare enumerated
values pairwise and never share the table machinery.

T and S are one number: over the pair-product multiset P of any abelian
group, #{a + b = c + e} = #{a - c = e - b}. Both build the sum table P * P
with one update per unordered pair {t1, t2} of values of P, |P|(|P| + 1) / 2
updates, and their budget charges, |U|^2 and then |P|^2, bound that work. The
difference-correlation Q2 of P is D_2(U, .), the n = 2 spectrum
`detcount.det_spectrum(U, 2, "rowblock")`.
The cofactor energy E* and its dyadic pyramid read each +- pair of cofactor
classes from `detcount._class_table` and its size from `detcount._class_size`.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import mul

from .errors import Meter, PreconditionError
from .detcount import _class_size, _class_table, _count_forms, _pair_products
from .matrices import Matrix, det
from .scalars import GroundSet, int_lift, make_ground_set


@dataclass(frozen=True)
class ValueDistribution:
    """Exact map value -> multiplicity for one generating expression."""

    entries: dict
    provenance: str

    def mass(self) -> int:
        return sum(self.entries.values())

    def sorted_items(self) -> list:
        return sorted(self.entries.items())

    def get(self, t) -> int:
        return self.entries.get(t, 0)


def product_distribution(U: GroundSet) -> ValueDistribution:
    """P(t) = #{(u, v) in U^2 : u*v = t}; mass is |U|^2."""
    return ValueDistribution(_pair_products(U.elements), "pair-product")


def _pair_sums(P: dict) -> dict:
    """t -> sum over t1 + t2 = t of P(t1) * P(t2), one update per unordered
    pair {t1, t2}: weight P(t1) * P(t2), doubled when t1 != t2."""
    items = list(P.items())
    table: dict = {}
    get = table.get
    for i, (t1, c1) in enumerate(items):
        s = t1 + t1
        table[s] = get(s, 0) + c1 * c1
        c1 += c1
        for t2, c2 in items[i + 1:]:
            s = t1 + t2
            table[s] = get(s, 0) + c1 * c2
    return table


def r_distribution(U: GroundSet) -> ValueDistribution:
    """R(t) = #{u1*v1 + u2*v2 = t}; the sum-convolution of P with itself."""
    return ValueDistribution(_pair_sums(_pair_products(U.elements)), "paired-product-sum")


def _pair_sum_energy(U: GroundSet, meter: Meter) -> int:
    """Sum of R(t)^2 over the sums table R = P * P of the pair products P.
    The `meter` is charged |U|^2 for P, then |P|^2 once |P| is known, which
    bounds the |P|(|P| + 1) / 2 updates of `_pair_sums`."""
    meter.charge(len(U) ** 2)
    P = _pair_products(U.elements)
    meter.charge(len(P) ** 2)
    return sum(c * c for c in _pair_sums(P).values())


def energy_T(U: GroundSet, *, budget: int | None = None) -> int:
    """Solutions of v1*u1 + v2*u2 = x1*y1 + x2*y2 over U^8, as sum of R(t)^2
    over the sums table R = P * P, built one unordered pair of pair-product
    values at a time. Charged |U|^2, then |P|^2."""
    return _pair_sum_energy(U, Meter(budget, "energy_T"))


def energy_T_brute(U: GroundSet, *, budget: int | None = None) -> int:
    Meter(budget, "energy_T_brute").charge(len(U) ** 8)
    vals = [u1 * v1 + u2 * v2 for u1, u2, v1, v2 in itertools.product(U.elements, repeat=4)]
    return sum(1 for a in vals for b in vals if a == b)


def energy_N(U: GroundSet, *, budget: int | None = None) -> int:
    """Solutions of v1*(u1 - w1) = v2*(u2 - w2) over U^6, as sum of Q(t)^2;
    charged |U|^3 steps."""
    Meter(budget, "energy_N").charge(len(U) ** 3)
    table: dict = {}
    for v, u, w in itertools.product(U.elements, repeat=3):
        t = v * (u - w)
        table[t] = table.get(t, 0) + 1
    return sum(c * c for c in table.values())


def energy_N_brute(U: GroundSet, *, budget: int | None = None) -> int:
    Meter(budget, "energy_N_brute").charge(len(U) ** 6)
    vals = [v * (u - w) for v, u, w in itertools.product(U.elements, repeat=3)]
    return sum(1 for a in vals for b in vals if a == b)


def energy_S(U: GroundSet, *, budget: int | None = None) -> int:
    """Solutions of u1*v3 - u3*v1 = y1*z3 - y3*z1 over U^8. u1*v3 and u3*v1
    are independent pair products a, c (and y1*z3, y3*z1 are b, e), so S
    counts #{a - c = b - e} = #{a + e = b + c} over P^4: S equals T in any
    abelian group, and is computed by the same unordered-pair sums table.
    Charged |U|^2, then |P|^2."""
    return _pair_sum_energy(U, Meter(budget, "energy_S"))


def energy_S_brute(U: GroundSet, *, budget: int | None = None) -> int:
    Meter(budget, "energy_S_brute").charge(len(U) ** 8)
    vals = [u1 * v3 - u3 * v1 for u1, u3, v1, v3 in itertools.product(U.elements, repeat=4)]
    return sum(1 for a in vals for b in vals if a == b)


# ---------------------------------------------------------------------------
# inner-product equation <M b, c> = omega


def _prepared_matrix(M: Matrix, B: GroundSet, C: GroundSet):
    if not M.is_square or M.rows < 2:
        raise PreconditionError("need a square matrix of dimension >= 2")
    if not M.field == B.field == C.field:
        raise PreconditionError("matrix and sets must share one field")
    if not det(M):
        raise PreconditionError("matrix must be nonsingular")
    return M.to_rows()


def count_bilinear(
    M: Matrix, B: GroundSet, C: GroundSet, omega, *, budget: int | None = None
) -> int:
    """#{(b, c) in B^k x C^k : <M b, c> = omega}, in ints: the equation is
    linear in each of M, b and c, so on one lift L of all their entries
    (`scalars.int_lift`) it is <M'b', c'> = L^3 omega, and a lifted target
    that is not an integer gives 0, charged nothing. Each b is one form
    (M'b', L^3 omega, 1) of the linear-form kernel over C'^k (|B|^k steps),
    which charges the same meter. omega = 0 is rejected."""
    if not B.field.coerce(omega):
        raise PreconditionError("omega must be nonzero")
    rows = _prepared_matrix(M, B, C)
    meter = Meter(budget, "count_bilinear")
    joint = make_ground_set([*B, *C, *M.entries], B.field)
    lift = int_lift(joint)
    target = lift.target(omega, 3)
    if target is None:
        return 0
    up = dict(zip(joint, lift.elements))
    rows = [[up[x] for x in row] for row in rows]
    meter.charge(len(B) ** len(rows))
    vectors = itertools.product([up[x] for x in B], repeat=len(rows))
    forms = (([sum(map(mul, row, b)) for row in rows], target, 1) for b in vectors)
    return _count_forms(forms, [up[x] for x in C], lift.modulus, meter)


def count_bilinear_brute(
    M: Matrix, B: GroundSet, C: GroundSet, omega, *, budget: int | None = None
) -> int:
    """Direct pair enumeration over B^k x C^k; oracle route for count_bilinear."""
    omega_s = B.field.coerce(omega)
    if not omega_s:
        raise PreconditionError("omega must be nonzero")
    k = M.rows
    rows = _prepared_matrix(M, B, C)
    Meter(budget, "count_bilinear_brute").charge((len(B) * len(C)) ** k)
    total = 0
    for b in itertools.product(B.elements, repeat=k):
        v = []
        for row in rows:
            acc = row[0] * b[0]
            for j in range(1, k):
                acc = acc + row[j] * b[j]
            v.append(acc)
        for c in itertools.product(C.elements, repeat=k):
            acc = v[0] * c[0]
            for j in range(1, k):
                acc = acc + v[j] * c[j]
            if acc == omega_s:
                total += 1
    return total


# ---------------------------------------------------------------------------
# the three simultaneous cofactor equations


def energy_Estar_mu(X: GroundSet, *, budget: int | None = None, threads: int = 1) -> int:
    """Solution count of the simultaneous equality of the two signed cofactor
    triples over X^12, computed as the sum of squared triple multiplicities
    (the all-zero triple included): w^2 / k per +- pair c of mass w spread
    over its k = `_class_size(c)` triples. Walked in-process; `threads` is
    accepted and unused."""
    pairs, zero = _class_table(int_lift(X), 3, Meter(budget, "energy_Estar_mu"))
    p = X.field.modulus
    return sum(w * w // _class_size(c, p) for c, w in pairs.items()) + zero * zero


def energy_Estar_brute(X: GroundSet, *, budget: int | None = None) -> int:
    """Literal 12-tuple check of the three bilinear equations, pair by pair."""
    Meter(budget, "energy_Estar_brute").charge(len(X) ** 12)
    triples = [
        (y2 * z3 - y3 * z2, y3 * z1 - y1 * z3, y1 * z2 - y2 * z1)
        for y1, y2, y3, z1, z2, z3 in itertools.product(X.elements, repeat=6)
    ]
    return sum(1 for a in triples for b in triples if a == b)


@dataclass(frozen=True)
class DyadicPyramid:
    """Dyadic census of cofactor-triple multiplicities: one (w, class size)
    entry per nonempty class w <= mu < 2w."""

    classes: tuple
    total_mass: int
    max_weighted: int  # max over w of w^2 * class size


def dyadic_pyramid(X: GroundSet, *, budget: int | None = None, threads: int = 1) -> DyadicPyramid:
    """Dyadic census of the cofactor table, whose +- pair c of mass w holds
    k = `_class_size(c)` triples of multiplicity w / k, each in the class of
    the largest power of two w' <= w / k (walked in-process). One pass over
    the pairs tallies them by (w, k), which take few values (87 at
    interval 8 for 12,044 pairs), and the classes are summed from that
    tally."""
    pairs, zero = _class_table(int_lift(X), 3, Meter(budget, "dyadic_pyramid"))
    p = X.field.modulus
    tally = Counter(zip(pairs.values(), map(_class_size, pairs, repeat(p))))
    if zero:
        tally[zero, 1] += 1
    by_class: dict = {}
    total_mass = 0
    for (w, k), n in tally.items():
        mu = w // k
        total_mass += mu * k * n
        top = 1 << (mu.bit_length() - 1)
        by_class[top] = by_class.get(top, 0) + k * n
    classes = tuple(sorted(by_class.items()))
    return DyadicPyramid(
        classes=classes,
        total_mass=total_mass,
        max_weighted=max(w * w * c for w, c in classes),
    )
