import concurrent.futures
import gc
import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

import detlab.detcount as detcount
from detlab.errors import BudgetExceededError, Meter, PreconditionError
from detlab.detcount import (
    _class_size,
    _class_table,
    _count_forms,
    _fold,
    _mirror,
    _perms,
    count_det_brute,
    count_det_rowblock,
    count_rank,
    det_spectrum,
    dsup,
    minor_multiplicity_map,
)
from detlab.energy import count_bilinear, count_bilinear_brute, dyadic_pyramid, energy_Estar_mu
from detlab.families import FamilySpec, generate
from detlab.matrices import Matrix, _det_rows
from detlab.scalars import FieldSpec, GroundSet, int_lift, make_ground_set, scale_set

from conftest import QQ, F7, int_ground_sets, fraction_ground_sets, small_fractions


X12 = make_ground_set([1, 2], QQ)
X0 = make_ground_set([0], QQ)


def test_brute_examples():
    assert count_det_brute(X0, 2, 0) == 1
    assert count_det_brute(X12, 2, 0) == 6
    assert count_det_brute(X12, 2, 3) == 1
    assert count_det_brute(X12, 1, 2) == 1


def test_rowblock_examples():
    assert count_det_rowblock(X12, 2, 0) == 6
    assert count_det_rowblock(make_ground_set([1], QQ), 3, 0) == 1
    X123 = make_ground_set([1, 2, 3], QQ)
    assert count_det_rowblock(X123, 3, 1) == count_det_brute(X123, 3, 1)


def test_rowblock_rejects_n1():
    # the cofactor walk starts at n = 3; each rowblock engine checks its own
    # bound n >= 2, and the cofactor table, which only the walk fills, n >= 3
    for n in (0, 1):
        with pytest.raises(PreconditionError, match="n >= 2"):
            count_det_rowblock(X12, n, 0)
        with pytest.raises(PreconditionError, match="n >= 2"):
            det_spectrum(X12, n, "rowblock")
    for n in (0, 1, 2):
        with pytest.raises(PreconditionError, match="n >= 3"):
            minor_multiplicity_map(X12, n)


def test_conv_examples():
    assert count_det_rowblock(X12, 2, 0) == 6
    assert count_det_rowblock(X12, 2, 1) == 2
    assert count_det_rowblock(X0, 2, 0) == 1


def test_spectrum_exact_for_two_element_set():
    spec = det_spectrum(X12, 2, "brute")
    expected = {
        Fraction(-3): 1,
        Fraction(-2): 2,
        Fraction(-1): 2,
        Fraction(0): 6,
        Fraction(1): 2,
        Fraction(2): 2,
        Fraction(3): 1,
    }
    assert spec.entries == expected
    assert spec.total_mass() == 16
    assert spec.distinct_count() == 7
    assert det_spectrum(X0, 2, "brute").entries == {Fraction(0): 1}


# n = 4 at |X| = 2 (2^16 brute matrices) makes the rowblock fold run a third
# level of class-key prefixes
@given(int_ground_sets(max_size=3), st.sampled_from([2, 3]))
@example(make_ground_set([1, 2], QQ), 4)
@example(make_ground_set([-1, 3], QQ), 4)
@example(make_ground_set([0, 2], QQ), 4)
def test_spectrum_engines_agree_and_mass(X, n):
    sb = det_spectrum(X, n, "brute")
    sr = det_spectrum(X, n, "rowblock")
    assert sb.entries == sr.entries
    assert sb.total_mass() == len(X) ** (n * n)
    for d in (0, max(sb.entries)):
        assert count_det_rowblock(X, n, d) == sb.get(d)


def _assert_rowblock_matches_brute(X, n, extra_targets=()):
    """Rowblock spectrum and count at every attained d and at the extra
    targets against the brute spectrum."""
    sb = det_spectrum(X, n, "brute")
    assert det_spectrum(X, n, "rowblock").entries == sb.entries
    assert sb.total_mass() == len(X) ** (n * n)
    for d in (*sb.entries, *extra_targets):
        assert count_det_rowblock(X, n, d) == sb.get(d)


HALVES = make_ground_set([Fraction(1, 2), 1, Fraction(3, 2)], QQ)


# the rowblock engines count over the lifted set L*X in plain ints; over the
# halves (L = 2) d = 1/3 lifts to 4/3 or 8/3, which no int sum reaches
FRACTIONAL_TARGETS = (Fraction(1, 3), Fraction(-5, 7))


@given(fraction_ground_sets(max_size=3))
@example(HALVES)
def test_spectrum_engines_agree_fractional(X):
    _assert_rowblock_matches_brute(X, 2, FRACTIONAL_TARGETS)


@given(fraction_ground_sets(max_size=3))
@example(HALVES)
@settings(max_examples=20)
def test_spectrum_engines_agree_fractional_n3(X):
    # the brute spectrum enumerates up to 3^9 matrices here, so fewer examples
    _assert_rowblock_matches_brute(X, 3, FRACTIONAL_TARGETS)


# a set of residues mod 2, 3, 5 or 7
_prime_field_sets = st.sampled_from([2, 3, 5, 7]).flatmap(
    lambda p: st.lists(st.integers(0, p - 1), min_size=1, max_size=3, unique=True).map(
        lambda vals: make_ground_set(vals, FieldSpec.prime(p))
    )
)


@given(_prime_field_sets, st.sampled_from([2, 3]))
@example(make_ground_set([0, 1, 3], F7), 2)
@example(make_ground_set([1, 2], FieldSpec.prime(3)), 3)
@example(make_ground_set([1, 2, 4], FieldSpec.prime(5)), 3)
@example(make_ground_set([1, 2], FieldSpec.prime(3)), 4)
@settings(max_examples=30)
def test_spectrum_prime_field(X, n):
    # {1, 2} over F_3 and {1, 2, 4} over F_5 have integer cofactors such as
    # 2*2 - 1*1 = 3 and 4*4 - 1*1 = 15 that vanish mod p; at n = 4 the fold
    # reduces mod p on three levels of class-key prefixes
    _assert_rowblock_matches_brute(X, n)


def test_dsup_examples():
    assert dsup(X12, 2, True) == (Fraction(1), 2)
    assert dsup(X12, 2, False) == (Fraction(0), 6)
    assert dsup(make_ground_set([1], QQ), 2, False) == (Fraction(0), 1)
    with pytest.raises(PreconditionError):
        dsup(X0, 2, True)


def test_dsup_prime_field_tiebreak():
    # d and -d tie (the row swap), so the argmax is the smaller residue of
    # each tied pair, whatever order the spectrum was built in
    for values, n in (([1, 2], 2), ([1, 2, 3], 3), ([0, 2, 5], 3)):
        Xp = make_ground_set(values, F7)
        spec = det_spectrum(Xp, n, "brute")
        for exclude_zero in (True, False):
            d, cnt = dsup(Xp, n, exclude_zero)
            assert spec.entries[d] == cnt
            ties = [k.residue for k, v in spec.entries.items() if v == cnt and (k or not exclude_zero)]
            assert d.residue == min(ties), (values, n, exclude_zero)


def test_prime_field_spectrum_is_reported_by_residue():
    spec = det_spectrum(generate(FamilySpec("interval", 4), FieldSpec.prime(101)), 3, "rowblock")
    items = spec.sorted_items()
    # by residue, the order of Mod's own comparison, every residue once
    assert items == sorted(spec.entries.items(), key=lambda item: item[0].residue)
    assert items == sorted(spec.entries.items())
    assert [k.residue for k, _ in items] == list(range(101))


def test_count_rank_examples():
    assert count_rank(X12, 2, 2, 1) == 6
    assert count_rank(X12, 2, 2, 0) == 0
    assert count_rank(make_ground_set([0, 1], QQ), 2, 2, 0) == 1
    with pytest.raises(PreconditionError):
        count_rank(X12, 2, 2, 3)
    with pytest.raises(PreconditionError):
        count_rank(X12, 3, 2, 1)


def _gl_order(q: int, n: int) -> int:
    """|GL_n(F_q)| = prod_{i<n} (q^n - q^i)."""
    return math.prod(q**n - q**i for i in range(n))


@pytest.mark.parametrize(
    "p, n",
    [(p, 2) for p in (2, 3, 5, 7, 11, 13, 101)]
    + [(p, 3) for p in (2, 3, 5, 7, 11, 13)]
    + [(p, 4) for p in (2, 3, 5)]
    + [(2, 5), (3, 5), (2, 6)],
)
def test_spectrum_over_whole_prime_field_matches_closed_form(p, n):
    # over all of F_p every d != 0 has |SL_n(F_p)| = |GL_n(F_p)| / (p - 1)
    # matrices and the rest are singular; the formulas share nothing with the
    # pair-product correlation, the class walk or the prefix fold
    X = make_ground_set(range(p), FieldSpec.prime(p))
    gl = _gl_order(p, n)
    spec = det_spectrum(X, n, "rowblock")
    assert spec.get(0) == p ** (n * n) - gl
    assert [spec.get(d) for d in range(1, p)] == [gl // (p - 1)] * (p - 1)
    assert spec.distinct_count() == p


def test_singular_binary_counts_match_oeis_a046747():
    # singular n x n {0, 1} matrices, n = 2..6, as published in OEIS A046747;
    # n = 5 and 6 run the wedge levels below the last one
    X = make_ground_set([0, 1], QQ)
    counts = [count_det_rowblock(X, n, 0) for n in range(2, 7)]
    assert counts == [10, 338, 42_976, 21_040_112, 39_882_864_736]


def _singular_n3_by_projection(elems, p=None) -> int:
    """D_3(X, 0) in plain ints, by projecting along the top row t. For t != 0
    with t_k != 0 and the other indices a, b, the functionals
    alpha = t_k e_a - t_a e_k and beta = t_k e_b - t_b e_k vanish exactly on
    the span of t, so [t; u; r] is singular iff (alpha, beta) maps u and r onto
    one line through the origin. With J the tally of (alpha(u), beta(u)) over
    u in X^3, Z = J(0, 0) and M_l its mass on each line l, t contributes
    2 Z |X|^3 - Z^2 + sum_l M_l^2, and t = 0 contributes |X|^6. A line is a
    gcd-reduced direction with positive first nonzero entry over Q, scaled by
    the inverse of that entry over F_p (when `p` is given)."""
    size = len(elems)
    cube = list(itertools.product(elems, repeat=3))
    total = 0
    for t in cube:
        k = next((i for i in range(3) if (t[i] % p if p else t[i])), None)
        if k is None:
            total += size**6
            continue
        a, b = (i for i in range(3) if i != k)
        J = Counter()
        for u in cube:
            x = t[k] * u[a] - t[a] * u[k]
            y = t[k] * u[b] - t[b] * u[k]
            J[(x % p, y % p) if p else (x, y)] += 1
        Z = J.pop((0, 0), 0)
        lines = Counter()
        for (x, y), w in J.items():
            if p:
                inv = pow(x or y, -1, p)
                lines[(x * inv % p, y * inv % p)] += w
            else:
                g = math.gcd(x, y) if (x or y) > 0 else -math.gcd(x, y)
                lines[(x // g, y // g)] += w
        total += 2 * Z * size**3 - Z * Z + sum(m * m for m in lines.values())
    return total


@pytest.mark.parametrize(
    "elems, expected",
    [
        (range(1, 5), 29_104),
        (range(1, 7), 436_818),
        (range(1, 9), 2_790_818),
        ([2**i for i in range(1, 7)], 713_064),
        ([-3, -1, 0, 2, 5], 203_309),
    ],
)
def test_singular_n3_matches_projection_route(elems, expected):
    # a second route to D_3(X, 0) that shares nothing with the class walk,
    # the linear-form kernel or int_lift; the rowblock spectrum reads D_3(X, 0)
    # off the class walk and the prefix fold, not the count's projection
    X = make_ground_set(elems, QQ)
    assert _singular_n3_by_projection(list(elems)) == expected == count_det_rowblock(X, 3, 0)
    assert det_spectrum(X, 3, "rowblock").get(0) == expected


@pytest.mark.parametrize(
    "p, elems, expected",
    [(p, range(p), p**9 - _gl_order(p, 3)) for p in (2, 3, 5, 7)] + [(7, [1, 2, 4], 7_533)],
)
def test_singular_n3_over_fp_matches_projection_route(p, elems, expected):
    # all of F_p against the closed form, and {1, 2, 4} in F_7 against brute's count
    X = make_ground_set(elems, FieldSpec.prime(p))
    assert _singular_n3_by_projection(list(elems), p) == expected == count_det_rowblock(X, 3, 0)


# rational sets with 0 and one or two more elements, negatives and non-integers
# among them (so the lift scales by L > 1; brute walks Fractions, so at most
# 3^9 matrices), and residue sets with 0 over F_2 ... F_7
_singular_q_sets = st.lists(small_fractions(6, 3), min_size=1, max_size=2, unique=True).map(
    lambda vals: make_ground_set([0, *vals], QQ)
)
_singular_fp_sets = _prime_field_sets.map(lambda X: make_ground_set([0, *X], X.field))


@given(st.one_of(_singular_q_sets, _singular_fp_sets))
@example(make_ground_set([Fraction(-3, 2), 0, Fraction(1, 3)], QQ))
@example(make_ground_set([-2, 0, Fraction(1, 2)], QQ))
@example(make_ground_set([0, 1, 2, 3], FieldSpec.prime(5)))
@example(make_ground_set([0, 1], FieldSpec.prime(2)))
@settings(max_examples=40)
def test_singular_n3_projection_matches_brute(X):
    # the rowblock count at n = 3 and d = 0 projects along the top row
    assert count_det_rowblock(X, 3, 0) == count_det_brute(X, 3, 0)


@pytest.mark.parametrize(
    "elems, field",
    [
        (range(1, 9), QQ),
        ([2**i for i in range(1, 7)], QQ),
        ([-3, -1, 0, 2, 5], QQ),
        ([Fraction(i, 2) for i in range(1, 7)], QQ),
        (range(7), F7),
    ],
)
def test_class_walk_count_matches_projection_at_d0(elems, field):
    # the walk-and-kernel count stays the d = 0 oracle beyond brute reach
    X = make_ground_set(elems, field)
    assert detcount._count_by_classes(int_lift(X), 3, 0, Meter(None, "test")) == count_det_rowblock(X, 3, 0)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("m, n", [(2, 3), (3, 3)])
def test_count_rank_matches_closed_form(q, m, n):
    # rank-r m x n matrices over F_q: prod_{i<r} (q^m - q^i)(q^n - q^i) / (q^r - q^i)
    X = make_ground_set(range(q), FieldSpec.prime(q))
    counts = [count_rank(X, m, n, r) for r in range(m + 1)]
    expected = [
        math.prod((q**m - q**i) * (q**n - q**i) for i in range(r)) // math.prod(q**r - q**i for i in range(r))
        for r in range(m + 1)
    ]
    assert counts == expected
    if q == 3:
        assert counts == ([1, 104, 624] if m == 2 else [1, 338, 8112, 11232])


@given(int_ground_sets(max_size=3, lo=-3, hi=3), st.sampled_from([2, 3]))
@settings(max_examples=25)
def test_rank_partition(X, n):
    total = sum(count_rank(X, n, n, r) for r in range(n + 1))
    assert total == len(X) ** (n * n)
    singular = det_spectrum(X, n, "rowblock").entries.get(Fraction(0), 0)
    assert count_rank(X, n, n, n) == len(X) ** (n * n) - singular


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


def _cofactor_tally(X, n) -> Counter:
    """Oracle: the cofactor vector of every bottom block, in field scalars."""
    rows = list(itertools.product(X.elements, repeat=n))
    return Counter(_cofactor_vector(block, n) for block in itertools.product(rows, repeat=n - 1))


def test_minor_map_mass():
    sets = (
        X12,
        make_ground_set([0, 1, 2], QQ),
        make_ground_set([1, 3], F7),
        make_ground_set([Fraction(1, 2), Fraction(2, 3), 2], QQ),
        make_ground_set([Fraction(-1, 2), Fraction(2, 3)], QQ),
        make_ground_set([1, 2, 4], FieldSpec.prime(5)),
    )
    for X in sets:
        # n = 4 at |X| = 3 is 3^12 oracle blocks, too slow in field scalars
        for n in (3, 4) if len(X) <= 2 else (3,):
            mm = minor_multiplicity_map(X, n)
            assert mm.total_mass() == len(X) ** (n * (n - 1))
            direct = _cofactor_tally(X, n)
            zero = direct.pop((X.field.zero(),) * n, 0)
            assert (mm.entries, mm.zero_count) == (direct, zero)
            # keys are canonical field scalars: an int whenever integral
            for m in mm.entries:
                assert all(type(c) is type(X.field.coerce(c)) for c in m)


@st.composite
def _class_cases(draw):
    """(X, n): an int, Fraction or F_p set with n in {3, 4}, the dimensions
    the class walk serves; n = 4 only at |X| <= 2, where the oracle walks
    2^12 blocks."""
    n = draw(st.sampled_from([3, 4]))
    size = 2 if n == 4 else 3
    kind = draw(st.sampled_from(["int", "fraction", "fp"]))
    if kind == "int":
        return draw(int_ground_sets(max_size=size)), n
    if kind == "fraction":
        return draw(fraction_ground_sets(max_size=size)), n
    p = draw(st.sampled_from([2, 3, 5, 7]))
    vals = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=size, unique=True))
    return make_ground_set(vals, FieldSpec.prime(p)), n


@given(_class_cases())
@example((make_ground_set([-1, 0, 2], QQ), 4))
@example((make_ground_set([1, 2], FieldSpec.prime(3)), 4))
@example((make_ground_set([-2, 0, 3], QQ), 3))
@example((make_ground_set([0, 1, 2], FieldSpec.prime(3)), 3))
@example((make_ground_set([0, 1], FieldSpec.prime(2)), 4))
@example((make_ground_set([5], QQ), 3))
@example((make_ground_set([0], QQ), 3))
@example((make_ground_set([-1, 0, 1], QQ), 3))
@example((make_ground_set([5], QQ), 4))
@example((make_ground_set([0], QQ), 4))
@example((make_ground_set([-1, 0, 1], QQ), 4))
@example((make_ground_set([-2, -1, 0, 1, 2], QQ), 3))
@example((make_ground_set([0, 1, 3, 7], QQ), 3))
@example((make_ground_set(range(5), FieldSpec.prime(5)), 3))
@example((make_ground_set([Fraction(1, 2), Fraction(2, 3), 2, 3], QQ), 3))
@settings(max_examples=40)
def test_class_table_matches_sorted_tally(case):
    # the paired walk over top-block column multisets against every block's
    # cofactor vector, keyed by the smaller of its sorted form and that of
    # its negation; {1, 2} over F_3 has cofactors 3 = 0 mod 3, and with 0
    # in the set, or all of a prime field, many 2-minors vanish. A one-point
    # set has only the tie column (x, x), and {-1, 0, 1} many multisets with
    # as many columns before the ties as after them, which the row swap maps
    # among themselves. At |X| = 4 and 5 each run holds 4 to 10 columns, so
    # the walk's blocks of j < k above a prefix span several rows, and the
    # diagonal cases j = P[-1], k = j and both meet runs of every kind
    X, n = case
    lift = int_lift(X)
    pairs, zero = _class_table(lift, n, Meter(None, "test"))
    direct = _cofactor_tally(X, n)
    by_class = Counter()
    for m, mu in direct.items():
        by_class[tuple(sorted(m))] += mu
    for c, mu in by_class.items():
        assert by_class[tuple(sorted(-x for x in c))] == mu
    # the row swap maps each vector to its negation
    assert all(direct[tuple(-x for x in m)] == mu for m, mu in direct.items())
    assert zero == direct.pop((X.field.zero(),) * n, 0)
    oracle = Counter()
    for m, mu in direct.items():
        oracle[min(tuple(sorted(m)), tuple(sorted(-x for x in m)))] += mu
    assert {tuple(lift.lower(v, n - 1) for v in c): w for c, w in pairs.items()} == oracle
    for c, w in pairs.items():
        perms = len(set(itertools.permutations(c)))
        assert _perms(c) == perms
        assert c <= _mirror(c, lift.modulus)
        # the row swap gives every permutation of both classes one multiplicity
        size = len({*itertools.permutations(c), *itertools.permutations(_mirror(c, lift.modulus))})
        assert w % size == 0
        assert n != 3 or _class_size(c, lift.modulus) == size


def test_class_size_over_q_and_fp():
    assert _mirror((-3, 1, 2), None) == (-2, -1, 3)
    assert _class_size((-3, 1, 2), None) == 12
    assert _class_size((-2, 0, 2), None) == 6
    assert _class_size((-1, 1, 1), None) == 6
    assert _class_size((0, 0, 0), None) == 1
    assert _mirror((-1, -1, 1, 1), None) == (-1, -1, 1, 1)
    # over F_5, -(0, 1, 4) is (0, 4, 1): self-paired with c[0] + c[-1] != 0
    assert _mirror((0, 1, 4), 5) == (0, 1, 4)
    assert _class_size((0, 1, 4), 5) == 6
    assert _mirror((0, 1, 2), 5) == (0, 3, 4)
    assert _class_size((0, 1, 2), 5) == 12
    assert _class_size((0, 0, 0), 7) == 1
    assert _class_size((0, 0, 3), 7) == 6
    # over F_2 every residue is its own negation
    assert _class_size((0, 1, 1), 2) == 3


@pytest.mark.parametrize(
    "p, key_len, keys",
    [
        # sorted 3-keys over Q: v[0] + v[2] below, above and at 0, where
        # the middle entry breaks the tie, and the self-mirror (-a, 0, a)
        (None, 3, [(-5, 1, 2), (-2, -1, 1), (-2, -1, 3), (-3, 1, 2), (1, 2, 3), (-3, -2, -1),
                   (-3, -1, 3), (-3, 1, 3), (-4, 0, 4), (-1, 0, 1), (0, 0, 0), (-2, 2, 2)]),
        # sorted 4-keys over Q take the generic path
        (None, 4, [(-2, 0, 1, 1), (-1, -1, 0, 2), (-3, -1, 2, 3), (-3, -2, 1, 3), (-1, -1, 1, 1), (0, 1, 2, 3)]),
        # sorted residues over F_5 and F_7, with none, one, two and all entries 0
        (5, 3, [(0, 1, 4), (0, 1, 2), (0, 3, 4), (2, 2, 3), (2, 3, 3), (0, 0, 0), (0, 0, 2), (0, 0, 3), (1, 4, 4)]),
        (7, 4, [(0, 1, 2, 6), (0, 1, 5, 6), (1, 2, 5, 6), (3, 3, 4, 4), (0, 0, 0, 0), (0, 0, 0, 3), (0, 0, 2, 6),
                (0, 0, 1, 5)]),
        # level vectors, negated entry by entry, not sorted
        (None, None, [(1, -2, 0, 3, -1, 2), (-1, 2, 0, -3, 1, -2), (0, 0, 0, 0, 0, 0), (0, -1, 4, 0, 0, 1)]),
        (7, None, [(1, 5, 0, 3, 6, 2), (6, 2, 0, 4, 1, 5), (0, 0, 0, 0, 0, 0), (0, 0, 3, 0, 0, 4)]),
        # sorted residues over F_2 and F_3, leading zeros included
        (2, 3, [(0, 0, 1), (0, 1, 1), (1, 1, 1), (0, 0, 0)]),
        (3, 4, [(0, 0, 1, 2), (0, 1, 1, 1), (0, 2, 2, 2), (1, 1, 2, 2), (0, 0, 0, 1), (0, 0, 0, 2)]),
    ],
)
def test_fold_keys_each_vector_by_the_smaller_of_it_and_its_mirror(p, key_len, keys):
    def mirror(v):
        u = tuple(-x % p if p else -x for x in v)
        return tuple(sorted(u)) if key_len else u

    chunks = [
        (1, Counter({v: i + 1 for i, v in enumerate(keys)})),
        (6, Counter({v: 2 for v in keys[::2]})),
        (3, Counter({v: 5 for v in keys[1::3]})),
        (2, Counter()),
    ]
    oracle = Counter()
    for w, tally in chunks:
        for v, a in tally.items():
            oracle[min(v, mirror(v))] += w * a
    assert _fold(iter(chunks), p, key_len) == oracle
    # the fold pops every tally empty as it goes
    assert all(not tally for _, tally in chunks)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("key_len", [3, 4])
def test_prime_field_mirror_is_built_by_indexing(p, key_len):
    # every sorted key of residues, zeros included: `_mirror` and the fold's
    # own copy keep the leading zeros and map the rest to p - x reversed
    for v in itertools.combinations_with_replacement(range(p), key_len):
        oracle = tuple(sorted(-x % p for x in v))
        assert _mirror(v, p) == oracle, v
        assert _fold(iter([(3, Counter({v: 2}))]), p, key_len) == {min(v, oracle): 6}, v


def test_class_size_matches_permutation_sets():
    # every sorted n = 3 key over Q with entries in -6..6 and over F_2, ..., F_13
    for p, entries in [(None, range(-6, 7))] + [(p, range(p)) for p in (2, 3, 5, 7, 11, 13)]:
        for c in itertools.combinations_with_replacement(entries, 3):
            oracle = {*itertools.permutations(c), *itertools.permutations(_mirror(c, p))}
            assert _class_size(c, p) == len(oracle), (c, p)


# sets symmetric about 0, where self-paired classes such as (-1, 0, 1)
# abound, and F_5 sets whose classes include self-paired keys like (0, 1, 4)
_symmetric_sets = st.integers(1, 2).map(lambda k: make_ground_set(range(-k, k + 1), QQ))
_paired_sets = st.one_of(
    _symmetric_sets,
    int_ground_sets(max_size=3, lo=-3, hi=3),
    st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True).map(
        lambda vals: make_ground_set(vals, FieldSpec.prime(5))
    ),
)


@given(_paired_sets, st.integers(-4, 4))
@example(make_ground_set(range(-2, 3), QQ), 1)
@example(make_ground_set([0, 1, 4], FieldSpec.prime(5)), 2)
@example(make_ground_set([1, 4], FieldSpec.prime(5)), 1)
@settings(max_examples=25)
def test_paired_rowblock_matches_brute(X, d):
    # one form per pair at d = 0, the forms at d and -d halved otherwise,
    # and the mirrored fold, against the brute spectrum at n = 3
    sb = det_spectrum(X, 3, "brute")
    assert det_spectrum(X, 3, "rowblock").entries == sb.entries
    for t in (d, -d, 0):
        assert count_det_rowblock(X, 3, t) == sb.get(t)


def _count_by_classes_as_forms(lift, n, target, meter) -> int:
    """D_n(X, d) at the lifted `target` from the pairs of `_class_table`, fed
    to `_count_forms` as forms: each pair key m of mass w, divided over Q by
    the gcd g of its entries (and dropped when g does not divide the target),
    is the form (m/g, s*target/g, w) for each sign s of the target, and the
    forms at target and -target are halved."""
    pairs, zero = _class_table(lift, n, meter)
    p = lift.modulus
    signs = (1, -1) if target else (1,)
    forms = []
    for m, w in pairs.items():
        g = 1 if p else math.gcd(*m)
        if target % g == 0:
            forms += [(tuple(x // g for x in m), s * target // g, w) for s in signs]
    total = _count_forms(forms, lift.elements, p, meter) // len(signs)
    return total + (0 if target else zero * len(lift.elements) ** n)


@given(_class_cases(), st.integers(-30, 30))
@example((make_ground_set(range(-2, 3), QQ), 3), 3)
@example((make_ground_set([0, 1, 4], FieldSpec.prime(5)), 3), 7)
@example((make_ground_set([0, 1], FieldSpec.prime(2)), 4), 1)
@example((make_ground_set([2, 4, 6], QQ), 3), 8)
@settings(max_examples=40)
def test_count_by_classes_groups_pair_keys_as_forms(case, d):
    # the count groups the pair keys for the kernel as they leave the walk:
    # over Q each is sorted with m[0] + m[-1] <= 0 (it is the smaller of a
    # class and its mirror), so it looks up its first entry; over F_p it is
    # sorted residues, so its last. That must count and charge as the same
    # keys fed to the kernel as forms
    X, n = case
    lift = int_lift(X)
    pairs, _ = _class_table(lift, n, Meter(None, "test"))
    for m in pairs:
        assert list(m) == sorted(m)
        assert lift.modulus or m[0] + m[-1] <= 0
    for target in (0, 1, -1, d):
        grouped, as_forms = Meter(None, "test"), Meter(None, "test")
        count = detcount._count_by_classes(lift, n, target, grouped)
        assert count == _count_by_classes_as_forms(lift, n, target, as_forms)
        assert grouped.spent == as_forms.spent


# every entry a multiple of s makes every cofactor a multiple of g = s^2:
# the count divides each pair key by its gcd (g or a multiple of it) and
# drops the forms whose gcd does not divide the target
@st.composite
def _shared_factor_cases(draw):
    s = draw(st.sampled_from([2, 3]))
    base = draw(st.one_of(st.just([1, 2, 4]), st.lists(st.integers(-3, 4), min_size=1, max_size=3, unique=True)))
    g = s * s
    return make_ground_set([s * x for x in base], QQ), draw(st.sampled_from([0, 1, g, -g, 2 * g]))


@given(_shared_factor_cases())
@example((make_ground_set([2, 4, 6], QQ), 4))
@example((make_ground_set([2, 4, 8], QQ), 8))
@example((make_ground_set([3, 6, 9], QQ), -9))
@example((make_ground_set([3, 6, 9], QQ), 1))
@settings(max_examples=25)
def test_gcd_scaled_forms_match_brute(case):
    X, d = case
    assert count_det_rowblock(X, 3, d) == count_det_brute(X, 3, d)


@pytest.mark.parametrize(
    "X",
    [
        make_ground_set([-1, 0, 2, 3], QQ),
        make_ground_set([Fraction(1, 2), 1, 3], QQ),
        make_ground_set([0, 1, 3, 5], F7),
        make_ground_set([1, 2, 4], FieldSpec.prime(5)),
    ],
)
def test_dyadic_pyramid_and_energy_match_binned_tally(X):
    mults = list(_cofactor_tally(X, 3).values())
    by_class = Counter()
    for mu in mults:
        w = 1
        while 2 * w <= mu:
            w *= 2
        by_class[w] += 1
    pyramid = dyadic_pyramid(X)
    assert pyramid.classes == tuple(sorted(by_class.items()))
    assert pyramid.total_mass == sum(mults) == len(X) ** 6
    assert pyramid.max_weighted == max(w * w * c for w, c in by_class.items())
    assert energy_Estar_mu(X) == sum(mu * mu for mu in mults)


def test_scaling_covariance():
    rng = random.Random(5)
    for _ in range(10):
        vals = rng.sample(range(-5, 6), rng.randint(1, 3))
        X = make_ground_set(vals, QQ)
        c = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
        for n in (2, 3):
            spec = det_spectrum(X, n, "rowblock")
            scaled = det_spectrum(scale_set(X, c), n, "rowblock")
            assert scaled.entries == {d * c**n: v for d, v in spec.entries.items()}


def test_negation_covariance():
    for vals in ([1, 2], [0, 1, 3], [-2, 1]):
        X = make_ground_set(vals, QQ)
        for n in (2, 3):
            spec = det_spectrum(X, n, "rowblock")
            neg = det_spectrum(scale_set(X, -1), n, "rowblock")
            assert neg.entries == {d * (-1) ** n: v for d, v in spec.entries.items()}


def test_budget_refusal():
    # the rowblock count at d = 1 walks the classes and runs the kernel:
    # 3,112 steps (the d = 0 projection takes 980 here and passes)
    X = make_ground_set(range(1, 5), QQ)
    with pytest.raises(BudgetExceededError):
        count_det_brute(X, 3, 0, budget=1000)
    with pytest.raises(BudgetExceededError):
        count_det_rowblock(X, 3, 1, budget=1000)
    with pytest.raises(BudgetExceededError):
        det_spectrum(X, 3, "brute", budget=1000)


def test_budget_covers_solve_phase():
    # the class walk's C(4^2 + 2, 3) = 816 top blocks fit the budget, but
    # the kernel at d = 1 (3,112 steps in all) and the fold (6,856) behind
    # them do not
    X = make_ground_set(range(1, 5), QQ)
    with pytest.raises(BudgetExceededError):
        count_det_rowblock(X, 3, 1, budget=2048)
    with pytest.raises(BudgetExceededError):
        det_spectrum(X, 3, "rowblock", budget=2048)


def test_rowblock_budget_is_charged_per_sorted_key_class():
    # interval 4, n = 3: the class walk takes one 2 x 3 top block per
    # multiset of 3 of the 4^2 columns, C(18, 3) = 816 steps, giving 231
    # pair keys of sorted-key classes with 120 distinct prefixes (a, b) and
    # 15 distinct (a). At d = 0 the walk-and-kernel count divides each key by
    # the gcd of its entries, which leaves 146 merged forms (a, b, e). Every
    # pair key has e <= -a, so no form is negated, and each looks up its
    # first entry a over its prefix (b, e): 69 distinct (b, e) and 15
    # distinct (b). The kernel builds the 15 distributions of b*x from the
    # root's one entry (4 * 15 steps), the 69 of b*x + e*y from theirs, 4
    # entries each but 1 for the 3 with b = 0 (4 * (66 * 4 + 3) = 1068
    # steps), then does 4 lookups per merged form (584):
    # 816 + 60 + 1068 + 584 = 2528. The spectrum files each key (a, b, e)
    # under the leaf (a, u) with u the larger of b and e in |.|, 108 leaves
    # in all: it adds 4 * 231 leaf entries, then shifts 4 * 685 entries of
    # the 108 leaf dicts and 4 * 594 of the 15:
    # 816 + 924 + 2740 + 2376 = 6856. The public d = 0 count projects along
    # the top row instead: C(4 + 2, 3) = 20 sorted rows, of which
    # (2, 2, 2), (3, 3, 3), (4, 4, 4), (2, 2, 4) and (2, 4, 4) share a
    # direction with a primitive row, then 4^3 per each of the 15
    # directions: 20 + 15 * 64 = 980.
    X = make_ground_set(range(1, 5), QQ)
    count = count_det_rowblock(X, 3, 0, budget=980)
    spec = det_spectrum(X, 3, "rowblock", budget=6_856)
    assert count == spec.get(0) == count_det_rowblock(X, 3, 0)
    assert spec.entries == det_spectrum(X, 3, "rowblock").entries
    meter = Meter(None, "test")
    assert detcount._count_by_classes(int_lift(X), 3, 0, meter) == count
    assert meter.spent == 2_528
    # the refusal at pin - 1 reports the whole call's total, rows and tallies
    with pytest.raises(BudgetExceededError) as exc:
        count_det_rowblock(X, 3, 0, budget=979)
    assert (exc.value.estimated, exc.value.budget, exc.value.what) == (980, 979, "count_det_rowblock")
    with pytest.raises(BudgetExceededError) as exc:
        det_spectrum(X, 3, "rowblock", budget=6_855)
    assert (exc.value.estimated, exc.value.budget, exc.value.what) == (6_856, 6_855, "det_spectrum[rowblock]")


@pytest.mark.parametrize("values, field, n, pin", [
    (range(1, 4), QQ, 4, 50_436),
    (range(1, 5), FieldSpec.prime(5), 3, 1_036),
    # symmetric about 0: many classes are their own mirror
    (range(-2, 3), QQ, 3, 5_450),
])
def test_spectrum_budget_totals(values, field, n, pin):
    # the fold charges each level of each first entry's subtree before it
    # runs; the totals are those of charging each whole level at once, and
    # the last charge is the last subtree's root shift, so pin - 1 is refused
    # there with the whole call's total
    X = make_ground_set(values, field)
    spec = det_spectrum(X, n, "rowblock", budget=pin)
    assert spec.total_mass() == len(X) ** (n * n)
    with pytest.raises(BudgetExceededError) as exc:
        det_spectrum(X, n, "rowblock", budget=pin - 1)
    assert (exc.value.estimated, exc.value.budget, exc.value.what) == (pin, pin - 1, "det_spectrum[rowblock]")


@pytest.mark.parametrize("values, field, n, d, pin, count", [
    (range(1, 5), QQ, 3, 1, 3_112, 6_399),
    (range(1, 5), FieldSpec.prime(5), 3, 2, 1_028, 47_616),
    # symmetric about 0: many classes are their own mirror
    (range(-2, 3), QQ, 3, 3, 4_615, 63_792),
    (range(1, 4), QQ, 4, 1, 36_780, 1_393_944),
])
def test_rowblock_budget_totals_off_zero(values, field, n, d, pin, count):
    # at d != 0 the count walks the classes and runs the kernel on the
    # forms at d and -d; the kernel charges its last prefix level with the
    # lookups last, so pin - 1 is refused there with the whole call's total
    X = make_ground_set(values, field)
    assert count_det_rowblock(X, n, d, budget=pin) == count
    with pytest.raises(BudgetExceededError) as exc:
        count_det_rowblock(X, n, d, budget=pin - 1)
    assert (exc.value.estimated, exc.value.budget, exc.value.what) == (pin, pin - 1, "count_det_rowblock")


def _fold_spectrum(X, n, span):
    """The rowblock spectrum with the packing rule's K set to `span` (inf:
    every level of the fold packs; 0: none does), and the number of dicts
    packed and of dict shift-adds on the way."""
    calls = Counter()
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_pack", "_shift_add"):
            real = getattr(detcount, name)
            patch.setattr(detcount, name, lambda *a, real=real, name=name: calls.update([name]) or real(*a))
        patch.setattr(detcount, "_PACK_SPAN", span)
        return det_spectrum(X, n, "rowblock").entries, calls


_RNG = random.Random(4)
# 0, two negatives and one positive, seeded
_RANDOM_4 = [0, *_RNG.sample(range(-9, 0), 2), _RNG.randint(1, 9)]


def _over_q(values):
    """`values` as a ground set over Q, unless it is a ground set already."""
    return values if isinstance(values, GroundSet) else make_ground_set(values, QQ)


@pytest.mark.parametrize("values, n", [
    (range(1, 4), 3),
    (range(1, 5), 3),
    # self-mirror classes and the zero row
    (range(-2, 3), 3),
    # the lift: L = 2
    ([Fraction(1, 2), 1, Fraction(3, 2)], 3),
    ([1, 2, 4, 8], 3),
    (_RANDOM_4, 3),
    (range(1, 3), 4),
    # over F_p the slots are cyclic: the residue 0, and sums past p - 1
    # folding back onto the low slots
    (make_ground_set(range(1, 5), FieldSpec.prime(5)), 3),
    (make_ground_set([0, 3, 5, 6], F7), 3),
    (make_ground_set(range(1, 3), FieldSpec.prime(3)), 4),
])
def test_packed_and_dict_folds_match_brute(values, n):
    # every level packed and none packed: both give the brute spectrum, and
    # each takes only its own path
    X = _over_q(values)
    brute = det_spectrum(X, n, "brute").entries
    packed, calls = _fold_spectrum(X, n, math.inf)
    assert packed == brute and calls["_pack"] and not calls["_shift_add"]
    unpacked, calls = _fold_spectrum(X, n, 0)
    assert unpacked == brute and calls["_shift_add"] and not calls["_pack"]


@pytest.mark.parametrize("values", [
    range(-2, 3), _RANDOM_4, [Fraction(1, 2), 1, Fraction(3, 2)], [1, 2, 4, 8], range(1, 5),
])
def test_spectrum_leaves_take_both_entry_choices(values, monkeypatch):
    # at n = 3 over Q the fold files the pair key (a, b, c) under the leaf
    # (a, b) when |b| >= |c|, that is b + c <= 0 or b = c, and under (a, c)
    # otherwise. Each set here has keys of both kinds with b != c. The fold's
    # leaves must be exactly those, and its spectrum brute's, with every
    # level packed and with none
    X = _over_q(values)
    pairs, _ = _class_table(int_lift(X), 3, Meter(None, "test"))
    under_b = {m for m in pairs if m[1] + m[2] <= 0}
    assert any(b != c for _, b, c in under_b) and any(b != c for _, b, c in set(pairs) - under_b)
    want = {(a, b) if (a, b, c) in under_b else (a, c) for a, b, c in pairs}
    brute = det_spectrum(X, 3, "brute").entries
    dense = detcount._dense
    leaves = set()

    def spy(nodes, k, *args):
        if k == 1:
            leaves.update(nodes)
        return dense(nodes, k, *args)

    monkeypatch.setattr(detcount, "_dense", spy)
    for span in (0, math.inf):
        leaves.clear()
        entries, calls = _fold_spectrum(X, 3, span)
        assert leaves == want
        assert entries == brute and bool(calls["_pack"]) == (span > 0)


@pytest.mark.parametrize("values, n", [(range(1, 9), 3), (range(1, 4), 4)])
def test_packed_and_dict_folds_agree_beyond_brute(values, n):
    X = make_ground_set(values, QQ)
    packed, _ = _fold_spectrum(X, n, math.inf)
    assert packed == _fold_spectrum(X, n, 0)[0] == det_spectrum(X, n, "rowblock").entries
    assert sum(packed.values()) == len(X) ** (n * n)


def test_slots_too_narrow_for_the_mass_turn_packing_off(monkeypatch):
    # a slot must hold |X|^(n^2), which 3^9 = 19,683 overflows at 8 bits
    X = make_ground_set(range(1, 4), QQ)
    monkeypatch.setattr(detcount, "_SLOT_BITS", {8: "B"})
    entries, calls = _fold_spectrum(X, 3, math.inf)
    assert not calls["_pack"]
    assert entries == det_spectrum(X, 3, "brute").entries


@pytest.mark.parametrize("spec, packs", [
    (FamilySpec("interval", 6), True),
    # spectrum_mt's dsup input and a set of large random values: sparse levels stay dicts
    (FamilySpec("gp", 6, ratio=2), False),
    (FamilySpec("random", 6, seed=1, low=-10**6, high=10**6), False),
    # over F_p every node spans p slots: F_101 packs, F_10007 stays on dicts
    (generate(FamilySpec("interval", 6), FieldSpec.prime(101)), True),
    (generate(FamilySpec("interval", 6), FieldSpec.prime(10007)), False),
])
def test_packing_rule_selects_dense_levels(spec, packs):
    X = generate(spec, QQ) if isinstance(spec, FamilySpec) else spec
    _, calls = _fold_spectrum(X, 3, detcount._PACK_SPAN)
    assert bool(calls["_pack"]) == packs


@pytest.mark.parametrize("values, n, pin", [
    (range(1, 5), 3, 6_856), (range(1, 4), 4, 50_436), (range(-2, 3), 3, 5_450),
    (make_ground_set(range(1, 5), FieldSpec.prime(5)), 3, 1_036),
])
@pytest.mark.parametrize("span", [0, math.inf])
def test_packed_fold_charges_as_the_dict_fold(values, n, pin, span, monkeypatch):
    # a packed node is charged |X| per nonzero slot, a dict |X| per entry:
    # the same pins, and the same refusal at pin - 1, with no level packed
    # (K = 0) and with every level packed (K = inf)
    monkeypatch.setattr(detcount, "_PACK_SPAN", span)
    X = _over_q(values)
    assert det_spectrum(X, n, "rowblock", budget=pin).total_mass() == len(X) ** (n * n)
    with pytest.raises(BudgetExceededError) as exc:
        det_spectrum(X, n, "rowblock", budget=pin - 1)
    assert exc.value.estimated == pin


def _traced_peak(call) -> int:
    """Least peak of the memory traced over three runs of `call()`, in bytes.
    tracemalloc does not see blocks the interpreter takes from its free
    lists, so one traced run reads what earlier code left in them: one
    untraced run first, and a collection before each run, leave every traced
    run the same lists (the count-to-walk ratio below read 1.23 to 1.32 over
    single runs in one process, and 1.26 each time as the least of three)."""
    gc.collect()
    call()
    peaks = []
    for _ in range(3):
        gc.collect()
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)


def test_spectrum_fold_holds_one_subtree_at_a_time():
    # the fold's subtrees under different first entries meet only at the
    # root, so it holds one at a time and its peak stays near the class
    # walk's own; holding a whole level of the trie took 3.6 times the walk's
    X = make_ground_set(range(1, 9), QQ)
    walk = _traced_peak(lambda: _class_table(int_lift(X), 3, Meter(None, "test")))
    spectrum = _traced_peak(lambda: det_spectrum(X, 3, "rowblock"))
    assert spectrum <= 1.5 * walk


def test_count_off_zero_holds_about_the_class_walk():
    # the count pops each pair key as it groups it, so the pairs and the
    # merged forms are never both whole, and it builds one last-level
    # distribution at a time: its peak stays near the class walk's own
    # (1.26 times it at interval 8)
    X = make_ground_set(range(1, 9), QQ)
    walk = _traced_peak(lambda: _class_table(int_lift(X), 3, Meter(None, "test")))
    count = _traced_peak(lambda: count_det_rowblock(X, 3, 1))
    assert count <= 1.3 * walk


@pytest.mark.parametrize("n, size, brute_size", [(2, 40, 4), (3, 12, 3), (4, 6, 2)])
def test_unreachable_target_is_zero_before_any_walk(n, size, brute_size):
    # over an integral set every n x n determinant is an integer, so d = 1/2
    # is reached by no matrix: 0, charged nothing, at any size
    half = Fraction(1, 2)
    assert count_det_rowblock(make_ground_set(range(1, size + 1), QQ), n, half, budget=0) == 0
    X = make_ground_set(range(1, brute_size + 1), QQ)
    assert count_det_rowblock(X, n, half, budget=0) == count_det_brute(X, n, half) == 0


@pytest.mark.parametrize("n", [2, 3])
def test_reachable_fractional_target_is_still_charged(n):
    # over {1/2, 1, 3/2, 2} (L = 2) the target 1/2 lifts to the integer
    # 2^n / 2, so the count walks and a budget of 0 refuses it (the brute
    # cross-check drops 2 at n = 3, where 4^9 Fraction matrices take seconds)
    X = make_ground_set([Fraction(i, 2) for i in range(1, 5)], QQ)
    with pytest.raises(BudgetExceededError):
        count_det_rowblock(X, n, Fraction(1, 2), budget=0)
    Y = X if n == 2 else make_ground_set(X.elements[:3], QQ)
    assert count_det_rowblock(Y, n, Fraction(1, 2)) == count_det_brute(Y, n, Fraction(1, 2)) > 0


def test_rowblock_n2_refusal_is_named_for_the_call():
    # the n = 2 count charges 40^2 for the pair products, then the 517
    # distinct ones, to the rowblock call's own meter (pins as in
    # tests/test_cli.py::test_rowblock_n2_charges_pair_table)
    X = make_ground_set(range(1, 41), QQ)
    for budget, estimated in ((40**2 - 1, 40**2), (40**2 + 516, 40**2 + 517)):
        with pytest.raises(BudgetExceededError) as exc:
            count_det_rowblock(X, 2, 1, budget=budget)
        assert (exc.value.estimated, exc.value.budget, exc.value.what) == (
            estimated, budget, "count_det_rowblock"
        )
    assert count_det_rowblock(X, 2, 1, budget=40**2 + 517) == 1878


def test_n2_spectrum_budget_is_pair_products_then_correlation():
    # interval 40, n = 2: the pair-product table P takes 40^2 = 1,600 steps
    # and has 517 distinct products, and the difference-correlation does one
    # update per ordered pair of them: 1,600 + 517^2 = 268,889
    X = make_ground_set(range(1, 41), QQ)
    spec = det_spectrum(X, 2, "rowblock", budget=268_889)
    assert spec.total_mass() == 40**4
    with pytest.raises(BudgetExceededError):
        det_spectrum(X, 2, "rowblock", budget=268_888)
    # the pair-product table is refused before it is built
    with pytest.raises(BudgetExceededError):
        det_spectrum(X, 2, "rowblock", budget=1_599)


def test_class_walk_charges_each_wedge_level():
    # interval 3, n = 4: one 2 x 4 top block per multiset of 4 of the 3^2
    # columns, C(12, 4) = 495 steps, whose 2-minors give 406 distinct
    # level-2 Pluecker vectors, 231 classes once v and -v merge; then one
    # wedge step per class and third row: 231 * 3^4
    X = make_ground_set(range(1, 4), QQ)
    steps = 495 + 231 * 81
    meter = Meter(None, "test")
    _class_table(int_lift(X), 4, meter)
    assert meter.spent == steps
    mm = minor_multiplicity_map(X, 4, budget=steps)
    assert mm.total_mass() == 3**12
    with pytest.raises(BudgetExceededError) as exc:
        minor_multiplicity_map(X, 4, budget=steps - 1)
    assert (exc.value.estimated, exc.value.budget, exc.value.what) == (steps, steps - 1, "minor_multiplicity_map")
    # the top blocks are refused before they are walked
    with pytest.raises(BudgetExceededError):
        minor_multiplicity_map(X, 4, budget=494)


def test_n4_interval_3_count():
    # 7,382,001 is "D4 interval 3 d=0" in perfbench/references.json, where
    # the brute oracle confirmed it
    X = make_ground_set(range(1, 4), QQ)
    assert count_det_rowblock(X, 4, 0) == 7_382_001
    assert det_spectrum(X, 4, "rowblock").get(0) == 7_382_001


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def test_parallel_counts_match_serial(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    X = make_ground_set([0, 1, 2], QQ)
    assert count_det_brute(X, 2, 0, threads=4) == count_det_brute(X, 2, 0, threads=1)
    assert count_det_rowblock(X, 3, 0, threads=4) == count_det_rowblock(X, 3, 0, threads=1)
    sb = det_spectrum(X, 2, "brute", threads=4)
    assert sb.entries == det_spectrum(X, 2, "brute", threads=1).entries
    Xp = make_ground_set([1, 2, 4], F7)
    assert count_det_rowblock(Xp, 2, 3, threads=3) == count_det_rowblock(Xp, 2, 3)
    # n = 3 walks over Q and F_7, on sets of three and of two values
    for field in (QQ, F7):
        for vals, threads in (([-1, 2, 3], 2), ([1, 3], 4)):
            Y = make_ground_set(vals, field)
            assert count_det_brute(Y, 3, 1, threads=threads) == count_det_brute(Y, 3, 1)
            for engine in ("brute", "rowblock"):
                spec = det_spectrum(Y, 3, engine, threads=threads)
                assert spec.entries == det_spectrum(Y, 3, engine).entries
            mm = minor_multiplicity_map(Y, 3, threads=threads)
            serial = minor_multiplicity_map(Y, 3)
            assert (mm.entries, mm.zero_count) == (serial.entries, serial.zero_count)
    # 4^9 = 262,144 matrices: the size from which the brute oracle once sharded its walk
    X4 = make_ground_set(range(1, 5), QQ)
    assert count_det_brute(X4, 3, 0, threads=4) == count_det_brute(X4, 3, 0, threads=1)
    spec = det_spectrum(X4, 3, "brute", threads=4)
    assert spec.entries == det_spectrum(X4, 3, "brute", threads=1).entries
    assert dsup(X4, 3, True, engine="brute", threads=4) == dsup(X4, 3, True, engine="brute", threads=1)


def test_cofactor_table_never_starts_a_pool(monkeypatch):
    from detlab.incidence import planes_from_minors

    X = make_ground_set([-1, 2, 3], QQ)
    calls = [
        lambda t: count_det_rowblock(X, 3, 1, threads=t),
        lambda t: det_spectrum(X, 3, "rowblock", threads=t),
        lambda t: dsup(X, 3, True, threads=t),
        lambda t: minor_multiplicity_map(X, 3, threads=t),
        lambda t: planes_from_minors(X, 1, threads=t),
        lambda t: energy_Estar_mu(X, threads=t),
        lambda t: dyadic_pyramid(X, threads=t),
    ]
    serial = [call(1) for call in calls]
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    assert [call(4) for call in calls] == serial


def test_fractional_d_over_integer_set():
    assert count_det_brute(X12, 2, Fraction(1, 2)) == 0
    assert count_det_rowblock(X12, 2, Fraction(1, 2)) == 0


@st.composite
def _linear_forms(draw):
    """(X, forms, wraps) over an int, Fraction or F_7 set: a list of forms
    (c, t, w) of one length k in {2, 3}, whose coefficient vectors come from
    a small pool (so several forms share a prefix group with different
    targets) that may hold the all-zero vector; coefficients may be zero or
    fractional over Q, and a target is often one the form attains. `wraps`
    are the multiples of 7 that `_int_forms` adds to the residues over F_7."""
    kind = draw(st.sampled_from(["int", "fraction", "f7"]))
    if kind == "f7":
        X = make_ground_set(draw(st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True)), F7)
        values = st.integers(0, 6)
    else:
        ints = st.integers(-4, 4)
        if kind == "int":
            X = make_ground_set(draw(st.lists(ints, min_size=1, max_size=4, unique=True)), QQ)
        else:
            fracs = st.fractions(-3, 3, max_denominator=3)
            X = make_ground_set(draw(st.lists(fracs, min_size=1, max_size=4, unique=True)), QQ)
        values = st.one_of(ints, st.fractions(-3, 3, max_denominator=3))
    k = draw(st.integers(2, 3))
    vectors = st.lists(values, min_size=k, max_size=k).map(lambda v: [X.field.coerce(c) for c in v])
    pool = draw(st.lists(st.one_of(vectors, st.just([X.field.zero()] * k)), min_size=1, max_size=3))
    forms = []
    for _ in range(draw(st.integers(1, 6))):
        coeffs = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            r = draw(st.lists(st.sampled_from(X.elements), min_size=k, max_size=k))
            target = sum((c * x for c, x in zip(coeffs, r)), X.field.zero())
        else:
            target = X.field.coerce(draw(values))
        forms.append((coeffs, target, draw(st.integers(1, 5))))
    wraps = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=4))
    return X, forms, wraps


def _forms_by_enumeration(X, forms) -> int:
    """Sum of w * #{r in X^k : <c, r> = t} over the forms, by trying every r."""
    zero = X.field.zero()
    return sum(
        w
        for coeffs, target, w in forms
        for r in itertools.product(X.elements, repeat=len(coeffs))
        if sum((c * x for c, x in zip(coeffs, r)), zero) == target
    )


def _int_forms(X, forms, wraps):
    """The field-scalar forms as the plain ints `_count_forms` takes, with
    its elems and modulus. Over Q a form (c, t) is scaled by the lcm l of
    the denominators of its entries and X by its lift L: <c, r> = t iff
    <l*c, L*r> = l*L*t. Over F_7 they are residues, the j-th of them plus
    7 * wraps[j % len(wraps)], which the kernel must reduce."""
    lift = int_lift(X)
    if lift.modulus:
        shift = itertools.cycle([7 * s for s in wraps])
        out = [([x.residue + next(shift) for x in c], t.residue + next(shift), w) for c, t, w in forms]
        return out, lift.elements, lift.modulus
    out = []
    for c, t, w in forms:
        l = math.lcm(*(Fraction(x).denominator for x in (*c, t)))
        out.append(([int(x * l) for x in c], int(t * l * lift.scale), w))
    return out, lift.elements, None


@settings(max_examples=300)
@given(_linear_forms())
def test_count_forms_matches_enumeration(case):
    X, forms, wraps = case
    direct = _forms_by_enumeration(X, forms)
    ints, elems, p = _int_forms(X, forms, wraps)
    meter = Meter(None, "test")
    assert _count_forms(ints, elems, p, meter) == direct
    if p:
        # the same forms on plain residues: the kernel reduces the wrapped
        # ones to these, so they merge alike and charge alike
        residues = [([c.residue for c in coeffs], t.residue, w) for coeffs, t, w in forms]
        plain = Meter(None, "test")
        assert _count_forms(residues, elems, p, plain) == direct
        assert meter.spent == plain.spent
    k = len(forms[0][0])
    assert _count_forms([([0] * k, 0, 2)], elems, p, Meter(None, "test")) == 2 * len(X) ** k
    assert _count_forms([([0] * k, 1, 2)], elems, p, Meter(None, "test")) == 0


@settings(max_examples=200)
@given(_linear_forms(), st.data())
def test_count_forms_is_invariant_under_form_symmetries(case, data):
    # the kernel negates and sorts each form and merges equal ones: negating
    # a form to (-c, -t), permuting c or splitting its weight must leave the
    # count as it was, and a duplicate (negated and permuted) must add that
    # form's own count once more, on lifted ints and on residues mod 7
    X, forms, wraps = case
    i = data.draw(st.integers(0, len(forms) - 1), label="form")
    c, t, w = forms[i]
    rest = forms[:i] + forms[i + 1 :]
    negated = ([-x for x in c], -t, w)
    permuted = (data.draw(st.permutations(c), label="permutation"), t, w)
    w1 = data.draw(st.integers(0, w), label="split")
    split = [(c, t, w1), (c, t, w - w1)]
    twin = (data.draw(st.permutations(negated[0]), label="twin"), -t, w)
    direct = _forms_by_enumeration(X, forms)
    variants = [
        (rest + [negated], direct),
        (rest + [permuted], direct),
        (rest + split, direct),
        (forms + [twin], direct + _forms_by_enumeration(X, [forms[i]])),
    ]
    for variant, want in variants:
        assert _forms_by_enumeration(X, variant) == want
        assert _count_forms(*_int_forms(X, variant, wraps), Meter(None, "test")) == want
        if not X.field.is_rational:
            residues = [([x.residue for x in cs], ts.residue, ws) for cs, ts, ws in variant]
            assert _count_forms(residues, [e.residue for e in X], 7, Meter(None, "test")) == want



@given(st.lists(st.integers(-9, 9), min_size=1, max_size=6, unique=True), st.sampled_from([None, 2, 7, 11]))
@example([3, -3, 0], None)
@example([0, 1], 2)
def test_lead_order_agrees_with_the_orientation_rule(values, p):
    # the curve half orients each pair of differences by the first in the
    # `_by_lead` order: that one must be the entry `_group_forms` looks up,
    # and its one-entry form must give the pair's sign
    if p:
        values = sorted({x % p for x in values})
    order = detcount._by_lead(values, p)
    assert sorted(order) == sorted(values)
    for i, x in enumerate(order):
        [(a, s)] = detcount._group_forms([((x,), 1, 1)], p)[()]
        for y in order[i:]:
            assert detcount._group_forms([((x, y), 1, 1)], p) == {((s * y) % p if p else s * y,): {(a, s): 1}}


def _kernel_calls(monkeypatch, call) -> list:
    """The arguments of each `_count_groups` call that `call()` makes."""
    calls = []
    count_groups = detcount._count_groups

    def spy(*args):
        calls.append(args)
        return count_groups(*args)

    monkeypatch.setattr(detcount, "_count_groups", spy)
    call()
    monkeypatch.setattr(detcount, "_count_groups", count_groups)
    return calls


def _count_against_fold(values, field, n, d):
    X = make_ground_set(values, field)
    assert count_det_rowblock(X, n, d) == det_spectrum(X, n, "rowblock").get(d)


def _bilinear_against_brute(M, B, C, omega, field):
    M, B, C = Matrix.from_rows(M, field), make_ground_set(B, field), make_ground_set(C, field)
    assert count_bilinear(M, B, C, omega) == count_bilinear_brute(M, B, C, omega)


_F101 = FieldSpec.prime(101)
_F2 = FieldSpec.prime(2)


@pytest.mark.parametrize(
    "call, targets",
    [
        # the gcd-reduced pair keys of interval 4 at d = 12 look up 12/g for
        # g = 1, 2, 3, 4, 6 and 12; paired (t and -t) over Q and F_101
        (lambda: _count_against_fold(range(1, 5), QQ, 3, 12), {1, 2, 3, 4, 6, 12}),
        (lambda: _count_against_fold(range(1, 5), QQ, 3, -12), {-1, -2, -3, -4, -6, -12}),
        (lambda: _count_against_fold(range(-3, 4), QQ, 3, 12), {1, 2, 3, 4, 6, 12}),
        (lambda: _count_against_fold(range(1, 5), _F101, 3, 12), {12}),
        (lambda: _count_against_fold(range(1, 5), _F101, 3, -12), {89}),
        # over F_2, t = -t: unpaired
        (lambda: _count_against_fold([0, 1], _F2, 3, 1), {1}),
        (lambda: _count_against_fold([0, 1], _F2, 4, 1), {1}),
        # a form (Mb, omega) whose entry of largest |.| is positive is
        # negated to (-Mb, -omega): both signs of the target
        (lambda: _bilinear_against_brute([[2, 1], [1, 1]], [-2, -1, 1, 2, 3], [-1, 0, 1, 2], 3, QQ), {3, -3}),
        (lambda: _bilinear_against_brute([[1, -2], [2, 1]], [-2, -1, 1, 2], [0, 1, 2], -2, QQ), {2, -2}),
        (lambda: _bilinear_against_brute([[1, 2], [3, 5]], [1, 2, 3, 6], [0, 1, 2, 4], 3, FieldSpec.prime(7)), {3}),
    ],
    ids=[
        "interval-4-d12",
        "interval-4-d-12",
        "-3..3-d12",
        "F101-interval-4-d12",
        "F101-interval-4-d-12",
        "F2-n3",
        "F2-n4",
        "bilinear-Q-flips",
        "bilinear-Q-negative-omega",
        "bilinear-F7",
    ],
)
def test_lookup_lists_do_not_change_the_kernel_total(monkeypatch, call, targets):
    # the kernel keeps one list of lookups per (a, t) from its second form
    # on; a list from the first form (1) or none (0) must give the same
    # totals
    calls = _kernel_calls(monkeypatch, call)
    assert calls
    keys = Counter(key for groups, *_ in calls for members in groups.values() for key in members)
    assert {t for a, t in keys} == targets
    assert max(keys.values()) > 1, "no (a, t) recurs, so no list is reused"
    for groups, *args in calls:
        default = detcount._count_groups(groups, *args)
        for sighting in (1, 0):
            monkeypatch.setattr(detcount, "_LIST_SIGHTING", sighting)
            assert detcount._count_groups(groups, *args) == default
        monkeypatch.setattr(detcount, "_LIST_SIGHTING", 2)
