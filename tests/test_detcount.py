import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

import detlab.detcount as detcount
from detlab.errors import BudgetExceededError, PreconditionError
from detlab.detcount import (
    _cofactor_vector,
    _count_forms,
    count_decomposition,
    count_det_brute,
    count_det_conv_n2,
    count_det_rowblock,
    count_rank,
    det_spectrum,
    dsup,
    find_witness,
    minor_multiplicity_map,
)
from detlab.matrices import det
from detlab.scalars import FieldSpec, make_ground_set, negate_set, scale_set

from conftest import QQ, F7, int_ground_sets, fraction_ground_sets


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
    with pytest.raises(PreconditionError):
        count_det_rowblock(X12, 1, 0)


def test_conv_examples():
    assert count_det_conv_n2(X12, 0) == 6
    assert count_det_conv_n2(X12, 1) == 2
    assert count_det_conv_n2(X0, 0) == 1


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


def test_spectrum_witness():
    spec = det_spectrum(X12, 2, "brute")
    for d in spec.entries:
        w = spec.witness(d)
        assert w is not None and det(w) == d
    assert find_witness(X12, 2, 99) is None


def test_dsup_examples():
    assert dsup(X12, 2, True) == (Fraction(1), 2)
    assert dsup(X12, 2, False) == (Fraction(0), 6)
    assert dsup(make_ground_set([1], QQ), 2, False) == (Fraction(0), 1)
    with pytest.raises(PreconditionError):
        dsup(X0, 2, True)


def test_dsup_prime_field_tiebreak():
    Xp = make_ground_set([1, 2], F7)
    d, cnt = dsup(Xp, 2, True)
    spec = det_spectrum(Xp, 2, "brute")
    assert spec.entries[d] == cnt
    assert all(v < cnt or (v == cnt and d <= k) for k, v in spec.entries.items() if k)


def test_count_rank_examples():
    assert count_rank(X12, 2, 2, 1) == 6
    assert count_rank(X12, 2, 2, 0) == 0
    assert count_rank(make_ground_set([0, 1], QQ), 2, 2, 0) == 1
    with pytest.raises(PreconditionError):
        count_rank(X12, 2, 2, 3)
    with pytest.raises(PreconditionError):
        count_rank(X12, 3, 2, 1)


@given(int_ground_sets(max_size=3, lo=-3, hi=3), st.sampled_from([2, 3]))
@settings(max_examples=25)
def test_rank_partition(X, n):
    total = sum(count_rank(X, n, n, r) for r in range(n + 1))
    assert total == len(X) ** (n * n)
    singular = det_spectrum(X, n, "rowblock").entries.get(Fraction(0), 0)
    assert count_rank(X, n, n, n) == len(X) ** (n * n) - singular


def test_decomposition_examples():
    parts = count_decomposition(X12, 2, 0)
    assert parts.total() == 6
    assert parts.x_zero == 0  # no zero in X

    X01 = make_ground_set([0, 1], QQ)
    parts = count_decomposition(X01, 2, 1)
    assert parts.x_zero == 0  # [[a,b],[c,0]] needs -bc = 1, impossible over {0,1}
    assert parts.total() == count_det_brute(X01, 2, 1)

    parts = count_decomposition(make_ground_set([1], QQ), 3, 0)
    assert (parts.x_zero, parts.y_singular, parts.y_regular) == (0, 1, 0)


@given(int_ground_sets(max_size=3, lo=-2, hi=3), st.integers(-2, 2))
@settings(max_examples=25)
def test_decomposition_sums_to_brute(X, d):
    parts = count_decomposition(X, 2, d)
    assert parts.total() == count_det_brute(X, 2, d)


def test_minor_map_mass():
    sets = (
        X12,
        make_ground_set([0, 1, 2], QQ),
        make_ground_set([1, 3], F7),
        make_ground_set([Fraction(1, 2), Fraction(2, 3), 2], QQ),
        make_ground_set([1, 2, 4], FieldSpec.prime(5)),
    )
    for X in sets:
        for n in (2, 3):
            mm = minor_multiplicity_map(X, n)
            assert mm.total_mass() == len(X) ** (n * (n - 1))
            rows = list(itertools.product(X.elements, repeat=n))
            direct = Counter(
                _cofactor_vector(block, n) for block in itertools.product(rows, repeat=n - 1)
            )
            zero = direct.pop((X.field.zero(),) * n, 0)
            assert (mm.entries, mm.zero_count) == (direct, zero)
            # keys are canonical field scalars: an int whenever integral
            for m in mm.entries:
                assert all(type(c) is type(X.field.coerce(c)) for c in m)


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
            neg = det_spectrum(negate_set(X), n, "rowblock")
            assert neg.entries == {d * (-1) ** n: v for d, v in spec.entries.items()}


def test_budget_refusal():
    X = make_ground_set(range(1, 5), QQ)
    with pytest.raises(BudgetExceededError):
        count_det_brute(X, 3, 0, budget=1000)
    with pytest.raises(BudgetExceededError):
        count_det_rowblock(X, 3, 0, budget=1000)
    with pytest.raises(BudgetExceededError):
        det_spectrum(X, 3, "brute", budget=1000)


def test_budget_covers_solve_phase():
    # 4^6 = 4096 blocks fit the budget, but the pivot solves behind them do not
    X = make_ground_set(range(1, 5), QQ)
    with pytest.raises(BudgetExceededError):
        count_det_rowblock(X, 3, 0, budget=4096)
    with pytest.raises(BudgetExceededError):
        det_spectrum(X, 3, "rowblock", budget=4096)


def test_rowblock_budget_is_charged_per_sorted_key_class():
    # interval 4, n = 3: 4^6 = 4096 blocks and 447 sorted-key classes with
    # 152 distinct prefixes (a, b) and 15 distinct (a). The count builds the
    # 15 distributions of a*x from the root's one entry (4 * 15 steps), the
    # 152 distributions of a*x + b*y from theirs (2432 steps), then does 4
    # lookups per class (1788). The spectrum shifts 4 * 447 leaf entries,
    # then 4 * 1394 entries of the 152 prefix dicts and 4 * 821 of the 15.
    X = make_ground_set(range(1, 5), QQ)
    count = count_det_rowblock(X, 3, 0, budget=8_376)
    spec = det_spectrum(X, 3, "rowblock", budget=14_744)
    assert count == spec.get(0) == count_det_rowblock(X, 3, 0)
    assert spec.entries == det_spectrum(X, 3, "rowblock").entries
    with pytest.raises(BudgetExceededError):
        count_det_rowblock(X, 3, 0, budget=8_375)
    with pytest.raises(BudgetExceededError):
        det_spectrum(X, 3, "rowblock", budget=14_743)


def test_parallel_counts_match_serial(monkeypatch):
    monkeypatch.setattr(detcount, "_MIN_PARALLEL_ITEMS", 1)
    X = make_ground_set([0, 1, 2], QQ)
    assert count_det_brute(X, 2, 0, threads=4) == count_det_brute(X, 2, 0, threads=1)
    assert count_det_rowblock(X, 3, 0, threads=4) == count_det_rowblock(X, 3, 0, threads=1)
    sb = det_spectrum(X, 2, "brute", threads=4)
    assert sb.entries == det_spectrum(X, 2, "brute", threads=1).entries
    Xp = make_ground_set([1, 2, 4], F7)
    assert count_det_rowblock(Xp, 2, 3, threads=3) == count_det_rowblock(Xp, 2, 3)
    # n = 3 walks over Q and F_7, with shards uneven (|X| = 3, two workers)
    # and with fewer leading values than workers (|X| = 2, four workers)
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


def test_cofactor_table_never_starts_a_pool(monkeypatch):
    from detlab.energy import dyadic_pyramid, energy_Estar_mu
    from detlab.incidence import planes_from_minors

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

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
    monkeypatch.setattr(detcount, "_MIN_PARALLEL_ITEMS", 1)
    monkeypatch.setattr(detcount, "ProcessPoolExecutor", no_pool)
    assert [call(4) for call in calls] == serial


def test_fractional_d_over_integer_set():
    assert count_det_brute(X12, 2, Fraction(1, 2)) == 0
    assert count_det_rowblock(X12, 2, Fraction(1, 2)) == 0
    assert count_det_conv_n2(X12, Fraction(1, 2)) == 0


@st.composite
def _linear_forms(draw):
    """(X, forms) over an int, Fraction or F_7 set: a list of forms (c, t, w)
    of one length k in {1, 2, 3}, whose coefficient vectors come from a small
    pool (so several forms share a prefix group with different targets) that
    may hold the all-zero vector; coefficients may be zero or fractional over
    Q, and a target is often one the form attains."""
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
    k = draw(st.integers(1, 3))
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
    return X, forms


@settings(max_examples=300)
@given(_linear_forms())
def test_count_forms_matches_enumeration(case):
    X, forms = case
    zero = X.field.zero()
    direct = sum(
        w
        for coeffs, target, w in forms
        for r in itertools.product(X.elements, repeat=len(coeffs))
        if sum((c * x for c, x in zip(coeffs, r)), zero) == target
    )
    assert _count_forms(forms, X.elements, None, None, "test") == direct
    if not X.field.is_rational:
        # the same forms on residues, each key reduced mod 7
        residues = [([c.residue for c in coeffs], t.residue, w) for coeffs, t, w in forms]
        assert _count_forms(residues, [e.residue for e in X], 7, None, "test") == direct
    k = len(forms[0][0])
    zeros = [zero] * k
    assert _count_forms([(zeros, zero, 2)], X.elements, None, None, "test") == 2 * len(X) ** k
    assert _count_forms([(zeros, X.field.one(), 2)], X.elements, None, None, "test") == 0
