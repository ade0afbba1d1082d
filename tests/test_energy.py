import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from detlab import energy
from detlab.detcount import det_spectrum
from detlab.errors import BudgetExceededError, PreconditionError
from detlab.energy import (
    count_bilinear,
    count_bilinear_brute,
    dyadic_pyramid,
    energy_Estar_brute,
    energy_Estar_mu,
    energy_N,
    energy_N_brute,
    energy_S,
    energy_S_brute,
    energy_T,
    energy_T_brute,
    product_distribution,
    r_distribution,
)
from detlab.matrices import Matrix, identity
from detlab.scalars import FieldSpec, make_ground_set, scale_set

from conftest import QQ, F7, fraction_ground_sets, int_ground_sets, small_fractions

U01 = make_ground_set([0, 1], QQ)
U12 = make_ground_set([1, 2], QQ)
U1 = make_ground_set([1], QQ)

SMALL_SETS = [
    [1],
    [0, 1],
    [1, 2],
    [-1, 1],
    [0, 1, 2],
    [1, 2, 3],
    [-2, 1, 3],
    [Fraction(1, 2), 1, Fraction(3, 2)],
]


def gs(vals):
    return make_ground_set(vals, QQ)


def test_product_distribution_examples():
    assert product_distribution(U01).entries == {0: 3, 1: 1}
    assert product_distribution(U12).entries == {1: 1, 2: 2, 4: 1}
    assert product_distribution(U1).entries == {1: 1}


def test_r_distribution_examples():
    assert r_distribution(U01).entries == {0: 9, 1: 6, 2: 1}
    assert r_distribution(U1).entries == {2: 1}
    R = r_distribution(U12).entries
    assert R[2] == 1 and R[8] == 1


@given(int_ground_sets(max_size=4))
def test_distribution_masses(U):
    assert product_distribution(U).mass() == len(U) ** 2
    assert r_distribution(U).mass() == len(U) ** 4
    assert det_spectrum(U, 2, "rowblock").total_mass() == len(U) ** 4


def test_energy_T_examples():
    assert energy_T(U1) == 1
    assert energy_T(U01) == 118
    assert energy_T_brute(U01) == 118


@pytest.mark.parametrize("vals", SMALL_SETS)
def test_energy_T_matches_brute(vals):
    U = gs(vals)
    assert energy_T(U) == energy_T_brute(U)


def test_energy_N_examples():
    assert energy_N(U1) == 1
    assert energy_N(U12) == 20
    assert energy_N_brute(U12) == 20
    assert energy_N(U01) == energy_N_brute(U01)


@pytest.mark.parametrize("vals", SMALL_SETS + [[0, 1, 2, 3], [-1, 0, 2, 5]])
def test_energy_N_matches_brute(vals):
    U = gs(vals)
    assert energy_N(U) == energy_N_brute(U)


def test_energy_S_examples():
    assert energy_S(U1) == 1
    assert det_spectrum(U01, 2, "rowblock").entries == {0: 10, -1: 3, 1: 3}
    assert energy_S(U01) == 9 + 100 + 9
    assert energy_S_brute(U01) == energy_S(U01)


@st.composite
def _prime_field_sets(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    vals = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4, unique=True))
    return make_ground_set(vals, FieldSpec.prime(p))


@given(st.one_of(int_ground_sets(max_size=4), fraction_ground_sets(max_size=4), _prime_field_sets()))
@example(make_ground_set([Fraction(1, 2), 1, Fraction(3, 2)], QQ))
@example(make_ground_set(range(7), F7))
@settings(max_examples=40)
def test_cross_term_distribution_is_the_n2_spectrum(U):
    # Q2 is the rowblock engine's pair-product correlation, whose keys over
    # F_p are differences of residues reduced mod p; the brute oracle
    # enumerates the |U|^4 determinants in field scalars
    assert det_spectrum(U, 2, "rowblock").entries == det_spectrum(U, 2, "brute").entries


@pytest.mark.parametrize("vals", SMALL_SETS)
def test_energy_S_matches_brute(vals):
    U = gs(vals)
    assert energy_S(U) == energy_S_brute(U)


@given(int_ground_sets(max_size=3), small_fractions(6, 3).filter(bool))
@settings(max_examples=40)
def test_dilation_invariance(U, c):
    cU = scale_set(U, c)
    assert energy_N(cU) == energy_N(U)
    assert energy_T(cU) == energy_T(U)
    assert energy_S(cU) == energy_S(U)


@given(st.one_of(int_ground_sets(max_size=5), fraction_ground_sets(max_size=4)))
@settings(max_examples=40)
def test_energy_T_equals_energy_S(U):
    # #{a + b = c + e} = #{a - c = e - b} over the pair products
    assert energy_T(U) == energy_S(U)


def test_prime_field_energies():
    # every subset of size <= 4 of F_2, F_3, F_5 and F_7, where an argument
    # that leans on the order of Q (positive differences only) fails
    for p in (2, 3, 5, 7):
        F = F7 if p == 7 else FieldSpec.prime(p)
        for k in range(1, 5):
            for vals in itertools.combinations(range(p), k):
                Up = make_ground_set(vals, F)
                assert energy_T(Up) == energy_T_brute(Up), (p, vals)
                assert energy_N(Up) == energy_N_brute(Up), (p, vals)
                assert energy_S(Up) == energy_S_brute(Up), (p, vals)


def test_bilinear_examples():
    I2 = identity(2, QQ)
    assert count_bilinear(I2, U12, U12, 2) == 1
    assert count_bilinear(I2, U12, U12, 4) == 4
    assert count_bilinear(I2, U1, U1, 2) == 1
    assert count_bilinear_brute(I2, U12, U12, 4) == 4


def test_bilinear_rejects_degenerate_inputs():
    I2 = identity(2, QQ)
    with pytest.raises(PreconditionError):
        count_bilinear(I2, U12, U12, 0)
    singular = Matrix.from_rows([[1, 2], [2, 4]], QQ)
    with pytest.raises(PreconditionError):
        count_bilinear(singular, U12, U12, 1)
    with pytest.raises(PreconditionError):
        count_bilinear_brute(I2, U12, U12, 0)


def test_bilinear_rejects_mixed_fields():
    # B over Q with C over F_7 used to fail inside the arithmetic (TypeError)
    I2 = identity(2, QQ)
    Cp = make_ground_set([1, 2], F7)
    for count in (count_bilinear, count_bilinear_brute):
        with pytest.raises(PreconditionError):
            count(I2, U12, Cp, 1)
        with pytest.raises(PreconditionError):
            count(identity(2, F7), make_ground_set([1, 2], F7), U12, 1)


def _attained_inner_products(M, B, C):
    import itertools

    k = M.rows
    out = set()
    for b in itertools.product(B.elements, repeat=k):
        Mb = [sum((M.at(i, j) * b[j] for j in range(k)), Fraction(0)) for i in range(k)]
        for c in itertools.product(C.elements, repeat=k):
            out.add(sum((Mb[i] * c[i] for i in range(k)), Fraction(0)))
    return out


def test_bilinear_asymmetric_sets_and_k3():
    from detlab.matrices import det

    rng = random.Random(11)
    # integer sets, then fractional ones, where the kernel must stay exact
    set_pairs = [
        (gs([1, 2]), gs([-1, 1, 3])),
        (gs([Fraction(1, 2), Fraction(3, 2)]), gs([Fraction(-1, 3), 1])),
        (gs([-1, 2]), gs([Fraction(1, 2), 1])),
    ]
    for B, C in set_pairs:
        for k in (2, 3):
            for _ in range(8):
                while True:
                    M = Matrix.from_rows(
                        [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)], QQ
                    )
                    if det(M):
                        break
                for omega in sorted(_attained_inner_products(M, B, C)):
                    if not omega:
                        continue
                    assert count_bilinear(M, B, C, omega) == count_bilinear_brute(M, B, C, omega)


def test_bilinear_prime_field():
    Mp = Matrix.from_rows([[1, 2], [3, 4]], F7)
    B = make_ground_set([1, 2], F7)
    C = make_ground_set([0, 1, 3], F7)
    for w in range(1, 7):
        assert count_bilinear(Mp, B, C, w) == count_bilinear_brute(Mp, B, C, w)


@pytest.mark.parametrize("vals", [[1], [1, 2], [0, 1], [1, 2, 3], [-1, 0, 1]])
def test_Estar_mu_matches_brute(vals):
    U = gs(vals)
    assert energy_Estar_mu(U) == energy_Estar_brute(U)


_ESTAR_PRIME_SETS = [((0, 1), 2), ((0, 1, 2), 3), ((0, 1, 3), 5), ((1, 2, 4), 7)]


@pytest.mark.parametrize("vals, p", _ESTAR_PRIME_SETS)
def test_Estar_mu_and_pyramid_over_prime_fields(vals, p):
    X = make_ground_set(vals, FieldSpec.prime(p))
    assert energy_Estar_mu(X) == energy_Estar_brute(X)
    # the pyramid's oracle: every cofactor triple of X^6, binned by the
    # largest power of two at most its multiplicity
    mults = Counter(
        (y2 * z3 - y3 * z2, y3 * z1 - y1 * z3, y1 * z2 - y2 * z1)
        for y1, y2, y3, z1, z2, z3 in itertools.product(X.elements, repeat=6)
    ).values()
    by_class = Counter()
    for mu in mults:
        w = 1
        while 2 * w <= mu:
            w *= 2
        by_class[w] += 1
    pyramid = dyadic_pyramid(X)
    assert pyramid.classes == tuple(sorted(by_class.items()))
    assert pyramid.total_mass == len(X) ** 6
    assert pyramid.max_weighted == max(w * w * c for w, c in by_class.items())


def test_Estar_examples():
    assert energy_Estar_mu(U1) == 1
    assert energy_Estar_brute(U1) == 1


def test_dyadic_pyramid_examples():
    p = dyadic_pyramid(U1)
    assert p.classes == ((1, 1),)
    assert p.total_mass == 1

    p = dyadic_pyramid(U12)
    assert p.total_mass == 2**6
    estar = energy_Estar_mu(U12)
    for w, cnt in p.classes:
        assert w * w * cnt <= estar
    assert p.max_weighted <= estar


def test_energy_budget():
    U = gs(list(range(1, 9)))
    with pytest.raises(BudgetExceededError):
        energy_Estar_brute(U, budget=1000)
    with pytest.raises(BudgetExceededError):
        energy_T_brute(U, budget=1000)


def test_fast_energies_charge_their_tables():
    # N walks U^3; T and S build the pair-product table P from U^2, then T
    # convolves P with itself and S correlates P with its negation
    U = gs(list(range(1, 13)))
    P = len(product_distribution(U).entries)
    for fn, steps in ((energy_N, 12**3), (energy_S, 12**2 + P * P), (energy_T, 12**2 + P * P)):
        assert fn(U, budget=steps) == fn(U)
        with pytest.raises(BudgetExceededError):
            fn(U, budget=steps - 1)
    for fn in (energy_T, energy_S):
        with pytest.raises(BudgetExceededError):
            fn(U, budget=12**2 - 1)


def test_bilinear_budget_is_tally_plus_kernel():
    # M = [[1, 2], [0, 1]] over {1, 2, 3}: 3^2 = 9 forms (M*b, 3), one step
    # each, with M*b = (u, v) and 0 < v < u, so each form is negated to
    # ((-u, -v), -3) and looks up -u over the prefix -v, which takes 3
    # values: 3 * 3 steps for their distributions and 3 lookups per vector
    # (27): 9 + 9 + 27 = 45
    U = gs([1, 2, 3])
    M = Matrix.from_rows([[1, 2], [0, 1]], QQ)
    assert count_bilinear(M, U, U, 3, budget=45) == count_bilinear_brute(M, U, U, 3)
    # the refusal at pin - 1 reports the forms' and the kernel's total
    with pytest.raises(BudgetExceededError) as exc:
        count_bilinear(M, U, U, 3, budget=44)
    assert (exc.value.estimated, exc.value.budget, exc.value.what) == (45, 44, "count_bilinear")


_HALF = Fraction(1, 2)
_THIRDS = [Fraction(1, 3), Fraction(2, 3), 1]


@pytest.mark.parametrize(
    "field, rows, B, C, omega, count, total",
    [
        # the joint lift is L = 2 and L^3 omega = 1/2: no pair, no charge
        (QQ, [[1, 0], [0, 1]], [_HALF, 3 * _HALF], [_HALF, 3 * _HALF], Fraction(1, 16), 0, 0),
        # L = 6 over B and C together; C alone lifts by 3, and 3 * omega is not an integer
        (QQ, [[1, 0], [0, 1]], [0, _HALF], [Fraction(1, 3), 1], Fraction(1, 6), 4, 14),
        # a fractional matrix entry joins the lift: L = 30
        (QQ, [[Fraction(1, 5), 1], [0, 1]], [_HALF, 1, 3 * _HALF], _THIRDS, Fraction(7, 10), 3, 45),
        # residues mod 7, the vectors M*b reduced by the kernel
        (F7, [[1, 2], [0, 1]], [1, 2, 3], [1, 2, 3], 3, 11, 42),
    ],
)
def test_bilinear_budget_on_the_joint_lift(field, rows, B, C, omega, count, total):
    M, B, C = Matrix.from_rows(rows, field), make_ground_set(B, field), make_ground_set(C, field)
    assert count_bilinear(M, B, C, omega, budget=total) == count == count_bilinear_brute(M, B, C, omega)
    if not total:
        # the meter is built before the target is lifted: a negative budget is refused
        with pytest.raises(PreconditionError):
            count_bilinear(M, B, C, omega, budget=-1)
        return
    with pytest.raises(BudgetExceededError) as exc:
        count_bilinear(M, B, C, omega, budget=total - 1)
    assert (exc.value.estimated, exc.value.budget, exc.value.what) == (total, total - 1, "count_bilinear")


def test_bilinear_kernel_calls_get_plain_ints(monkeypatch):
    # count_bilinear hands the kernel one form of weight 1 per b, in the
    # ints of the joint lift, with the modulus over F_p
    count_forms = energy._count_forms
    moduli = set()

    def checked(forms, elems, modulus, *args):
        forms = list(forms)
        for coeffs, target, w in forms:
            assert all(type(v) is int for v in (*coeffs, target, *elems)) and w == 1, (coeffs, target, w, elems)
        moduli.add(modulus)
        return count_forms(forms, elems, modulus, *args)

    monkeypatch.setattr(energy, "_count_forms", checked)
    halves = gs([_HALF, 1, 3 * _HALF])
    cases = [
        (Matrix.from_rows([[1, 2], [0, 1]], QQ), U12, gs([-1, 1, 3]), 5),
        (Matrix.from_rows([[Fraction(1, 5), 1], [0, 1]], QQ), halves, halves, Fraction(7, 10)),
        (Matrix.from_rows([[1, 2], [3, 4]], F7), make_ground_set([1, 2], F7), make_ground_set([0, 1, 3], F7), 3),
    ]
    for M, B, C, omega in cases:
        assert count_bilinear(M, B, C, omega) == count_bilinear_brute(M, B, C, omega)
    assert moduli == {None, 7}


def test_distribution_provenance_and_order():
    P = product_distribution(U12)
    assert P.provenance == "pair-product"
    assert P.sorted_items() == sorted(P.entries.items())
    assert P.get(2) == 2 and P.get(99) == 0
