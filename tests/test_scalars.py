import random
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from detlab.errors import PreconditionError
from detlab.scalars import (
    FieldSpec,
    Mod,
    format_scalar,
    int_lift,
    is_prime,
    make_ground_set,
    parse_scalar,
    read_ground_set_file,
    scale_set,
    write_ground_set_file,
)

from conftest import QQ, F7, small_fractions


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3/6", Fraction(1, 2)),
        ("-4/2", Fraction(-2)),
        ("7", Fraction(7)),
        ("+5/10", Fraction(1, 2)),
        ("0", Fraction(0)),
        (" 9 / 12 ", Fraction(3, 4)),
    ],
)
def test_parse_rational(text, expected):
    assert parse_scalar(text, QQ) == expected


def test_parse_prime_field():
    assert parse_scalar("12", F7) == Mod(5, 7)
    assert parse_scalar("-1", F7) == Mod(6, 7)


@pytest.mark.parametrize("text", ["", "abc", "1/0", "1//2", "1.5", "2/", "/3"])
def test_parse_malformed(text):
    with pytest.raises(PreconditionError):
        parse_scalar(text, QQ)


def test_parse_prime_rejects_fraction_syntax():
    with pytest.raises(PreconditionError):
        parse_scalar("1/2", F7)


@given(small_fractions())
def test_parse_format_roundtrip(x):
    assert parse_scalar(format_scalar(x), QQ) == x


@given(st.integers(0, 200))
def test_parse_format_roundtrip_mod(r):
    s = Mod(r, 7)
    assert parse_scalar(format_scalar(s), F7) == s


def test_canonical_form_idempotent_bulk():
    rng = random.Random(20240117)
    for _ in range(10_000):
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(1, 10**4)
        f = Fraction(a, b)
        assert f.denominator > 0
        import math

        assert math.gcd(f.numerator, f.denominator) == 1
        assert Fraction(f.numerator, f.denominator) == f


def test_encoding_injective_collision_scan():
    rng = random.Random(7)
    seen = {}
    for _ in range(5000):
        f = Fraction(rng.randint(-500, 500), rng.randint(1, 60))
        enc = format_scalar(f)
        if enc in seen:
            assert seen[enc] == f
        seen[enc] = f
    # distinct canonical scalars never share a text
    values = sorted(set(seen.values()))
    encs = {format_scalar(v) for v in values}
    assert len(encs) == len(values)


def test_encoding_agrees_between_int_and_fraction():
    assert format_scalar(2) == format_scalar(Fraction(2))
    assert format_scalar(-3) == format_scalar(Fraction(-3, 1))
    assert format_scalar(0) == format_scalar(Fraction(0))


def test_integral_rationals_are_ints():
    for v in (QQ.coerce(Fraction(4, 2)), parse_scalar("6/3", QQ), QQ.zero(), QQ.one()):
        assert type(v) is int
    X = make_ground_set([Fraction(1, 2), Fraction(2)], QQ)
    assert X.elements == (Fraction(1, 2), 2)
    assert [type(e) for e in X.elements] == [Fraction, int]


def test_field_div_is_exact():
    q = QQ.div(1, 3)
    assert q == Fraction(1, 3) and not isinstance(q, float)
    assert type(QQ.div(6, 3)) is int
    assert QQ.div(Fraction(1, 2), Fraction(1, 4)) == 2
    assert F7.div(Mod(3, 7), Mod(5, 7)) == Mod(2, 7)  # 5 * 2 = 3 mod 7


def test_int_lift():
    # an integral set lifts to itself: the same tuple, scale 1
    X = make_ground_set([-2, 1, 5], QQ)
    lift = int_lift(X)
    assert lift.elements is X.elements and lift.scale == 1 and lift.is_identity
    assert lift.target(Fraction(4, 2), 3) == 2 and lift.lower(-7, 2) == -7
    # over Q the scale is the lcm of the denominators, and order is kept
    H = make_ground_set([Fraction(-1, 2), Fraction(2, 3), 1], QQ)
    lift = int_lift(H)
    assert (lift.elements, lift.scale, lift.modulus) == ((-3, 4, 6), 6, None)
    assert not lift.is_identity
    assert lift.target(Fraction(1, 36), 2) == 1 and lift.target(Fraction(1, 7), 2) is None
    assert lift.lower(36, 2) == 1 and type(lift.lower(36, 2)) is int
    assert lift.lower(3, 2) == Fraction(1, 12)
    # over F_p the residues, scale 1, and results lower to residue classes
    P = make_ground_set([1, 3, 6], F7)
    lift = int_lift(P)
    assert (lift.elements, lift.scale, lift.modulus) == ((1, 3, 6), 1, 7)
    assert not lift.is_identity
    assert lift.target(10, 3) == 3 and lift.lower(-1, 3) == Mod(6, 7)


def test_encoding_separates_sign_and_parts():
    assert format_scalar(Fraction(1, 2)) != format_scalar(Fraction(2, 1))
    assert format_scalar(Fraction(1)) != format_scalar(Fraction(-1))
    assert format_scalar(Mod(3, 7)) == format_scalar(3) == "3"


def test_make_ground_set_examples():
    gs = make_ground_set([2, 1, 2], QQ)
    assert gs.elements == (Fraction(1), Fraction(2))
    assert len(gs) == 2

    gs = make_ground_set([Fraction(1, 2), Fraction(1, 3)], QQ)
    assert gs.elements == (Fraction(1, 3), Fraction(1, 2))

    gs = make_ground_set([5, 12], F7)
    assert gs.elements == (Mod(5, 7),)
    assert len(gs) == 1


def test_make_ground_set_empty():
    with pytest.raises(PreconditionError):
        make_ground_set([], QQ)


def test_ground_set_membership_and_order():
    gs = make_ground_set([3, -1, 2], QQ)
    assert list(gs) == sorted(gs.elements)
    assert 2 in gs and Fraction(2) in gs
    assert 5 not in gs


def test_scale_and_negate_examples():
    X = make_ground_set([1, 2], QQ)
    assert scale_set(X, 2).elements == (Fraction(2), Fraction(4))
    assert scale_set(X, 1).elements == X.elements
    Y = make_ground_set([Fraction(1, 2), 3], QQ)
    assert scale_set(Y, Fraction(1, 3)).elements == (Fraction(1, 6), Fraction(1))
    assert scale_set(X, -1).elements == (Fraction(-2), Fraction(-1))


def test_scale_zero_rejected():
    X = make_ground_set([1, 2], QQ)
    with pytest.raises(PreconditionError):
        scale_set(X, 0)


@given(
    st.lists(small_fractions(12, 5), min_size=1, max_size=5, unique=True),
    small_fractions(9, 4).filter(bool),
)
def test_scale_roundtrip(vals, c):
    X = make_ground_set(vals, QQ)
    assert scale_set(scale_set(X, c), 1 / c).elements == X.elements


def test_ground_set_file_roundtrip(tmp_path):
    X = make_ground_set([Fraction(1, 2), -3, 7], QQ)
    path = tmp_path / "set.txt"
    write_ground_set_file(path, X)
    assert read_ground_set_file(path, QQ).elements == X.elements
    assert [format_scalar(e) for e in read_ground_set_file(path, QQ)] == [format_scalar(e) for e in X]


def test_ground_set_file_comments_and_blanks(tmp_path):
    path = tmp_path / "set.txt"
    path.write_text("# header\n\n1/2\n# mid\n-3\n\n7\n", encoding="utf-8")
    assert read_ground_set_file(path, QQ).elements == (
        Fraction(-3),
        Fraction(1, 2),
        Fraction(7),
    )


def test_ground_set_file_empty(tmp_path):
    path = tmp_path / "set.txt"
    path.write_text("# nothing here\n", encoding="utf-8")
    with pytest.raises(PreconditionError):
        read_ground_set_file(path, QQ)


def test_field_spec_validation():
    assert FieldSpec.prime(7).modulus == 7
    assert FieldSpec.prime(2**61 - 1).modulus == 2**61 - 1
    with pytest.raises(PreconditionError):
        FieldSpec.prime(6)
    with pytest.raises(PreconditionError):
        FieldSpec.prime(1)
    with pytest.raises(PreconditionError):
        FieldSpec("galois")


def test_field_spec_parse():
    for field in (QQ, F7):
        assert FieldSpec.parse(field.label()) == field
    for text in ("rationals", "fp:x", "fp:6", "F7", "fp:3317044064679887385962123"):
        with pytest.raises(PreconditionError):
            FieldSpec.parse(text)


@pytest.mark.parametrize(
    "n,expected",
    [(2, True), (3, True), (4, False), (97, True), (91, False), (7919, True), (1, False)],
)
def test_is_prime(n, expected):
    assert is_prime(n) is expected


def test_modulus_past_proven_primality_bound_is_refused():
    # 3317044064679887385962123 is past the bound below which the Miller-Rabin
    # bases are a proof; the field is refused rather than left unproven
    with pytest.raises(PreconditionError, match="proven primality bound"):
        FieldSpec.prime(3317044064679887385962123)


def test_coerce_rejects_cross_field():
    with pytest.raises(PreconditionError):
        QQ.coerce(Mod(1, 7))
    with pytest.raises(PreconditionError):
        F7.coerce(Fraction(1, 2))


def test_mod_pickles_for_worker_processes():
    import pickle

    s = Mod(3, 7)
    assert pickle.loads(pickle.dumps(s)) == s
    with pytest.raises(AttributeError):
        s.residue = 4


def test_mod_arithmetic():
    a, b = Mod(3, 7), Mod(5, 7)
    assert a + b == Mod(1, 7)
    assert a - b == Mod(5, 7)
    assert a * b == Mod(1, 7)
    assert a / b == a * Mod(3, 7)  # 5^-1 = 3 mod 7
    assert -a == Mod(4, 7)
    assert bool(Mod(0, 7)) is False
    with pytest.raises(ZeroDivisionError):
        a / Mod(0, 7)
    with pytest.raises(TypeError):
        a + Mod(1, 11)
