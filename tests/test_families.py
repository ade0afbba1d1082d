from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from detlab.errors import PreconditionError
from detlab.families import FamilySpec, generate
from detlab.scalars import FieldSpec, scale_set

from conftest import QQ, F7


def test_interval():
    gs = generate(FamilySpec("interval", 4), QQ)
    assert gs.elements == tuple(Fraction(i) for i in (1, 2, 3, 4))


def test_gp():
    gs = generate(FamilySpec("gp", 3, ratio=2), QQ)
    assert gs.elements == (Fraction(2), Fraction(4), Fraction(8))


def test_gp_fractional_ratio():
    gs = generate(FamilySpec("gp", 3, ratio="1/2"), QQ)
    assert gs.elements == (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))


def test_gp_negative_ratio():
    gs = generate(FamilySpec("gp", 3, ratio=-2), QQ)
    assert gs.elements == (Fraction(-8), Fraction(-2), Fraction(4))


def test_ap_fractional_step():
    gs = generate(FamilySpec("ap", 3, start=0, step="1/2"), QQ)
    assert gs.elements == (Fraction(0), Fraction(1, 2), Fraction(1))


@pytest.mark.parametrize("ratio", [0, 1, -1, "1"])
def test_gp_bad_ratio(ratio):
    with pytest.raises(PreconditionError):
        generate(FamilySpec("gp", 3, ratio=ratio), QQ)


def test_gp_unit_ratio_mod_p():
    # 8 = 1 mod 7
    with pytest.raises(PreconditionError):
        generate(FamilySpec("gp", 2, ratio=8), F7)


def test_gp_period_collision_mod_p():
    # ord(2) = 3 in F_7: powers cycle 2, 4, 1, 2, ...
    assert len(generate(FamilySpec("gp", 3, ratio=2), F7)) == 3
    with pytest.raises(PreconditionError):
        generate(FamilySpec("gp", 4, ratio=2), F7)


def test_ap_zero_step():
    with pytest.raises(PreconditionError):
        generate(FamilySpec("ap", 2, start=1, step=0), QQ)


def test_interval_overflow_mod_p():
    assert len(generate(FamilySpec("interval", 7, low=None), F7)) == 7
    with pytest.raises(PreconditionError):
        generate(FamilySpec("interval", 8), F7)


def test_random_deterministic_and_distinct():
    spec = FamilySpec("random", 5, seed=42, low=1, high=100)
    a = generate(spec, QQ)
    b = generate(spec, QQ)
    assert a.elements == b.elements
    assert len(a) == 5
    other = generate(FamilySpec("random", 5, seed=43, low=1, high=100), QQ)
    assert other.elements != a.elements


def test_random_range_validation():
    with pytest.raises(PreconditionError):
        FamilySpec("random", 5, seed=0, low=1, high=4)


def test_random_exhaustion_mod_small_p():
    # a range of width 100 cannot yield 4 distinct residues mod 3
    F3 = FieldSpec.prime(3)
    with pytest.raises(PreconditionError):
        generate(FamilySpec("random", 4, seed=0, low=1, high=100), F3)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="prime-gap", size=3),
        dict(kind="interval", size=0),
        dict(kind="ap", size=3, start=1),
        dict(kind="gp", size=3),
        dict(kind="random", size=3),
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(PreconditionError):
        FamilySpec(**kwargs)


@given(st.integers(1, 30), st.integers(0, 2**32))
def test_random_cardinality_and_determinism(size, seed):
    spec = FamilySpec("random", size, seed=seed)
    gs = generate(spec, QQ)
    assert len(gs) == size
    assert generate(spec, QQ).elements == gs.elements


def test_interval_scaled_equals_ap():
    for c, size in [(Fraction(3), 5), (Fraction(1, 2), 4), (Fraction(-2), 3)]:
        interval = generate(FamilySpec("interval", size), QQ)
        ap = generate(FamilySpec("ap", size, start=c, step=c), QQ)
        assert scale_set(interval, c).elements == ap.elements


def test_params_dict_and_label():
    spec = FamilySpec("gp", 4, ratio=2)
    assert spec.params_dict() == {"ratio": "2"}
    spec = FamilySpec("random", 4, seed=1)
    params = spec.params_dict()
    assert params["prng"] == "sha256-counter"
    assert params["low"] == 1 and params["high"] == 40
    assert FamilySpec("interval", 4).params_dict() == {}
