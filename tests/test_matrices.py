import random
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from detlab.errors import PreconditionError
from detlab.matrices import (
    Matrix,
    adjugate,
    assemble_bordered,
    det,
    det_cofactor,
    identity,
    mat_mul,
    rank,
    schur_value,
)

from conftest import QQ, F7, small_fractions


def mat(rows, field=QQ):
    return Matrix.from_rows(rows, field)


def square_entries(n, lo=-5, hi=5):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=n, max_size=n), min_size=n, max_size=n
    )


@pytest.mark.parametrize(
    "rows,expected",
    [
        ([[1, 0], [0, 1]], 1),
        ([[1, 2], [3, 4]], -2),
        ([[1, 2], [2, 4]], 0),
        ([[0, 1], [1, 0]], -1),
        ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
        ([[5]], 5),
    ],
)
def test_det_examples(rows, expected):
    M = mat(rows)
    assert det(M) == Fraction(expected)
    assert det_cofactor(M) == Fraction(expected)


def test_det_requires_square():
    with pytest.raises(PreconditionError):
        det(mat([[1, 2, 3], [4, 5, 6]]))


@given(st.integers(1, 4).flatmap(square_entries))
def test_det_bareiss_matches_cofactor(rows):
    M = mat(rows)
    assert det(M) == det_cofactor(M)


@given(st.integers(1, 3).flatmap(square_entries))
def test_det_prime_field_matches_integer_reduction(rows):
    M = mat(rows, F7)
    d = det(mat(rows))
    assert det(M) == F7.coerce(d.numerator % 7)


@given(st.integers(2, 4).flatmap(square_entries), st.data())
def test_det_alternating_on_row_swap(rows, data):
    n = len(rows)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    swapped = list(rows)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    if i == j:
        assert det(mat(swapped)) == det(mat(rows))
    else:
        assert det(mat(swapped)) == -det(mat(rows))


def test_adjugate_examples():
    assert adjugate(mat([[1, 2], [3, 4]])).to_rows() == mat([[4, -2], [-3, 1]]).to_rows()
    assert adjugate(identity(3, QQ)).to_rows() == identity(3, QQ).to_rows()
    assert adjugate(mat([[2]])).to_rows() == mat([[1]]).to_rows()


@given(st.integers(1, 4).flatmap(square_entries))
def test_adjugate_identity(rows):
    M = mat(rows)
    left = mat_mul(M, adjugate(M))
    d = det(M)
    expected = [[d if i == j else Fraction(0) for j in range(M.rows)] for i in range(M.rows)]
    assert left.to_rows() == mat(expected).to_rows()


@pytest.mark.parametrize(
    "rows,expected",
    [
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], 0),
        ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 4),
        ([[1, 2, 3], [2, 4, 6]], 1),
        ([[0, 1], [0, 0]], 1),
        ([[Fraction(1, 2), 1], [1, 2]], 1),
    ],
)
def test_rank_examples(rows, expected):
    assert rank(mat(rows)) == expected


@given(st.integers(1, 4).flatmap(square_entries))
def test_rank_full_iff_nonzero_det(rows):
    M = mat(rows)
    assert (rank(M) == M.rows) == (det_cofactor(M) != 0)


@given(
    st.integers(1, 3).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(m, 4)).flatmap(
            lambda mn: st.lists(
                st.lists(st.integers(-4, 4), min_size=mn[1], max_size=mn[1]),
                min_size=mn[0],
                max_size=mn[0],
            )
        )
    )
)
def test_rank_bounds(rows):
    M = mat(rows)
    assert 0 <= rank(M) <= min(M.rows, M.cols)
    assert rank(M) == rank(M.transpose())


def test_schur_examples():
    assert schur_value(identity(2, QQ), [0, 0], [0, 0], 5) == Fraction(5)
    assert schur_value(mat([[1, 2], [3, 4]]), [0, 0], [0, 0], 1) == Fraction(-2)


def test_schur_matches_assembled_det_randomized():
    rng = random.Random(99)
    for _ in range(100):
        k = rng.choice([2, 3])
        Y = mat([[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)])
        y = [rng.randint(-4, 4) for _ in range(k)]
        z = [rng.randint(-4, 4) for _ in range(k)]
        x = rng.randint(-4, 4)
        assert schur_value(Y, y, z, x) == det(assemble_bordered(Y, y, z, x))


def test_schur_prime_field():
    Y = mat([[1, 2], [3, 4]], F7)
    y, z, x = [1, 5], [2, 3], 6
    assert schur_value(Y, y, z, x) == det(assemble_bordered(Y, y, z, x))


def test_schur_dimension_mismatch():
    with pytest.raises(PreconditionError):
        schur_value(identity(2, QQ), [1], [1, 2], 0)


def test_assemble_bordered_layout():
    Y = mat([[1, 2], [3, 4]])
    M = assemble_bordered(Y, [5, 6], [7, 8], 9)
    assert M.to_rows() == mat([[1, 2, 5], [3, 4, 6], [7, 8, 9]]).to_rows()


def test_fractional_entries_exact():
    M = mat([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]])
    assert det(M) == Fraction(1, 14) - Fraction(1, 15)
    assert det(M) == det_cofactor(M)
