"""Exact dense matrix kernel: determinant, adjugate, rank, Schur bordering value.

One fraction-free (Bareiss) elimination with full pivoting, `_eliminate`,
returns a matrix's rank and its signed last pivot: `rank` is the first, and
`det` is the second at full rank. `detcount.count_rank` and
`incidence.classify_incidences` call it on row tuples. First-row cofactor
expansion (`det_cofactor`, `adjugate`) is kept on purpose as a second route
that shares no code with it, so each determinant can serve as an oracle for
the other. All routines are pure functions on immutable matrices and work for
rational and prime-field scalars alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import PreconditionError
from .scalars import FieldSpec, Scalar


@dataclass(frozen=True)
class Matrix:
    rows: int
    cols: int
    entries: tuple  # row-major
    field: FieldSpec

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise PreconditionError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise PreconditionError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], field: FieldSpec) -> "Matrix":
        rows = [list(r) for r in rows]
        m = len(rows)
        n = len(rows[0]) if m else 0
        if any(len(r) != n for r in rows):
            raise PreconditionError("ragged rows")
        entries = tuple(field.coerce(v) for r in rows for v in r)
        return cls(m, n, entries, field)

    def at(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def row_tuple(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> tuple:
        return tuple(self.row_tuple(i) for i in range(self.rows))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "Matrix":
        ent = tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows))
        return Matrix(self.cols, self.rows, ent, self.field)


def identity(n: int, field: FieldSpec) -> Matrix:
    one, zero = field.one(), field.zero()
    ent = tuple(one if i == j else zero for i in range(n) for j in range(n))
    return Matrix(n, n, ent, field)


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    if A.cols != B.rows:
        raise PreconditionError("inner dimensions differ")
    out = []
    for i in range(A.rows):
        ra = A.row_tuple(i)
        for j in range(B.cols):
            acc = None
            for k in range(A.cols):
                term = ra[k] * B.at(k, j)
                acc = term if acc is None else acc + term
            out.append(acc if acc is not None else A.field.zero())
    return Matrix(A.rows, B.cols, tuple(out), A.field)


def _exact_div(a, b):
    # Bareiss quotients are exact; for int operands keep them in the integers.
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError("inexact integer division in fraction-free elimination")
        return q
    return a / b


def _det_rows(rows) -> Scalar:
    """Definition-level determinant of a tuple of row tuples (any exact scalar type)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (x1, x2, x3), (y1, y2, y3), (z1, z2, z3) = rows
        return x1 * (y2 * z3 - y3 * z2) - x2 * (y1 * z3 - y3 * z1) + x3 * (y1 * z2 - y2 * z1)
    first, rest = rows[0], rows[1:]
    total = None
    for j, coef in enumerate(first):
        if not coef:
            continue
        minor = tuple(r[:j] + r[j + 1 :] for r in rest)
        term = coef * _det_rows(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        z = first[0]
        return z - z
    return total


def _require_square(M: Matrix, what: str) -> None:
    if not M.is_square or M.rows == 0:
        raise PreconditionError(f"{what} requires a nonempty square matrix")


def _eliminate(rows) -> tuple:
    """Fraction-free (Bareiss) elimination with deterministic full pivoting:
    the pivot is the first nonzero entry in row-major order over the remaining
    submatrix. Returns (rank, last pivot negated once per row or column swap);
    for a square matrix of full rank that pivot is the determinant."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    cols = list(range(n))
    prev = None
    flip = False
    r = 0
    while r < m and r < n:
        piv = None
        for i in range(r, m):
            for jj in range(r, n):
                if a[i][cols[jj]]:
                    piv = (i, jj)
                    break
            if piv:
                break
        if piv is None:
            break
        i, jj = piv
        if i != r:
            a[r], a[i] = a[i], a[r]
            flip = not flip
        if jj != r:
            cols[r], cols[jj] = cols[jj], cols[r]
            flip = not flip
        rk = a[r]
        pk = rk[cols[r]]
        for ri in a[r + 1 :]:
            aik = ri[cols[r]]
            for cj in cols[r + 1 :]:
                v = ri[cj] * pk - aik * rk[cj]
                ri[cj] = v if prev is None else _exact_div(v, prev)
        prev = pk
        r += 1
    return r, (-prev if flip else prev)


def det(M: Matrix) -> Scalar:
    """Exact determinant: the signed last pivot of `_eliminate` at full rank."""
    _require_square(M, "det")
    r, pivot = _eliminate(M.to_rows())
    return pivot if r == M.rows else M.field.zero()


def det_cofactor(M: Matrix) -> Scalar:
    """Cofactor-expansion determinant; independent cross-check for `det`."""
    _require_square(M, "det")
    return _det_rows(M.to_rows())


def adjugate(M: Matrix) -> Matrix:
    """Transposed cofactor matrix; satisfies M * adjugate(M) = det(M) * I exactly."""
    _require_square(M, "adjugate")
    n = M.rows
    if n == 1:
        return identity(1, M.field)
    rows = M.to_rows()
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = tuple(
                r[:j] + r[j + 1 :] for ri, r in enumerate(rows) if ri != i
            )
            c = _det_rows(minor)
            if (i + j) % 2:
                c = -c
            out[j][i] = c  # transposed placement
    return Matrix(n, n, tuple(v for r in out for v in r), M.field)


def rank(M: Matrix) -> int:
    return _eliminate(M.to_rows())[0]


def _border(Y: Matrix, y: Sequence, z: Sequence, x) -> tuple:
    """(y, z, x) coerced into Y's field, y and z checked to have length Y.rows."""
    y = [Y.field.coerce(v) for v in y]
    z = [Y.field.coerce(v) for v in z]
    if len(y) != Y.rows or len(z) != Y.rows:
        raise PreconditionError("border vectors must have length matching the corner block")
    return y, z, Y.field.coerce(x)


def assemble_bordered(Y: Matrix, y: Sequence, z: Sequence, x) -> Matrix:
    """Block matrix [[Y, y^t], [z, x]] with y, z row vectors of length Y.rows."""
    if not Y.is_square:
        raise PreconditionError("corner block must be square")
    y, z, x = _border(Y, y, z, x)
    k = Y.rows
    ent = []
    for i in range(k):
        ent.extend(Y.row_tuple(i))
        ent.append(y[i])
    ent.extend(z)
    ent.append(x)
    return Matrix(k + 1, k + 1, tuple(ent), Y.field)


def schur_value(Y: Matrix, y: Sequence, z: Sequence, x) -> Scalar:
    """x*det(Y) - z*Adj(Y)*y^t; identical as a polynomial to det of the bordered matrix."""
    if not Y.is_square or Y.rows == 0:
        raise PreconditionError("corner block must be a nonempty square matrix")
    y, z, x = _border(Y, y, z, x)
    adj = adjugate(Y)
    acc = x * det(Y)
    for i in range(Y.rows):
        zi = z[i]
        if not zi:
            continue
        for j in range(Y.rows):
            acc = acc - zi * adj.at(i, j) * y[j]
    return acc
