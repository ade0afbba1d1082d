"""Exact scalar arithmetic over the rationals or a prime field, plus ground sets.

All counting downstream relies on two facts established here: arithmetic is
bit-exact (no floats anywhere), and equal scalars have identical canonical
byte encodings, so they can serve as dictionary keys across runs.

A rational is an `int` when it is integral and a `Fraction` otherwise:
`FieldSpec.coerce`, `parse_scalar`, `zero()` and `one()` keep that invariant,
so ground-set elements, `Matrix.from_rows` entries and normalized plane
coefficients are plain machine integers whenever they can be, and hot loops
need no separate integer view. Arithmetic on them may still yield an integral
`Fraction`; equality, hashing, ordering and `encode_scalar` agree on it and
the `int`. Two ints must never meet `/`, which yields a float:
`FieldSpec.div` is the exact quotient of two field scalars.

`int_lift` is the one place a ground set becomes plain ints for the counting
kernel. Over Q it scales X by L, the lcm of its denominators, which the
covariance D_n(LX, L^n d) = D_n(X, d) allows; over F_p it takes the residues,
with L = 1, and sums are reduced mod p by the kernel. An integral rational
set lifts to itself (the same elements tuple, L = 1). `IntLift.target` maps
a field scalar to the lifted problem and `IntLift.lower` maps an int result
back to a canonical field scalar.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterable, Iterator, Union

from .errors import PreconditionError

MODE_RATIONAL = "rational"
MODE_PRIME = "prime"

# Witness set proving Miller-Rabin deterministic below this bound (Sorenson-Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test; trial division beyond the proven MR range."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n >= _MR_LIMIT:
        return _trial_division(n)
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _trial_division(n: int) -> bool:
    f = 41
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Mod:
    """Least nonnegative residue modulo a fixed prime; immutable and hashable."""

    __slots__ = ("residue", "modulus")

    def __init__(self, value: int, modulus: int):
        object.__setattr__(self, "residue", value % modulus)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, value):
        raise AttributeError("Mod is immutable")

    def __reduce__(self):
        return (Mod, (self.residue, self.modulus))

    def _check(self, other: "Mod") -> None:
        if not isinstance(other, Mod) or other.modulus != self.modulus:
            raise TypeError(f"mixed-field arithmetic: {self!r} with {other!r}")

    def __add__(self, other):
        self._check(other)
        return Mod(self.residue + other.residue, self.modulus)

    def __sub__(self, other):
        self._check(other)
        return Mod(self.residue - other.residue, self.modulus)

    def __mul__(self, other):
        self._check(other)
        return Mod(self.residue * other.residue, self.modulus)

    def __truediv__(self, other):
        self._check(other)
        if other.residue == 0:
            raise ZeroDivisionError("division by zero residue")
        inv = pow(other.residue, -1, self.modulus)
        return Mod(self.residue * inv, self.modulus)

    def __neg__(self):
        return Mod(-self.residue, self.modulus)

    def __abs__(self):
        return self

    def __bool__(self):
        return self.residue != 0

    def __eq__(self, other):
        return (
            isinstance(other, Mod)
            and self.residue == other.residue
            and self.modulus == other.modulus
        )

    def __lt__(self, other):
        self._check(other)
        return self.residue < other.residue

    def __le__(self, other):
        self._check(other)
        return self.residue <= other.residue

    def __gt__(self, other):
        self._check(other)
        return self.residue > other.residue

    def __ge__(self, other):
        self._check(other)
        return self.residue >= other.residue

    def __hash__(self):
        return hash((self.residue, self.modulus))

    def __repr__(self):
        return f"Mod({self.residue}, {self.modulus})"


Scalar = Union[int, Fraction, Mod]


@dataclass(frozen=True)
class FieldSpec:
    """Ambient field of all scalars: the rationals, or integers modulo a prime."""

    mode: str
    modulus: int | None = None

    def __post_init__(self):
        if self.mode == MODE_RATIONAL:
            if self.modulus is not None:
                raise PreconditionError("rational mode takes no modulus")
        elif self.mode == MODE_PRIME:
            if not isinstance(self.modulus, int) or self.modulus < 2:
                raise PreconditionError("prime-field mode requires an integer modulus >= 2")
            if not is_prime(self.modulus):
                raise PreconditionError(f"modulus {self.modulus} is not prime")
        else:
            raise PreconditionError(f"unknown field mode {self.mode!r}")

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(MODE_RATIONAL)

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls(MODE_PRIME, p)

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        """Inverse of `label`: 'rational' or 'fp:<p>'."""
        if text == MODE_RATIONAL:
            return cls.rationals()
        if text.startswith("fp:"):
            try:
                p = int(text[3:])
            except ValueError:
                raise PreconditionError(f"bad prime in field {text!r}") from None
            return cls.prime(p)
        raise PreconditionError(f"field must be 'rational' or 'fp:<p>', got {text!r}")

    @property
    def is_rational(self) -> bool:
        return self.mode == MODE_RATIONAL

    def zero(self) -> Scalar:
        return 0 if self.is_rational else Mod(0, self.modulus)

    def one(self) -> Scalar:
        return 1 if self.is_rational else Mod(1, self.modulus)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        """Exact quotient a / b of two scalars of this field."""
        return self.coerce(Fraction(a, b)) if self.is_rational else a / b

    def coerce(self, value) -> Scalar:
        """Canonical field element from an int, Fraction, Mod, or text."""
        if isinstance(value, str):
            return parse_scalar(value, self)
        if self.is_rational:
            if isinstance(value, bool):
                raise PreconditionError("bool is not a scalar")
            if isinstance(value, int):
                return value
            if isinstance(value, Fraction):
                return value.numerator if value.denominator == 1 else value
        else:
            if isinstance(value, Mod):
                if value.modulus != self.modulus:
                    raise PreconditionError("residue from a different prime field")
                return value
            if isinstance(value, bool):
                raise PreconditionError("bool is not a scalar")
            if isinstance(value, int):
                return Mod(value, self.modulus)
        raise PreconditionError(f"cannot coerce {value!r} into {self.label()}")

    def label(self) -> str:
        return MODE_RATIONAL if self.is_rational else f"fp:{self.modulus}"


_SCALAR_RE = re.compile(r"^([+-]?\d+)(?:\s*/\s*([+-]?\d+))?$")


def parse_scalar(text: str, field: FieldSpec) -> Scalar:
    """Parse "p/q" or a decimal integer into a canonical scalar of `field`."""
    m = _SCALAR_RE.match(text.strip())
    if m is None:
        raise PreconditionError(f"malformed scalar text {text!r}")
    num = int(m.group(1))
    den = m.group(2)
    if field.is_rational:
        if den is None:
            return num
        if int(den) == 0:
            raise PreconditionError(f"zero denominator in {text!r}")
        return field.coerce(Fraction(num, int(den)))
    if den is not None:
        raise PreconditionError("prime-field scalars are plain integers")
    return Mod(num, field.modulus)


def format_scalar(s: Scalar) -> str:
    """Canonical text; round-trips through parse_scalar."""
    if isinstance(s, Mod):
        return str(s.residue)
    if isinstance(s, int):
        return str(s)
    if s.denominator == 1:
        return str(s.numerator)
    return f"{s.numerator}/{s.denominator}"


def _as_pair(s: Scalar) -> tuple[int, int]:
    if isinstance(s, Mod):
        return s.residue, 1
    if isinstance(s, int):
        return s, 1
    return s.numerator, s.denominator


def encode_scalar(s: Scalar) -> bytes:
    """Sign byte plus length-prefixed magnitudes of numerator and denominator."""
    num, den = _as_pair(s)
    sign = b"\x01" if num < 0 else b"\x00"
    out = [sign]
    for part in (abs(num), den):
        mag = part.to_bytes(max(1, (part.bit_length() + 7) // 8), "big")
        out.append(len(mag).to_bytes(4, "big"))
        out.append(mag)
    return b"".join(out)


@dataclass(frozen=True)
class GroundSet:
    """Duplicate-free, strictly ordered collection of scalars from one field."""

    field: FieldSpec
    elements: tuple
    _members: frozenset = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.elements:
            raise PreconditionError("empty ground set")
        for a, b in zip(self.elements, self.elements[1:]):
            if not a < b:
                raise PreconditionError("ground set elements must be strictly increasing")
        object.__setattr__(self, "_members", frozenset(self.elements))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Scalar]:
        return iter(self.elements)

    def __contains__(self, value) -> bool:
        return value in self._members

    @property
    def size(self) -> int:
        return len(self.elements)


def make_ground_set(values: Iterable, field: FieldSpec) -> GroundSet:
    """Sorted, deduplicated GroundSet from arbitrary field values."""
    seen = {field.coerce(v) for v in values}
    if not seen:
        raise PreconditionError("empty ground set")
    return GroundSet(field, tuple(sorted(seen)))


@dataclass(frozen=True)
class IntLift:
    """A ground set as plain ints: `elements` is L*X over Q (strictly
    increasing, since L > 0) or the residues over F_p, where `modulus` is p."""

    field: FieldSpec
    elements: tuple
    scale: int
    modulus: int | None

    @property
    def is_identity(self) -> bool:
        """True for an integral rational set: the ints are the field scalars."""
        return self.modulus is None and self.scale == 1

    def target(self, value, power: int) -> int | None:
        """Image of the field scalar `value` in the lifted problem of degree
        `power`: value * L^power over Q, None when that is not an integer (no
        lifted sum can reach it); the residue over F_p."""
        value = self.field.coerce(value)
        if self.modulus is not None:
            return value.residue
        q = Fraction(value) * self.scale**power
        return q.numerator if q.denominator == 1 else None

    def lower(self, k: int, power: int) -> Scalar:
        """Canonical field scalar of a lifted int of degree `power`: k / L^power
        over Q, the residue class of k over F_p."""
        if self.modulus is not None:
            return Mod(k, self.modulus)
        den = self.scale**power
        return k if den == 1 else self.field.coerce(Fraction(k, den))


def int_lift(X: GroundSet) -> IntLift:
    """Plain-int form of X for the counting kernel (see the module docstring)."""
    if not X.field.is_rational:
        return IntLift(X.field, tuple(e.residue for e in X), 1, X.field.modulus)
    L = math.lcm(*(e.denominator for e in X))
    if L == 1:
        return IntLift(X.field, X.elements, 1, None)
    return IntLift(X.field, tuple(int(e * L) for e in X), L, None)


def scale_set(X: GroundSet, c) -> GroundSet:
    """Dilate: {c*x for x in X}; c must be nonzero so cardinality is preserved."""
    c = X.field.coerce(c)
    if not c:
        raise PreconditionError("scale factor must be nonzero")
    return make_ground_set((c * x for x in X), X.field)


def negate_set(X: GroundSet) -> GroundSet:
    return make_ground_set((-x for x in X), X.field)


def encode_ground_set(X: GroundSet) -> bytes:
    parts = [len(X).to_bytes(4, "big")]
    parts.extend(encode_scalar(e) for e in X)
    return b"".join(parts)


def read_ground_set_file(path, field: FieldSpec) -> GroundSet:
    """One scalar per line; '#' comment lines and blank lines are ignored."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            values.append(parse_scalar(line, field))
    if not values:
        raise PreconditionError(f"no scalars found in {path}")
    return make_ground_set(values, field)


def write_ground_set_file(path, X: GroundSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in X:
            fh.write(format_scalar(e) + "\n")
