"""Ground-set family generators: intervals, progressions and seeded random draws.

Generation is deterministic: a family spec plus (for the random kind) its seed
fully determines the output set, byte for byte. Random draws use a named
counter-based PRNG (sha256 over "name:seed:counter") so scans are reproducible
across platforms and Python versions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .scalars import FieldSpec, GroundSet, format_scalar, make_ground_set

KIND_INTERVAL = "interval"
KIND_AP = "ap"
KIND_GP = "gp"
KIND_RANDOM = "random"
KINDS = (KIND_INTERVAL, KIND_AP, KIND_GP, KIND_RANDOM)

PRNG_NAME = "sha256-counter"


@dataclass(frozen=True)
class FamilySpec:
    """Config for one ground-set family; scalar params may be int, Fraction or text."""

    kind: str
    size: int
    start: object = None
    step: object = None
    ratio: object = None
    seed: int | None = None
    low: int | None = None
    high: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise PreconditionError(f"unknown family kind {self.kind!r}")
        if self.size < 1:
            raise PreconditionError("family size must be >= 1")
        if self.kind == KIND_AP and (self.start is None or self.step is None):
            raise PreconditionError("arithmetic progression needs start and step")
        if self.kind == KIND_GP and self.ratio is None:
            raise PreconditionError("geometric progression needs a ratio")
        if self.kind == KIND_RANDOM:
            if self.seed is None:
                raise PreconditionError("random family needs a seed")
            lo, hi = self._range()
            if hi - lo + 1 < self.size:
                raise PreconditionError("random range narrower than requested size")

    def _range(self) -> tuple[int, int]:
        lo = 1 if self.low is None else self.low
        hi = 10 * self.size if self.high is None else self.high
        return lo, hi

    def params_dict(self) -> dict:
        """JSON-safe parameter map (scalars rendered as canonical text)."""
        out: dict = {}
        if self.kind == KIND_AP:
            out["start"] = _param_text(self.start)
            out["step"] = _param_text(self.step)
        elif self.kind == KIND_GP:
            out["ratio"] = _param_text(self.ratio)
        elif self.kind == KIND_RANDOM:
            lo, hi = self._range()
            out["low"], out["high"] = lo, hi
            out["prng"] = PRNG_NAME
        return out


def _param_text(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, Fraction)):
        return format_scalar(v)
    raise PreconditionError(f"bad family parameter {v!r}")


def _prng_ints(seed: int, low: int, high: int):
    """Endless deterministic stream of integers in [low, high]."""
    width = high - low + 1
    counter = 0
    while True:
        digest = hashlib.sha256(f"{PRNG_NAME}:{seed}:{counter}".encode()).digest()
        yield low + int.from_bytes(digest, "big") % width
        counter += 1


def generate(spec: FamilySpec, field: FieldSpec) -> GroundSet:
    """Materialize the family; always exactly `spec.size` distinct elements."""
    if spec.kind == KIND_INTERVAL:
        values = [field.coerce(i) for i in range(1, spec.size + 1)]
    elif spec.kind == KIND_AP:
        start = field.coerce(spec.start)
        step = field.coerce(spec.step)
        if not step:
            raise PreconditionError("arithmetic progression step must be nonzero")
        values = []
        cur = start
        for _ in range(spec.size):
            values.append(cur)
            cur = cur + step
    elif spec.kind == KIND_GP:
        g = field.coerce(spec.ratio)
        if not g or g == field.one() or g == -field.one():
            raise PreconditionError("geometric ratio must avoid {0, 1, -1}")
        values = []
        cur = g
        for _ in range(spec.size):
            values.append(cur)
            cur = cur * g
    else:  # random
        lo, hi = spec._range()
        seen: dict = {}
        budget = 200 * (hi - lo + 1) + 10_000
        for v in _prng_ints(spec.seed, lo, hi):
            e = field.coerce(v)
            seen.setdefault(e, None)
            if len(seen) == spec.size:
                break
            budget -= 1
            if budget == 0:
                raise PreconditionError("random range exhausted before reaching size")
        values = list(seen)
    gs = make_ground_set(values, field)
    if len(gs) != spec.size:
        raise PreconditionError(
            f"{spec.kind} family collapsed to {len(gs)} elements in {field.label()} "
            f"(requested {spec.size})"
        )
    return gs
