"""Point/hyperplane incidence counting over Cartesian grids, with an
instrumented axis-aligned cell decomposition and per-class incidence tallies.

Cuts are placed at exact rational midpoints between consecutive axis elements,
so every grid point is interior to an open cell. Cell decomposition needs an
ordered scalar line and is therefore refused in prime-field mode, where only
brute incidence counting applies.

A normalized plane <a, x> = b is plain ints in both fields: the coprime
integer vector (a, b) with a positive lead over Q, the residues with lead one
over F_p. The linear-form kernel runs on the lifted ground set
(`scalars.int_lift`), and so does the direct half of `curve_incidences_n3`,
the projection `detcount._singular_pairs` along (1, 1, 1). The points on a
plane solve their linear equation for its last variable by a table lookup,
in field arithmetic on the ground set's elements; the oracle
`incidences_brute` tests every point.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import getitem

from .errors import Meter, PreconditionError
from .detcount import _class_table, _count_forms, _pair_vectors, _singular_pairs
from .matrices import _eliminate
from .scalars import GroundSet, Scalar, int_lift


@dataclass(frozen=True)
class PointGrid:
    """Cartesian product of per-axis ground sets, all over one field."""

    axes: tuple

    def __post_init__(self):
        if len(self.axes) < 2:
            raise PreconditionError("grids need at least 2 axes")
        field = self.axes[0].field
        if any(ax.field != field for ax in self.axes):
            raise PreconditionError("all axes must share one field")

    @property
    def k(self) -> int:
        return len(self.axes)

    @property
    def field(self):
        return self.axes[0].field

    @property
    def sizes(self) -> tuple:
        return tuple(len(ax) for ax in self.axes)

    @property
    def npoints(self) -> int:
        out = 1
        for s in self.sizes:
            out *= s
        return out

    @property
    def min_size(self) -> int:
        return min(self.sizes)

    def points(self):
        return itertools.product(*(ax.elements for ax in self.axes))


def cube_grid(X: GroundSet, k: int) -> PointGrid:
    return PointGrid(tuple([X] * k))


def normalize_plane(coeffs, offset, field) -> tuple:
    """Plain-int normal form of <a, x> = b; rejects the zero vector. Over Q it
    is the coprime integer vector (a, b) whose first nonzero a_i is positive;
    over F_p, the residues scaled so that the first nonzero a_i is one. Plain
    int coefficients and offset (as `planes_from_minors` passes them) skip the
    field coercion: over Q they need only the signed gcd, over F_p one inverse
    of the lead."""
    p = field.modulus
    if all(type(v) is int for v in (*coeffs, offset)):
        ints = [v % p for v in (*coeffs, offset)] if p else [*coeffs, offset]
    else:
        vals = [field.coerce(v) for v in (*coeffs, offset)]
        if p:
            ints = [v.residue for v in vals]
        else:
            L = math.lcm(*(v.denominator for v in vals))
            ints = [v.numerator * (L // v.denominator) for v in vals]
    lead = next((c for c in ints[:-1] if c), None)
    if lead is None:
        raise PreconditionError("hyperplane coefficient vector is zero")
    if p:
        inv = pow(lead, -1, p)
        return tuple(v * inv % p for v in ints[:-1]), ints[-1] * inv % p
    g = math.gcd(*ints) if lead > 0 else -math.gcd(*ints)
    return tuple(v // g for v in ints[:-1]), ints[-1] // g


@dataclass(frozen=True)
class HyperplaneFamily:
    """Duplicate-free hyperplanes <a, x> = b, each in the plain-int normal
    form of `normalize_plane`, so projectively equal planes are one entry."""

    k: int
    planes: tuple  # of (coeffs tuple, offset)

    @classmethod
    def from_coefficients(cls, raw, field) -> "HyperplaneFamily":
        seen: dict = {}
        k = None
        for coeffs, offset in raw:
            coeffs = tuple(coeffs)
            if k is None:
                k = len(coeffs)
            elif len(coeffs) != k:
                raise PreconditionError("mixed hyperplane dimensions")
            seen.setdefault(normalize_plane(coeffs, offset, field), None)
        if k is None:
            raise PreconditionError("empty hyperplane family")
        return cls(k, tuple(seen))

    def __len__(self) -> int:
        return len(self.planes)

    def __iter__(self):
        return iter(self.planes)


def incidences_brute(P: PointGrid, planes: HyperplaneFamily, *, budget: int | None = None) -> int:
    """Exact #{(p, pi) : p on pi} by direct inner products."""
    if planes.k != P.k:
        raise PreconditionError("hyperplane dimension differs from grid dimension")
    Meter(budget, "incidences_brute").charge(P.npoints * len(planes))
    field = P.field
    total = 0
    for coeffs, offset in planes:
        a = [field.coerce(c) for c in coeffs]
        b = field.coerce(offset)
        for point in P.points():
            acc = a[0] * point[0]
            for j in range(1, P.k):
                acc = acc + a[j] * point[j]
            if acc == b:
                total += 1
    return total


def _points_on_plane(P: PointGrid, plane) -> list:
    """The grid points p with <a, p> = b, in grid order, in field arithmetic.
    Each prefix of the first k-1 axes looks up b - <a', prefix> in the table
    {a_k*y: [y, ...]} over the last axis ({0: whole axis} when a_k = 0).
    Shared by classify_incidences and nondegeneracy_ratio; incidences_brute,
    the oracle for the class tallies, keeps its own loop."""
    field = P.field
    *a, a_k = (field.coerce(c) for c in plane[0])
    last: dict = {}
    for y in P.axes[-1].elements:
        last.setdefault(a_k * y, []).append(y)
    prefixes = [((), field.coerce(plane[1]))]
    for ai, ax in zip(a, P.axes):
        prefixes = [(pre + (x,), rest - ai * x) for pre, rest in prefixes for x in ax.elements]
    return [(*pre, y) for pre, rest in prefixes for y in last.get(rest, ())]


def _int_root(x: int, m: int) -> int:
    """Largest r >= 0 with r^m <= x."""
    if x < 0:
        raise PreconditionError("negative radicand")
    if x < 2 or m == 1:
        return x
    lo, hi = 0, 1 << (x.bit_length() // m + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**m <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def choose_r(P: PointGrid, planes: HyperplaneFamily) -> int:
    """Slicing parameter min{max{floor((#P^k / #Pi)^(1/(k^2-1))), 1}, A_k};
    an empty family takes the cap A_k, the formula's limit as #Pi -> 0."""
    if len(planes) < 1:
        return P.min_size
    k = P.k
    base = P.npoints**k // len(planes)
    r = _int_root(base, k * k - 1)
    return min(max(r, 1), P.min_size)


@dataclass(frozen=True)
class CellDecomposition:
    """r^k open cells from r-1 midpoint cuts per axis, with optional class tallies."""

    grid: PointGrid
    r: int
    cuts: tuple  # per axis: tuple of r-1 strictly increasing thresholds
    group_sizes: tuple  # per axis: tuple of r group sizes
    i1: int | None = None
    i2: int | None = None
    i3: int | None = None

    def cell_of(self, point) -> tuple:
        return tuple(bisect_left(self.cuts[i], point[i]) for i in range(self.grid.k))

    def population(self, cell: tuple) -> int:
        out = 1
        for i, g in enumerate(cell):
            out *= self.group_sizes[i][g]
        return out

    def cell_indices(self):
        return itertools.product(*(range(self.r) for _ in range(self.grid.k)))


def cell_decompose(P: PointGrid, r: int) -> CellDecomposition:
    """Split every axis into r nearly equal groups; cuts at exact midpoints."""
    if not P.field.is_rational:
        raise PreconditionError("cell decomposition needs the ordered rational line")
    if not 1 <= r <= P.min_size:
        raise PreconditionError(f"slicing parameter must satisfy 1 <= r <= {P.min_size}")
    cuts = []
    sizes = []
    for ax in P.axes:
        elems = ax.elements
        q, extra = divmod(len(elems), r)
        group_sizes = tuple(q + 1 if i < extra else q for i in range(r))
        axis_cuts = []
        pos = 0
        for g in group_sizes[:-1]:
            pos += g
            axis_cuts.append(Fraction(elems[pos - 1] + elems[pos], 2))
        cuts.append(tuple(axis_cuts))
        sizes.append(group_sizes)
    return CellDecomposition(P, r, tuple(cuts), tuple(sizes))


def classify_incidences(
    P: PointGrid, planes: HyperplaneFamily, r: int, *, budget: int | None = None
) -> CellDecomposition:
    """Assign every incidence to a class by the plane's trace in the point's cell:
    fewer than k points -> sparse; affine span equal to the plane -> spanning;
    otherwise degenerate. Tallies always sum to the brute incidence count.
    Each plane's points come from `_points_on_plane`, which solves for the
    last coordinate in field arithmetic; the budget is charged that solve per
    plane: the table over the last axis plus one lookup per prefix. A
    point's cell is read from one table per axis built once per call,
    {x: bisect_left(cuts, x)} over the axis's elements (`cell_of` once per
    element), with no cut search per point."""
    if planes.k != P.k:
        raise PreconditionError("hyperplane dimension differs from grid dimension")
    *rest, last = P.sizes
    Meter(budget, "classify_incidences").charge((last + math.prod(rest)) * len(planes))
    D = cell_decompose(P, r)
    k = P.k
    cells = [{x: bisect_left(cuts, x) for x in ax.elements} for cuts, ax in zip(D.cuts, P.axes)]
    i1 = i2 = i3 = 0
    for plane in planes:
        by_cell: dict = {}
        for point in _points_on_plane(P, plane):
            by_cell.setdefault(tuple(map(getitem, cells, point)), []).append(point)
        for pts in by_cell.values():
            if len(pts) <= k - 1:
                i1 += len(pts)
                continue
            base = pts[0]
            diffs = tuple(
                tuple(p[i] - base[i] for i in range(k)) for p in pts[1:]
            )
            if _eliminate(diffs)[0] == k - 1:
                i2 += len(pts)
            else:
                i3 += len(pts)
    return replace(D, i1=i1, i2=i2, i3=i3)


def cells_hit(plane, D: CellDecomposition) -> int:
    """Number of cells whose closed bounding slab meets the plane, asserted
    to be at most k * r^(k-1). Cells exist over Q only, where a normalized plane's
    coefficients are already ints. The slab test runs in ints: the cuts are
    scaled once by the lcm L of their denominators and the slab's ends of
    <a, x>*L are compared against b*L."""
    a, b = plane
    k = D.grid.k
    L = math.lcm(*(c.denominator for cuts in D.cuts for c in cuts))
    # per axis and group, the low and high ends of a_i*x_i*L over the slab,
    # None on an unbounded side
    slabs = []
    for ai, cuts in zip(a, D.cuts):
        ends = [None, *(ai * c.numerator * (L // c.denominator) for c in cuts), None]
        spans = list(zip(ends, ends[1:]) if ai > 0 else zip(ends[1:], ends))
        slabs.append(spans if ai else [(0, 0)] * D.r)
    target = b * L
    hit = 0
    for cell in itertools.product(*slabs):
        lows, highs = zip(*cell)
        if (None in lows or sum(lows) <= target) and (None in highs or sum(highs) >= target):
            hit += 1
    bound = k * D.r ** (k - 1)
    if hit > bound:
        raise AssertionError(f"cells_hit {hit} exceeds the slab bound {bound}")
    return hit


@dataclass(frozen=True)
class MinorPlanes:
    """Weighted plane family built from the cofactor triples of bottom-row pairs."""

    base_set: GroundSet
    d: Scalar
    family: HyperplaneFamily
    weights: tuple  # aligned with family.planes
    zero_multiplicity: int

    def total_weight(self) -> int:
        return sum(self.weights) + self.zero_multiplicity

    def det_count_via_incidences(self, *, budget: int | None = None) -> int:
        """Weighted incidence total over the X^3 grid, plus the degenerate
        bucket when d = 0; reproduces the determinant count D_3(X, d). Each
        plane <a, x> = b of weight w is the form (a, Lb, w) of the
        linear-form kernel on the lifted set (<a, x> = b over X is
        <a, Lx> = Lb over the lift; L is 1 over F_p), which charges the
        budget its dict updates and lookups."""
        lift = int_lift(self.base_set)
        forms = ((coeffs, offset * lift.scale, w) for (coeffs, offset), w in zip(self.family, self.weights))
        total = _count_forms(forms, lift.elements, lift.modulus, Meter(budget, "det_count_via_incidences"))
        if not self.d:
            total += self.zero_multiplicity * len(self.base_set) ** 3
        return total


def planes_from_minors(
    X: GroundSet, d, *, budget: int | None = None, threads: int = 1
) -> MinorPlanes:
    """The plane family <m, x> = d indexed by distinct cofactor triples m != 0,
    weighted by triple multiplicity; the zero triple is reported separately.
    For d != 0 distinct triples give distinct planes; for d = 0 projectively
    equal triples merge and their weights add. Planes are keyed on the
    lifted int triples of the +- pairs of `_class_table`: over Q a lifted
    triple is L^2 m, and <m, x> = d is <L^2 m, x> = L^2 d; over F_p the
    triples are residues. Over Q a pair takes one gcd: its key's normal form
    (a, b) reduces its triples to the permutations of a and -a, each t with
    a positive lead giving the planes (t, b) and, from -t, (t, -b). Over F_p
    a pair takes one inverse per distinct nonzero entry of its key, and each
    triple and d are scaled by the inverse of the triple's lead. Walked
    in-process; `threads` is accepted and unused."""
    lift = int_lift(X)
    pairs, zero = _class_table(lift, 3, Meter(budget, "planes_from_minors"))
    d_s = X.field.coerce(d)
    p = lift.modulus
    offset = d_s.residue if p else X.field.coerce(d_s * lift.scale**2)
    merged: dict = {}
    for c, w in pairs.items():
        a, b = (c, offset) if p else normalize_plane(c, offset, X.field)
        triples = _pair_vectors(a, p)
        if p:
            # a triple's lead is an entry x of c or its negation, and
            # 1/(-x) = -(1/x): one inverse per distinct nonzero entry
            inv = {x: pow(x, -1, p) for x in set(c) - {0}}
            inv.update({p - x: p - y for x, y in inv.items()})
            scales = [inv[next(filter(None, t))] for t in triples]
            keys = [(tuple([v * s % p for v in t]), b * s % p) for t, s in zip(triples, scales)]
        else:
            keys = [(t, e) for t in triples if t > (0, 0, 0) for e in (b, -b)]
        for key in keys:
            merged[key] = merged.get(key, 0) + w // len(triples)
    family = HyperplaneFamily(3, tuple(merged))
    return MinorPlanes(X, d_s, family, tuple(merged.values()), zero)


def curve_incidences_n3(U: GroundSet, *, budget: int | None = None) -> int:
    """Solutions of u1*(v2-w2) - u2*(v1-w1) + v1*w2 - v2*w1 = 0 over U^6,
    counted both directly and as point/quadratic-curve incidences. Both
    halves run on the lifted set: the equation is homogeneous of degree 2,
    so scaling U by L keeps its solutions. The equation is
    det[(1, 1, 1); (u1, v1, w1); (u2, v2, w2)] = 0, so the direct half is
    `_singular_pairs` at the top row (1, 1, 1), the projection of X^3 that
    `count_det_rowblock` runs per direction at n = 3 and d = 0. The curve
    half makes each fixed (a, b, c, t) the form ((t-c, b-a), t*b - a*c, 1)
    of the linear-form kernel, which counts the (r, q) on that curve. The
    |U|^4 forms share at most (2|U| - 1)^2 directions (t-c, b-a), mod p
    over F_p, and (a, b, c, t) and (c, t, a, b) swap the direction and keep
    the offset: the pairs of U^2 are grouped by their difference, and each
    unordered pair of differences gives its forms weight 2 (1 when the two
    are equal), so the kernel sees half as many forms, merges them into the
    same groups and charges the same steps. The budget is charged |U|^3 for
    the direct half's tally before it runs, then the kernel's steps on the
    same meter. The two tallies must agree."""
    meter = Meter(budget, "curve_incidences_n3")
    lift = int_lift(U)
    p = lift.modulus
    meter.charge(len(lift.elements) ** 3)
    direct = _singular_pairs((1, 1, 1), lift.elements, p)
    # the pairs (x, y) of U^2 by their difference y - x (mod p over F_p)
    by_step: dict = {}
    for x, y in itertools.product(lift.elements, repeat=2):
        by_step.setdefault((y - x) % p if p else y - x, []).append((x, y))
    forms = (
        ((alpha, beta), t * b - a * c, 1 if alpha == beta else 2)
        for (alpha, ct), (beta, ab) in itertools.combinations_with_replacement(by_step.items(), 2)
        for a, b in ab
        for c, t in ct
    )
    via_curves = _count_forms(forms, lift.elements, p, meter)
    if direct != via_curves:
        raise AssertionError(
            f"curve double count disagrees: direct {direct}, curves {via_curves}"
        )
    return direct


def nondegeneracy_ratio(P: PointGrid, plane) -> Fraction | None:
    """Diagnostic only: largest fraction of a plane's grid points lying on one
    lower-dimensional flat. Supported for k in {2, 3}; None when the plane
    carries no points (or for larger k)."""
    k = P.k
    if k > 3:
        return None
    on_plane = _points_on_plane(P, plane)
    m = len(on_plane)
    if m == 0:
        return None
    if k == 2:
        return Fraction(1, m)
    lines: dict = {}
    for i in range(m):
        for j in range(i + 1, m):
            p, q = on_plane[i], on_plane[j]
            direction = tuple(q[t] - p[t] for t in range(3))
            lead_idx = next(t for t in range(3) if direction[t])
            lead = direction[lead_idx]
            direction = tuple(P.field.div(x, lead) for x in direction)
            shift = p[lead_idx]
            base = tuple(p[t] - shift * direction[t] for t in range(3))
            key = (direction, base)
            lines.setdefault(key, set()).update((p, q))
    heaviest = max((len(v) for v in lines.values()), default=1)
    return Fraction(heaviest, m)
