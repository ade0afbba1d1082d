import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from detlab.errors import BudgetExceededError, PreconditionError
from detlab import incidence
from detlab.detcount import count_det_brute, det_spectrum, minor_multiplicity_map
from detlab.energy import energy_Estar_mu
from detlab.incidence import (
    HyperplaneFamily,
    PointGrid,
    cell_decompose,
    cells_hit,
    choose_r,
    classify_incidences,
    cube_grid,
    curve_incidences_n3,
    incidences_brute,
    nondegeneracy_ratio,
    normalize_plane,
    planes_from_minors,
)
from detlab.scalars import FieldSpec, make_ground_set

from conftest import QQ, F7, fraction_ground_sets, int_ground_sets

X01 = make_ground_set([0, 1], QQ)
X12 = make_ground_set([1, 2], QQ)
X012 = make_ground_set([0, 1, 2], QQ)
HALVES = make_ground_set([Fraction(1, 2), 1, Fraction(3, 2)], QQ)
MIXED = make_ground_set([Fraction(1, 2), Fraction(2, 3), 2], QQ)
Y124 = make_ground_set([1, 2, 4], F7)
F5 = FieldSpec.prime(5)


def fam(raw, field=QQ):
    return HyperplaneFamily.from_coefficients(raw, field)


def test_brute_examples():
    grid = cube_grid(X01, 2)
    assert incidences_brute(grid, fam([((1, 1), 1)])) == 2
    assert incidences_brute(grid, fam([((1, 1), 5)])) == 0


def test_brute_weighted_consistency_with_per_plane_loop():
    X = X12
    mp = planes_from_minors(X, 1)
    grid = cube_grid(X, 3)
    total = incidences_brute(grid, mp.family)
    per_plane = 0
    for coeffs, offset in mp.family:
        per_plane += incidences_brute(grid, fam([(coeffs, offset)]))
    assert total == per_plane


def test_family_normalization_dedup():
    f = fam([((2, 2), 2), ((1, 1), 1), ((-3, -3), -3)])
    assert len(f) == 1
    assert f.planes[0] == ((Fraction(1), Fraction(1)), Fraction(1))
    # parallel planes with different offsets stay distinct
    f2 = fam([((1, 1), 1), ((2, 2), 4)])
    assert len(f2) == 2


def _assert_int_normal_form(plane, field):
    """Plain ints; over Q coprime with a positive lead, over F_p residues
    with lead one."""
    coeffs, offset = plane
    assert all(type(v) is int for v in (*coeffs, offset)), plane
    lead = next(c for c in coeffs if c)
    if field.is_rational:
        assert lead > 0 and math.gcd(*coeffs, offset) == 1, plane
    else:
        assert lead == 1 and all(0 <= v < field.modulus for v in (*coeffs, offset)), plane


def test_family_planes_are_plain_ints():
    raw = [
        ((Fraction(-2, 3), Fraction(4, 9), 0), Fraction(1, 3)),
        ((0, Fraction(-3, 2), 6), -9),
        ((Fraction(-1, 2), 0, 1), 0),
        ((6, -4, 0), -3),  # the first plane again, already integral
    ]
    f = fam(raw)
    assert f.planes == (((6, -4, 0), -3), ((0, 1, -4), 6), ((1, 0, -2), 0))
    fp = fam([((3, 5, 0), 2), ((0, 6, 1), 4), ((6, 3, 0), 4)], F7)
    assert fp.planes == (((1, 4, 0), 3), ((0, 1, 6), 3))
    for family, field in ((f, QQ), (fp, F7)):
        for plane in family:
            _assert_int_normal_form(plane, field)


@given(
    st.lists(st.integers(-30, 30), min_size=1, max_size=4),
    st.integers(-30, 30),
    st.sampled_from([QQ, F7]),
)
@example([0, -4, 6], 2, QQ)  # a zero, then a negative lead
@example([7, -3, 5], 12, F7)  # a coefficient that vanishes mod 7, then the lead
def test_normalize_plane_int_fast_path(coeffs, offset, field):
    # plain ints take the fast path; the same values as Fractions (over Q) or
    # Mods (over F_7) take the coercing one, and both give one normal form
    general = [Fraction(v) if field.is_rational else field.coerce(v) for v in (*coeffs, offset)]
    p = field.modulus or 0
    if not any(c % p if p else c for c in coeffs):
        for args in ((coeffs, offset), (general[:-1], general[-1])):
            with pytest.raises(PreconditionError):
                normalize_plane(*args, field)
        return
    plane = normalize_plane(coeffs, offset, field)
    assert plane == normalize_plane(general[:-1], general[-1], field)
    _assert_int_normal_form(plane, field)
    # the same plane: proportional to the input
    raw, out = (*coeffs, offset), (*plane[0], plane[1])
    j = next(i for i, c in enumerate(coeffs) if (c % p if p else c))
    for r, o in zip(raw, out):
        cross = o * raw[j] - r * out[j]
        assert (cross % p if p else cross) == 0, (raw, out)


@pytest.mark.parametrize(
    "X,targets",
    [
        (HALVES, (0, 1, Fraction(-5, 7))),
        (MIXED, (0, 1, Fraction(1, 3))),
        (Y124, (0, 1, 3)),
    ],
)
def test_minor_planes_match_lowered_table(X, targets):
    # keyed on the lifted int table, the planes are those of the lowered
    # cofactor triples <m, x> = d, with the same weights
    mm = minor_multiplicity_map(X, 3)
    for d in targets:
        mp = planes_from_minors(X, d)
        expected: dict = {}
        for m, mu in mm.entries.items():
            (plane,) = HyperplaneFamily.from_coefficients([(m, d)], X.field).planes
            expected[plane] = expected.get(plane, 0) + mu
        assert dict(zip(mp.family.planes, mp.weights)) == expected
        assert mp.zero_multiplicity == mm.zero_count
        for plane in mp.family:
            _assert_int_normal_form(plane, X.field)


def test_incidence_kernel_calls_get_plain_ints(monkeypatch):
    count_forms = incidence._count_forms
    moduli = set()

    def checked(forms, elems, modulus, *args):
        forms = list(forms)
        for coeffs, target, w in forms:
            assert all(type(v) is int for v in (*coeffs, target, w, *elems)), (coeffs, target, elems)
        moduli.add(modulus)
        return count_forms(forms, elems, modulus, *args)

    monkeypatch.setattr(incidence, "_count_forms", checked)
    for X, d in ((HALVES, 0), (HALVES, Fraction(3, 4)), (Y124, 3)):
        assert planes_from_minors(X, d).det_count_via_incidences() == count_det_brute(X, 3, d)
        curve_incidences_n3(X)
    assert moduli == {None, 7}


def test_family_rejects_zero_vector_and_mixed_dims():
    with pytest.raises(PreconditionError):
        fam([((0, 0), 1)])
    with pytest.raises(PreconditionError):
        fam([((1, 0), 1), ((1, 0, 0), 1)])
    with pytest.raises(PreconditionError):
        fam([])


def test_choose_r_examples():
    X10 = make_ground_set(range(1, 11), QQ)
    planes = fam([((1, 1, 1), i) for i in range(1, 1001)])
    assert choose_r(cube_grid(X10, 3), planes) == 5

    assert choose_r(cube_grid(X01, 3), fam([((1, 1, 1), 1)])) == 2

    many = fam([((1, 1), i) for i in range(600)])
    assert choose_r(cube_grid(X01, 2), many) == 1
    # no planes: the cap A_k, the formula's limit as #Pi -> 0
    assert choose_r(cube_grid(X012, 3), HyperplaneFamily(3, ())) == 3


@pytest.mark.parametrize("e", [0, 5])
@pytest.mark.parametrize("d", [0, 1])
def test_classify_one_element_set_has_no_planes(e, d):
    # every cofactor triple of a one-element set vanishes, so no plane is left to slice
    X = make_ground_set([e], QQ)
    planes = planes_from_minors(X, d).family
    grid = cube_grid(X, 3)
    assert len(planes) == 0
    assert choose_r(grid, planes) == 1
    cls = classify_incidences(grid, planes, 1)
    assert (cls.i1, cls.i2, cls.i3) == (0, 0, 0)


@given(
    st.lists(st.integers(-8, 8), min_size=1, max_size=6, unique=True),
    st.lists(st.integers(-8, 8), min_size=1, max_size=6, unique=True),
    st.integers(1, 40),
)
def test_choose_r_always_admissible(a1, a2, nplanes):
    grid = PointGrid((make_ground_set(a1, QQ), make_ground_set(a2, QQ)))
    planes = fam([((1, 1), i) for i in range(nplanes)])
    r = choose_r(grid, planes)
    assert 1 <= r <= grid.min_size


def test_cell_decompose_examples():
    X4 = make_ground_set([1, 2, 3, 4], QQ)
    D = cell_decompose(cube_grid(X4, 2), 2)
    assert D.cuts[0] == (Fraction(5, 2),)
    assert D.group_sizes[0] == (2, 2)

    D1 = cell_decompose(cube_grid(X4, 2), 1)
    assert D1.cuts[0] == ()
    assert sum(D1.population(c) for c in D1.cell_indices()) == 16

    X3 = make_ground_set([1, 2, 3], QQ)
    D3 = cell_decompose(cube_grid(X3, 2), 2)
    assert D3.group_sizes[0] == (2, 1)


def test_cell_decompose_errors():
    with pytest.raises(PreconditionError):
        cell_decompose(cube_grid(X012, 2), 4)
    with pytest.raises(PreconditionError):
        cell_decompose(cube_grid(X012, 2), 0)
    Xp = make_ground_set([1, 2, 3], F7)
    with pytest.raises(PreconditionError):
        cell_decompose(cube_grid(Xp, 2), 2)


def test_no_point_on_any_cut_and_coverage():
    vals = [Fraction(1, 3), Fraction(1, 2), 1, 2, Fraction(7, 3), 3]
    X = make_ground_set(vals, QQ)
    grid = PointGrid((X, make_ground_set([0, 1, 5], QQ)))
    for r in (1, 2, 3):
        D = cell_decompose(grid, r)
        assert sum(D.population(c) for c in D.cell_indices()) == grid.npoints
        for i, ax in enumerate(grid.axes):
            for cut in D.cuts[i]:
                assert all(e != cut for e in ax.elements)
        # population per cell matches direct assignment
        assigned = {}
        for p in grid.points():
            c = D.cell_of(p)
            assigned[c] = assigned.get(c, 0) + 1
        for cell, cnt in assigned.items():
            assert D.population(cell) == cnt
        table = {c: D.population(c) for c in D.cell_indices()}
        assert sum(table.values()) == grid.npoints
        assert all(table[c] == cnt for c, cnt in assigned.items())


def test_classify_collinear_example():
    grid = cube_grid(X012, 2)
    planes = fam([((1, 1), 2)])
    out = classify_incidences(grid, planes, 1)
    assert (out.i1, out.i2, out.i3) == (0, 3, 0)


def test_classify_single_point_plane():
    grid = cube_grid(X012, 2)
    planes = fam([((1, 1), 0)])  # only (0, 0) in the grid
    out = classify_incidences(grid, planes, 2)
    assert (out.i1, out.i2, out.i3) == (1, 0, 0)


def _random_instance(rng, k):
    axes = []
    for _ in range(k):
        size = rng.randint(1, 6)
        vals = rng.sample(range(-7, 8), size)
        axes.append(make_ground_set(vals, QQ))
    grid = PointGrid(tuple(axes))
    pts = list(grid.points())
    raw = []
    for _ in range(rng.randint(1, 8)):
        # planes through sampled grid points so incidences actually occur
        p = rng.choice(pts)
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
        if not any(coeffs):
            coeffs[rng.randrange(k)] = Fraction(1)
        offset = sum(c * x for c, x in zip(coeffs, p))
        raw.append((tuple(coeffs), offset))
    for _ in range(rng.randint(0, 4)):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
        if not any(coeffs):
            coeffs[0] = Fraction(1)
        raw.append((tuple(coeffs), Fraction(rng.randint(-5, 5))))
    return grid, fam(raw)


def test_classification_partition_random_instances():
    rng = random.Random(424242)
    for trial in range(20):
        k = rng.choice([2, 3])
        grid, planes = _random_instance(rng, k)
        brute = incidences_brute(grid, planes)
        r = choose_r(grid, planes)
        out = classify_incidences(grid, planes, r)
        assert out.i1 + out.i2 + out.i3 == brute, (trial, k)
        D = cell_decompose(grid, r)
        bound = k * r ** (k - 1)
        for plane in planes:
            assert cells_hit(plane, D) <= bound


def test_cells_hit_examples():
    X4 = make_ground_set([1, 2, 3, 4], QQ)
    D = cell_decompose(cube_grid(X4, 3), 2)
    plane = normalize_plane((1, 0, 0), 2, QQ)
    assert cells_hit(plane, D) == 4
    D1 = cell_decompose(cube_grid(X4, 3), 1)
    assert cells_hit(plane, D1) == 1


def test_cells_hit_bound_random_planes():
    rng = random.Random(7)
    X = make_ground_set(range(1, 7), QQ)
    grid = cube_grid(X, 3)
    for r in (2, 3):
        D = cell_decompose(grid, r)
        for _ in range(40):
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
            if not any(coeffs):
                coeffs[0] = Fraction(1)
            plane = normalize_plane(coeffs, Fraction(rng.randint(-9, 9), 2), QQ)
            assert cells_hit(plane, D) <= 3 * r * r


def _slab_hits(plane, D):
    """Oracle: per cell, the range of <a, x> over its closed slab in
    Fractions, straight from the cuts, against b."""
    a, b = plane
    hits = 0
    for cell in D.cell_indices():
        low = high = Fraction(0)
        low_open = high_open = False
        for ai, cuts, g in zip(a, D.cuts, cell):
            left = cuts[g - 1] if g > 0 else None
            right = cuts[g] if g < len(cuts) else None
            if ai < 0:
                left, right = right, left
            if ai and left is None:
                low_open = True
            elif ai:
                low += Fraction(ai) * left
            if ai and right is None:
                high_open = True
            elif ai:
                high += Fraction(ai) * right
        hits += (low_open or low <= b) and (high_open or high >= b)
    return hits


@pytest.mark.parametrize(
    "axes",
    [
        [make_ground_set(range(1, 5), QQ)] * 3,
        [make_ground_set(range(-3, 4), QQ)] * 2,
        # halves: the midpoint cuts have denominator 4
        [make_ground_set([Fraction(k, 2) for k in range(-1, 3)], QQ)] * 3,
        [make_ground_set([Fraction(k, 2) for k in range(-3, 4)], QQ), make_ground_set(range(5), QQ)],
    ],
)
def test_cells_hit_matches_fraction_slab_test(axes):
    # the int slab test against the Fraction one, on the minor planes of a
    # cube grid and on random planes, some through cut corners
    grid = PointGrid(tuple(axes))
    k = grid.k
    planes = set(planes_from_minors(axes[0], 0).family) if k == 3 else set()
    rng = random.Random(11)
    for _ in range(200):
        coeffs = [rng.randint(-4, 4) for _ in range(k)]
        if any(coeffs):
            planes.add(normalize_plane(coeffs, Fraction(rng.randint(-12, 12), rng.choice([1, 2, 4])), QQ))
    for r in range(1, grid.min_size + 1):
        D = cell_decompose(grid, r)
        for plane in planes:
            hits = _slab_hits(plane, D)
            if hits > k * r ** (k - 1):
                # a plane through a corner of cells meets every closed slab
                # around it: x = y on a 3 x 3 split meets 7 cells, not 6
                with pytest.raises(AssertionError):
                    cells_hit(plane, D)
            else:
                assert cells_hit(plane, D) == hits, (r, plane)


def test_planes_from_minors_degenerate_singleton():
    mp = planes_from_minors(make_ground_set([1], QQ), 5)
    assert len(mp.family) == 0
    assert mp.zero_multiplicity == 1
    assert mp.total_weight() == 1


def test_planes_from_minors_mass_and_det_identity():
    for d in (0, 1, 2, -1, Fraction(1, 2)):
        mp = planes_from_minors(X12, d)
        assert mp.total_weight() == 2**6
        assert mp.det_count_via_incidences() == count_det_brute(X12, 3, d)


def test_planes_from_minors_weight_square_identity():
    # for d != 0 distinct triples give distinct planes, so weights are triple
    # multiplicities and their squares add up to the twelve-variable energy
    for X in (X12, X01, X012):
        mp = planes_from_minors(X, 1)
        assert sum(w * w for w in mp.weights) + mp.zero_multiplicity**2 == energy_Estar_mu(X)


def test_planes_from_minors_projective_merge_at_zero():
    mp0 = planes_from_minors(X012, 0)
    mp1 = planes_from_minors(X012, 1)
    assert len(mp0.family) < len(mp1.family)
    assert mp0.det_count_via_incidences() == count_det_brute(X012, 3, 0)


def _minor_triples(X) -> dict:
    """Oracle: the signed cofactor triple of every 2 x 3 block over X."""
    tally: dict = {}
    for y1, y2, y3, z1, z2, z3 in itertools.product(X.elements, repeat=6):
        m = (y2 * z3 - y3 * z2, y3 * z1 - y1 * z3, y1 * z2 - y2 * z1)
        tally[m] = tally.get(m, 0) + 1
    return tally


@given(
    st.one_of(int_ground_sets(max_size=3, lo=-3, hi=4), fraction_ground_sets(max_size=3)),
    st.sampled_from([0, 1, -2, 3, Fraction(1, 2), Fraction(-5, 3)]),
)
@example(make_ground_set(range(-1, 2), QQ), 1)
@example(HALVES, Fraction(1, 2))
@example(make_ground_set(range(5), F5), 0)
@example(make_ground_set([0, 2, 3], F5), 1)
@example(make_ground_set([0, 1, 3], F7), 3)
@example(make_ground_set([0, 3, 5, 6], F7), 0)
@settings(max_examples=30)
def test_minor_planes_are_normal_forms_of_every_triple(X, d):
    # each pair of classes takes one gcd over Q and one inverse per distinct
    # nonzero entry over F_p; every plane must be its own normal form, and
    # the family the normalized triples with their weights
    mp = planes_from_minors(X, d)
    expected: dict = {}
    for m, mu in _minor_triples(X).items():
        if any(m):
            plane = normalize_plane(m, d, X.field)
            expected[plane] = expected.get(plane, 0) + mu
    assert dict(zip(mp.family.planes, mp.weights)) == expected
    for coeffs, offset in mp.family:
        assert normalize_plane(coeffs, offset, X.field) == (coeffs, offset)


def test_planes_from_minors_spectrum_sweep():
    X = X01
    spec = det_spectrum(X, 3, "rowblock")
    for d, expected in spec.entries.items():
        assert planes_from_minors(X, d).det_count_via_incidences() == expected


def _curve_solutions(U) -> int:
    """Oracle: the literal six-variable loop over U^6."""
    return sum(
        1
        for u1, u2, v1, v2, w1, w2 in itertools.product(U.elements, repeat=6)
        if not (u1 * (v2 - w2) - u2 * (v1 - w1) + v1 * w2 - v2 * w1)
    )


def _residue_sets(max_size=4):
    return st.sampled_from([F5, F7]).flatmap(
        lambda F: st.lists(
            st.integers(0, F.modulus - 1), min_size=1, max_size=max_size, unique=True
        ).map(lambda vals: make_ground_set(vals, F))
    )


@given(
    st.one_of(
        int_ground_sets(max_size=4, lo=-3, hi=3),
        fraction_ground_sets(max_size=4),
        _residue_sets(),
    )
)
@example(make_ground_set([-2, 0, 1, 3], QQ))
@example(make_ground_set([Fraction(-1, 2), 0, Fraction(1, 2), 1], QQ))
@example(make_ground_set([0, 1, 2, 4], F5))
@example(make_ground_set([0, 3, 5, 6], F7))
@settings(max_examples=40)
def test_curve_count_matches_six_variable_loop(U):
    # the direct half solves for u2 by table lookup; the literal loop tries
    # every u2, and the curve half must agree with both
    assert curve_incidences_n3(U) == _curve_solutions(U)


def test_curve_double_count_stays_live(monkeypatch):
    # a curve half that is off by one must make the double count raise
    count_forms = incidence._count_forms
    monkeypatch.setattr(incidence, "_count_forms", lambda *args: count_forms(*args) + 1)
    for U in (X012, HALVES, Y124):
        with pytest.raises(AssertionError, match="curve double count disagrees"):
            curve_incidences_n3(U)


def test_curve_examples():
    assert curve_incidences_n3(make_ground_set([1], QQ)) == 1
    # frozen from the direct six-variable oracle; the function itself
    # recounts through the curve-incidence route and insists they agree
    assert curve_incidences_n3(X01) == 40
    assert curve_incidences_n3(X12) == 40
    assert curve_incidences_n3(make_ground_set([1, 2], F7)) == 40


def _dot(a, point):
    acc = a[0] * point[0]
    for ai, x in zip(a[1:], point[1:]):
        acc = acc + ai * x
    return acc


def _literal_points_on_plane(P, plane):
    """Oracle: every grid point tested against the plane."""
    a = [P.field.coerce(c) for c in plane[0]]
    b = P.field.coerce(plane[1])
    return [point for point in P.points() if _dot(a, point) == b]


@pytest.mark.parametrize(
    "grid",
    [
        PointGrid((X01, X012, make_ground_set([5], QQ))),
        cube_grid(X012, 2),
        cube_grid(make_ground_set([-2, 0, 1, 3], QQ), 3),
        cube_grid(HALVES, 3),
        PointGrid((MIXED, HALVES)),
        cube_grid(make_ground_set([0, 1, 2, 4], F7), 3),
        PointGrid((Y124, make_ground_set([0, 3, 5, 6], F7), Y124)),
    ],
)
def test_points_on_plane_match_literal_filter(grid):
    # the last coordinate is solved by table lookup; the literal filter
    # tests every point. Planes of the form (0, ..., 0, c), with last
    # coefficient 0, through grid points, and mostly with no point at all
    rng = random.Random(5)
    k, field = grid.k, grid.field
    pts = list(grid.points())
    raw = [((0,) * (k - 1) + (c,), e) for c in (1, 2, -3) for e in (0, 1, 3, 5)]
    raw += [((1,) * (k - 1) + (0,), e) for e in (0, 1, 2, 3)]
    for _ in range(30):
        coeffs = [rng.randint(-3, 3) for _ in range(k)]
        if rng.random() < 0.3:
            coeffs[-1] = 0
        if not any(coeffs):
            coeffs[0] = 1
        through = _dot([field.coerce(c) for c in coeffs], rng.choice(pts))
        raw += [(coeffs, through), (coeffs, rng.randint(-9, 9))]
    for coeffs, offset in raw:
        plane = normalize_plane(coeffs, offset, field)
        assert incidence._points_on_plane(grid, plane) == _literal_points_on_plane(grid, plane), plane


def test_classify_sums_to_brute_on_halves_grid():
    for X in (HALVES, make_ground_set([Fraction(k, 2) for k in range(-2, 3)], QQ)):
        grid = cube_grid(X, 3)
        for d in (0, Fraction(1, 2)):
            planes = planes_from_minors(X, d).family
            brute = incidences_brute(grid, planes)
            for r in range(1, grid.min_size + 1):
                out = classify_incidences(grid, planes, r)
                assert out.i1 + out.i2 + out.i3 == brute, (X, d, r)


def test_nondegeneracy_ratio():
    grid = cube_grid(X012, 2)
    plane = normalize_plane((1, 1), 2, QQ)
    assert nondegeneracy_ratio(grid, plane) == Fraction(1, 3)
    grid3 = cube_grid(X012, 3)
    plane3 = normalize_plane((1, 1, 1), 2, QQ)
    # six points on the plane; the heaviest line carries three of them
    assert nondegeneracy_ratio(grid3, plane3) == Fraction(1, 2)
    assert nondegeneracy_ratio(grid, normalize_plane((1, 1), 99, QQ)) is None
    # over F_7 the same points lie on the plane, and Mod has no __radd__
    Y012 = make_ground_set([0, 1, 2], F7)
    assert nondegeneracy_ratio(cube_grid(Y012, 2), normalize_plane((1, 1), 2, F7)) == Fraction(1, 3)
    assert nondegeneracy_ratio(cube_grid(Y012, 3), normalize_plane((1, 1, 1), 2, F7)) == Fraction(1, 2)
    # the six permutations of (1, 2, 4) sum to 0 mod 7; mod 7, three of them
    # share a line, over Q (sum 7) no three do
    Y124 = make_ground_set([1, 2, 4], F7)
    assert nondegeneracy_ratio(cube_grid(Y124, 3), normalize_plane((1, 1, 1), 0, F7)) == Fraction(1, 2)
    X124 = make_ground_set([1, 2, 4], QQ)
    assert nondegeneracy_ratio(cube_grid(X124, 3), normalize_plane((1, 1, 1), 7, QQ)) == Fraction(1, 3)


def test_grid_validation_and_order():
    with pytest.raises(PreconditionError):
        PointGrid((X01,))
    with pytest.raises(PreconditionError):
        PointGrid((X01, make_ground_set([1], F7)))
    grid = PointGrid((X01, X012, make_ground_set([5], QQ)))
    assert grid.min_size == 1
    assert grid.npoints == 6


def test_incidence_budget():
    X = make_ground_set(range(30), QQ)
    grid = cube_grid(X, 3)
    planes = fam([((1, 1, 1), i) for i in range(50)])
    with pytest.raises(BudgetExceededError):
        incidences_brute(grid, planes, budget=1000)
    with pytest.raises(BudgetExceededError):
        curve_incidences_n3(X, budget=1000)


def test_minor_plane_incidences_budget_is_the_kernel_charge():
    # interval 4, d = 0: 825 planes, all with target 0. Each sorted
    # coefficient vector (a, b, e), negated when e > -a, looks up a over the
    # prefix (b, e), and equal vectors merge: 151 merged forms over 69
    # distinct (b, e) and 15 distinct (b). The kernel builds the 15
    # distributions of b*x from the root's one entry (4 * 15 steps), the 69
    # of b*x + e*y from theirs, 4 entries each but 1 for the 3 with b = 0
    # (4 * (66 * 4 + 3) = 1068 steps), then does 4 lookups per merged form
    # (604): 60 + 1068 + 604 = 1732.
    X = make_ground_set(range(1, 5), QQ)
    mp = planes_from_minors(X, 0)
    assert len(mp.family) == 825
    assert mp.det_count_via_incidences(budget=1_732) == count_det_brute(X, 3, 0)
    with pytest.raises(BudgetExceededError) as exc:
        mp.det_count_via_incidences(budget=1_731)
    assert (exc.value.estimated, exc.value.budget, exc.value.what) == (1_732, 1_731, "det_count_via_incidences")


def test_curve_incidences_budget_is_direct_plus_kernel():
    # interval 3: the direct half does 3^5 = 243 lookups, after building
    # for each of the 5 distinct differences its table {u*b: count} and its
    # list [u*c], 3 steps each (243 + 30 = 273); then 81 curve forms
    # ((t-c, b-a), t*b - a*c), each sorted, negated when its larger entry
    # exceeds minus its smaller, merge into 19 forms whose prefixes take 5
    # distinct values: 3 * 5 steps for their distributions and 3 lookups
    # per merged form (57): 273 + 15 + 57 = 345.
    U = make_ground_set([1, 2, 3], QQ)
    count = curve_incidences_n3(U, budget=345)
    assert count == curve_incidences_n3(U)
    # the refusal at pin - 1 reports both halves' total
    with pytest.raises(BudgetExceededError) as exc:
        curve_incidences_n3(U, budget=344)
    assert (exc.value.estimated, exc.value.budget, exc.value.what) == (345, 344, "curve_incidences_n3")


def test_classify_budget_is_the_last_coordinate_solve():
    # interval 4, d = 0: 825 planes over the 4^3 grid. Each plane builds
    # the table of a_3*y over the 4 last-axis values, then does one lookup
    # per prefix in 4^2: (4 + 16) * 825 steps
    X = make_ground_set(range(1, 5), QQ)
    grid = cube_grid(X, 3)
    planes = planes_from_minors(X, 0).family
    assert len(planes) == 825
    out = classify_incidences(grid, planes, 2, budget=16_500)
    assert out.i1 + out.i2 + out.i3 == incidences_brute(grid, planes)
    with pytest.raises(BudgetExceededError):
        classify_incidences(grid, planes, 2, budget=16_499)


def test_prime_field_brute_only():
    Xp = make_ground_set([1, 2, 3], F7)
    grid = cube_grid(Xp, 2)
    planes = HyperplaneFamily.from_coefficients([((1, 1), 3)], F7)
    assert incidences_brute(grid, planes) == 2  # (1,2) and (2,1) sum to 3 mod 7
    with pytest.raises(PreconditionError):
        cell_decompose(grid, 2)
