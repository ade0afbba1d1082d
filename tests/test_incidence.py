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
from detlab.scalars import make_ground_set

from conftest import QQ, F7

X01 = make_ground_set([0, 1], QQ)
X12 = make_ground_set([1, 2], QQ)
X012 = make_ground_set([0, 1, 2], QQ)
HALVES = make_ground_set([Fraction(1, 2), 1, Fraction(3, 2)], QQ)
MIXED = make_ground_set([Fraction(1, 2), Fraction(2, 3), 2], QQ)
Y124 = make_ground_set([1, 2, 4], F7)


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
    assert D1.total_population() == 16

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
        assert D.total_population() == grid.npoints
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
        table = D.cell_counts()
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


def test_planes_from_minors_spectrum_sweep():
    X = X01
    spec = det_spectrum(X, 3, "rowblock")
    for d, expected in spec.entries.items():
        assert planes_from_minors(X, d).det_count_via_incidences() == expected


def test_curve_examples():
    assert curve_incidences_n3(make_ground_set([1], QQ)) == 1
    # frozen from the direct six-variable oracle; the function itself
    # recounts through the curve-incidence route and insists they agree
    assert curve_incidences_n3(X01) == 40
    assert curve_incidences_n3(X12) == 40
    assert curve_incidences_n3(make_ground_set([1, 2], F7)) == 40


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
    # interval 4, d = 0: 825 planes, all with target 0, whose sorted
    # coefficient vectors have 15 distinct (a) and 114 distinct (a, b)
    # prefixes. The kernel builds the 15 distributions of a*x from the root's
    # one entry (4 * 15 steps), the 114 of a*x + b*y from theirs (1824
    # steps), then does 4 lookups per plane (3300).
    X = make_ground_set(range(1, 5), QQ)
    mp = planes_from_minors(X, 0)
    assert len(mp.family) == 825
    assert mp.det_count_via_incidences(budget=5_184) == count_det_brute(X, 3, 0)
    with pytest.raises(BudgetExceededError):
        mp.det_count_via_incidences(budget=5_183)


def test_curve_incidences_budget_is_direct_plus_kernel():
    # interval 3: 3^6 = 729 direct tuples, then 81 curve forms whose sorted
    # coefficient pairs (t-c, b-a) have 5 distinct first entries: 3 * 5
    # steps for their distributions and 3 lookups per form (243).
    U = make_ground_set([1, 2, 3], QQ)
    count = curve_incidences_n3(U, budget=987)
    assert count == curve_incidences_n3(U)
    with pytest.raises(BudgetExceededError):
        curve_incidences_n3(U, budget=986)


def test_prime_field_brute_only():
    Xp = make_ground_set([1, 2, 3], F7)
    grid = cube_grid(Xp, 2)
    planes = HyperplaneFamily.from_coefficients([((1, 1), 3)], F7)
    assert incidences_brute(grid, planes) == 2  # (1,2) and (2,1) sum to 3 mod 7
    with pytest.raises(PreconditionError):
        cell_decompose(grid, 2)
