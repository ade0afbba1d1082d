"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Everything here is exact (tolerance zero) except the two growth-probe slope
thresholds, which are explicit inequalities.
"""

import itertools
import random
from fractions import Fraction

import pytest

from detlab.detcount import (
    count_det_brute,
    count_det_rowblock,
    count_rank,
    det_spectrum,
    dsup,
)
from detlab.energy import (
    count_bilinear,
    count_bilinear_brute,
    energy_Estar_brute,
    energy_Estar_mu,
    energy_N,
    energy_N_brute,
    energy_T,
    energy_T_brute,
    r_distribution,
)
from detlab.families import FamilySpec, generate
from detlab.harness import fit_exponent, run_scan
from detlab.incidence import (
    cell_decompose,
    cells_hit,
    choose_r,
    classify_incidences,
    cube_grid,
    incidences_brute,
    planes_from_minors,
    HyperplaneFamily,
    PointGrid,
)
from detlab.matrices import (
    Matrix,
    adjugate,
    assemble_bordered,
    det,
    identity,
    mat_mul,
    schur_value,
)
from detlab.scalars import FieldSpec, make_ground_set, scale_set

QQ = FieldSpec.rationals()
F7 = FieldSpec.prime(7)


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {criterion:>2}: {detail}")
    return ok


def _suite_sets():
    sets = []
    for size in (1, 2, 3, 4):
        sets.append((f"interval[{size}]", generate(FamilySpec("interval", size), QQ)))
        sets.append((f"gp2[{size}]", generate(FamilySpec("gp", size, ratio=2), QQ)))
    for seed in range(10):
        size = 1 + seed % 4
        spec = FamilySpec("random", size, seed=seed)
        sets.append((f"random[seed={seed},X={size}]", generate(spec, QQ)))
    return sets


@pytest.fixture(scope="module")
def suite_spectra():
    out = {}
    for name, X in _suite_sets():
        for n in (2, 3):
            sb = det_spectrum(X, n, "brute")
            sr = det_spectrum(X, n, "rowblock")
            out[(name, n)] = (X, sb, sr)
    return out


def test_criterion_01_oracle_equivalence(suite_spectra):
    checked = 0
    for (name, n), (X, sb, sr) in suite_spectra.items():
        assert sb.entries == sr.entries, (name, n)
        if n == 2:
            for d, expected in sb.entries.items():
                assert count_det_rowblock(X, 2, d) == expected, (name, d)
        checked += len(sb.entries)
        # the count functions themselves agree at the extremes and at zero
        for d in (min(sb.entries), max(sb.entries), QQ.coerce(0)):
            b = count_det_brute(X, n, d)
            assert b == count_det_rowblock(X, n, d) == sb.entries.get(d, 0), (name, n, d)
    ok = report(1, True, f"brute = rowblock (= conv at n=2) across {checked} spectrum values")
    assert ok


def test_criterion_02_hand_anchors():
    a = count_det_brute(make_ground_set([1, 2], QQ), 2, 0)
    b = count_det_brute(generate(FamilySpec("gp", 4, ratio=2), QQ), 2, 0)
    c = count_det_brute(make_ground_set([0], QQ), 2, 0)
    ok = (a, b, c) == (6, 44, 1)
    assert report(2, ok, f"D2({{1,2}},0)={a}, D2(GP2_4,0)={b}, D2({{0}},0)={c}")


def test_criterion_03_spectrum_mass(suite_spectra):
    for (name, n), (X, sb, sr) in suite_spectra.items():
        assert sb.total_mass() == len(X) ** (n * n), (name, n)
        assert sr.total_mass() == len(X) ** (n * n), (name, n)
    expected = {
        Fraction(-3): 1, Fraction(-2): 2, Fraction(-1): 2, Fraction(0): 6,
        Fraction(1): 2, Fraction(2): 2, Fraction(3): 1,
    }
    two = suite_spectra[("interval[2]", 2)][1]
    ok = two.entries == expected
    assert report(3, ok, f"mass = X^(n^2) on {len(suite_spectra)} spectra; {{1,2}} histogram exact")


def _subsets(universe, max_size):
    for size in range(1, max_size + 1):
        yield from itertools.combinations(universe, size)


def test_criterion_04_energy_identities():
    U01 = make_ground_set([0, 1], QQ)
    U12 = make_ground_set([1, 2], QQ)
    assert energy_T(U01) == 118
    assert sum(c * c for c in r_distribution(U01).entries.values()) == 118
    assert energy_N(U12) == 20

    universe = [-2, -1, 0, 1, 2, 3]
    t_checked = n_checked = 0
    for vals in _subsets(universe, 3):
        U = make_ground_set(vals, QQ)
        assert energy_T(U) == energy_T_brute(U), vals
        t_checked += 1
    for vals in _subsets(universe, 4):
        U = make_ground_set(vals, QQ)
        assert energy_N(U) == energy_N_brute(U), vals
        n_checked += 1

    estar_sets = [[1], [1, 2], [0, 1], [1, 2, 3], [-1, 0, 1], [2, 4, 8]]
    for vals in estar_sets:
        U = make_ground_set(vals, QQ)
        assert energy_Estar_mu(U) == energy_Estar_brute(U), vals
    assert report(
        4,
        True,
        f"T({{0,1}})=118, N({{1,2}})=20; T brute x{t_checked}, N brute x{n_checked}, "
        f"E* mu=brute x{len(estar_sets)}",
    )


def test_criterion_05_bilinear_engine():
    rng = random.Random(20240202)
    matrices = 0
    omegas = 0
    while matrices < 50:
        k = 2 if matrices < 25 else 3
        M = Matrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)], QQ
        )
        if not det(M):
            continue
        matrices += 1
        B = make_ground_set(rng.sample(range(-4, 5), rng.randint(1, 3)), QQ)
        C = make_ground_set(rng.sample(range(-4, 5), rng.randint(1, 3)), QQ)
        attained = set()
        for b in itertools.product(B.elements, repeat=k):
            Mb = [
                sum((M.at(i, j) * b[j] for j in range(k)), Fraction(0))
                for i in range(k)
            ]
            for c in itertools.product(C.elements, repeat=k):
                attained.add(sum((Mb[i] * c[i] for i in range(k)), Fraction(0)))
        for w in attained:
            if not w:
                continue
            assert count_bilinear(M, B, C, w) == count_bilinear_brute(M, B, C, w)
            omegas += 1
    assert report(5, True, f"engine = brute for 50 nonsingular matrices, {omegas} omega values")


def _random_incidence_instance(rng, k):
    axes = []
    for _ in range(k):
        size = rng.randint(1, 6)
        axes.append(make_ground_set(rng.sample(range(-9, 10), size), QQ))
    grid = PointGrid(tuple(axes))
    pts = list(grid.points())
    raw = []
    for _ in range(rng.randint(1, 10)):
        p = rng.choice(pts)
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
        if not any(coeffs):
            coeffs[rng.randrange(k)] = Fraction(1)
        raw.append((tuple(coeffs), sum(c * x for c, x in zip(coeffs, p))))
    return grid, HyperplaneFamily.from_coefficients(raw, QQ)


def test_criterion_06_incidence_accounting():
    rng = random.Random(606)
    instances = 0
    for _ in range(20):
        k = rng.choice([2, 3])
        grid, planes = _random_incidence_instance(rng, k)
        r = choose_r(grid, planes)
        assert 1 <= r <= grid.min_size
        out = classify_incidences(grid, planes, r)
        assert out.i1 + out.i2 + out.i3 == incidences_brute(grid, planes)
        D = cell_decompose(grid, r)
        for plane in planes:
            assert cells_hit(plane, D) <= k * r ** (k - 1)
        instances += 1

    # non-integer and prime-field sets guard the exact pivot solve
    minor_sets = [
        make_ground_set(vals, field)
        for vals, field in (
            ([1, 2], QQ), ([0, 1], QQ), ([1, 2, 3], QQ), ([2, 4, 8], QQ),
            ([Fraction(1, 2), 1, Fraction(3, 2)], QQ), ([1, 2, 4], F7),
        )
    ]
    sweeps = 0
    for X in minor_sets:
        spec = det_spectrum(X, 3, "brute")
        for d, expected in spec.entries.items():
            mp = planes_from_minors(X, d)
            assert mp.det_count_via_incidences() == expected, (X.elements, d)
            sweeps += 1
        if not X.field.is_rational:
            continue  # cell decomposition needs the ordered rational line
        grid = cube_grid(X, 3)
        d_nz = next(k for k in spec.entries if k)
        fam = planes_from_minors(X, d_nz).family
        r = choose_r(grid, fam)
        assert 1 <= r <= grid.min_size
        out = classify_incidences(grid, fam, r)
        assert out.i1 + out.i2 + out.i3 == incidences_brute(grid, fam)
        D = cell_decompose(grid, r)
        for plane in fam:
            assert cells_hit(plane, D) <= 3 * r * r
    assert report(
        6,
        True,
        f"{instances} random instances partition exactly; minor planes reproduce "
        f"D3(X,d) for {sweeps} (X,d) pairs",
    )


def test_criterion_07_algebraic_identities():
    rng = random.Random(707)
    for _ in range(500):
        n = rng.randint(1, 5)
        M = Matrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)], QQ
        )
        d = det(M)
        left = mat_mul(M, adjugate(M))
        expected = [
            [d if i == j else Fraction(0) for j in range(n)] for i in range(n)
        ]
        assert left.to_rows() == Matrix.from_rows(expected, QQ).to_rows()
    for _ in range(500):
        n = rng.choice([3, 4, 5])
        k = n - 1
        Y = Matrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(k)] for _ in range(k)], QQ
        )
        y = [rng.randint(-5, 5) for _ in range(k)]
        z = [rng.randint(-5, 5) for _ in range(k)]
        x = rng.randint(-5, 5)
        assert schur_value(Y, y, z, x) == det(assemble_bordered(Y, y, z, x))
    assert report(7, True, "adjugate identity x500 (n<=5); Schur = bordered det x500 (n in 3..5)")


def test_criterion_08_covariance():
    rng = random.Random(808)
    trials = 0
    for _ in range(20):
        vals = rng.sample(range(-6, 7), rng.randint(1, 3))
        X = make_ground_set(vals, QQ)
        c = Fraction(rng.choice([1, 2, 3, -1, -2, -3]), rng.choice([1, 2]))
        for n in (2, 3):
            spec = det_spectrum(X, n, "rowblock")
            d = rng.choice(list(spec.entries))
            base = spec.entries[d]
            assert count_det_rowblock(scale_set(X, c), n, d * c**n) == base
            assert count_det_rowblock(scale_set(X, -1), n, d * (-1) ** n) == base
            trials += 1
    assert report(8, True, f"scaling and negation covariance on {trials} (X, c, d, n) draws")


def test_criterion_09_growth_probes():
    sizes = [4, 6, 8]
    gp_rows = run_scan(FamilySpec("gp", 4, ratio=2), sizes, QQ, 3, "zero", "rowblock")
    iv_rows = run_scan(FamilySpec("interval", 4), sizes, QQ, 3, "zero", "rowblock")
    gp_fit = fit_exponent(gp_rows)
    iv_fit = fit_exponent(iv_rows)
    ok = gp_fit.slope >= 6.0 and iv_fit.slope < gp_fit.slope
    assert report(
        9,
        ok,
        f"GP(2) slope {gp_fit.slope:.3f} >= 6.0; interval slope {iv_fit.slope:.3f} < GP slope",
    )


def test_criterion_10_rank_partition():
    for vals in ([1, 2], [0, 1], [1, 2, 3], [-1, 0, 2]):
        X = make_ground_set(vals, QQ)
        for n in (2, 3):
            total = sum(count_rank(X, n, n, r) for r in range(n + 1))
            assert total == len(X) ** (n * n), (vals, n)
            singular = det_spectrum(X, n, "rowblock").entries.get(Fraction(0), 0)
            assert count_rank(X, n, n, n) == len(X) ** (n * n) - singular, (vals, n)
    assert report(10, True, "rank counts partition X^(mn); full rank complements D_n(X,0)")


def test_criterion_11_scan_determinism():
    spec = FamilySpec("random", 4, seed=11)

    def run(threads):
        rows = run_scan(spec, [4, 6], QQ, 3, "zero", "rowblock", threads=threads)
        return [(r.size, r.d, r.count, r.budget_hit) for r in rows]

    runs = [run(t) for t in (1, 1, 4, 4)]
    ok = all(r == runs[0] for r in runs)
    assert report(11, ok, f"repeated scans at threads 1 and 4 agree: {runs[0]}")
