"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.
"""
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import FIXTURES, make_calabi, make_two_level, random_bicolored_angulation
from hcmu import serialization as ser
from hcmu.angulation import BLACK
from hcmu.balance import solve_balance, solve_tree, weight_space_dimension
from hcmu.builders import (
    build_one_cone,
    build_surface,
    build_tree,
)
from hcmu.constraints import AngleVector, check_existence, one_cone_admissible
from hcmu.dataset import census, realized_angle_vector, validate_dataset
from hcmu.deformations import circles_at_level, split, twist, twist_is_trivial
from hcmu.dimension import dimension, dimension_crosscheck, dimension_refined
from hcmu.errors import Inadmissible
from hcmu.geometry import (
    cusp_profile_closed_form,
    football_area,
    k1_from_ratio,
    solve_profile,
)
from test_balance import connection_matrix, matrix_rank
from test_builders import brute_force_trees
from test_geometry import fd_derivative, warped_integral

GRID_K0 = (0.5, 1.0, 2.0, 5.0)
GRID_R = (F(0), F(1, 4), F(1, 3), F(2, 3), F(9, 10))


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_calabi_golden_fixture():
    ds = ser.load(FIXTURES / "calabi.json")
    assert validate_dataset(ds) == []
    cs = census(ds)
    assert cs.as_tuple() == (3, 2, 3, 2, 5, 6)
    assert ds.ratio == F(2, 3)
    assert all(w == F(1, 2) for w in ds.weights)
    # balance residuals are exactly zero at every vertex
    ma = ds.angulation
    for v in range(ma.num_vertices):
        total = sum(ds.weights[a] for a in ma.arcs_at(v))
        if ma.colors[v] == BLACK:
            assert total - 1 == 0
        else:
            assert ds.ratio * total - 1 == 0
    saddles = [c for c in realized_angle_vector(ds) if c[0] == "saddle"]
    assert saddles == [("saddle", F(2))] * 3
    report(1, "Calabi fixture: census (3,2,3,2,5,6), R=2/3, exact balance")


def _integer_vectors(max_sum=12, max_zeros=3):
    """All multisets over {0} u {2,3,...} with positive part summing <= max_sum."""
    partitions = [[]]

    def extend(prefix, smallest, remaining):
        partitions.append(list(prefix))
        for part in range(smallest, remaining + 1):
            extend(prefix + [part], part, remaining - part)

    for part in range(2, max_sum + 1):
        extend([part], part, max_sum - part)
    out = []
    for base in partitions:
        for q in range(0, max_zeros + 1):
            vec = sorted(base, reverse=True) + [0] * q
            if vec:
                out.append(vec)
    return out


def _constraint_truth(g, entries):
    """Hand transcription of the angle-constraint conditions, kept
    independent of the library implementation."""
    positives = [x for x in entries if x != 0 and x != 1]
    ints = [x for x in positives if float(x).is_integer() and x > 1]
    q = sum(1 for x in entries if x == 0)
    n = len(entries)
    m0 = sum(ints) - (2 * g - 2 + n)
    a0 = sum(x - 1 for x in ints) - (2 * g - 2)
    if q > 0:
        return a0 >= q + 1 and m0 >= 0
    if a0 >= 3 and m0 >= 0:
        return True
    if a0 == 2 and m0 == 1:
        return True
    if a0 == 2 and m0 == 0:
        non_int = [x for x in entries if x != 0 and not float(x).is_integer()]
        return len(non_int) == 2 and non_int[0] != non_int[1]
    return False


def test_criterion_2_angle_constraint_truth_table():
    checked = built = 0
    for g in range(4):
        for vec in _integer_vectors():
            truth = _constraint_truth(g, vec)
            got = bool(check_existence(g, vec))
            assert got == truth, (g, vec)
            checked += 1
            av = AngleVector(vec)
            if truth and av.k > 0:
                Z = frozenset(range(1, av.k + 1))
                ds = build_surface(g, av, Z)
                assert validate_dataset(ds) == []
                realized = sorted(ang for _, ang in realized_angle_vector(ds))
                assert realized == sorted(av.entries)
                assert ds.angulation.genus == g
                built += 1
    # named special cases
    named = [
        (0, [F(1, 2)], True),          # football, one cone
        (0, [0], True),                # football, one cusp
        (0, [F(3, 2), F(3, 2)], False),  # equal-angle A.3 failure
        (0, [F(3, 2), F(5, 2)], True),
        (3, [3, 3], False),            # m0 = 0 but a0 = 0
        (3, [4, 5] + [F(1, 2)] * 6, False),  # a0 = 3 but m0 < 0
        (0, [F(1, 2), 0], True),
        (0, [0, 0], False),
    ]
    for g, vec, truth in named:
        assert bool(check_existence(g, vec)) == truth, (g, vec)
    report(2, f"{checked} truth-table entries, {built} witnesses built and validated")


def test_criterion_3_one_cone_classification():
    # genus zero: builder and brute-force tree enumeration agree
    for total in range(3, 12):
        for q in range(1, total // 2 + (total % 2)):
            p = total - q
            if p <= q:
                continue
            admissible = q == 1 or p % q != 0
            trees = brute_force_trees(p, q)
            assert bool(trees) == admissible, (p, q)
            assert one_cone_admissible(0, p + q - 1, p, q) == admissible
            if admissible:
                ds = build_one_cone(0, p, q)
                cs = census(ds)
                assert (cs.p, cs.q) == (p, q)
                assert realized_angle_vector(ds) == [("saddle", F(p + q - 1))]
            else:
                with pytest.raises(Inadmissible):
                    build_one_cone(0, p, q)
    # positive genus: always constructible
    count = 0
    for g in (1, 2):
        for total in range(3, 9):
            for q in range(1, total):
                p = total - q
                if p <= q:
                    continue
                ds = build_one_cone(g, p, q)
                cs = census(ds)
                assert (cs.p, cs.q) == (p, q)
                assert ds.angulation.genus == g
                assert ds.angulation.num_faces == 1
                count += 1
    report(3, f"one-cone census complete through p+q<=11 (g=0), {count} positive-genus builds")


def test_criterion_4_linear_algebra():
    rng = random.Random(20240)
    for _ in range(200):
        ma = random_bicolored_angulation(rng)
        conn = connection_matrix(ma)
        assert matrix_rank(conn.rows) == ma.num_vertices - 1
    outputs = [
        make_calabi(),
        build_surface(0, [2, 3], {1}),
        build_surface(1, [4], {1}),
        build_surface(2, [7], {1}),
        build_one_cone(1, 4, 3),
        build_one_cone(2, 6, 2),
        build_one_cone(0, 7, 3),
    ]
    for ds in outputs:
        ma = ds.angulation
        expected = 2 * ma.genus + ma.num_faces - 1
        assert weight_space_dimension(ds) == expected
    for p, q in [(7, 3), (9, 4), (5, 1), (14, 6)]:
        tree = build_tree(p, q)
        ma = tree.as_angulation()
        weights = solve_tree(ma, p, q)
        assert all(1 <= w <= q for w in weights)
        targets = {
            v: (F(q) if ma.colors[v] == BLACK else F(q, p) * p)
            for v in range(ma.num_vertices)
        }
        space = solve_balance(ma, F(q, p), targets)
        assert space.kernel_dimension == 0  # the peeled solution is unique
        assert tuple(space.particular) == tuple(weights)
    report(4, "rank = a-1 on 200 random angulations; kernel dims and tree peeling exact")


def test_criterion_5_dimension_crosscheck():
    ds_calabi = ser.load(FIXTURES / "calabi.json")
    assert dimension_crosscheck(ds_calabi) == 6
    assert dimension(0, [F(1, 2)]) == 1
    assert dimension(0, [0]) == 1
    assert dimension(1, [4, 0]) == 4
    fixtures = [ds_calabi, make_two_level()]
    builders = [
        build_surface(0, [2, 2, 2], {1, 2, 3}),
        build_surface(0, [2, 3], {1}),
        build_surface(0, [3, 0], {1}),
        build_surface(1, [4, 0, 0], {1}),
        build_one_cone(1, 2, 1),
        build_one_cone(2, 6, 2),
    ]
    checked = 0
    for ds in fixtures + builders:
        g, alpha, Z = __import__("hcmu.dataset", fromlist=["x"]).realized_prescription(ds)
        assert dimension_crosscheck(ds) == dimension_refined(g, alpha, Z)
        checked += 1
    # split output
    base = build_surface(0, [2, 3], {1})
    v = next(
        u for u in range(base.angulation.num_vertices)
        if base.angulation.colors[u] == BLACK and base.vertex_angle(u) == 3
    )
    after = split(base, v, F(1, 3), F(3, 4))
    assert dimension_crosscheck(after) == dimension_crosscheck(base) + 2
    # twist output
    tl = make_two_level()
    tw = twist(tl, F(1, 2), 0, F(1, 5)).dataset
    assert dimension_crosscheck(tw) == dimension_crosscheck(tl)
    report(5, f"crosscheck = refined formula on {checked + 2} surfaces; Calabi = 6")


def test_criterion_6_numerics():
    worst_top = worst_bot = worst_res = 0.0
    for k0 in GRID_K0:
        for r in GRID_R:
            p = solve_profile(k0, r, 10001)
            worst_top = max(worst_top, abs(p.estimated_top_slope() - 1))
            if r != 0:
                worst_bot = max(
                    worst_bot, abs(p.estimated_bottom_slope() + float(r))
                )
            kp = fd_derivative(p.v, p.K)
            res = 3 * kp**2 + (p.K - p.k0) * (p.K - p.k1) * (p.K + p.k0 + p.k1)
            worst_res = max(worst_res, np.nanmax(np.abs(res)) / k0**3)
    assert worst_top < 1e-8
    assert worst_bot < 1e-6
    assert worst_res < 1e-8
    # cusp closed form against the sampled profile
    prof = solve_profile(2.0, F(0), 3001)
    dev = np.abs(prof.K - cusp_profile_closed_form(2.0, prof.v)).max()
    assert dev < 1e-7
    # areas
    rng = random.Random(99)
    worst_area = 0.0
    for _ in range(20):
        k0 = rng.uniform(0.4, 6.0)
        r = F(rng.randint(0, 9), 10)
        alpha = rng.uniform(0.3, 4.0)
        closed = football_area(k0, r, alpha)
        numeric = 2 * math.pi * alpha * warped_integral(k0, k1_from_ratio(k0, r))
        worst_area = max(worst_area, abs(numeric - closed) / closed)
    assert worst_area < 1e-6
    report(
        6,
        f"slopes {worst_top:.1e}/{worst_bot:.1e}, residual {worst_res:.1e}*K0^3, "
        f"cusp {dev:.1e}, area {worst_area:.1e}",
    )


def test_criterion_7_deformation_invariance():
    ds = make_two_level()
    for psi in (F(0), F(5, 2)):
        out = twist(ds, F(1, 2), 0, psi)
        assert out.dataset.is_isomorphic(ds)
    for psi in (F(1, 5), F(7, 10), F(9, 8)):
        t = twist(ds, F(1, 2), 0, psi).dataset
        assert t.angulation.genus == ds.angulation.genus
        assert (t.k0, t.ratio) == (ds.k0, ds.ratio)
        assert realized_angle_vector(t) == realized_angle_vector(ds)
        assert t.total_weight() == ds.total_weight()
        assert validate_dataset(t) == []
    calabi = make_calabi()
    for level in (F(1, 4), F(3, 4)):
        for i in range(len(circles_at_level(calabi, level))):
            assert twist_is_trivial(calabi, level, i)
    base = build_surface(0, [2, 3], {1})
    v = next(
        u for u in range(base.angulation.num_vertices)
        if base.angulation.colors[u] == BLACK and base.vertex_angle(u) == 3
    )
    after = split(base, v, F(1, 3), F(3, 4))
    assert after.angulation.genus == base.angulation.genus
    before_points = [x for x in realized_angle_vector(base) if x != ("maximum", F(3))]
    after_points = realized_angle_vector(after)
    for item in before_points:
        assert item in after_points
    assert census(after).m == census(base).m + 3  # alpha new smooth points
    assert dimension_crosscheck(after) == dimension_crosscheck(base) + 2
    report(7, "twist identities, invariance, Calabi triviality, split bookkeeping")


def test_criterion_8_serialization():
    for name in ("calabi", "two_level"):
        path = FIXTURES / f"{name}.json"
        text = path.read_text()
        assert ser.dumps(ser.save(ser.load(path))) == text
    golden = FIXTURES.parent / "tests" / "golden"
    assert ser.export_dot(make_calabi()) == (golden / "calabi.dot").read_text()
    got = ser.export_profile_csv(solve_profile(2.0, F(2, 3), 16))
    assert got == (golden / "profile_k2_r23_n16.csv").read_text()
    report(8, "save/load byte-identity on fixtures; DOT and CSV golden files stable")
