import random
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from hcmu.constraints import (
    AngleVector,
    TypePartition,
    check_existence,
    check_refined,
    enumerate_ratios,
    invariants_m_a,
    one_cone_admissible,
)
from hcmu.errors import MAX_ARCS, BadAngleVector, BadGenus, BadTypePartition, EmptySpace, TooLarge


def test_angle_vector_convention_order():
    av = AngleVector([F(1, 2), 0, 3, F(5, 2), 2, 0])
    assert av.entries == (3, 2, F(1, 2), F(5, 2), 0, 0)
    assert av.k == 2 and av.q_zeros == 2


def test_angle_one_rejected():
    with pytest.raises(BadAngleVector):
        AngleVector([2, 1])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: AngleVector([3, F(-1, 2)]), BadAngleVector, "negative angle -1/2"),
        (lambda: AngleVector([]), BadAngleVector, "empty angle vector"),
        # [3, 2, 0] in convention order: index 3 is the cusp
        (
            lambda: TypePartition.make(AngleVector([3, 2, 0]), {1}, {1, 2}, {3}),
            BadTypePartition, "roles must partition the index set",
        ),
        (
            lambda: TypePartition.make(AngleVector([3, 2, 0]), {1}, {2}, set()),
            BadTypePartition, "roles must partition the index set",
        ),
        (lambda: TypePartition.make(AngleVector([3, F(1, 2)]), {2}), BadTypePartition, "index 2 cannot be a saddle"),
        (
            lambda: TypePartition.make(AngleVector([3, 2, 0]), {1}, {3}, {2}),
            BadTypePartition, "with cusps, P- must be exactly the zeros",
        ),
        # a cusp as a maximum leaves P- without it
        (
            lambda: TypePartition.make(AngleVector([3, 2, 0]), {1}, {2, 3}, set()),
            BadTypePartition, "with cusps, P- must be exactly the zeros",
        ),
        (lambda: invariants_m_a(0, [3, 2, F(1, 2)], {3}), BadTypePartition, "saddle index 3 outside 1..k"),
        (lambda: invariants_m_a(0, [3, 2], {0}), BadTypePartition, "saddle index 0 outside 1..k"),
        (lambda: check_refined(0, [3, 2], set()), BadTypePartition, "Z must be nonempty; footballs have no saddle"),
    ],
)
def test_prescription_refusals(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message


def test_invariants_examples():
    assert invariants_m_a(0, [2, 2, 2], {1, 2, 3}) == (5, 5, 6)
    assert invariants_m_a(3, [3, 3], {1, 2}) == (0, 0, 6)
    # empty Z baseline
    m, a, b = invariants_m_a(2, [2, 5], frozenset())
    assert (m, a, b) == (-(2 * 2 - 2 + 2), 2 - 2 * 2, 0)


def test_check_existence_named_cases():
    assert check_existence(0, [2, 2, 2]).case == "A.1"
    # equal non-integer pair: the A.3 test fails
    assert not check_existence(0, [F(3, 2), F(3, 2)])
    assert check_existence(0, [F(3, 2), F(5, 2)]).case == "football"
    # one-cusp football
    assert check_existence(0, [0]).case == "football"
    assert check_existence(0, [F(1, 2)]).case == "football"
    # genus kills the football cases
    assert not check_existence(1, [F(3, 2), F(5, 2)])
    # (g >= 3, (g, g)) has m0 = 0 but a0 = 0
    for g in (3, 4):
        assert not check_existence(g, [g, g])
    assert not check_existence(0, [0, 0])
    # cone-plus-cusp football, still a k = 0 stratum
    assert check_existence(0, [F(1, 2), 0]).case == "football"
    assert check_existence(0, [2, 2, 0]).case == "B"


def test_check_refined_examples():
    assert check_refined(0, [2, 3], {1}).case == "A.1"
    assert invariants_m_a(0, [2, 3], {1})[:2] == (2, 3)
    assert check_refined(0, [3, 0], {1}).case == "B"
    assert not check_refined(1, [2], {1})  # a = 1 < 2
    assert check_refined(1, [3, 2, 5], {1}).case == "A.3"
    assert check_refined(1, [4], {1}).case == "A.1"


def test_existence_equals_exhaustion_over_saddle_sets():
    entries = [
        [2], [3], [2, 2], [2, 3], [2, 2, 2], [4, 2], [2, F(1, 2)],
        [3, F(3, 2), F(3, 2)], [2, 2, 0], [3, 0, 0], [5], [2, 2, 2, 2],
    ]
    for g in range(3):
        for alpha in entries:
            av = AngleVector(alpha)
            if av.k == 0:
                continue
            full = bool(check_existence(g, av))
            any_z = any(
                bool(check_refined(g, av, set(z)))
                for r in range(1, av.k + 1)
                for z in combinations(range(1, av.k + 1), r)
            )
            assert full == any_z, (g, alpha)


@given(
    st.integers(min_value=0, max_value=3),
    st.lists(st.integers(min_value=2, max_value=6), min_size=2, max_size=5),
)
def test_m_a_monotone_in_saddle_set(g, ints):
    av = AngleVector(ints)
    k = av.k
    full = frozenset(range(1, k + 1))
    m_full, a_full, _ = invariants_m_a(g, av, full)
    for r in range(1, k):
        for z in combinations(range(1, k + 1), r):
            m, a, _ = invariants_m_a(g, av, frozenset(z))
            assert m < m_full and a < a_full


def test_enumerate_ratios_calabi():
    av = AngleVector([2, 2, 2])
    part = TypePartition.make(av, {1, 2, 3})
    assert enumerate_ratios(0, av, part) == [
        (F(2, 3), 3, 2),
        (F(1, 4), 4, 1),
    ]


def test_enumerate_ratios_one_cone_nine():
    av = AngleVector([9])
    part = TypePartition.make(av, {1})
    got = enumerate_ratios(0, av, part)
    assert [r for r, _, _ in got] == [F(2, 3), F(3, 7), F(1, 4), F(1, 9)]
    assert [(mp, mm) for _, mp, mm in got] == [(6, 4), (7, 3), (8, 2), (9, 1)]


def test_enumerate_ratios_cusp():
    av = AngleVector([3, 0])
    part = TypePartition.make(av, {1})
    assert enumerate_ratios(0, av, part) == [(F(0), 3, 0)]


def test_enumerate_ratios_rejects_empty_space():
    av = AngleVector([2])
    part = TypePartition.make(av, {1})
    with pytest.raises(EmptySpace):
        enumerate_ratios(1, av, part)


def test_ratio_values_all_in_range():
    av = AngleVector([4, 3, F(1, 2)])
    part = TypePartition.make(av, {1, 2})
    # default partition sends the non-saddle angle 1/2 to a maximum
    a_plus, a_minus = F(1, 2), F(0)
    m, _, _ = invariants_m_a(0, av, part.Z)
    for r, mp, mm in enumerate_ratios(0, av, part):
        assert 0 <= r < 1
        assert mp >= 0 and mm >= 0
        assert mp + mm == m
        assert r * (a_plus + mp) == a_minus + mm  # summed balance equations


def ratios_oracle(g, alpha, partition):
    """The candidate ratios by a loop over every m+ from 0 to m, each tested
    against both strict inequalities."""
    if not check_refined(g, alpha, partition.Z):
        raise EmptySpace("refined space is empty")
    m, _, _ = invariants_m_a(g, alpha, partition.Z)
    if alpha.q_zeros > 0:
        return [(F(0), m, 0)]
    a_plus = sum(alpha[i - 1] for i in partition.Pplus)
    a_minus = sum(alpha[i - 1] for i in partition.Pminus)
    upper = a_minus + m
    lower = F(a_minus + m - a_plus, 2)
    return [
        (F(a_minus + m - mp, 1) / (a_plus + mp), mp, m - mp)
        for mp in range(m + 1)
        if lower < mp < upper
    ]


def test_enumerate_ratios_matches_the_loop_on_a_seeded_sweep():
    rng = random.Random(16)
    pool = [F(1, 2), F(1, 3), F(2, 3), F(3, 2), F(5, 2), F(7, 3), F(9, 4), 0]
    compared = 0
    for _ in range(3000):
        entries = [rng.randint(2, 40) for _ in range(rng.randint(1, 4))]
        entries += rng.sample(pool, rng.randint(0, 3))
        av = AngleVector(entries)
        Z = {i for i in range(1, av.k + 1) if rng.random() < 0.6} or {1}
        rest = [i for i in range(1, av.n + 1) if i not in Z and av[i - 1] != 0]
        # with cusps, P- is exactly the zeros
        plus = {i for i in rest if av.q_zeros or rng.random() < 0.5}
        minus = set(rest) - plus | {i for i in range(1, av.n + 1) if av[i - 1] == 0}
        part = TypePartition.make(av, Z, plus, minus)
        g = rng.randint(0, 3)
        try:
            want = ratios_oracle(g, av, part)
        except EmptySpace:
            with pytest.raises(EmptySpace):
                enumerate_ratios(g, av, part)
            continue
        assert enumerate_ratios(g, av, part) == want
        compared += bool(want)
    assert compared > 1000


@pytest.mark.parametrize("n, count", [(16382, 8192), (16384, 8193), (20002, 10002), (2000000002, 1000000002)])
def test_enumerate_ratios_refuses_more_than_max_arcs_candidates(n, count):
    # angles (n, 2, 2) with saddle 1 give m+ in ((n - 5)/2, n - 1): one
    # candidate per integer there, MAX_ARCS of them at n = 16382
    av = AngleVector([n, 2, 2])
    part = TypePartition.make(av, {1})
    if count <= MAX_ARCS:
        got = enumerate_ratios(0, av, part)
        assert len(got) == count and got == ratios_oracle(0, av, part)
    else:
        with pytest.raises(TooLarge, match=f"^{count} ratio candidates; at most {MAX_ARCS} are listed$"):
            enumerate_ratios(0, av, part)


def test_enumerated_ratios_are_realized():
    # both candidate ratios of the (2,2,2) prescription occur on actual
    # surfaces: the symmetric fixture realizes 2/3, the witness builder 1/4
    from conftest import make_calabi
    from hcmu.builders import build_surface

    av = AngleVector([2, 2, 2])
    part = TypePartition.make(av, {1, 2, 3})
    values = {r for r, _, _ in enumerate_ratios(0, av, part)}
    assert make_calabi().ratio in values
    assert build_surface(0, av, {1, 2, 3}).ratio in values


def test_one_cone_admissible_table():
    assert one_cone_admissible(0, 9, 7, 3)
    assert not one_cone_admissible(0, 9, 8, 2)
    assert one_cone_admissible(2, 11, 6, 2)
    assert not one_cone_admissible(0, 9, 3, 7)  # needs p > q
    assert not one_cone_admissible(1, 3, 2, 1)  # alpha < 2g + 2
    assert one_cone_admissible(0, 2, 2, 1)


def signature(part, alpha):
    """The sorted angles of each role: type partitions that differ by a
    relabeling of equal angles share it."""
    ang = lambda ids: tuple(sorted(alpha[i - 1] for i in ids))
    return (ang(part.Z), ang(part.Pplus), ang(part.Pminus))


def test_type_partition_equivalence():
    av = AngleVector([4, F(1, 2), F(1, 2), F(1, 3), F(1, 3)])
    p1 = TypePartition.make(av, {1}, {2}, {3, 4, 5})
    p2 = TypePartition.make(av, {1}, {3}, {2, 4, 5})
    p3 = TypePartition.make(av, {1}, {4}, {2, 3, 5})
    assert signature(p1, av) == signature(p2, av)
    assert signature(p1, av) != signature(p3, av)


def test_negative_genus_is_refused_by_every_prescription():
    from hcmu.builders import build_one_cone, build_surface
    from hcmu.dimension import dimension, dimension_refined

    av = AngleVector([3, F(1, 2), F(1, 3)])
    calls = [
        lambda: check_existence(-1, [2, 2]),
        lambda: check_existence(-1, [0]),  # the football branch
        lambda: check_refined(-1, av, {1}),
        lambda: invariants_m_a(-1, av, {1}),
        lambda: enumerate_ratios(-1, av, TypePartition.make(av, {1})),
        lambda: one_cone_admissible(-1, 3, 3, 1),
        lambda: dimension(-2, [3, 3]),
        lambda: dimension(-1, [0]),
        lambda: dimension_refined(-1, av, {1}),
        lambda: build_surface(-1, [3], {1}),
        lambda: build_one_cone(-1, 3, 1),
    ]
    for call in calls:
        with pytest.raises(BadGenus, match="is negative"):
            call()


def football_oracle(g, alpha):
    """The football decision written out: no saddle, so m0 = -(2g - 2 + n)
    and a0 = 2 - 2g, then case B with cusps and A.2 / A.3 without."""
    alpha = AngleVector(alpha)
    m0 = -(2 * g - 2 + alpha.n)
    a0 = 2 - 2 * g
    q = alpha.q_zeros
    if q > 0:
        return a0 >= q + 1 and m0 >= 0
    return (a0 == 2 and m0 == 1) or (a0 == 2 and m0 == 0 and alpha[-2] != alpha[-1])


def test_football_existence_matches_the_written_out_decision():
    values = [0, F(1, 3), F(1, 2), F(3, 2), F(5, 2), F(7, 3)]
    seen = set()
    for n in (1, 2, 3):
        for alpha in combinations_with_replacement(values, n):
            for g in (0, 1, 2):
                want = football_oracle(g, alpha)
                res = check_existence(g, alpha)
                assert res.nonempty == want
                assert res.case == ("football" if want else None)
                seen.add((want, 0 in alpha))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_invariants_match_the_fraction_sums():
    # the invariants as two Fraction sums over Z, as they were first written
    for alpha in ([2, 3, F(1, 2), 0], [5, 2, 2, F(7, 3)], [4, 4, 0, 0], [3]):
        av = AngleVector(alpha)
        for j in range(1, av.k + 1):
            for Z in combinations(range(1, av.k + 1), j):
                for g in (0, 1, 3):
                    s = sum((av[i - 1] for i in Z), F(0))
                    m = s - (2 * g - 2 + av.n)
                    a = sum((av[i - 1] - 1 for i in Z), F(0)) - (2 * g - 2)
                    assert invariants_m_a(g, av, Z) == (m, a, s)
