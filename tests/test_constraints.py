from fractions import Fraction as F
from itertools import combinations

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
from hcmu.errors import BadAngleVector, BadGenus, EmptySpace


def test_angle_vector_convention_order():
    av = AngleVector([F(1, 2), 0, 3, F(5, 2), 2, 0])
    assert av.entries == (3, 2, F(1, 2), F(5, 2), 0, 0)
    assert av.k == 2 and av.q_zeros == 2


def test_angle_one_rejected():
    with pytest.raises(BadAngleVector):
        AngleVector([2, 1])


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


def test_type_partition_equivalence():
    av = AngleVector([4, F(1, 2), F(1, 2), F(1, 3), F(1, 3)])
    p1 = TypePartition.make(av, {1}, {2}, {3, 4, 5})
    p2 = TypePartition.make(av, {1}, {3}, {2, 4, 5})
    p3 = TypePartition.make(av, {1}, {4}, {2, 3, 5})
    assert p1.signature(av) == p2.signature(av)
    assert p1.signature(av) != p3.signature(av)


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
