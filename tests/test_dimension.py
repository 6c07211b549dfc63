from fractions import Fraction as F

from hcmu.balance import balance_rank
from hcmu.builders import build_one_cone, build_surface
from hcmu.deformations import split, twist
from hcmu.dimension import dimension, dimension_crosscheck, dimension_refined
from test_balance import dense_rank


def test_dimension_formulas():
    assert dimension(0, [2, 2, 2]) == 6
    assert dimension(1, [4, 0]) == 4
    assert dimension(0, [F(1, 2)]) == 1  # football stratum
    assert dimension(0, [F(3, 2), F(3, 2)]) is None
    assert dimension(2, [7]) == 2 * 2 + 2


def test_dimension_refined_formulas():
    assert dimension_refined(0, [2, 3], {1}) == 2
    assert dimension_refined(0, [2, 3], {1, 2}) == 4
    assert dimension_refined(0, [3, 0], {1}) == 2
    assert dimension_refined(1, [2], {1}) is None


def assert_rank_matches_the_oracle(ds):
    assert balance_rank(ds.angulation, ds.ratio) == dense_rank(ds.angulation, ds.ratio)


def test_crosscheck_fixtures(calabi, two_level):
    assert dimension_crosscheck(calabi) == 6
    assert dimension_crosscheck(two_level) == 2 * 0 + 2 * 2
    assert_rank_matches_the_oracle(calabi)
    assert_rank_matches_the_oracle(two_level)


def test_crosscheck_builders():
    cases = [
        (0, [2, 2, 2], {1, 2, 3}),
        (0, [2, 3], {1}),
        (1, [4], {1}),
        (0, [3, 0], {1}),
        (1, [4, 0, 0], {1}),
        (2, [7], {1}),
    ]
    for g, alpha, Z in cases:
        ds = build_surface(g, alpha, Z)
        assert dimension_crosscheck(ds) == dimension_refined(g, alpha, Z)
        assert_rank_matches_the_oracle(ds)


def test_crosscheck_one_cone():
    for g, p, q in [(0, 7, 3), (0, 2, 1), (1, 2, 1), (1, 4, 3), (2, 6, 2), (0, 61, 17)]:
        ds = build_one_cone(g, p, q)
        alpha = p + q + 2 * g - 1
        assert dimension_crosscheck(ds) == dimension_refined(g, [alpha], {1})
        assert_rank_matches_the_oracle(ds)


def test_crosscheck_deformation_outputs(two_level):
    out = twist(two_level, F(1, 2), 0, F(1, 5)).dataset
    assert dimension_crosscheck(out) == dimension_crosscheck(two_level)
    assert_rank_matches_the_oracle(out)
    ds = build_surface(0, [2, 3], {1})
    v = next(
        v
        for v in range(ds.angulation.num_vertices)
        if ds.vertex_angle(v) == 3 and ds.angulation.colors[v] == "black"
    )
    before = dimension_crosscheck(ds)
    after_split = split(ds, v, F(1, 3), F(3, 4))
    after = dimension_crosscheck(after_split)
    assert after == before + 2
    assert_rank_matches_the_oracle(after_split)
