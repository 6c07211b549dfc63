from fractions import Fraction as F

import pytest

from hcmu.builders import build_surface
from hcmu.dataset import DataSet, census, realized_angle_vector
from hcmu.deformations import (
    _kept,
    _rebuild,
    circles_at_level,
    split,
    twist,
    twist_is_trivial,
)
from hcmu.dimension import dimension_refined
from hcmu.errors import (
    AssertionFailure,
    BadCircleIndex,
    CriticalLevel,
    CuspVertex,
    CutOnBoundary,
    NotInteger,
)


# -- level circles ---------------------------------------------------------------


def test_calabi_circles_below(calabi):
    circles = circles_at_level(calabi, F(1, 4))
    assert len(circles) == 3
    assert all(c.circumference == 1 for c in circles)
    # one circle per black vertex
    tops = {calabi.angulation.arcs[c.members[0]][0] for c in circles}
    assert tops == {0, 1, 2}


def test_calabi_circles_above(calabi):
    circles = circles_at_level(calabi, F(3, 4))
    assert len(circles) == 2
    assert all(c.circumference == F(3, 2) for c in circles)


def test_circles_partition_arcs(calabi, two_level):
    for ds, c in [(calabi, F(1, 4)), (two_level, F(1, 2)), (two_level, F(1, 5))]:
        circles = circles_at_level(ds, c)
        members = [a for circle in circles for a in circle.members]
        assert sorted(members) == list(range(ds.angulation.num_arcs))


def test_critical_level_rejected(calabi):
    with pytest.raises(CriticalLevel):
        circles_at_level(calabi, F(1, 2))
    with pytest.raises(CriticalLevel):
        circles_at_level(calabi, F(0))


def test_two_level_middle_circle(two_level):
    circles = circles_at_level(two_level, F(1, 2))
    assert len(circles) == 1
    assert circles[0].circumference == F(5, 2)


# -- triviality -------------------------------------------------------------------


def test_calabi_every_circle_is_trivial(calabi):
    for c in (F(1, 4), F(3, 4)):
        for i in range(len(circles_at_level(calabi, c))):
            assert twist_is_trivial(calabi, c, i)


def test_two_level_middle_not_trivial(two_level):
    assert not twist_is_trivial(two_level, F(1, 2), 0)


def test_low_circle_always_trivial(two_level):
    # below the lowest saddle only maxima lie above
    for i in range(len(circles_at_level(two_level, F(1, 5)))):
        assert twist_is_trivial(two_level, F(1, 5), i)


def test_bad_circle_index(two_level):
    with pytest.raises(BadCircleIndex):
        twist_is_trivial(two_level, F(1, 2), 5)
    with pytest.raises(BadCircleIndex):
        twist(two_level, F(1, 2), 5, F(1, 7))


# -- twist -------------------------------------------------------------------------


def test_twist_by_zero_is_identity(two_level, calabi):
    for ds, c in [(two_level, F(1, 2)), (calabi, F(1, 4))]:
        out = twist(ds, c, 0, 0)
        assert out.is_generic
        assert out.dataset.is_isomorphic(ds)


def test_twist_by_full_circumference_is_identity(two_level):
    out = twist(two_level, F(1, 2), 0, F(5, 2))
    assert out.dataset.is_isomorphic(two_level)


def test_trivial_circle_twist_is_isometry(calabi):
    out = twist(calabi, F(1, 4), 1, F(1, 3))
    assert out.dataset.is_isomorphic(calabi)


def test_generic_twist_preserves_invariants(two_level):
    ds = two_level
    for psi in (F(1, 5), F(7, 10), F(9, 4), F(11, 8)):
        out = twist(ds, F(1, 2), 0, psi)
        assert out.is_generic, psi
        t = out.dataset
        assert t.angulation.genus == ds.angulation.genus
        assert t.k0 == ds.k0 and t.ratio == ds.ratio
        assert realized_angle_vector(t) == realized_angle_vector(ds)
        assert sorted(t.face_levels) == sorted(ds.face_levels)
        assert t.total_weight() == ds.total_weight()
        assert t.angulation.num_arcs == ds.angulation.num_arcs
        assert census(t).as_tuple() == census(ds).as_tuple()


def test_generic_twist_changes_the_surface(two_level):
    out = twist(two_level, F(1, 2), 0, F(1, 5))
    assert not out.dataset.is_isomorphic(two_level)


def test_twist_detects_saddle_saddle_meridian(two_level):
    out = twist(two_level, F(1, 2), 0, F(3, 2))
    assert not out.is_generic
    assert len(out.non_generic) == 1
    above, below = out.non_generic[0]
    ma = two_level.angulation
    keys = dict(zip(ma.face_keys, range(ma.num_faces)))
    assert two_level.face_levels[keys[above]] < F(1, 2)
    assert two_level.face_levels[keys[below]] > F(1, 2)


def test_twist_composition(two_level):
    c = F(1, 2)
    a = twist(two_level, c, 0, F(1, 5)).dataset
    b = twist(a, c, 0, F(7, 10)).dataset
    direct = twist(two_level, c, 0, F(1, 5) + F(7, 10)).dataset
    assert b.is_isomorphic(direct)


def test_twist_on_builder_output():
    ds = build_surface(0, [2, 3], {1}, level=F(2, 5))
    # pick a level away from 2/5
    out = twist(ds, F(7, 10), 0, F(1, 3))
    assert out.is_generic
    assert census(out.dataset).as_tuple() == census(ds).as_tuple()


# -- split -------------------------------------------------------------------------


def find_vertex(ds, color, angle):
    ma = ds.angulation
    return next(
        v
        for v in range(ma.num_vertices)
        if ma.colors[v] == color and ds.vertex_angle(v) == angle
    )


def test_split_black_vertex_counts():
    ds = build_surface(0, [2, 3], {1})
    v = find_vertex(ds, "black", 3)
    out = split(ds, v, F(1, 3), F(3, 4))
    ma, ma0 = out.angulation, ds.angulation
    assert ma.num_arcs == ma0.num_arcs + 3
    assert ma.num_vertices == ma0.num_vertices - 1 + 3
    assert ma.num_faces == ma0.num_faces + 1
    assert ma.genus == ma0.genus
    assert realized_angle_vector(out) == [("saddle", F(2)), ("saddle", F(3))]
    cs = census(out)
    assert (cs.m, cs.a, cs.b) == (5, 5, 5)


def test_split_adds_smooth_points_of_weight_one():
    ds = build_surface(0, [2, 3], {1})
    v = find_vertex(ds, "black", 3)
    out = split(ds, v, F(1, 7), F(1, 3))
    cs0, cs1 = census(ds), census(out)
    # the split cone was not smooth, so exactly alpha smooth maxima appear
    assert cs1.m_plus == cs0.m_plus + 3
    new_face_level = sorted(out.face_levels)
    assert F(1, 3) in new_face_level


def test_split_raises_dimension_by_two():
    ds = build_surface(0, [2, 3], {1})
    before = dimension_refined(0, [2, 3], {1})
    after = dimension_refined(0, [2, 3], {1, 2})
    assert after == before + 2
    v = find_vertex(ds, "black", 3)
    out = split(ds, v, F(1, 3), F(3, 4))
    from hcmu.dimension import dimension_crosscheck

    assert dimension_crosscheck(out) == after


def test_split_two_cuts_in_distinct_bigons(two_level):
    # the weight-3/2 maximum is not integral; craft a weight-2 vertex instead
    ds = build_surface(0, [2, 2], {1})
    v = find_vertex(ds, "black", 2)
    deg = ds.angulation.degree(v)
    out = split(ds, v, F(1, 2), F(1, 5))
    assert out.angulation.num_arcs == ds.angulation.num_arcs + 2
    # each new smooth vertex has total incident weight exactly 1
    ma = out.angulation
    for u in range(ma.num_vertices):
        if ma.colors[u] == "black" and u >= ds.angulation.num_vertices - 1:
            assert out.vertex_weight_sum(u) == 1


def test_split_white_vertex():
    ds = build_surface(1, [3, 2, 5], {1})
    v = find_vertex(ds, "white", 2)
    out = split(ds, v, F(1, 5), F(1, 7))
    assert realized_angle_vector(out) == [
        ("maximum", F(5)),
        ("saddle", F(2)),
        ("saddle", F(3)),
    ]
    # new smooth minima carry incident weight 1/R
    ma = out.angulation
    news = [
        u
        for u in range(ma.num_vertices)
        if ma.colors[u] == "white" and out.vertex_angle(u) == 1
    ]
    assert len(news) == 2
    for u in news:
        assert out.vertex_weight_sum(u) == 1 / ds.ratio


def test_split_preserves_other_cone_points(two_level):
    ds = build_surface(1, [3, 2, 5], {1})
    v = find_vertex(ds, "white", 2)
    before = [x for x in realized_angle_vector(ds) if x != ("minimum", F(2))]
    out = split(ds, v, F(1, 5), F(6, 7))
    after = realized_angle_vector(out)
    for item in before:
        assert item in after


def test_split_errors():
    ds = build_surface(0, [2, 3], {1})
    smooth = find_vertex(ds, "black", 1)
    with pytest.raises(NotInteger):
        split(ds, smooth, F(1, 3), F(1, 2))
    v = find_vertex(ds, "black", 3)
    with pytest.raises(CutOnBoundary):
        split(ds, v, F(0), F(1, 2))
    cusp_ds = build_surface(0, [3, 0], {1})
    w = find_vertex(cusp_ds, "white", 0)
    with pytest.raises(CuspVertex):
        split(cusp_ds, w, F(1, 3), F(1, 2))


def test_split_cut_on_sector_boundary(calabi):
    # doubling the Calabi weights gives whites of angle 2 with unit sectors;
    # the cut spacing 1/R = 3/2 hits a boundary exactly at offset 2/3
    ds = DataSet(
        calabi.angulation,
        calabi.k0,
        calabi.ratio,
        [2 * w for w in calabi.weights],
        list(calabi.face_levels),
    )
    v = find_vertex(ds, "white", 2)
    with pytest.raises(CutOnBoundary):
        split(ds, v, F(2, 3), F(1, 5))
    out = split(ds, v, F(1, 5), F(1, 5))
    assert census(out).b == ds.angulation.num_arcs + 2


# -- the shared rebuild ----------------------------------------------------------


def rebuild_unchanged(ds, claims=None):
    """``_rebuild`` of the identity surgery, with the kept arcs' claims
    (or the given ones)."""
    ma = ds.angulation
    _, arcs, weights, kept = _kept(ds, ())
    return _rebuild(ds, ma.colors, arcs, weights, ma.rotations, kept if claims is None else claims)


def test_rebuild_of_the_identity_surgery_is_the_surface(calabi, two_level):
    for ds in (calabi, two_level):
        out = rebuild_unchanged(ds)
        assert out == ds and out.face_levels == ds.face_levels


def test_rebuild_refuses_disagreeing_claims(two_level):
    _, _, _, claims = _kept(two_level, ())
    face = claims[(0, "b")]
    claims[(0, "b")] = 1 - face
    with pytest.raises(AssertionFailure, match="inconsistent"):
        rebuild_unchanged(two_level, claims)


def test_rebuild_refuses_a_missing_old_face(calabi):
    _, _, _, claims = _kept(calabi, ())
    # every new face agrees with itself, but old face 1 is claimed by no one
    claims = {d: (0 if f == 1 else f) for d, f in claims.items()}
    with pytest.raises(AssertionFailure, match="bijectively"):
        rebuild_unchanged(calabi, claims)
    # and a face that nobody claims
    _, _, _, claims = _kept(calabi, ())
    claims = {d: f for d, f in claims.items() if f != 2}
    with pytest.raises(AssertionFailure, match="bijectively"):
        rebuild_unchanged(calabi, claims)
