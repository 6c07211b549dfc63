import math
import random
from bisect import bisect_right
from fractions import Fraction as F

import pytest

from conftest import make_calabi
from hcmu.angulation import BLACK
from hcmu.builders import build_one_cone, build_surface
from hcmu.dataset import DataSet, census, realized_angle_vector
from hcmu.deformations import (
    NEW_FACE,
    LevelCircle,
    TwistOutcome,
    _circle,
    _cut_data,
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
    BadRatio,
    CriticalLevel,
    CuspVertex,
    CutOnBoundary,
    NotInteger,
    ParseError,
)
from hcmu.serialization import dumps, save
from test_deformation_stress import deformed_walk


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


def test_each_level_is_compared_once_per_data_set(monkeypatch, two_level):
    # the data set keeps each face's side of the last level walked, so the
    # surgeries there compare no level; a critical level is never kept
    import hcmu.deformations as deformations

    calls = []
    sides = deformations._sides
    monkeypatch.setattr(deformations, "_sides", lambda ds, c: calls.append(c) or sides(ds, c))
    ds = two_level
    circles_at_level(ds, F(1, 2))
    twist_is_trivial(ds, F(1, 2), 0)
    twist(ds, F(1, 2), 0, F(1, 5))
    assert calls == [F(1, 2)]
    twist(ds, F(1, 5), 0, F(1, 7))
    twist_is_trivial(ds, F(1, 5), 0)
    assert calls == [F(1, 2), F(1, 5)]
    for call in (
        lambda: circles_at_level(ds, F(1, 3)),
        lambda: twist_is_trivial(ds, F(1, 3), 0),
        lambda: twist(ds, F(1, 3), 0, F(1, 5)),
        lambda: circles_at_level(ds, F(1, 3)),
    ):
        with pytest.raises(CriticalLevel):
            call()
    assert calls == [F(1, 2), F(1, 5)] + [F(1, 3)] * 4


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


@pytest.mark.parametrize("index", [0.0, False, True, F(0), "0"])
def test_twist_refuses_a_circle_index_that_is_not_an_int(calabi, index):
    # False and True would select circles 0 and 1, and 0.0 fail in list indexing
    for call in (lambda: twist(calabi, F(1, 4), index, F(1, 7)), lambda: twist_is_trivial(calabi, F(1, 4), index)):
        with pytest.raises(BadCircleIndex) as caught:
            call()
        assert str(caught.value) == f"index {index} of 3 circles"


def test_one_circle_walk_per_data_set_and_level(two_level, monkeypatch):
    import hcmu.deformations as deformations

    walked = []

    def counting(*fields):
        walked.append(fields)
        return LevelCircle(*fields)

    monkeypatch.setattr(deformations, "LevelCircle", counting)
    ds = two_level
    circles = circles_at_level(ds, F(1, 2))
    assert len(walked) == len(circles) == 1
    assert not twist_is_trivial(ds, F(1, 2), 0)
    assert twist(ds, F(1, 2), 0, F(1, 5)).is_generic
    assert len(walked) == 1
    # another level walks again, and so does the first level after it
    low = circles_at_level(ds, F(1, 5))
    assert len(walked) == 1 + len(low)
    assert twist(ds, F(1, 2), 0, F(1, 5)).is_generic
    assert len(walked) == 2 + len(low)
    # each call returns a fresh list, and the level is checked every time
    again = circles_at_level(ds, F(1, 2))
    assert again == circles and again is not circles
    again.clear()
    assert circles_at_level(ds, F(1, 2)) == circles
    with pytest.raises(CriticalLevel):
        circles_at_level(ds, F(1, 3))
    assert len(walked) == 2 + len(low)


# -- twist -------------------------------------------------------------------------


def test_twist_by_zero_is_identity(two_level, calabi):
    for ds, c in [(two_level, F(1, 2)), (calabi, F(1, 4))]:
        out = twist(ds, c, 0, 0)
        assert out.is_generic
        assert out.dataset == ds


def test_twist_by_full_circumference_is_identity(two_level):
    out = twist(two_level, F(1, 2), 0, F(5, 2))
    assert out.dataset == two_level


def test_trivial_circle_twist_is_isometry(calabi):
    out = twist(calabi, F(1, 4), 1, F(1, 3))
    assert out.dataset == calabi


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
    assert out.dataset != two_level


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
    assert b == direct


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
            assert sum(out.weights[d >> 1] for d in ma.darts[u]) == 1


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
        assert sum(out.weights[d >> 1] for d in ma.darts[u]) == 1 / ds.ratio


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


@pytest.mark.parametrize(
    "vertex, offset, level, error, message",
    [
        (-1, F(1, 3), F(1, 2), BadCircleIndex, "no vertex -1"),
        (7, F(1, 3), F(1, 2), BadCircleIndex, "no vertex 7"),
        (None, F(1, 3), F(0), BadRatio, "level 0 outside (0, 1)"),
        (None, F(1, 3), F(1), BadRatio, "level 1 outside (0, 1)"),
        (None, F(-1, 3), F(1, 2), CutOnBoundary, "offset -1/3 outside [0, 1)"),
        (None, F(1), F(1, 2), CutOnBoundary, "offset 1 outside [0, 1)"),
        # the first cut sits on the first sector boundary
        (None, F(0), F(1, 2), CutOnBoundary, "a cut position hits a sector boundary"),
        # False and True would select vertices 0 and 1, and 0.0 fail in list indexing
        (0.0, F(1, 3), F(1, 2), BadCircleIndex, "no vertex 0.0"),
        (False, F(1, 3), F(1, 2), BadCircleIndex, "no vertex False"),
        (True, F(1, 3), F(1, 2), BadCircleIndex, "no vertex True"),
    ],
)
def test_split_refusals(vertex, offset, level, error, message):
    ds = build_surface(0, [2, 3], {1})  # 7 vertices
    if vertex is None:
        vertex = find_vertex(ds, "black", 3)
    with pytest.raises(error) as caught:
        split(ds, vertex, offset, level)
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize(
    "operation, argument, value",
    [
        ("twist", "psi", "x"),
        ("twist", "psi", None),
        ("twist", "psi", float("nan")),
        ("twist", "psi", float("inf")),
        ("twist", "c", "1/0"),
        ("circles_at_level", "c", float("inf")),
        ("split", "offset", "x"),
        ("split", "new_level", float("nan")),
    ],
)
def test_a_malformed_number_is_a_parse_error_at_its_argument(two_level, operation, argument, value):
    black = build_surface(0, [2, 3], {1})
    vertex = find_vertex(black, "black", 3)
    numbers = {"c": F(1, 2), "psi": F(1, 5), "offset": F(1, 3), "new_level": F(1, 2), argument: value}
    calls = {
        "twist": lambda: twist(two_level, numbers["c"], 0, numbers["psi"]),
        "circles_at_level": lambda: circles_at_level(two_level, numbers["c"]),
        "split": lambda: split(black, vertex, numbers["offset"], numbers["new_level"]),
    }
    with pytest.raises(ParseError) as caught:
        calls[operation]()
    assert caught.value.pointer == argument
    assert str(caught.value) == f"{argument}: not a rational number: {value!r}"


def test_a_number_that_fraction_reads_is_still_accepted(two_level):
    # a str such as "1/2" is read as Fraction("1/2") reads it
    twisted = twist(two_level, "1/2", 0, "1/5")
    assert dumps(save(twisted.dataset)) == dumps(save(twist(two_level, F(1, 2), 0, F(1, 5)).dataset))
    black = build_surface(0, [2, 3], {1})
    vertex = find_vertex(black, "black", 3)
    assert dumps(save(split(black, vertex, "1/3", "1/2"))) == dumps(save(split(black, vertex, F(1, 3), F(1, 2))))


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
    face = claims[0]
    claims[0] = 1 - face
    with pytest.raises(AssertionFailure, match="inconsistent"):
        rebuild_unchanged(two_level, claims)


def test_rebuild_refuses_a_missing_old_face(calabi):
    _, _, _, claims = _kept(calabi, ())
    # every new face agrees with itself, but old face 1 is claimed by no one
    claims = [0 if f == 1 else f for f in claims]
    with pytest.raises(AssertionFailure, match="bijectively"):
        rebuild_unchanged(calabi, claims)
    # and a face that nobody claims: its darts claim no old face
    _, _, _, claims = _kept(calabi, ())
    claims = [None if f == 2 else f for f in claims]
    with pytest.raises(AssertionFailure, match="bijectively"):
        rebuild_unchanged(calabi, claims)


# -- a Fraction oracle -------------------------------------------------------------
#
# Level circles by the per-arc successor walk, and twist and split with every
# position, circumference, shift and width a Fraction; the package computes
# the same on integer grids.  The oracle surgeries share only the rebuild.
# A second twist oracle splices whole runs of circle members out of rolled
# rotations instead of replacing each member's dart in place; it builds the
# same map, with rows that may start elsewhere.


def oracle_successor(ds, c, arc, rotations):
    ma = ds.angulation
    if c < ds.face_levels[ma.face_left(arc)]:
        rot = rotations[ma.arcs[arc][0]]
        return rot[(rot.index((arc, "b")) + 1) % len(rot)][0]
    rot = rotations[ma.arcs[arc][1]]
    return rot[rot.index((arc, "w")) - 1][0]


def oracle_circles(ds, c):
    """(members, circumference) of each circle at the non-critical level c."""
    seen = set()
    out = []
    rotations = ds.angulation.rotations  # written from the int darts on every read
    for a0 in range(ds.angulation.num_arcs):
        if a0 in seen:
            continue
        orbit = [a0]
        while (a := oracle_successor(ds, c, orbit[-1], rotations)) != a0:
            orbit.append(a)
        seen.update(orbit)
        out.append((tuple(orbit), sum((ds.weights[a] for a in orbit), F(0))))
    return out


def oracle_twist(ds, c, index, psi):
    """twist's outcome, as (non-generic pairs, None) or ((), data set)."""
    ma = ds.angulation
    members, phi = oracle_circles(ds, c)[index]
    k = len(members)
    psi = F(psi) % phi
    cuts = []  # (position, gate, whether the gate's saddle lies above the circle)
    pos = F(0)
    for arc in members:
        pos += ds.weights[arc]
        gate = ma.face_left(arc)
        cuts.append((pos, gate, c < ds.face_levels[gate]))
    cut_pos = [p for p, _, _ in cuts]

    def owner(p):
        return members[bisect_right(cut_pos, p % phi)]

    gate_at, clashes = {}, []
    for p, gate, up in cuts:
        tau = (p + psi if up else p) % phi
        if tau in gate_at:
            low, high = (gate_at[tau], gate) if up else (gate, gate_at[tau])
            clashes.append((ma.face_keys[low], ma.face_keys[high]))
        else:
            gate_at[tau] = gate
    if clashes:
        return tuple(sorted(clashes)), None
    taus = sorted(gate_at)
    arc_map, arcs, weights, claims = _kept(ds, set(members))
    strips = {}  # a member's old dart -> [(order, new dart)]: its black end by tau, its white end by -(tau - psi)
    for t, tau in enumerate(taus):
        nxt = taus[(t + 1) % k]
        top, bottom = owner(tau), owner(tau - psi)
        na = len(arcs)
        arcs.append((ma.arcs[top][0], ma.arcs[bottom][1]))
        weights.append((nxt - tau) % phi or phi)
        claims += (gate_at[nxt], gate_at[tau])
        strips.setdefault((top, "b"), []).append((tau, (na, "b")))
        strips.setdefault((bottom, "w"), []).append((-((tau - psi) % phi), (na, "w")))
    rot = [
        [d for a, e in row for d in (
            [(arc_map[a], e)] if a in arc_map else [x for _, x in sorted(strips.get((a, e), []))]
        )]
        for row in ma.rotations
    ]
    return (), _rebuild(ds, ma.colors, arcs, weights, rot, claims)


def splice_twist(ds, c, circle_index, psi):
    """twist by splicing runs: the members between two cuts of the other kind
    share one vertex, so each run is a block of that vertex's rotation and is
    replaced by the strips between the two cuts' lines; the arcs are
    renumbered afterwards."""
    circle, sides = _circle(ds, c, circle_index)
    ma = ds.angulation
    members = list(circle.members)
    k = len(members)
    psi = F(psi)
    unit = math.lcm(ds.grid.dw, psi.denominator)
    cut_pos, gates, above = _cut_data(ds, circle, sides, unit)
    kinds = ["black" if up else "white" for up in above]
    phi = cut_pos[-1]
    psi = psi.numerator * (unit // psi.denominator) % phi

    def owner_after(pos):
        return members[bisect_right(cut_pos, pos % phi) % k]

    lines, by_tau, clashes = [], {}, []
    for i in range(k):
        tau = cut_pos[i] % phi if kinds[i] == "white" else (cut_pos[i] + psi) % phi
        line = {"tau": tau, "gate": gates[i], "kind": kinds[i], "cut": i}
        if tau in by_tau:
            white, black = (line, by_tau[tau]) if kinds[i] == "white" else (by_tau[tau], line)
            clashes.append((ma.face_keys[white["gate"]], ma.face_keys[black["gate"]]))
        else:
            by_tau[tau] = line
            lines.append(line)
    if clashes:
        return TwistOutcome(None, tuple(sorted(clashes)))
    lines.sort(key=lambda ln: ln["tau"])
    taus = [ln["tau"] for ln in lines]
    arc_map, new_arcs, new_weights, claims = _kept(ds, set(members))
    base = len(new_arcs)  # strip t enters as arc num_arcs + t, becomes arc base + t
    for t in range(k):
        new_arcs.append((ma.arcs[owner_after(taus[t])][0], ma.arcs[owner_after(taus[t] - psi)][1]))
        new_weights.append(F((taus[(t + 1) % k] - taus[t]) % phi if k > 1 else phi, unit))
        claims += (lines[(t + 1) % k]["gate"], lines[t]["gate"])
    line_of_cut = {ln["cut"]: t for t, ln in enumerate(lines)}

    def run_strips(start_cut, end_cut):
        out = [line_of_cut[start_cut]]
        while (out[-1] + 1) % k != line_of_cut[end_cut]:
            out.append((out[-1] + 1) % k)
        return out

    def runs(kind):
        boundary = [i for i in range(k) if kinds[i] != kind]
        if not boundary:
            return [(None, None, members)]
        out = []
        for x, i in enumerate(boundary):
            j = boundary[(x + 1) % len(boundary)]
            out.append((i, j, [members[(i + 1 + s) % k] for s in range((j - i) % k or k)]))
        return out

    rot = [list(r) for r in ma.darts]
    for kind, side in (("black", 0), ("white", 1)):
        for i, j, run in runs(kind):
            ts = list(range(k)) if i is None else run_strips(i, j)
            if side:  # a white vertex meets the circle in reverse order
                run, ts = run[::-1], ts[::-1]
            x = ma.arcs[run[0]][side]
            block = [2 * a + side for a in run]
            at = rot[x].index(block[0])
            rolled = rot[x][at:] + rot[x][:at]
            assert rolled[: len(block)] == block, f"run {block} is not consecutive at vertex {x}"
            rot[x] = [2 * (ma.num_arcs + t) + side for t in ts] + rolled[len(block):]
    new_arc = [arc_map.get(a) for a in range(ma.num_arcs)] + list(range(base, base + k))
    rot = [[2 * new_arc[d >> 1] + (d & 1) for d in row] for row in rot]
    return TwistOutcome(_rebuild(ds, ma.colors, new_arcs, new_weights, rot, claims))


def oracle_split(ds, vertex, offset, new_level):
    """split's data set; the caller picks a splittable vertex and an offset
    whose cuts miss the sector boundaries."""
    ma = ds.angulation
    color = ma.colors[vertex]
    alpha = int(ds.vertex_angle(vertex))
    spacing = F(1) if color == BLACK else 1 / ds.ratio
    rot_x = list(ma.rotations[vertex])
    start = rot_x.index(min(rot_x))
    rot_x = rot_x[start:] + rot_x[:start]
    bounds = [F(0)]
    for a, _ in rot_x:
        bounds.append(bounds[-1] + ds.weights[a])
    total = bounds[-1]
    cuts = [(offset + j) * spacing for j in range(alpha)]
    assert not set(cuts) & set(bounds)
    others = [v for v in range(ma.num_vertices) if v != vertex]
    vmap = {v: i for i, v in enumerate(others)}
    colors = [ma.colors[v] for v in others] + [color] * alpha
    position = {a: r for r, (a, _) in enumerate(rot_x)}
    arc_map, arcs, weights, claims = _kept(ds, position, vmap)
    sub_lists = []
    sectors = {j: [] for j in range(alpha)}
    for r, (a, _) in enumerate(rot_x):
        pts = [bounds[r]] + [p for p in cuts if bounds[r] < p < bounds[r + 1]] + [bounds[r + 1]]
        subs = list(range(len(arcs), len(arcs) + len(pts) - 1))
        far = vmap[ma.arcs[a][1] if color == BLACK else ma.arcs[a][0]]
        for na, lo, hi in zip(subs, pts, pts[1:]):
            owner = int(((lo + hi) / 2 / spacing - offset).__floor__()) % alpha
            arcs.append((len(others) + owner, far) if color == BLACK else (far, len(others) + owner))
            weights.append(hi - lo)
            sectors[owner].append(((lo - cuts[0]) % total, na))
        sub_lists.append(subs)
        if len(subs) == 1:
            claims += (ma.face_left(a), ma.face_right(a))
        else:
            claims += [NEW_FACE] * (2 * len(subs))
            # int dart 2a + e is arc a's black end for e = 0, its white end for e = 1
            first, last = (1, 0) if color == BLACK else (0, 1)
            claims[2 * subs[0] + first] = ma.face_of_dart[2 * a + first]
            claims[2 * subs[-1] + last] = ma.face_of_dart[2 * a + last]
    end = "b" if color == BLACK else "w"
    rotations = ma.rotations
    rot = [
        [d for a, e in rotations[v] for d in (
            [(arc_map[a], e)] if a in arc_map else [(na, e) for na in reversed(sub_lists[position[a]])]
        )]
        for v in others
    ]
    rot += [[(na, end) for _, na in sorted(sectors[j])] for j in range(alpha)]
    return _rebuild(ds, colors, arcs, weights, rot, claims, F(new_level))


def text(ds):
    return dumps(save(ds))


def oracle_corpus():
    """Builder outputs, seeded deformed walks, and walks whose shifts and
    offsets have denominators (17, 19, 23) coprime to every weight's."""
    calabi = make_calabi()
    corpus = [
        # R = 2/3 and white angles 2: a white cut spacing of 3/2
        DataSet(calabi.angulation, calabi.k0, calabi.ratio, [2 * w for w in calabi.weights], calabi.face_levels),
        build_surface(0, [2, 3], {1}, level=F(2, 5)),
        build_surface(1, [3, 2, 5], {1}),
        build_surface(1, [3, 2, F(1, 2), F(1, 3)], {1, 2}),
        build_one_cone(1, 6, 3),
    ]
    for seed in range(4):
        corpus += deformed_walk(seed, steps=4)
    rng = random.Random(23)
    for seed in (4, 5):
        ds = deformed_walk(seed, steps=4)[-1]
        for step in range(6):
            angles = ds.vertex_angles()
            splittable = [v for v, x in enumerate(angles) if x.denominator == 1 and x >= 2 and ds.ratio]
            if step % 2 and splittable:
                try:
                    ds = split(ds, rng.choice(splittable), F(rng.randint(1, 16), 17), F(rng.randint(1, 40), 41))
                except CutOnBoundary:
                    continue
            else:
                c = F(rng.randint(1, 42), 43)
                circles = circles_at_level(ds, c) if c not in ds.face_levels else []
                out = circles and twist(ds, c, 0, F(rng.randint(1, 100), 19))
                if not (out and out.is_generic):
                    continue
                ds = out.dataset
            corpus.append(ds)
    assert sum(len({w.denominator for w in ds.weights}) >= 3 for ds in corpus) >= 4
    return corpus


def test_circles_match_the_successor_walk_oracle():
    rng = random.Random(7)
    for ds in oracle_corpus():
        for c in {F(rng.randint(1, 52), 53) for _ in range(4)} - set(ds.face_levels):
            got = [(circle.members, circle.circumference) for circle in circles_at_level(ds, c)]
            assert got == oracle_circles(ds, c)
            assert all(circle.level == c for circle in circles_at_level(ds, c))


def same_cycle(row, other):
    """Whether two rotation rows list the same darts in the same cyclic order."""
    row, other = list(row), list(other)
    if len(row) != len(other) or (row and row[0] not in other):
        return False
    i = other.index(row[0]) if row else 0
    return other[i:] + other[:i] == row


def twist_cases(seed):
    """(surface, level, circle index, shift) over the oracle corpus: two
    random levels each, every circle, and shifts that meet cut points
    (whole fractions of phi) or are coprime to phi (over 23 and 29)."""
    rng = random.Random(seed)
    for ds in oracle_corpus():
        for c in {F(rng.randint(1, 46), 47) for _ in range(2)} - set(ds.face_levels):
            for index, (_, phi) in enumerate(oracle_circles(ds, c)):
                for psi in (phi * F(rng.randint(1, 5), 6), F(rng.randint(1, 200), 23), F(-rng.randint(1, 99), 29)):
                    yield ds, c, index, psi


def test_twist_matches_the_fraction_oracle():
    generic = clashing = 0
    for ds, c, index, psi in twist_cases(11):
        clashes, want = oracle_twist(ds, c, index, psi)
        out = twist(ds, c, index, psi)
        assert out.non_generic == clashes
        if want is None:
            clashing += 1
        else:
            assert text(out.dataset) == text(want)
            generic += 1
    assert generic >= 100 and clashing >= 5


def test_twist_equals_the_run_splice_as_a_map():
    generic = clashing = reordered = 0
    for ds, c, index, psi in twist_cases(19):
        want = splice_twist(ds, c, index, psi)
        out = twist(ds, c, index, psi)
        assert out.non_generic == want.non_generic
        if not want.is_generic:
            assert not out.is_generic
            clashing += 1
            continue
        got, want = out.dataset, want.dataset
        ma, mb = got.angulation, want.angulation
        assert (ma.colors, ma.arcs, ma.face_keys) == (mb.colors, mb.arcs, mb.face_keys)
        assert (got.weights, got.face_levels) == (want.weights, want.face_levels)
        assert all(same_cycle(r, s) for r, s in zip(ma.darts, mb.darts))
        assert got == want
        reordered += ma.darts != mb.darts
        generic += 1
    assert generic >= 100 and clashing >= 5 and reordered >= 10


def test_twist_rewrites_only_the_circle_rows_in_place():
    # a row off the circle is renumbered only; a rewritten row keeps its
    # kept darts in order and starts at its old first dart if that survives
    off = starts_kept = 0
    for ds, c, index, psi in twist_cases(29):
        out = twist(ds, c, index, psi)
        if not out.is_generic:
            continue
        members = set(circles_at_level(ds, c)[index].members)
        arc_map = _kept(ds, members)[0]
        strip_darts = 2 * len(arc_map)  # the strips' darts follow the kept arcs'
        for old, new in zip(ds.angulation.darts, out.dataset.angulation.darts):
            kept = [2 * arc_map[d >> 1] + (d & 1) for d in old if d >> 1 not in members]
            if len(kept) == len(old):
                assert list(new) == kept
                off += 1
                continue
            assert [d for d in new if d < strip_darts] == kept
            if old[0] >> 1 not in members:
                assert new[0] == kept[0]
                starts_kept += 1
    assert off >= 100 and starts_kept >= 100


def test_split_matches_the_fraction_oracle():
    rng = random.Random(13)
    done = refused = 0
    for ds in oracle_corpus():
        angles = ds.vertex_angles()
        for v, angle in enumerate(angles):
            if angle.denominator != 1 or angle < 2 or ds.ratio == 0:
                continue
            # an even numerator shares a factor with a cut spacing of 3/2
            for offset in (F(rng.randint(1, 16), 17), F(2 * rng.randint(1, 3), 7), F(rng.randint(1, 5), 6), F(1, 2)):
                level = F(rng.randint(1, 36), 37)
                if level in ds.face_levels:
                    continue
                try:
                    out = split(ds, v, offset, level)
                except CutOnBoundary:
                    refused += 1
                    with pytest.raises(AssertionError):
                        oracle_split(ds, v, offset, level)
                    continue
                assert text(out) == text(oracle_split(ds, v, offset, level))
                done += 1
    assert done >= 40 and refused >= 3
