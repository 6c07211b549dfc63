import random
from collections import Counter
from fractions import Fraction as F

import pytest

from conftest import make_calabi, make_two_level, random_bicolored_angulation
from hcmu.angulation import (
    BLACK,
    WHITE,
    MixedAngulation,
    build_angulation,
    opposite,
)
from hcmu.builders import build_one_cone, build_surface, canonical_angulation
from hcmu.dataset import DataSet
from hcmu.deformations import circles_at_level, split, twist
from hcmu.errors import Disconnected, HcmuError, NotBipartite, OddFaceDegree


def star_angulation(p):
    """p black leaves around one white center."""
    colors = [BLACK] * p + [WHITE]
    arcs = [(i, p) for i in range(p)]
    rot = [[(i, "b")] for i in range(p)] + [[(i, "w") for i in range(p)]]
    return MixedAngulation(colors, arcs, rot, _allow_degenerate=True)


def test_calabi_faces_and_genus():
    ma = make_calabi().angulation
    assert ma.num_faces == 3
    assert all(len(w) == 4 for w in ma.faces)
    assert ma.genus == 0
    assert ma.order_vector == (2, 2, 2)


def test_single_arc_rejected_as_final_angulation():
    with pytest.raises(OddFaceDegree):
        build_angulation(
            [BLACK, WHITE], [(0, 1)], [[(0, "b")], [(0, "w")]]
        )


def test_canonical_genus1_via_face_tracing():
    ma = canonical_angulation(1)
    assert (ma.num_vertices, ma.num_arcs, ma.num_faces) == (2, 3, 1)
    assert ma.face_degree(0) == 6
    assert ma.genus == 1


def test_star_single_face():
    for p in (1, 2, 5):
        ma = star_angulation(p)
        assert ma.num_faces == 1
        assert ma.face_degree(0) == 2 * p


def test_self_folded_two_level_fixture_faces():
    ma = make_two_level().angulation
    assert sorted(len(w) for w in ma.faces) == [4, 4]
    # arcs 1 and 3 are self-folded: both sides on one face
    for arc in (1, 3):
        assert ma.face_left(arc) == ma.face_right(arc)


@pytest.mark.parametrize("g", [0, 1, 2, 3])
def test_canonical_angulation_genus(g):
    assert canonical_angulation(g).genus == g


def test_not_bipartite_rejected():
    with pytest.raises(NotBipartite):
        MixedAngulation(
            [BLACK, BLACK], [(0, 1)], [[(0, "b")], [(0, "w")]]
        )


def test_disconnected_rejected():
    colors = [BLACK, WHITE, BLACK, WHITE]
    arcs = [(0, 1), (0, 1), (2, 3), (2, 3)]
    rot = [
        [(0, "b"), (1, "b")],
        [(0, "w"), (1, "w")],
        [(2, "b"), (3, "b")],
        [(2, "w"), (3, "w")],
    ]
    with pytest.raises(Disconnected):
        MixedAngulation(colors, arcs, rot)


def test_face_walks_partition_the_darts():
    rng = random.Random(7)
    for _ in range(25):
        ma = random_bicolored_angulation(rng)
        seen = [d for walk in ma.faces for d in walk]
        assert len(seen) == 2 * ma.num_arcs
        assert len(set(seen)) == 2 * ma.num_arcs
        assert sum(len(w) for w in ma.faces) == 2 * ma.num_arcs
        assert sum(ma.degree(v) for v in range(ma.num_vertices)) == 2 * ma.num_arcs


def test_order_vector_compatibility_identity():
    rng = random.Random(8)
    for _ in range(25):
        ma = random_bicolored_angulation(rng)
        assert sum(ma.order_vector) == 4 * ma.genus - 4 + 2 * ma.num_vertices


def test_face_walk_alternates_colors():
    rng = random.Random(9)
    for _ in range(25):
        ma = random_bicolored_angulation(rng)
        for walk in ma.faces:
            corners = [ma.vertex_of_dart(opposite(d)) for d in walk]
            for i, v in enumerate(corners):
                w = corners[(i + 1) % len(corners)]
                assert ma.colors[v] != ma.colors[w]


def test_isomorphism_detects_relabeling():
    ma = make_calabi().angulation
    # relabel vertices and arcs
    perm_v = [2, 0, 1, 4, 3]
    perm_a = [3, 2, 5, 4, 1, 0]
    colors = [None] * 5
    for v in range(5):
        colors[perm_v[v]] = ma.colors[v]
    arcs = [None] * 6
    for a, (b, w) in enumerate(ma.arcs):
        arcs[perm_a[a]] = (perm_v[b], perm_v[w])
    rot = [None] * 5
    for v in range(5):
        rot[perm_v[v]] = [(perm_a[a], e) for a, e in ma.rotations[v]]
    other = MixedAngulation(colors, arcs, rot)
    assert ma.is_isomorphic(other)


def test_isomorphism_distinguishes_mirror_of_weighted_star():
    # reversing every rotation is the orientation-reversed surface; with
    # asymmetric weights the cyclic order (1,2,4) cannot be matched to (4,2,1)
    from hcmu.dataset import DataSet

    ma = star_angulation(3)
    weights = [F(1), F(2), F(4)]
    ds = DataSet(ma, 1.0, F(1, 2), weights, [F(1, 2)])
    mirrored = MixedAngulation(
        ma.colors, ma.arcs, [list(reversed(r)) for r in ma.rotations],
        _allow_degenerate=True,
    )
    ds_m = DataSet(mirrored, 1.0, F(1, 2), weights, [F(1, 2)])
    assert ma.is_isomorphic(mirrored)  # the bare star is amphichiral
    assert not ds.is_isomorphic(ds_m)  # but the weighted surface is not


# -- oracle: the rooted vertex/arc signature -----------------------------------
#
# Before the dart-numbering code, maps were identified by this signature: from
# a root dart, vertices are numbered breadth-first with one row of arc numbers
# per vertex (in rotation order from its entry dart), followed by an arc
# table carrying the end vertices and the labels.  It is kept as the reference
# for ``MixedAngulation.canonical_form``.


def rooted_signature(ma, root, arc_label, face_label):
    vmap = {}
    amap = {}
    vorder = []
    entry = {}

    def see_vertex(v, d):
        if v not in vmap:
            vmap[v] = len(vmap)
            vorder.append(v)
            entry[v] = d

    see_vertex(ma.vertex_of_dart(root), root)
    out = []
    i = 0
    while i < len(vorder):
        v = vorder[i]
        i += 1
        rot = ma.rotations[v]
        k = rot.index(entry[v])
        row = []
        for j in range(len(rot)):
            d = rot[(k + j) % len(rot)]
            a = d[0]
            if a not in amap:
                amap[a] = len(amap)
            row.append(amap[a])
            see_vertex(ma.vertex_of_dart(opposite(d)), opposite(d))
        out.append((ma.colors[v], tuple(row)))
    arcdata = []
    for a in sorted(amap, key=amap.get):
        item = [vmap[ma.arcs[a][0]], vmap[ma.arcs[a][1]]]
        if arc_label is not None:
            item.append(arc_label(a))
        if face_label is not None:
            item.append(face_label(ma.face_left(a)))
            item.append(face_label(ma.face_right(a)))
        arcdata.append(tuple(item))
    return (tuple(out), tuple(arcdata))


def signature_form(ma, arc_labels=None, face_labels=None):
    arc_label = None if arc_labels is None else arc_labels.__getitem__
    face_label = None if face_labels is None else face_labels.__getitem__
    return min(
        rooted_signature(ma, (a, end), arc_label, face_label)
        for a in range(ma.num_arcs)
        for end in ("b", "w")
    )


def relabeled(ma, weights, levels, rng):
    """The same labelled map under random vertex ids, arc ids and rotation
    starts."""
    pv = list(range(ma.num_vertices))
    pa = list(range(ma.num_arcs))
    rng.shuffle(pv)
    rng.shuffle(pa)
    colors = [None] * ma.num_vertices
    rot = [None] * ma.num_vertices
    for v, r in enumerate(ma.rotations):
        colors[pv[v]] = ma.colors[v]
        k = rng.randrange(len(r))
        rot[pv[v]] = [(pa[a], e) for a, e in r[k:] + r[:k]]
    arcs = [None] * ma.num_arcs
    new_weights = [None] * ma.num_arcs
    for a, (b, w) in enumerate(ma.arcs):
        arcs[pa[a]] = (pv[b], pv[w])
        new_weights[pa[a]] = weights[a]
    new = MixedAngulation(colors, arcs, rot, _allow_degenerate=True)
    new_levels = [None] * new.num_faces
    for (a, e), f in ma.face_of_dart.items():
        new_levels[new.face_of_dart[(pa[a], e)]] = levels[f]
    return new, tuple(new_weights), tuple(new_levels)


def mirrored(ma, weights, levels):
    """Every rotation reversed; the face of d takes the level of the old face
    of opposite(d)."""
    new = MixedAngulation(
        ma.colors, ma.arcs, [r[::-1] for r in ma.rotations], _allow_degenerate=True
    )
    new_levels = [None] * new.num_faces
    for d, f in new.face_of_dart.items():
        new_levels[f] = levels[ma.face_of_dart[opposite(d)]]
    return new, tuple(weights), tuple(new_levels)


def with_levels(ds, rng, choices):
    levels = [rng.choice(choices) for _ in range(ds.angulation.num_faces)]
    return DataSet(ds.angulation, ds.k0, ds.ratio, ds.weights, levels)


def oracle_corpus(rng):
    """Labelled maps: both fixtures, builder outputs, random angulations and
    twist/split outputs."""
    surfaces = [make_calabi(), make_two_level()]
    for g, alpha, Z in [
        (0, [2, 2, 2], {1, 2, 3}),
        (0, [2, 3], {1}),
        (0, [3, 0], {1}),
        (0, [3, 3], {1, 2}),
        (0, [3, 3, 3], {1, 2, 3}),
        (0, [2, 2, 3], {1, 2}),
        (1, [4], {1}),
        (1, [4, 0, 0], {1}),
        (1, [3, 2], {1, 2}),
        (2, [7], {1}),
    ]:
        surfaces.append(build_surface(g, alpha, Z))
    for g, p, q in [(0, 3, 1), (0, 3, 2), (0, 5, 2), (0, 7, 3), (1, 2, 1), (1, 4, 3), (2, 6, 2)]:
        surfaces.append(build_one_cone(g, p, q))
    # builder outputs at levels 1/3 and 2/3, so that level-1/2 circles cut
    # between saddles, plus their twists and a split
    deformed = []
    for ds in surfaces[2:]:
        for _ in range(2):
            base = with_levels(ds, rng, (F(1, 3), F(2, 3)))
            deformed.append(base)
            for _ in range(2):
                circles = circles_at_level(base, F(1, 2))
                i = rng.randrange(len(circles))
                psi = circles[i].circumference * F(rng.randint(0, 4), 4)
                out = twist(base, F(1, 2), i, psi)
                if out.is_generic:
                    deformed.append(out.dataset)
            ma = base.angulation
            for v in range(ma.num_vertices):
                try:
                    deformed.append(split(base, v, F(1, 3), F(1, 2)))
                except HcmuError:  # no integer angle or a cut on a boundary
                    continue
                break
    items = [(ds.angulation, ds.weights, ds.face_levels) for ds in surfaces + deformed]
    for _ in range(80):
        ma = random_bicolored_angulation(rng, max_vertices=rng.choice((3, 4, 5, 8)))
        weights = tuple(F(rng.randint(1, 2)) for _ in range(ma.num_arcs))
        levels = tuple(rng.choice((F(1, 3), F(2, 3))) for _ in range(ma.num_faces))
        items.append((ma, weights, levels))
    return items


def test_canonical_form_agrees_with_rooted_signature_oracle():
    rng = random.Random(20)
    base = oracle_corpus(rng)
    assert len(base) >= 150
    items = []
    for ma, weights, levels in base:
        items += [(ma, weights, levels), relabeled(ma, weights, levels, rng), mirrored(ma, weights, levels)]
    for labelled in (True, False):
        forms = []
        for ma, weights, levels in items:
            args = (weights, levels) if labelled else ()
            forms.append((ma.canonical_form(*args), signature_form(ma, *args)))
        # a relabelled copy is the same map under both forms
        for i in range(0, len(forms), 3):
            assert forms[i] == forms[i + 1]
        # pairwise equality agrees: each code meets exactly one signature and
        # each signature exactly one code
        codes = {code for code, _ in forms}
        signatures = {sig for _, sig in forms}
        assert len(set(forms)) == len(codes) == len(signatures)
        equal_pairs = sum(n * (n - 1) // 2 for n in Counter(forms).values())
        assert equal_pairs > len(base)
        mirror_equal = sum(forms[i] == forms[i + 2] for i in range(0, len(forms), 3))
        assert 0 < mirror_equal < len(base)
