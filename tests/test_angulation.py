import random
from collections import Counter
from fractions import Fraction as F

import pytest

from conftest import FIXTURES, make_calabi, make_two_level, random_bicolored_angulation
from hcmu.angulation import (
    BLACK,
    WHITE,
    MapBuilder,
    MixedAngulation,
)
from hcmu.builders import build_one_cone, build_surface, canonical_angulation
from hcmu.dataset import DataSet
from hcmu.deformations import circles_at_level, split, twist
from hcmu.errors import (
    Disconnected,
    HcmuError,
    NonIntegerGenus,
    NotBipartite,
    OddFaceDegree,
)
from hcmu.serialization import load
from test_deformation_stress import deformed_walk


def pair(d):
    """The (arc, end) pair of int dart d."""
    return (d >> 1, "bw"[d & 1])


def opposite(dart):
    """The other end of the arc of an (arc, end) pair."""
    arc, end = dart
    return (arc, "w" if end == "b" else "b")


def pair_vertex(ma, dart):
    """The vertex of an (arc, end) pair."""
    arc, end = dart
    return ma.arcs[arc][0 if end == "b" else 1]


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
        MixedAngulation(
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


def test_builder_face_walk_of_dart_is_its_traced_face_from_that_dart():
    rng = random.Random(8)
    maps = [random_bicolored_angulation(rng) for _ in range(25)]
    maps += [build_surface(0, [3, 3, 3], {1, 2, 3}).angulation, build_surface(2, [7], {1}).angulation]
    maps += [build_one_cone(1, 4, 3).angulation, make_two_level().angulation]
    for ma in maps:
        builder = MapBuilder(ma.colors, ma.arcs, ma.darts)
        face_of = {d: walk for walk in ma.faces for d in walk}
        assert len(face_of) == 2 * ma.num_arcs
        for d, traced in face_of.items():
            walk = builder.face_walk_of_dart(d)
            k = traced.index(d)
            assert walk == traced[k:] + traced[:k]


def test_faces_start_at_their_least_dart_in_key_order():
    rng = random.Random(10)
    maps = [random_bicolored_angulation(rng) for _ in range(40)]
    maps += [build_surface(0, [3] * 12, range(1, 13)).angulation, build_surface(2, [7], {1}).angulation]
    maps += [build_surface(1, [4, 0, 0], {1}).angulation, build_one_cone(0, 7, 3).angulation]
    maps += [build_one_cone(1, 4, 3).angulation, build_one_cone(2, 6, 3).angulation]
    for ma in maps:
        keyed = sorted((min(walk), walk) for walk in ma.faces)
        assert ma.face_keys == tuple(k for k, _ in keyed)
        assert ma.faces == tuple(w for _, w in keyed)
        assert all(walk[0] == key for key, walk in zip(ma.face_keys, ma.faces))


def test_builder_face_walk_reads_only_the_rotation_lists(monkeypatch):
    # sigma^-1 over the whole map must not be rebuilt for one face walk
    import hcmu.angulation as angulation

    trace_faces = angulation._trace_faces
    walking = []

    def guarded(sigma_inv):
        assert not walking, "face_walk_of_dart rebuilt sigma^-1"
        return trace_faces(sigma_inv)

    face_walk_of_dart = MapBuilder.face_walk_of_dart

    def walk(self, dart):
        walking.append(dart)
        try:
            return face_walk_of_dart(self, dart)
        finally:
            walking.pop()

    monkeypatch.setattr(angulation, "_trace_faces", guarded)
    monkeypatch.setattr(MapBuilder, "face_walk_of_dart", walk)
    ds = build_surface(0, [3] * 30, range(1, 31))
    assert ds.angulation.num_faces == 30


# -- the constructor's rejections ----------------------------------------------

B, W = BLACK, WHITE
FOUR_GON = ([B, W], [(0, 1), (0, 1)], [[(0, "b"), (1, "b")], [(0, "w"), (1, "w")]])


@pytest.mark.parametrize(
    "colors, arcs, rotations, error, message",
    [
        ([B, "red"], [(0, 1)], [[(0, "b")], [(0, "w")]], NotBipartite, "unknown color 'red'"),
        ([B, W], [(0, 1)], [[(0, "b")]], NotBipartite, "rotation table does not match the vertex set"),
        ([B, W], [(0, 5)], [[(0, "b")], [(0, "w")]], NotBipartite, "arc 0 has a dangling end"),
        ([B, W], [(1, 0)], [[(0, "b")], [(0, "w")]], NotBipartite, "arc 0 does not join black to white"),
        ([B, W], [(0, 1)], [[(0, "x")], [(0, "w")]], NotBipartite, "malformed dart (0, 'x')"),
        ([B, W], [(0, 1)], [[(7, "b")], [(0, "w")]], NotBipartite, "malformed dart (7, 'b')"),
        ([B, W], [(0, 1)], [[(0, "w")], [(0, "b")]], NotBipartite, "dart (0, 'w') listed at the wrong vertex"),
        ([B, W], [(0, 1)], [[(0, "b"), (0, "b")], [(0, "w")]], NotBipartite, "dart (0, 'b') appears twice"),
        (
            [B, W], [(0, 1), (0, 1)], [[(0, "b")], [(0, "w"), (1, "w")]],
            NotBipartite, "some arc-end is missing from the rotation system",
        ),
        ([B, W, B], [(0, 1)], [[(0, "b")], [(0, "w")], []], Disconnected, "vertex 2 is isolated"),
        ([], [], [], Disconnected, "empty graph"),
        (
            [B, W, B, W], [(0, 1), (0, 1), (2, 3), (2, 3)],
            [[(0, "b"), (1, "b")], [(0, "w"), (1, "w")], [(2, "b"), (3, "b")], [(2, "w"), (3, "w")]],
            Disconnected, "graph is not connected",
        ),
        ([B, W], [(0, 1)], [[(0, "b")], [(0, "w")]], OddFaceDegree, "face of degree 2 < 4"),
        # an end or an arc id that int() would coerce: 0.9 and "0" to 0, True to 1
        ([B, W], [(0, 1), (0.9, 1)], FOUR_GON[2], NotBipartite, "arc 1 has an end that is not an int: (0.9, 1)"),
        ([B, W], [("0", "1"), (0, 1)], FOUR_GON[2], NotBipartite, "arc 0 has an end that is not an int: ('0', '1')"),
        ([B, W], [(0, 1), (0, True)], FOUR_GON[2], NotBipartite, "arc 1 has an end that is not an int: (0, True)"),
        ([B, W], FOUR_GON[1], [[(0.5, "b"), (1, "b")], [(0, "w"), (1, "w")]], NotBipartite, "malformed dart (0.5, 'b')"),
        ([B, W], FOUR_GON[1], [[(0, "b"), ("1", "b")], [(0, "w"), (1, "w")]], NotBipartite, "malformed dart ('1', 'b')"),
        ([B, W], FOUR_GON[1], [[(0, "b"), (1, "b")], [(False, "w"), (1, "w")]], NotBipartite, "malformed dart (False, 'w')"),
        ([B, W], FOUR_GON[1], [[True, 2], [1, 3]], NotBipartite, "malformed dart True"),
        ([B, W], FOUR_GON[1], [[0, 2.0], [1, 3]], NotBipartite, "malformed dart 2.0"),
        ([B, W], FOUR_GON[1], [[0, 2], [(0, "w", 1), 3]], NotBipartite, "malformed dart (0, 'w', 1)"),
        # an arc that does not unpack into two ends
        ([B, W], [(0, 1, 2)], [[0], [1]], NotBipartite, "arc 0 is not a pair of ends: (0, 1, 2)"),
        ([B, W], [5], [[0], [1]], NotBipartite, "arc 0 is not a pair of ends: 5"),
        ([B, W], [None], [[0], [1]], NotBipartite, "arc 0 is not a pair of ends: None"),
    ],
)
def test_constructor_rejections(colors, arcs, rotations, error, message):
    with pytest.raises(error) as caught:
        MixedAngulation(colors, arcs, rotations)
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize(
    "walks, error, message",
    [
        # a bipartite map's face walks alternate colors and a connected map's
        # Euler count is 2 - 2g, so these two checks need a broken tracer
        (((0, 1, 2), (3,)), OddFaceDegree, "face of odd degree 3"),
        (((0, 1, 2, 3),) * 3, NonIntegerGenus, "Euler count 3 is not 2 - 2g"),
        (((0, 1, 2, 3),) * 4, NonIntegerGenus, "Euler count 4 is not 2 - 2g"),
    ],
)
def test_constructor_rejects_what_a_broken_tracer_returns(monkeypatch, walks, error, message):
    import hcmu.angulation as angulation

    monkeypatch.setattr(angulation, "_trace_faces", lambda sigma_inv: (walks, [0] * len(sigma_inv)))
    with pytest.raises(error) as caught:
        MixedAngulation(*FOUR_GON)
    assert type(caught.value) is error and str(caught.value) == message


# -- the constructor's two input forms -------------------------------------------


def int_rows(rotations):
    """Rotations in int darts 2a + (end == "w"); a pair with an end other than
    "b" or "w" has no int dart and stays a pair."""
    return [[2 * a + (e == "w") if e in ("b", "w") else (a, e) for a, e in rot] for rot in rotations]


MAP_FIELDS = ("darts", "sigma", "sigma_inv", "faces", "face_of_dart", "face_keys", "genus", "degenerate")


def test_int_rows_and_pair_rows_build_the_same_map():
    surfaces = [make_calabi(), make_two_level()] + [load(path) for path in sorted(FIXTURES.glob("*.json"))]
    surfaces += [build_surface(0, [3] * n, range(1, n + 1)) for n in (4, 17)]
    surfaces += [build_surface(2, [7], {1}), build_surface(1, [4, 0, 0], {1})]
    surfaces += [build_one_cone(0, 7, 3), build_one_cone(1, 4, 3), build_one_cone(2, 6, 2)]
    for seed in range(6):
        surfaces += deformed_walk(seed)
    maps = [ds.angulation for ds in surfaces] + [canonical_angulation(0), star_angulation(4)]
    rng = random.Random(12)
    maps += [random_bicolored_angulation(rng) for _ in range(30)]
    for ma in maps:
        pairs = ma.rotations
        assert pairs == tuple(tuple(pair(d) for d in row) for row in ma.darts)
        by_pairs = MixedAngulation(ma.colors, ma.arcs, pairs, _allow_degenerate=ma.degenerate)
        by_ints = MixedAngulation(ma.colors, ma.arcs, int_rows(pairs), _allow_degenerate=ma.degenerate)
        for field in MAP_FIELDS:
            assert getattr(by_pairs, field) == getattr(by_ints, field) == getattr(ma, field), field
        assert by_ints.rotations == pairs


@pytest.mark.parametrize(
    "arcs, rotations, message",
    [
        ([(0, 1)], [[(0, "x")], [(0, "w")]], "malformed dart (0, 'x')"),
        ([(0, 1)], [[(7, "b")], [(0, "w")]], "malformed dart (7, 'b')"),
        ([(0, 1)], [[(-1, "w")], [(0, "w")]], "malformed dart (-1, 'w')"),
        ([(0, 1)], [[(0, "b"), (0, "b")], [(0, "w")]], "dart (0, 'b') appears twice"),
        ([(0, 1)], [[(0, "w")], [(0, "b")]], "dart (0, 'w') listed at the wrong vertex"),
        ([(0, 1), (0, 1)], [[(0, "b")], [(0, "w"), (1, "w")]], "some arc-end is missing from the rotation system"),
        ([(0, 1), (0.9, 1)], FOUR_GON[2], "arc 1 has an end that is not an int: (0.9, 1)"),
        ([("0", "1"), (0, 1)], FOUR_GON[2], "arc 0 has an end that is not an int: ('0', '1')"),
        ([(0, 1), (0, True)], FOUR_GON[2], "arc 1 has an end that is not an int: (0, True)"),
    ],
)
def test_int_rows_and_pair_rows_are_refused_alike(arcs, rotations, message):
    for rows in (rotations, int_rows(rotations)):
        with pytest.raises(NotBipartite) as caught:
            MixedAngulation([BLACK, WHITE], arcs, rows)
        assert type(caught.value) is NotBipartite and str(caught.value) == message


# -- oracle: the (arc, end) pair maps and face walks ------------------------------
#
# sigma, sigma^-1 and the face walks computed on (arc, end) pairs with dicts,
# the reference for MixedAngulation's int permutations and faces.


def pair_rotation_maps(rotations):
    """sigma and sigma^-1 as dart -> dart maps, in one pass over the rotations."""
    sigma = {}
    sigma_inv = {}
    for rot in rotations:
        prev = rot[-1] if rot else None
        for d in rot:
            sigma[prev] = d
            sigma_inv[d] = prev
            prev = d
    return sigma, sigma_inv


def pair_face_orbits(num_arcs, sigma_inv):
    """Face walks d -> sigma^-1(opposite(d)), each from its first unvisited
    dart in (arc, end) order."""
    walks = []
    visited = set()
    for a in range(num_arcs):
        for end in ("b", "w"):
            d0 = (a, end)
            if d0 in visited:
                continue
            walk = []
            d = d0
            while True:
                walk.append(d)
                visited.add(d)
                d = sigma_inv[opposite(d)]
                if d == d0:
                    break
            walks.append(tuple(walk))
    return walks


def assert_matches_pair_oracle(ma):
    sigma, sigma_inv = pair_rotation_maps(ma.rotations)
    assert {pair(d): pair(s) for d, s in enumerate(ma.sigma)} == sigma
    assert {pair(d): pair(s) for d, s in enumerate(ma.sigma_inv)} == sigma_inv
    walks = pair_face_orbits(ma.num_arcs, sigma_inv)
    assert [tuple(pair(d) for d in walk) for walk in ma.faces] == walks
    assert tuple(pair(k) for k in ma.face_keys) == tuple(walk[0] for walk in walks)
    assert {pair(d): f for d, f in enumerate(ma.face_of_dart)} == {
        d: f for f, walk in enumerate(walks) for d in walk
    }


def test_int_faces_match_the_pair_oracle():
    surfaces = [make_calabi(), make_two_level()] + [load(path) for path in sorted(FIXTURES.glob("*.json"))]
    surfaces += [build_surface(0, [3] * n, range(1, n + 1)) for n in range(4, 65, 6)]
    surfaces += [build_surface(2, [7], {1}), build_one_cone(0, 7, 3), build_one_cone(2, 6, 3)]
    for seed in range(8):
        surfaces += deformed_walk(seed)
    assert len(surfaces) > 50
    for ds in surfaces:
        assert_matches_pair_oracle(ds.angulation)
    rng = random.Random(11)
    for _ in range(40):
        assert_matches_pair_oracle(random_bicolored_angulation(rng))


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
            corners = [ma.vertex_of_dart(d ^ 1) for d in walk]
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
    for v, r in enumerate(ma.rotations):
        rot[perm_v[v]] = [(perm_a[a], e) for a, e in r]
    other = MixedAngulation(colors, arcs, rot)
    assert ma.canonical_form() == other.canonical_form()


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
    assert ma.canonical_form() == mirrored.canonical_form()  # the bare star is amphichiral
    assert ds != ds_m  # but the weighted surface is not


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

    see_vertex(pair_vertex(ma, root), root)
    rotations = ma.rotations  # written from ma.darts on every read
    out = []
    i = 0
    while i < len(vorder):
        v = vorder[i]
        i += 1
        rot = rotations[v]
        k = rot.index(entry[v])
        row = []
        for j in range(len(rot)):
            d = rot[(k + j) % len(rot)]
            a = d[0]
            if a not in amap:
                amap[a] = len(amap)
            row.append(amap[a])
            see_vertex(pair_vertex(ma, opposite(d)), opposite(d))
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
    for d, f in enumerate(ma.face_of_dart):
        new_levels[new.face_of_dart[2 * pa[d >> 1] + (d & 1)]] = levels[f]
    return new, tuple(new_weights), tuple(new_levels)


def mirrored(ma, weights, levels):
    """Every rotation reversed; the face of d takes the level of the old face
    of d ^ 1, the other end of its arc."""
    new = MixedAngulation(
        ma.colors, ma.arcs, [r[::-1] for r in ma.rotations], _allow_degenerate=True
    )
    new_levels = [None] * new.num_faces
    for d, f in enumerate(new.face_of_dart):
        new_levels[f] = levels[ma.face_of_dart[d ^ 1]]
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


def test_canonical_form_agrees_with_the_oracle_on_large_maps():
    # maps with hundreds of darts, where the least invariant class is a small
    # share of the darts, at levels drawn from two values so that classes and
    # automorphisms survive the labels; a relabelled copy must meet its
    # original's form, and originals and mirror images meet each other's forms
    # exactly when their oracle signatures meet
    rng = random.Random(21)
    for labelled in (True, False):
        forms = []
        for ds in (build_one_cone(0, 301, 17), build_surface(0, [3] * 30, set(range(1, 31)))):
            for _ in range(2 if labelled else 1):
                ds = with_levels(ds, rng, (F(1, 3), F(2, 3)))
                item = (ds.angulation, ds.weights, ds.face_levels)
                for ma, weights, levels in (item, mirrored(*item)):
                    args = (weights, levels) if labelled else ()
                    forms.append((ma.canonical_form(*args), signature_form(ma, *args)))
                ma, weights, levels = relabeled(*item, rng)
                args = (weights, levels) if labelled else ()
                assert ma.canonical_form(*args) == forms[-2][0]
        for x in forms:
            for y in forms:
                assert (x[0] == y[0]) == (x[1] == y[1])


# -- oracle: every root of the least class coded --------------------------------
#
# Before automorphism pruning and the flat code, ``canonical_form`` was this
# root loop: labels carry the end letter, each item is (label, number of the
# sigma-image, number of the alpha-image), and every root of the least
# (size, key) class is coded, with an early stop against the best code.  It
# is kept as the reference for the equivalence the form defines.


def least_code_form(ma, arc_labels=None, face_labels=None):
    succ = ma.sigma
    n = len(succ)
    degree = [len(rot) for rot in ma.darts]
    vertex_degree = [degree[v] for arc in ma.arcs for v in arc]
    labels = [None] * n
    face_degree = [0] * n
    for f, walk in enumerate(ma.faces):
        for d in walk:
            label = ("bw"[d & 1],)
            if arc_labels is not None:
                label += (arc_labels[d >> 1],)
            if face_labels is not None:
                label += (face_labels[f],)
            labels[d] = label
            face_degree[d] = len(walk)
    classes = {}
    for d in range(n):
        classes.setdefault((labels[d], vertex_degree[d], face_degree[d]), []).append(d)
    _, roots = min(classes.items(), key=lambda kv: (len(kv[1]), kv[0]))
    best = None
    for root in roots:
        num = [-1] * n
        num[root] = 0
        order = [root]
        code = []
        tied = best is not None
        for i, d in enumerate(order):
            s = succ[d]
            if num[s] < 0:
                num[s] = len(order)
                order.append(s)
            t = d ^ 1
            if num[t] < 0:
                num[t] = len(order)
                order.append(t)
            item = (labels[d], num[s], num[t])
            if tied and item != best[i]:
                if item > best[i]:
                    break
                tied = False
            code.append(item)
        else:
            best = code
    return tuple(best)


def deformed_outputs(count):
    """``count`` twist and split outputs of seeded random walks."""
    outputs = []
    seed = 0
    while len(outputs) < count:
        outputs += deformed_walk(1000 + seed)[1:]
        seed += 1
    return outputs[:count]


def test_canonical_form_agrees_with_the_root_loop_oracle():
    rng = random.Random(23)
    base = oracle_corpus(rng)
    base += [(ds.angulation, ds.weights, ds.face_levels) for ds in deformed_outputs(200)]
    items = []
    for item in base:
        items += [item, relabeled(*item, rng), mirrored(*item)]
    for labelled in (True, False):
        forms = []
        for ma, weights, levels in items:
            args = (weights, levels) if labelled else ()
            forms.append((ma.canonical_form(*args), least_code_form(ma, *args)))
        for i in range(0, len(forms), 3):
            assert forms[i] == forms[i + 1]
        # each form meets exactly one oracle code and each oracle code one form
        assert len(set(forms)) == len({form for form, _ in forms}) == len({code for _, code in forms})
        assert sum(forms[i] == forms[i + 2] for i in range(0, len(forms), 3)) > 0


def rooted_code(ma, root, keys):
    """The breadth-first numbering from ``root``: its order key (the numbers
    of each dart's sigma- and alpha-images in turn, then the keys) and its
    flat code (the sigma-images, the alpha-images, the keys)."""
    succ = ma.sigma
    num = {root: 0}
    order = [root]
    for d in order:
        for e in (succ[d], d ^ 1):
            if e not in num:
                num[e] = len(order)
                order.append(e)
    sigma_code = [num[succ[d]] for d in order]
    alpha_code = [num[d ^ 1] for d in order]
    key_code = [keys[d] for d in order]
    interleaved = [x for pair in zip(sigma_code, alpha_code) for x in pair]
    return (interleaved, key_code), tuple(sigma_code + alpha_code + key_code)


def test_canonical_form_is_the_least_full_code_on_maps_without_automorphisms():
    # where the 2E rooted codes are pairwise distinct the map has no
    # automorphism, so no root is pruned: the form is the least code over the
    # roots of the least (size, key) class, each coded in full
    checked = 0
    for ds in deformed_outputs(40) + [build_surface(1, [3, 2], {1, 2}), build_one_cone(1, 4, 3)]:
        ma, weights, levels = ds.angulation, ds.grid.weights, ds.grid.levels
        degree = [len(row) for row in ma.darts]
        keys = [
            (weights[d >> 1], levels[f], d & 1, degree[ma.vertex_of_dart(d)], ma.face_degree(f))
            for d, f in enumerate(ma.face_of_dart)
        ]
        codes = [rooted_code(ma, root, keys) for root in range(len(ma.sigma))]
        if len({code for _, code in codes}) < len(codes):
            continue
        checked += 1
        _, least = min((size, key) for key, size in Counter(keys).items())
        roots = [root for root, key in enumerate(keys) if key == least]
        assert ma.canonical_form(weights, levels) == min(codes[root] for root in roots)[1]
    assert checked >= 20


class CountingList(list):
    """A list that counts its item reads."""

    reads = 0

    def __getitem__(self, i):
        CountingList.reads += 1
        return list.__getitem__(self, i)


def test_canonical_form_codes_two_roots_on_the_symmetric_ladder():
    # the ladder's 2000-fold symmetry keeps its weights and levels, so every
    # root of the least class ties the best code; each root coded in full
    # reads sigma twice per dart.  The first tie joins the whole class into
    # one orbit, so two roots are coded; a third would mean that the orbit's
    # mark was lost when the union-find moved its root
    ds = build_surface(0, [3] * 2000, range(1, 2001))
    ma = ds.angulation
    rng = random.Random(24)
    copy, weights, levels = relabeled(ma, ds.weights, ds.face_levels, rng)
    copy_grid = DataSet(copy, ds.k0, ds.ratio, weights, levels).grid
    expected = [copy.canonical_form(copy_grid.weights, copy_grid.levels), copy.canonical_form()]
    ma.sigma = CountingList(ma.sigma)
    for args, form in zip([(ds.grid.weights, ds.grid.levels), ()], expected):
        CountingList.reads = 0
        assert ma.canonical_form(*args) == form
        assert 0 < CountingList.reads <= 2 * 2 * len(ma.sigma)
