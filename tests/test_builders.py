import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as F
from math import gcd
from typing import Sequence

import networkx as nx
import pytest

from hcmu import builders
from hcmu.angulation import BLACK, WHITE, MapBuilder, MixedAngulation
from hcmu.balance import solve_tree
from hcmu.builders import (
    MAX_ARCS,
    WeightedTree,
    build_coprime_tree,
    build_one_cone,
    build_surface,
    build_tree,
    canonical_angulation,
    subdivide_face,
    tree_angulation,
)
from hcmu.constraints import check_refined, invariants_m_a, one_cone_admissible
from hcmu.dataset import census, realized_angle_vector
from hcmu.errors import (
    AssertionFailure,
    BadOrder,
    BadOrderVector,
    EmptySpace,
    Inadmissible,
    Incompatible,
    Infeasible,
    NotBipartite,
    NotCoprime,
    TooLarge,
)
from hcmu.deformations import split, twist
from hcmu.serialization import dumps, load_document, save


# -- oracle: trees by exhaustive enumeration -------------------------------------


def brute_force_trees(p: int, q: int, max_nodes: int = 12):
    """All solvable bi-colored trees with p black / q white nodes, up to
    color-preserving isomorphism.  Enumeration oracle for small sizes."""
    if max_nodes > 12:
        raise ValueError("max_nodes capped at 12")
    if p + q > max_nodes:
        raise ValueError(f"p + q = {p + q} > max_nodes = {max_nodes}")
    out = []
    for g in nx.nonisomorphic_trees(p + q):
        parts = nx.bipartite.color(g)
        side0 = [v for v in g if parts[v] == 0]
        side1 = [v for v in g if parts[v] == 1]
        for blacks, whites in ((side0, side1), (side1, side0)):
            if len(blacks) != p or len(whites) != q:
                continue
            bmap = {v: i for i, v in enumerate(sorted(blacks))}
            wmap = {v: i for i, v in enumerate(sorted(whites))}
            edges = tuple(
                sorted(
                    (bmap[u], wmap[v]) if u in bmap else (bmap[v], wmap[u])
                    for u, v in g.edges()
                )
            )
            try:
                weights = solve_tree(tree_angulation(p, q, edges), p, q)
            except Infeasible:  # no positive weights on this tree
                continue
            out.append(WeightedTree(p, q, edges, tuple(weights)))
    return out


def test_canonical_counts():
    for g in range(4):
        ma = canonical_angulation(g)
        assert ma.num_vertices == 2
        assert ma.num_arcs == 2 * g + 1
        assert ma.num_faces == 1
        assert ma.face_degree(0) == 4 * g + 2
        assert ma.genus == g


# -- a 2K-gon subdivided on its own, the lemma behind build_surface's faces ------


@dataclass
class PolygonFragment:
    """A subdivided 2K-gon, modeled as a sphere map with an outer face."""

    angulation: MixedAngulation
    outer_dart: int
    boundary: tuple  # boundary vertex ids, alternating colors
    diagonals: tuple
    leaves: tuple  # (vertex id, arc id) of the added black leaves


def subdivide_polygon(K: int, w: Sequence[int]) -> PolygonFragment:
    """Subdivide a 2K-gon into faces of degrees w[i] + 2.

    The polygon is modeled as the 2K-cycle on the sphere with the outer face
    left untouched.  Requires 2L := sum(w) - (2K - 2) >= 0; the subdivision
    adds len(w) - 1 diagonal arcs, L interior black vertices and L
    self-folded arcs.
    """
    if K < 1:
        raise Incompatible("K must be >= 1")
    wl = [int(x) for x in w]
    for x in wl:
        if x < 2 or x % 2 != 0:
            raise BadOrderVector(f"order {x} must be even and >= 2")
    if sum(wl) < 2 * K - 2:
        raise Incompatible(f"2L = {sum(wl) - (2 * K - 2)} < 0")
    colors = [BLACK if i % 2 == 0 else WHITE for i in range(2 * K)]
    if K == 1:
        arcs = [[0, 1], [0, 1]]
        rows = [[0, 2], [1, 3]]
    else:
        arcs = []
        for i in range(2 * K):
            u, v = i, (i + 1) % (2 * K)
            arcs.append([u, v] if u % 2 == 0 else [v, u])
        # the arcs v and v - 1 meet at v, black at even v, white at odd
        rows = [[2 * v + v % 2, 2 * ((v - 1) % (2 * K)) + v % 2] for v in range(2 * K)]
    b = MapBuilder(colors, arcs, rows)
    inner = 0
    inner_walk = set(b.face_walk_of_dart(inner))
    outer = min(d for d in range(2 * len(b.arcs)) if d not in inner_walk)
    cycle_arcs = len(b.arcs)
    subdivide_face(b, inner, wl)
    rows = []
    for f in b.first:  # each row read back along sigma^-1 from its first dart
        back = [f]
        while b.sigma_inv[back[-1]] != f:
            back.append(b.sigma_inv[back[-1]])
        rows.append(back[:1] + back[:0:-1])
    # not b.freeze(): the outer face of K = 1 is a bigon
    ma = MixedAngulation(b.colors, b.arcs, rows, _allow_degenerate=True)
    # the added vertices are the leaves, each with one arc; the other added arcs are diagonals
    leaves = tuple((v, ma.darts[v][0] >> 1) for v in range(2 * K, ma.num_vertices))
    return PolygonFragment(
        angulation=ma,
        outer_dart=outer,
        boundary=tuple(range(2 * K)),
        diagonals=tuple(sorted(set(range(cycle_arcs, ma.num_arcs)) - {a for _, a in leaves})),
        leaves=leaves,
    )


@pytest.mark.parametrize(
    "g, w, error, message",
    [
        (1, [3], BadOrderVector, "order 3 must be even and >= 2"),
        (1, [4, 0], BadOrderVector, "order 0 must be even and >= 2"),
        (1, [2], Incompatible, "orders [2] do not fit a face of degree 6"),
        (2, [2, 2, 2], Incompatible, "orders [2, 2, 2] do not fit a face of degree 10"),
        (1, [], Incompatible, "orders [] do not fit a face of degree 6"),
        (0, [], Incompatible, "orders [] do not fit a face of degree 2"),
    ],
)
def test_subdivide_face_refusals(g, w, error, message):
    ma = canonical_angulation(g)
    with pytest.raises(error) as caught:
        subdivide_face(MapBuilder(ma.colors, ma.arcs, ma.darts), 0, w)
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize("dart", [-1, -2, 6, 99, True, 1.0, (0, "b"), None])
def test_subdivide_face_refuses_a_dart_outside_the_map(dart):
    # the canonical g = 1 map has the darts 0 .. 5; sigma_inv[-2] would walk forever
    ma = canonical_angulation(1)
    with pytest.raises(NotBipartite) as caught:
        subdivide_face(MapBuilder(ma.colors, ma.arcs, ma.darts), dart, [4])
    assert type(caught.value) is NotBipartite and str(caught.value) == f"malformed dart {dart!r}"


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 2], [1, 3, 5]],
        [[0, 2, 4, 2], [1, 3, 5]],
        [[0, 2, -2], [1, 3, 5]],
        [[0, 2, 4, 6], [1, 3, 5]],
        [[0, 2, 4], [1, 3]],
        [[0, 2, 4], [1, 3, 5], []],
    ],
)
def test_the_builder_refuses_rows_that_do_not_list_each_dart_once(rows):
    # a missing, repeated or negative dart leaves sigma^-1 no permutation, and a face walk would never end
    with pytest.raises(NotBipartite) as caught:
        MapBuilder([BLACK, WHITE, BLACK][: len(rows)], [(0, 1)] * 3, rows)
    message = "the rotation rows do not list each dart once, in non-empty rows"
    assert type(caught.value) is NotBipartite and str(caught.value) == message


@pytest.mark.parametrize("p, q", [(3, 3), (2, 5), (3, 0)])
def test_build_tree_refuses_p_not_above_q(p, q):
    with pytest.raises(BadOrder) as caught:
        build_tree(p, q)
    assert type(caught.value) is BadOrder and str(caught.value) == f"need p > q >= 1, got ({p}, {q})"


def test_subdivide_polygon_example():
    frag = subdivide_polygon(3, [2, 4, 4])
    assert len(frag.diagonals) == 2
    assert len(frag.leaves) == 3  # L = (sum(w) - (2K - 2)) / 2
    degrees = sorted(len(w) for w in frag.angulation.faces)
    assert degrees == [4, 6, 6, 6]  # three inner faces plus the outer 2K-gon


def test_subdivide_polygon_base_case():
    frag = subdivide_polygon(1, [2])
    assert len(frag.diagonals) == 0
    assert len(frag.leaves) == 1
    assert sorted(len(w) for w in frag.angulation.faces) == [2, 4]


def test_subdivide_polygon_bare_quadrilateral():
    frag = subdivide_polygon(2, [2])
    assert len(frag.diagonals) == 0 and len(frag.leaves) == 0
    assert sorted(len(w) for w in frag.angulation.faces) == [4, 4]


def test_subdivide_polygon_incompatible():
    with pytest.raises(Incompatible):
        subdivide_polygon(3, [2])  # 2L = 2 - 4 < 0


def pad_leaf_by_leaf(builder, walk, count, color):
    """Oracle for the leaf padding: the face walked again for every leaf."""
    anchor = WHITE if color == BLACK else BLACK
    for _ in range(count):
        walk = builders._rooted(builder.face_walk_of_dart(walk[0]))
        t = builders._first_corner_of_color(builder, walk, anchor)
        builder.add_leaf_in_face(walk, t, color)


# 1 to 6 black leaves per face, and the last two cases add 2 white cusp leaves each
PADDING_CASES = [(0, [F(3)] * n, range(1, n + 1)) for n in (4, 9, 16)] + [
    (0, [F(5), F(2), F(2)], {1}),
    (1, [F(6)], {1}),
    (0, [F(7), F(1, 2), F(1, 2)], {1}),
    (2, [F(9)], {1}),
    (1, [F(4), F(3)], {1, 2}),
    (0, [F(4), F(2), F(2), F(1, 3)], {1}),
    (0, [F(4), F(3), F(0), F(0), F(0)], {1, 2}),
    (1, [F(6), F(2), F(0), F(0), F(0)], {1}),
]


def test_leaves_padded_at_one_corner_match_leaf_by_leaf_padding(monkeypatch):
    # a leaf's darts are the largest and go in after walk[t], so the root
    # and the first corner of the other colour stay
    cases = PADDING_CASES
    once = [dumps(save(build_surface(g, alpha, Z))) for g, alpha, Z in cases]
    monkeypatch.setattr(builders, "_pad_with_leaves", pad_leaf_by_leaf)
    assert once == [dumps(save(build_surface(g, alpha, Z))) for g, alpha, Z in cases]


class RowBuilder:
    """Oracle for MapBuilder: the face surgery on mutable rotation lists,
    which finds each anchor with ``list.index`` and inserts with ``list.insert``."""

    def __init__(self, colors=(), arcs=(), rotations=()):
        self.colors = list(colors)
        self.arcs = [list(a) for a in arcs]
        self.rot = [list(r) for r in rotations]

    def add_vertex(self, color: str) -> int:
        self.colors.append(color)
        self.rot.append([])
        return len(self.colors) - 1

    def vertex_of_dart(self, d: int) -> int:
        return self.arcs[d >> 1][d & 1]

    def face_walk_of_dart(self, dart: int):
        """Boundary walk of the face on the left of ``dart``, from ``dart``.

        sigma^-1 of a dart is the entry before it in its vertex's rotation
        list, so the walk reads only the rotations of the vertices it visits.
        """
        walk = []
        d = dart
        while True:
            walk.append(d)
            rot = self.rot[self.vertex_of_dart(d ^ 1)]
            d = rot[rot.index(d ^ 1) - 1]
            if d == dart:
                return tuple(walk)

    def _insert_before(self, v: int, anchor: int, new: int):
        self.rot[v].insert(self.rot[v].index(anchor), new)

    def add_arc_in_face(self, walk, i: int, j: int) -> int:
        """Add an arc between corner ``i`` and corner ``j`` of a face walk.

        Corner ``t`` sits at the head of side ``walk[t]``.  The two corner
        vertices must carry opposite colors; the face splits in two.
        """
        u = self.vertex_of_dart(walk[i] ^ 1)
        w = self.vertex_of_dart(walk[j] ^ 1)
        if self.colors[u] == self.colors[w]:
            raise NotBipartite("diagonal endpoints have equal colors")
        if self.colors[u] == WHITE:
            u, w, i, j = w, u, j, i
        arc = len(self.arcs)
        self.arcs.append([u, w])
        self._insert_before(u, walk[i] ^ 1, 2 * arc)
        self._insert_before(w, walk[j] ^ 1, 2 * arc + 1)
        return arc

    def add_leaf_in_face(self, walk, i: int, leaf_color: str) -> tuple[int, int]:
        """Attach a new degree-1 vertex by a self-folded arc at corner ``i``.

        Returns (new vertex id, new arc id); the face degree grows by 2.
        """
        u = self.vertex_of_dart(walk[i] ^ 1)
        if self.colors[u] == leaf_color:
            raise NotBipartite("leaf color equals its anchor color")
        z = self.add_vertex(leaf_color)
        arc = len(self.arcs)
        leaf = 2 * arc + (leaf_color == WHITE)  # the new arc's dart at z
        self.arcs.append([u, z] if leaf & 1 else [z, u])
        self._insert_before(u, walk[i] ^ 1, leaf ^ 1)
        self.rot[z] = [leaf]
        return z, arc

    def freeze(self) -> MixedAngulation:
        return MixedAngulation(self.colors, self.arcs, self.rot)


def test_the_sigma_inverse_builder_writes_the_bytes_of_the_row_list_builder(monkeypatch):
    # each splice before a row's first dart must make the new dart first, as
    # list.insert does; the hub vertex of the 4000-cusp build takes 8190 arcs
    cases = [(0, [F(3)] * n, range(1, n + 1)) for n in range(4, 65)] + PADDING_CASES
    cases += [(50, [F(3)] * 100, range(1, 101)), (0, [F(8190)] + [F(0)] * 4000, {1})]
    spliced = [dumps(save(build_surface(g, alpha, Z))) for g, alpha, Z in cases]
    monkeypatch.setattr(builders, "MapBuilder", RowBuilder)
    assert spliced == [dumps(save(build_surface(g, alpha, Z))) for g, alpha, Z in cases]


@pytest.fixture
def walked(monkeypatch):
    """The number of darts that MapBuilder.face_walk_of_dart returns, in [0]."""
    count = [0]
    walk = MapBuilder.face_walk_of_dart

    def counted(self, dart):
        out = walk(self, dart)
        count[0] += len(out)
        return out

    monkeypatch.setattr(MapBuilder, "face_walk_of_dart", counted)
    return count


def test_build_surface_walks_its_darts_at_most_twice(walked):
    # one walk for the cusp leaves and one for the subdivision, each of at
    # most 2E darts; a walk per order or per leaf grows with their number
    rng = random.Random(19)
    cases = [(300, [F(3)] * 600, range(1, 601)), (0, [F(410)] + [F(0)] * 200, {1})]
    while len(cases) < 60:
        g = rng.randint(0, 3)
        saddles = [F(rng.randint(2, 3 + g)) for _ in range(rng.randint(1, 4))]
        alpha = saddles + [F(rng.choice([2, 3])), F(rng.choice([1, 2, 4, 5]), 3)] + [F(0)] * rng.choice([0, 1, 2])
        if check_refined(g, alpha, range(1, len(saddles) + 1)):
            cases.append((g, alpha, range(1, len(saddles) + 1)))
    for g, alpha, Z in cases:
        walked[0] = 0
        darts = 2 * build_surface(g, alpha, Z).angulation.num_arcs
        assert walked[0] <= 2 * darts, (g, alpha)


def test_build_one_cone_walks_no_face(walked):
    # trees (g = 0), a tree merged into the canonical angulation, and stars
    # with handles in closed form
    for g, p, q in [(0, 7, 3), (0, 9, 6), (1, 4, 3), (3, 9, 6), (2, 6, 2), (3, 8, 4), (40, 6, 3)]:
        build_one_cone(g, p, q)
    assert walked[0] == 0


@pytest.fixture
def constructed(monkeypatch):
    """The number of MixedAngulation constructions, in [0]."""
    count = [0]
    init = MixedAngulation.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(MixedAngulation, "__init__", counted)
    return count


def test_every_construction_builds_one_map(constructed):
    # a builder writes its rows and validates them once; it does not build
    # the canonical angulation first and copy it
    def once(make, *args):
        constructed[0] = 0
        out = make(*args)
        assert constructed[0] == 1, (make.__name__, args)
        return out

    rng = random.Random(22)
    cases = [(0, [F(3)] * n, range(1, n + 1)) for n in range(4, 65, 6)]
    while len(cases) < 60:
        g = rng.randint(0, 3)
        saddles = [F(rng.randint(2, 3 + g)) for _ in range(rng.randint(1, 4))]
        alpha = saddles + [F(rng.choice([2, 3])), F(rng.choice([1, 2, 4, 5]), 3)] + [F(0)] * rng.choice([0, 1, 3])
        if check_refined(g, alpha, range(1, len(saddles) + 1)):
            cases.append((g, alpha, range(1, len(saddles) + 1)))
    assert any(F(0) in alpha for _, alpha, _ in cases)
    for g, alpha, Z in cases:
        once(build_surface, g, alpha, Z)
    # trees (g = 0), a tree merged into the canonical angulation, and stars
    for g, p, q in [(0, 7, 3), (0, 9, 6), (1, 4, 3), (2, 7, 1), (3, 9, 6), (2, 6, 2), (3, 8, 4)]:
        once(build_one_cone, g, p, q)
    ds = build_surface(0, [2, 3], {1}, level=F(2, 5))
    once(twist, ds, F(7, 10), 0, F(1, 3))
    black3 = next(v for v in range(ds.angulation.num_vertices) if ds.vertex_angle(v) == 3)
    once(split, ds, black3, F(1, 3), F(3, 4))
    once(load_document, save(ds))


def test_ladder_of_1200_saddles_builds():
    ds = build_surface(0, [F(3)] * 1200, range(1, 1201))
    ma = ds.angulation
    assert (ma.genus, ma.num_faces, ma.num_arcs) == (0, 1200, 3600)
    assert {ma.face_degree(f) for f in range(ma.num_faces)} == {6}


def test_one_cone_with_a_thousand_handles_builds():
    ds = build_one_cone(1000, 4, 2)
    ma = ds.angulation
    assert (ma.genus, ma.num_faces, ma.face_degree(0)) == (1000, 1, 2 * 2005)


def test_build_surface_calabi_prescription():
    ds = build_surface(0, [2, 2, 2], {1, 2, 3})
    ma = ds.angulation
    blacks = sum(1 for c in ma.colors if c == BLACK)
    assert (blacks, ma.num_vertices - blacks) == (4, 1)
    assert ma.num_arcs == 6
    assert sorted(ma.face_degree(f) for f in range(3)) == [4, 4, 4]
    assert ds.ratio == F(1, 4)
    assert ma.num_vertices - ma.num_arcs + ma.num_faces == 2


def test_build_surface_genus_one():
    ds = build_surface(1, [4], {1})
    ma = ds.angulation
    assert (ma.num_vertices, ma.num_arcs, ma.num_faces) == (3, 4, 1)
    assert ma.face_degree(0) == 8
    assert ma.genus == 1


def test_build_surface_cusp_case():
    ds = build_surface(0, [3, 0], {1})
    ma = ds.angulation
    blacks = sum(1 for c in ma.colors if c == BLACK)
    assert (blacks, ma.num_vertices - blacks, ma.num_arcs) == (3, 1, 3)
    assert ma.face_degree(0) == 6
    assert ds.ratio == 0
    assert realized_angle_vector(ds) == [("minimum", F(0)), ("saddle", F(3))]


def test_build_surface_realizes_prescription():
    cases = [
        (0, [2, 3], {1}),
        (0, [2, 3], {1, 2}),
        (1, [3, 2, 5], {1}),
        (2, [7], {1}),
        (0, [2, 2, 0], {1, 2}),
        (1, [4, 0, 0], {1}),
        (0, [6, F(1, 2)], {1}),
    ]
    for g, alpha, Z in cases:
        ds = build_surface(g, alpha, Z)
        ma = ds.angulation
        m, a, b = invariants_m_a(g, alpha, Z)
        cs = census(ds)
        assert ma.genus == g
        assert cs.m == m and cs.a == a and cs.b == b
        assert ma.num_arcs == b
        assert ma.num_faces == len(Z)
        # every prescribed angle appears among the realized cone points
        realized = [ang for _, ang in realized_angle_vector(ds)]
        from hcmu.constraints import AngleVector

        want = [x for x in AngleVector(alpha).entries]
        assert sorted(realized) == sorted(want)


def test_build_surface_empty_space():
    with pytest.raises(EmptySpace):
        build_surface(1, [2], {1})


def test_refined_existence_matches_builder_feasibility():
    """Over a grid of prescriptions and every nonempty saddle subset, the
    builder must produce a validating witness; on empty subsets it must
    refuse.  Exercises all four construction branches."""
    from itertools import combinations

    from hcmu.constraints import AngleVector

    vectors = [
        [2], [3], [2, 2], [2, 3], [4, 2], [2, 2, 2], [3, F(1, 2)],
        [3, 2, 5], [2, F(1, 2)], [2, 3, 0], [3, 0, 0], [2, 2, F(5, 2)],
        [5, 4], [2, F(1, 3), F(1, 5)],
    ]
    built = refused = 0
    cases = set()
    for g in range(3):
        for vec in vectors:
            av = AngleVector(vec)
            for r in range(1, av.k + 1):
                for z in combinations(range(1, av.k + 1), r):
                    Z = frozenset(z)
                    res = check_refined(g, av, Z)
                    if res:
                        ds = build_surface(g, av, Z)
                        cases.add(res.case)
                        m, a, b = invariants_m_a(g, av, Z)
                        cs = census(ds)
                        assert (cs.m, cs.a, cs.b) == (m, a, b)
                        built += 1
                    else:
                        with pytest.raises(EmptySpace):
                            build_surface(g, av, Z)
                        refused += 1
    assert cases == {"A.1", "A.2", "A.3", "B"}
    assert built > 50 and refused > 20


def test_coprime_tree_traces():
    t = build_coprime_tree(7, 3)
    assert t.edges == ((0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (4, 1), (4, 2), (5, 2), (6, 2))
    assert t.weights == (3, 3, 1, 2, 3, 2, 1, 3, 3)
    assert build_coprime_tree(2, 1).weights == (1, 1)
    t32 = build_coprime_tree(3, 2)
    assert t32.edges == ((0, 0), (1, 0), (1, 1), (2, 1))
    assert t32.weights == (2, 1, 1, 2)


def test_coprime_tree_is_unique_solution():
    for p, q in [(7, 3), (5, 2), (4, 3), (9, 2)]:
        t = build_coprime_tree(p, q)
        assert solve_tree(t.as_angulation(), p, q) == t.weights


def test_coprime_rejects():
    with pytest.raises(NotCoprime):
        build_coprime_tree(6, 3)
    with pytest.raises(BadOrder):
        build_coprime_tree(3, 7)


def test_build_tree_non_coprime():
    t = build_tree(14, 6)
    assert len({b for b, _ in t.edges}) == 14
    assert len({w for _, w in t.edges}) == 6
    assert len(t.edges) == 19
    assert all(w % 2 == 0 for w in t.weights)
    assert solve_tree(t.as_angulation(), 14, 6) == t.weights


@pytest.mark.parametrize(
    "edges, weights, message",
    [
        (None, None, "tree vertex 0 has weight sum 3, expected 2"),
        # balanced, but the edge between x0 and y0 is forced to -1
        (((0, 0), (0, 1), (1, 0), (2, 0)), (-1, 3, 2, 2), "tree weight -1 is not positive"),
    ],
)
def test_build_tree_refuses_weights_that_do_not_balance(monkeypatch, edges, weights, message):
    def corrupted(p, q):
        t = build_coprime_tree(p, q)
        if edges is None:
            return WeightedTree(p, q, t.edges, (t.weights[0] + 1,) + t.weights[1:])
        return WeightedTree(p, q, edges, weights)

    monkeypatch.setattr(builders, "build_coprime_tree", corrupted)
    with pytest.raises(AssertionFailure, match=message):
        build_tree(3, 2)
    if edges is None:  # gcd(6, 4) = 2 chains two copies of the corrupted staircase
        with pytest.raises(AssertionFailure, match="weight sum"):
            build_tree(6, 4)


def test_build_tree_inadmissible():
    with pytest.raises(Inadmissible):
        build_tree(4, 2)


def test_build_tree_star():
    t = build_tree(5, 1)
    assert t.weights == (1, 1, 1, 1, 1)
    assert len({w for _, w in t.edges}) == 1


# -- oracle: tree weights by cuts ------------------------------------------------


def cut_weights(p: int, q: int, edges):
    """The weights that balance a bi-colored tree (every black sum q, every
    white sum p), one per edge, read off its cut.

    Removing edge e leaves b blacks and w whites on the side of its black
    end.  Those blacks need b * q, and every other edge on that side meets
    one of the w whites, which need w * p, so e carries b * q - w * p.  The
    tree has positive balanced weights iff every value is positive.  One
    rooted pass counts the sides, so the oracle has no size cap.
    """
    adj = [[] for _ in range(p + q)]  # blacks 0..p-1, whites p..p+q-1
    for e, (bk, wh) in enumerate(edges):
        adj[bk].append((e, p + wh))
        adj[p + wh].append((e, bk))
    order, up = [0], {0: None}  # up: vertex -> (edge to its parent, parent)
    for v in order:
        for e, u in adj[v]:
            if u not in up:
                up[u] = (e, v)
                order.append(u)
    assert len(order) == p + q == len(edges) + 1, "not a spanning tree"
    blacks = [int(v < p) for v in range(p + q)]  # per vertex, its subtree's counts
    whites = [int(v >= p) for v in range(p + q)]
    weights = [None] * len(edges)
    for v in reversed(order[1:]):
        e, parent = up[v]
        b, w = blacks[v], whites[v]
        if v >= p:  # the subtree hangs at the white end; the black side is the rest
            b, w = p - b, q - w
        weights[e] = b * q - w * p
        blacks[parent] += blacks[v]
        whites[parent] += whites[v]
    return tuple(weights)


def test_cut_weights_agree_with_the_tree_solve():
    solvable = infeasible = 0
    for n in range(2, 13):
        for g in nx.nonisomorphic_trees(n):
            parts = nx.bipartite.color(g)
            for side in (0, 1):
                bmap = {v: i for i, v in enumerate(sorted(v for v in g if parts[v] == side))}
                wmap = {v: i for i, v in enumerate(sorted(v for v in g if parts[v] != side))}
                p, q = len(bmap), len(wmap)
                edges = [(bmap[u], wmap[v]) if u in bmap else (bmap[v], wmap[u]) for u, v in g.edges()]
                cut = cut_weights(p, q, edges)
                try:
                    assert solve_tree(tree_angulation(p, q, edges), p, q) == cut
                    solvable += 1
                except Infeasible:
                    assert min(cut) <= 0
                    infeasible += 1
    assert (solvable, infeasible) == (76, 1896)  # both colorings of every tree on 2..12 vertices


def test_every_build_tree_matches_its_cut_weights():
    pairs = [(p, q) for p in range(2, 61) for q in range(1, p) if q == 1 or p % q]
    for p, q in pairs + [(4095, 2730)]:
        t = build_tree(p, q)
        assert (t.p, t.q, len(t.edges)) == (p, q, p + q - 1)
        cut = cut_weights(p, q, t.edges)
        assert min(cut) > 0 and cut == t.weights, (p, q)


def test_the_coprime_staircase_splits_at_its_first_degree_two_black():
    # build_tree copies the two sides of this black by index range, and
    # replaces the pendant black on the last edge
    for p in range(3, 61):
        for q in range(2, p):
            if gcd(p, q) != 1:
                continue
            t = build_coprime_tree(p, q)
            degree = Counter(bk for bk, _ in t.edges)
            x = min(bk for bk, d in degree.items() if d == 2)
            k = next(i for i, (bk, _) in enumerate(t.edges) if bk == x)
            assert t.edges[k + 1][0] == x
            tree = nx.Graph(((BLACK, bk), (WHITE, wh)) for bk, wh in t.edges)
            tree.remove_node((BLACK, x))
            for i in (k, k + 1):
                side = nx.node_connected_component(tree, (WHITE, t.edges[i][1]))
                span = t.edges[:k] if i == k else t.edges[k + 2 :]
                assert side == {(BLACK, bk) for bk, _ in span} | {(WHITE, wh) for _, wh in span} | {
                    (WHITE, t.edges[i][1])
                }
            assert degree[t.edges[-1][0]] == 1 and t.weights[-1] == q


def test_every_admissible_one_cone_triple_builds():
    built = 0
    for g in range(3):
        for p in range(2, 31):
            for q in range(1, p):
                alpha = p + q + 2 * g - 1
                if not one_cone_admissible(g, alpha, p, q):
                    continue
                ds = build_one_cone(g, p, q)
                ma = ds.angulation
                assert (ma.genus, ma.num_faces, ma.face_degree(0)) == (g, 1, 2 * alpha)
                cs = census(ds)
                assert (cs.p, cs.q, cs.m_plus, cs.m_minus) == (p, q, p, q)
                built += gcd(p, q) >= 3
    assert built > 100  # triples with a common factor of three or more


def test_one_cone_seven_three():
    ds = build_one_cone(0, 7, 3)
    cs = census(ds)
    assert (cs.p, cs.q, cs.m_plus, cs.m_minus) == (7, 3, 7, 3)
    assert ds.ratio == F(3, 7)
    assert realized_angle_vector(ds) == [("saddle", F(9))]
    # genus 0 single-cone graphs are trees
    ma = ds.angulation
    assert ma.num_arcs == ma.num_vertices - 1


def test_one_cone_positive_genus_examples():
    ds = build_one_cone(1, 4, 3)
    assert ds.angulation.num_arcs == 8
    assert ds.angulation.face_degree(0) == 16
    ds = build_one_cone(2, 6, 2)
    assert ds.angulation.face_degree(0) == 22  # alpha = 11
    assert census(ds).as_tuple() == (6, 2, 6, 2, 8, 11)


def test_one_cone_inadmissible():
    with pytest.raises(Inadmissible):
        build_one_cone(0, 4, 2)


def test_builders_refuse_maps_over_the_size_limit():
    # alpha = p + q + 2g - 1 arcs: MAX_ARCS builds, one more is refused before any map is made
    assert build_one_cone(4000, 100, 93).angulation.num_arcs == MAX_ARCS
    with pytest.raises(TooLarge, match=f"would have {MAX_ARCS + 1} arcs; a builder makes at most {MAX_ARCS}"):
        build_one_cone(4000, 101, 93)
    with pytest.raises(TooLarge, match="would have 20002 arcs"):
        build_surface(10000, [20002], {1})


def test_brute_force_tree_oracle():
    assert len(brute_force_trees(7, 3)) >= 2
    assert brute_force_trees(4, 2) == []
    stars = brute_force_trees(6, 1)
    assert len(stars) == 1 and stars[0].weights == (1,) * 6


def test_brute_force_agrees_with_admissibility():
    for p in range(2, 8):
        for q in range(1, p):
            if p + q > 9:
                continue
            alpha = p + q - 1
            solvable = bool(brute_force_trees(p, q))
            assert solvable == one_cone_admissible(0, alpha, p, q), (p, q)
