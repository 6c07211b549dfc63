from fractions import Fraction as F

import networkx as nx
import pytest

from hcmu.angulation import BLACK
from hcmu.balance import solve_tree
from hcmu.builders import (
    WeightedTree,
    build_coprime_tree,
    build_one_cone,
    build_surface,
    build_tree,
    canonical_angulation,
    subdivide_polygon,
    tree_angulation,
)
from hcmu.constraints import check_refined, invariants_m_a, one_cone_admissible
from hcmu.dataset import census, realized_angle_vector, validate_dataset
from hcmu.errors import (
    BadOrder,
    EmptySpace,
    Inadmissible,
    Incompatible,
    Infeasible,
    NotCoprime,
)


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


def test_build_surface_calabi_prescription():
    ds = build_surface(0, [2, 2, 2], {1, 2, 3})
    ma = ds.angulation
    blacks = sum(1 for c in ma.colors if c == BLACK)
    assert (blacks, ma.num_vertices - blacks) == (4, 1)
    assert ma.num_arcs == 6
    assert sorted(ma.face_degree(f) for f in range(3)) == [4, 4, 4]
    assert ds.ratio == F(1, 4)
    assert ma.num_vertices - ma.num_arcs + ma.num_faces == 2
    assert validate_dataset(ds) == []


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
                        assert validate_dataset(ds) == []
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


def test_build_tree_inadmissible():
    with pytest.raises(Inadmissible):
        build_tree(4, 2)


def test_build_tree_star():
    t = build_tree(5, 1)
    assert t.weights == (1, 1, 1, 1, 1)
    assert len({w for _, w in t.edges}) == 1


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
