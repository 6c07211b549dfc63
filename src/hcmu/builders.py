"""Constructive realizations: canonical angulations, polygon subdivision,
existence witnesses, and all single-cone constructions.

Every builder returns a validated :class:`~hcmu.dataset.DataSet` (or a
weighted tree for the tree constructions) realizing the prescribed genus and
cone angles.  Free continuous parameters default to K0 = 1 and all face
levels 1/2.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .angulation import BLACK, WHITE, MapBuilder, MixedAngulation, opposite
from .balance import solve_tree
from .constraints import (
    as_angle_vector,
    check_refined,
    invariants_m_a,
    one_cone_admissible,
)
from .dataset import DataSet
from .errors import (
    BadOrder,
    BadOrderVector,
    EmptySpace,
    Inadmissible,
    Incompatible,
    NotCoprime,
)

DEFAULT_LEVEL = Fraction(1, 2)


def canonical_angulation(g: int) -> MixedAngulation:
    """One black and one white vertex joined by 2g+1 arcs, a single face.

    For g >= 1 this is the quotient of the regular (4g+2)-gon with opposite
    sides identified; the face has degree 4g+2.  For g = 0 it degenerates to
    a single arc whose complement is a bigon, usable only as an intermediate
    fragment.
    """
    n = 2 * g + 1
    arcs = [(0, 1)] * n
    rot_b = [(a, "b") for a in range(n)]
    rot_w = [(a, "w") for a in range(n)]
    return MixedAngulation(
        [BLACK, WHITE], arcs, [rot_b, rot_w], _allow_degenerate=(g == 0)
    )


# -- polygon subdivision -------------------------------------------------------


def _rooted_walk(builder: MapBuilder, member_dart):
    """Walk of the face containing ``member_dart``, rooted at its minimal
    dart for determinism."""
    walk = builder.face_walk_of_dart(member_dart)
    k = walk.index(min(walk))
    return walk[k:] + walk[:k]


def _first_corner_of_color(builder, walk, color):
    for t in range(len(walk)):
        v = builder.vertex_of_dart(opposite(walk[t]))
        if builder.colors[v] == color:
            return t
    raise BadOrderVector(f"no {color} corner on the face walk")


@dataclass
class SubdivisionStats:
    diagonals: list
    leaves: list  # (vertex id, arc id)


def subdivide_face(builder: MapBuilder, inside_dart, w: Sequence[int]) -> SubdivisionStats:
    """Subdivide the face containing ``inside_dart`` into faces of degrees
    w[i] + 2 by adding diagonals, interior black leaves and self-folded arcs.

    Induction: if w[0] + 2 < deg, a diagonal cuts off a (w[0]+2)-gon along
    w[0]+1 successive sides; otherwise a diagonal between adjacent corners
    splits off a bigon, the big part is padded with black leaves up to degree
    w[0]+2, and the remaining orders recurse into the bigon.
    """
    w = [int(x) for x in w]
    for x in w:
        if x < 2 or x % 2 != 0:
            raise BadOrderVector(f"order {x} must be even and >= 2")
    walk = _rooted_walk(builder, inside_dart)
    if sum(w) < len(walk) - 2:
        raise Incompatible(f"orders {w} do not fit a face of degree {len(walk)}")
    stats = SubdivisionStats([], [])
    _subdivide_rec(builder, walk, list(w), stats)
    return stats


def _pad_with_leaves(builder, member_dart, count, stats):
    for _ in range(count):
        walk = _rooted_walk(builder, member_dart)
        t = _first_corner_of_color(builder, walk, WHITE)
        z, arc = builder.add_leaf_in_face(walk, t, BLACK)
        stats.leaves.append((z, arc))


def _subdivide_rec(builder, walk, w, stats):
    deg = len(walk)
    if len(w) == 1:
        _pad_with_leaves(builder, walk[0], (w[0] + 2 - deg) // 2, stats)
        return
    w0, rest = w[0], w[1:]
    if w0 + 2 < deg:
        # cut off sides walk[0..w0] into a finished (w0+2)-gon
        stats.diagonals.append(builder.add_arc_in_face(walk, deg - 1, w0))
        _subdivide_rec(builder, _rooted_walk(builder, walk[w0 + 1]), rest, stats)
    else:
        # split off a bigon next to walk[0]; pad the big part up to w0+2
        stats.diagonals.append(builder.add_arc_in_face(walk, deg - 1, 0))
        _pad_with_leaves(builder, walk[1], (w0 + 2 - deg) // 2, stats)
        _subdivide_rec(builder, _rooted_walk(builder, walk[0]), rest, stats)


@dataclass
class PolygonFragment:
    """A subdivided 2K-gon, modeled as a sphere map with an outer face."""

    angulation: MixedAngulation
    outer_dart: tuple
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
    b = MapBuilder()
    for i in range(2 * K):
        b.add_vertex(BLACK if i % 2 == 0 else WHITE)
    if K == 1:
        b.arcs = [[0, 1], [0, 1]]
        b.rot = [[(0, "b"), (1, "b")], [(0, "w"), (1, "w")]]
    else:
        for i in range(2 * K):
            u, v = i, (i + 1) % (2 * K)
            b.arcs.append([u, v] if u % 2 == 0 else [v, u])
        for v in range(2 * K):
            end = "b" if v % 2 == 0 else "w"
            b.rot[v] = [(v, end), ((v - 1) % (2 * K), end)]
    inner = (0, "b")
    inner_walk = set(b.face_walk_of_dart(inner))
    outer = min(d for wk in b.trace() for d in wk if d not in inner_walk)
    stats = subdivide_face(b, inner, wl)
    ma = b.freeze(allow_degenerate=True)
    return PolygonFragment(
        angulation=ma,
        outer_dart=outer,
        boundary=tuple(range(2 * K)),
        diagonals=tuple(stats.diagonals),
        leaves=tuple(stats.leaves),
    )


# -- existence witnesses -------------------------------------------------------


def build_surface(g: int, alpha, Z, *, k0=1.0, level=DEFAULT_LEVEL) -> DataSet:
    """A surface realizing genus g, angles alpha, and saddle set Z.

    Subdivides the single face of the canonical angulation into the
    prescribed polygons (adding the extra cusp vertices first when zeros are
    present), then assigns the expected angles, smallest to the unique white
    vertex, and weights every arc by beta(black end) / deg(black end).
    """
    alpha = as_angle_vector(alpha)
    Z = frozenset(Z)
    if not check_refined(g, alpha, Z):
        raise EmptySpace(
            f"no surface with genus {g}, angles {list(alpha)}, Z={sorted(Z)}"
        )
    m, a, b_count = invariants_m_a(g, alpha, Z)
    q = alpha.q_zeros
    w = [2 * int(alpha[i - 1]) - 2 for i in sorted(Z)]

    builder = MapBuilder.from_angulation(canonical_angulation(g))
    inside = (0, "b")
    if q > 0:
        for _ in range(q - 1):
            walk = _rooted_walk(builder, inside)
            t = _first_corner_of_color(builder, walk, BLACK)
            builder.add_leaf_in_face(walk, t, WHITE)
    subdivide_face(builder, inside, w)
    ma = builder.freeze()
    assert ma.genus == g and ma.num_faces == len(w)

    blacks = sorted(v for v in range(ma.num_vertices) if ma.colors[v] == BLACK)
    whites = [v for v in range(ma.num_vertices) if ma.colors[v] == WHITE]
    non_saddle = [
        alpha[i - 1]
        for i in range(1, alpha.n + 1)
        if i not in Z and alpha[i - 1] != 0
    ]
    beta = sorted(non_saddle + [Fraction(1)] * int(m), reverse=True)
    if q > 0:
        assert len(whites) == q and len(blacks) == a - q
        ratio = Fraction(0)
    else:
        assert len(whites) == 1 and len(blacks) == a - 1
        beta_min = beta.pop()  # smallest expected angle goes to the white vertex
        ratio = beta_min / sum(beta)
    assigned = dict(zip(blacks, beta))
    weights = [assigned[bk] / ma.degree(bk) for bk, _ in ma.arcs]
    assert len(weights) == b_count
    return DataSet(ma, k0, ratio, weights, [Fraction(level)] * ma.num_faces)


# -- weighted bi-colored trees ---------------------------------------------


@dataclass(frozen=True)
class WeightedTree:
    """Bi-colored tree whose weights solve the q/p balance system."""

    p: int
    q: int
    edges: tuple  # (black index 0..p-1, white index 0..q-1)
    weights: tuple

    def degree_one_black_with_weight_q(self) -> int:
        """Largest-index degree-1 black vertex whose edge carries weight q."""
        return _pendant_black(self.edges, self.weights, self.q)

    def as_angulation(self) -> MixedAngulation:
        return tree_angulation(self.p, self.q, self.edges)


def tree_angulation(p: int, q: int, edges) -> MixedAngulation:
    """Embed a bi-colored tree with rotations in edge order; any rotation of
    a tree closes up on the sphere."""
    colors = [BLACK] * p + [WHITE] * q
    arcs = [(bk, p + wh) for bk, wh in edges]
    rot = [[] for _ in colors]
    for a, (bk, wh) in enumerate(edges):
        rot[bk].append((a, "b"))
        rot[p + wh].append((a, "w"))
    return MixedAngulation(colors, arcs, rot, _allow_degenerate=True)


def _pendant_black(edges, weights, target):
    deg = {}
    for bk, _ in edges:
        deg[bk] = deg.get(bk, 0) + 1
    for bk in sorted(deg, reverse=True):
        if deg[bk] == 1:
            e = next(i for i, (x, _) in enumerate(edges) if x == bk)
            if weights[e] == target:
                return bk
    raise Inadmissible("no degree-1 black vertex with the pendant weight")


def build_coprime_tree(p: int, q: int) -> WeightedTree:
    """The explicit (p+q-1)-edge tree for coprime p > q >= 1.

    Edge k joins x_{I+1} to y_{J+1} where I, J locate the running weight sum
    between multiples of q and p; its weight is the smaller gap to the next
    multiple.  At the last step both gaps coincide and the minimum is taken.
    """
    if p <= q:
        raise BadOrder(f"need p > q, got ({p}, {q})")
    if q < 1 or gcd(p, q) != 1:
        raise NotCoprime(f"gcd({p}, {q}) != 1")
    edges = [(0, 0)]
    weights = [q]
    total = q
    for _ in range(2, p + q):
        i, j = total // q, total // p
        edges.append((i, j))
        weights.append(min((j + 1) * p - total, (i + 1) * q - total))
        total += weights[-1]
    assert total == p * q
    return WeightedTree(p, q, tuple(edges), tuple(weights))


def _duplicate(edges, weights, qbar):
    """One splitting-and-piecing step; doubles both color classes while the
    balance targets stay at the reduced pair."""
    deg = {}
    inc = {}
    for i, (bk, _) in enumerate(edges):
        deg[bk] = deg.get(bk, 0) + 1
        inc.setdefault(bk, []).append(i)
    x_i = min(bk for bk in deg if deg[bk] == 2)
    e_k, e_k1 = sorted(inc[x_i])
    x_last = _pendant_black(edges, weights, qbar)
    e_last = inc[x_last][0]
    y_last = edges[e_last][1]

    adj = {}
    for i, (bk, wh) in enumerate(edges):
        adj.setdefault(("b", bk), []).append(i)
        adj.setdefault(("w", wh), []).append(i)

    def component(bridge):
        comp, stack = set(), [bridge]
        while stack:
            e = stack.pop()
            if e in comp:
                continue
            comp.add(e)
            bk, wh = edges[e]
            for node in (("b", bk), ("w", wh)):
                if node == ("b", x_i):
                    continue
                stack.extend(adj[node])
        comp.discard(bridge)
        return comp

    comp_plus = component(e_k)
    comp_minus = component(e_k1)

    new_edges = [e for i, e in enumerate(edges) if i != e_last]
    new_weights = [wt for i, wt in enumerate(weights) if i != e_last]
    nb = max(bk for bk, _ in edges) + 1
    x_plus, x_minus = nb, nb + 1
    nb += 2
    nw = max(wh for _, wh in edges) + 1
    new_edges += [(x_plus, y_last), (x_minus, y_last)]
    new_weights += [weights[e_k], weights[e_k1]]

    def paste(comp, bridge, glue_black):
        nonlocal nb, nw
        bmap, wmap = {}, {}

        def mb(bk):
            nonlocal nb
            if bk not in bmap:
                bmap[bk] = nb
                nb += 1
            return bmap[bk]

        def mw(wh):
            nonlocal nw
            if wh not in wmap:
                wmap[wh] = nw
                nw += 1
            return wmap[wh]

        for e in sorted(comp):
            bk, wh = edges[e]
            new_edges.append((mb(bk), mw(wh)))
            new_weights.append(weights[e])
        new_edges.append((glue_black, mw(edges[bridge][1])))
        new_weights.append(weights[bridge])

    paste(comp_minus, e_k1, x_plus)
    paste(comp_plus, e_k, x_minus)

    blacks = {v: i for i, v in enumerate(sorted({bk for bk, _ in new_edges}))}
    whites = {v: i for i, v in enumerate(sorted({wh for _, wh in new_edges}))}
    return (
        tuple((blacks[bk], whites[wh]) for bk, wh in new_edges),
        tuple(new_weights),
    )


def build_tree(p: int, q: int) -> WeightedTree:
    """Weighted bi-colored tree realizing the q/p balance system.

    Exists iff q = 1 or q does not divide p; non-coprime pairs come from the
    reduced tree by gcd-1 duplications followed by scaling the weights.
    """
    if p <= q or q < 1:
        raise BadOrder(f"need p > q >= 1, got ({p}, {q})")
    lam = gcd(p, q)
    if q > 1 and p % q == 0:
        raise Inadmissible(f"q = {q} divides p = {p}")
    if lam == 1:
        return build_coprime_tree(p, q)
    base = build_coprime_tree(p // lam, q // lam)
    edges, weights = base.edges, base.weights
    for _ in range(lam - 1):
        edges, weights = _duplicate(edges, weights, base.q)
    assert len({bk for bk, _ in edges}) == p and len({wh for _, wh in edges}) == q
    return WeightedTree(p, q, edges, tuple(w * lam for w in weights))


# -- single-cone constructions ---------------------------------------------


def build_one_cone(g: int, p: int, q: int, *, k0=1.0, level=DEFAULT_LEVEL) -> DataSet:
    """A genus-g surface whose only singularity is one saddle of angle
    2*pi*(p + q + 2g - 1), with p smooth maxima and q smooth minima."""
    alpha = p + q + 2 * g - 1
    if not one_cone_admissible(g, alpha, p, q):
        raise Inadmissible(f"(g, p, q) = ({g}, {p}, {q}) is not realizable")
    if g == 0:
        ma = build_tree(p, q).as_angulation()
        weights = [Fraction(w, q) for w in solve_tree(ma, p, q)]
        ds = DataSet(ma, k0, Fraction(q, p), weights, [Fraction(level)])
    elif q == 1 or p % q != 0:
        ds = _one_cone_genus_tree(g, p, q, k0, level)
    else:
        ds = _one_cone_genus_stars(g, p, q, k0, level)
    assert ds.angulation.num_faces == 1
    assert ds.angulation.face_degree(0) == 2 * alpha
    return ds


def _one_cone_genus_tree(g, p, q, k0, level):
    """Merge the pruned planar tree into the canonical angulation at its
    white vertex; canonical arcs carry weight q / (2g+1)."""
    tree = build_tree(p, q)
    tree_weights = solve_tree(tree.as_angulation(), p, q)
    x_drop = tree.degree_one_black_with_weight_q()
    e_drop = next(i for i, (bk, _) in enumerate(tree.edges) if bk == x_drop)
    y_glue = tree.edges[e_drop][1]

    n_canon = 2 * g + 1
    builder = MapBuilder.from_angulation(canonical_angulation(g))
    bmap = {
        bk: builder.add_vertex(BLACK) for bk in range(tree.p) if bk != x_drop
    }
    wmap = {y_glue: 1}
    for wh in range(tree.q):
        if wh != y_glue:
            wmap[wh] = builder.add_vertex(WHITE)
    arc_weights = {a: Fraction(q, n_canon) for a in range(n_canon)}
    glue_block = []
    for i, (bk, wh) in enumerate(tree.edges):
        if i == e_drop:
            continue
        a = len(builder.arcs)
        builder.arcs.append([bmap[bk], wmap[wh]])
        arc_weights[a] = Fraction(tree_weights[i])
        builder.rot[bmap[bk]].append((a, "b"))
        if wh == y_glue:
            glue_block.append((a, "w"))
        else:
            builder.rot[wmap[wh]].append((a, "w"))
    rot_y = builder.rot[1]
    builder.rot[1] = rot_y[:1] + glue_block + rot_y[1:]
    ma = builder.freeze()
    assert ma.genus == g and ma.num_faces == 1
    weights = [arc_weights[a] / q for a in range(ma.num_arcs)]
    return DataSet(ma, k0, Fraction(q, p), weights, [Fraction(level)])


def _one_cone_genus_stars(g, p, q, k0, level):
    """q star copies chained into a cycle by connector arcs, then 2g-1
    handle arcs between the first star's last black vertex and its white
    vertex, inserted so that the complement stays a single polygon."""
    k = p // q
    builder = MapBuilder()
    xs = [[builder.add_vertex(BLACK) for _ in range(k)] for _ in range(q)]
    ys = [builder.add_vertex(WHITE) for _ in range(q)]
    weights = {}

    def new_arc(bk, wh, wt):
        a = len(builder.arcs)
        builder.arcs.append([bk, wh])
        weights[a] = Fraction(wt)
        return a

    star = [
        [
            new_arc(
                xs[j][i],
                ys[j],
                Fraction(q, 2) if i == 0 else (q - 1 if (i, j) == (k - 1, 0) else q),
            )
            for i in range(k)
        ]
        for j in range(q)
    ]
    conn = [new_arc(xs[(j + 1) % q][0], ys[j], Fraction(q, 2)) for j in range(q)]
    for j in range(q):
        builder.rot[xs[j][0]] = [(star[j][0], "b"), (conn[(j - 1) % q], "b")]
        for i in range(1, k):
            builder.rot[xs[j][i]] = [(star[j][i], "b")]
        builder.rot[ys[j]] = [(star[j][i], "w") for i in range(k)] + [(conn[j], "w")]
    assert len(builder.trace()) == 2  # chained stars are planar

    u = xs[0][k - 1]
    v = ys[0]
    for step in range(1, 2 * g):
        faces = builder.trace()
        face_of = {d: i for i, wk in enumerate(faces) for d in wk}
        corner_u = builder.rot[u][-1]  # gap after the newest arc at u
        fu = face_of[corner_u]
        want_merge = step % 2 == 1
        anchor = None
        for d in builder.rot[v]:
            if (face_of[d] != fu) == want_merge:
                anchor = d
                break
        assert anchor is not None
        a = new_arc(u, v, Fraction(1, 2 * g - 1))
        builder.rot[u].append((a, "b"))
        # insert into the chosen gap, right after the anchor dart at v
        builder.rot[v].insert(builder.rot[v].index(anchor) + 1, (a, "w"))

    ma = builder.freeze()
    assert ma.genus == g and ma.num_faces == 1
    w_list = [weights[a] / q for a in range(ma.num_arcs)]
    return DataSet(ma, k0, Fraction(q, p), w_list, [Fraction(level)])
