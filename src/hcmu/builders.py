"""Constructive realizations: canonical angulations, polygon subdivision,
existence witnesses, and all single-cone constructions.

The genus-0 single-cone surfaces rest on weighted bi-colored trees.  For
coprime (p, q) the tree is the staircase of ``build_coprime_tree``: edge t is
the t-th interval of [0, pq] cut at the multiples of p and of q.  For
λ = gcd(p, q) > 1, ``build_tree`` chains λ copies of the staircase of
(p/λ, q/λ), each copy taken by index range, and scales the weights by λ.

Each arc and leaf is placed from what the construction already holds: one
walk per face subdivided, leaves of either colour at one corner of it, star
handles in closed form, and the tree's own weights, checked once against the
balance equations in ``build_tree``.

Each construction builds one :class:`MixedAngulation` from the rows it
wrote.  ``build_surface`` splices diagonals and leaves into sigma^-1 of the
canonical rows (:class:`MapBuilder`); the single-cone ones write plain lists.

Every builder returns a validated :class:`~hcmu.dataset.DataSet` (or a
weighted tree for the tree constructions) realizing the prescribed genus and
cone angles.  Free continuous parameters default to K0 = 1 and all face
levels 1/2.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .angulation import BLACK, WHITE, MapBuilder, MixedAngulation
from .constraints import (
    _check_one_cone_counts,
    as_angle_vector,
    check_refined,
    invariants_m_a,
    one_cone_admissible,
)
from .dataset import DataSet
from .errors import (
    MAX_ARCS,
    AssertionFailure,
    BadOrder,
    BadOrderVector,
    EmptySpace,
    Inadmissible,
    Incompatible,
    NotCoprime,
    TooLarge,
)

DEFAULT_LEVEL = Fraction(1, 2)


def _check_size(arcs: int):
    if arcs > MAX_ARCS:
        raise TooLarge(f"the map would have {arcs} arcs; a builder makes at most {MAX_ARCS}")


def canonical_angulation(g: int) -> MixedAngulation:
    """One black and one white vertex joined by 2g+1 arcs, a single face.

    For g >= 1 this is the quotient of the regular (4g+2)-gon with opposite
    sides identified; the face has degree 4g+2.  For g = 0 it degenerates to
    a single arc whose complement is a bigon, usable only as an intermediate
    fragment.
    """
    return MixedAngulation(*_canonical_rows(g), _allow_degenerate=(g == 0))


def _canonical_rows(g: int):
    """Fresh lists of the colours, arcs and rows of ``canonical_angulation(g)``,
    for the builders that grow it: the darts 2a, then the darts 2a + 1."""
    n = 2 * g + 1
    return [BLACK, WHITE], [(0, 1)] * n, [list(range(0, 2 * n, 2)), list(range(1, 2 * n, 2))]


# -- polygon subdivision -------------------------------------------------------


def _rooted(walk):
    """A face walk rotated to start at its least dart, for determinism."""
    k = walk.index(min(walk))
    return walk[k:] + walk[:k]


def _first_corner_of_color(builder, walk, color):
    for t in range(len(walk)):
        v = builder.vertex_of_dart(walk[t] ^ 1)
        if builder.colors[v] == color:
            return t
    raise BadOrderVector(f"no {color} corner on the face walk")


def subdivide_face(builder: MapBuilder, inside_dart, w: Sequence[int]) -> None:
    """Subdivide the face containing ``inside_dart`` into faces of degrees
    w[i] + 2 by adding diagonals, interior black leaves and self-folded arcs.

    The face is walked once.  Each order w0 but the last adds a diagonal
    from corner deg - 1 of the current walk: to corner w0 if w0 + 2 < deg,
    cutting off a (w0+2)-gon along walk[0..w0]; otherwise to corner 0,
    splitting off a bigon after the big part is padded with black leaves up
    to degree w0 + 2.  The face left over is read off the walk by index, and
    the last order pads it.
    """
    w = [int(x) for x in w]
    for x in w:
        if x < 2 or x % 2 != 0:
            raise BadOrderVector(f"order {x} must be even and >= 2")
    walk = _rooted(builder.face_walk_of_dart(inside_dart))
    if not w or sum(w) < len(walk) - 2:
        raise Incompatible(f"orders {w} do not fit a face of degree {len(walk)}")
    for w0 in w[:-1]:
        deg = len(walk)
        cut = w0 if w0 + 2 < deg else 0
        arc = builder.add_arc_in_face(walk, deg - 1, cut)
        # the diagonal's dart at corner deg - 1: the tail of walk[0], white iff walk[0] is odd
        d = 2 * arc + (walk[0] & 1)
        big = _rooted(walk[cut + 1 :] + (d,))
        if cut:
            walk = big
        else:
            _pad_with_leaves(builder, big, (w0 + 2 - deg) // 2, BLACK)
            walk = (walk[0], d ^ 1)  # the bigon
    _pad_with_leaves(builder, walk, (w[-1] + 2 - len(walk)) // 2, BLACK)


def _pad_with_leaves(builder, walk, count, color):
    """Add ``count`` leaves of ``color`` at the first corner of the other
    colour on the rooted face walk ``walk``.

    A leaf at corner t inserts its two darts after walk[t]; they are the
    largest darts, so the root, the corners up to t and walk[t] stay, and
    every leaf goes in at the same corner of the one walk.
    """
    if count > 0:
        t = _first_corner_of_color(builder, walk, WHITE if color == BLACK else BLACK)
        for _ in range(count):
            builder.add_leaf_in_face(walk, t, color)


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
            f"no surface with genus {g}, angles [{', '.join(map(str, alpha))}], Z={sorted(Z)}"
        )
    m, a, b_count = invariants_m_a(g, alpha, Z)
    _check_size(b_count)
    q = alpha.q_zeros
    w = [2 * int(alpha[i - 1]) - 2 for i in sorted(Z)]

    builder = MapBuilder(*_canonical_rows(g))
    if q > 1:  # the extra cusps: white leaves on the one face, whose least dart is 0
        _pad_with_leaves(builder, builder.face_walk_of_dart(0), q - 1, WHITE)
    subdivide_face(builder, 0, w)
    ma = builder.freeze()
    if (ma.genus, ma.num_faces) != (g, len(w)):
        raise AssertionFailure(
            f"map has genus {ma.genus} and {ma.num_faces} faces, expected {g} and {len(w)}"
        )

    blacks = sorted(v for v in range(ma.num_vertices) if ma.colors[v] == BLACK)
    whites = [v for v in range(ma.num_vertices) if ma.colors[v] == WHITE]
    non_saddle = [
        alpha[i - 1]
        for i in range(1, alpha.n + 1)
        if i not in Z and alpha[i - 1] != 0
    ]
    beta = sorted(non_saddle + [1] * int(m), reverse=True)  # m smooth points of angle 1
    want_whites = max(q, 1)
    if (len(blacks), len(whites)) != (a - want_whites, want_whites):
        raise AssertionFailure(
            f"map has {len(blacks)} blacks and {len(whites)} whites, "
            f"expected a - {want_whites} = {a - want_whites} and {want_whites}"
        )
    if q > 0:
        ratio = Fraction(0)
    else:
        beta_min = beta.pop()  # smallest expected angle goes to the white vertex
        ratio = Fraction(beta_min) / (sum(non_saddle) + int(m) - beta_min)
    # one weight per black vertex, its angle spread evenly over its arcs
    share = {bk: Fraction(x.numerator, x.denominator * ma.degree(bk)) for bk, x in zip(blacks, beta)}
    weights = [share[bk] for bk, _ in ma.arcs]
    if len(weights) != b_count:
        raise AssertionFailure(f"map has {len(weights)} arcs, expected b = {b_count}")
    return DataSet(ma, k0, ratio, weights, [Fraction(level)] * ma.num_faces)


# -- weighted bi-colored trees ---------------------------------------------


@dataclass(frozen=True)
class WeightedTree:
    """Bi-colored tree whose weights solve the q/p balance system."""

    p: int
    q: int
    edges: tuple  # (black index 0..p-1, white index 0..q-1)
    weights: tuple

    def as_angulation(self) -> MixedAngulation:
        return tree_angulation(self.p, self.q, self.edges)


def tree_angulation(p: int, q: int, edges) -> MixedAngulation:
    """Embed a bi-colored tree with rotations in edge order; any rotation of
    a tree closes up on the sphere."""
    colors = [BLACK] * p + [WHITE] * q
    arcs = [(bk, p + wh) for bk, wh in edges]
    rot = [[] for _ in colors]
    for a, (bk, wh) in enumerate(edges):
        rot[bk].append(2 * a)
        rot[p + wh].append(2 * a + 1)
    return MixedAngulation(colors, arcs, rot, _allow_degenerate=True)


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
    if total != p * q:
        raise AssertionFailure(f"tree weights sum to {total}, expected p * q = {p * q}")
    return WeightedTree(p, q, tuple(edges), tuple(weights))


def build_tree(p: int, q: int) -> WeightedTree:
    """Weighted bi-colored tree realizing the q/p balance system.

    Exists iff q = 1 or q does not divide p.  For λ = gcd(p, q) > 1 the tree
    chains λ copies of the coprime staircase B = build_coprime_tree(p/λ, q/λ).
    B's first degree-2 black x owns the consecutive edges k and k + 1, and
    its two sides are edges[:k] and edges[k+2:]; B's last edge holds a
    pendant black of weight q/λ.  Each of the λ - 1 steps drops the newest
    such pendant and hangs two new blacks at its white: one carries edge
    k + 1 and a copy of edges[k+2:] (whose last edge is the next pendant),
    the other edge k and a copy of edges[:k].  Every vertex stays balanced,
    so one relabel of the blacks and scaling the weights by λ finish.
    """
    if p <= q or q < 1:
        raise BadOrder(f"need p > q >= 1, got ({p}, {q})")
    lam = gcd(p, q)
    if q > 1 and p % q == 0:
        raise Inadmissible(f"q = {q} divides p = {p}")
    base = build_coprime_tree(p // lam, q // lam)
    if lam == 1:
        return _balanced(base)
    pb, qb, n = base.p, base.q, len(base.edges)
    k = next(t for t in range(n - 1) if base.edges[t][0] == base.edges[t + 1][0])
    x, y = base.edges[k]
    wk, wk1 = base.weights[k], base.weights[k + 1]
    edges, weights = list(base.edges), list(base.weights)
    last, nb, nw = n - 1, pb, qb  # the newest pendant edge; next fresh labels
    for _ in range(lam - 1):
        y_last = edges[last][1]
        edges[last] = None  # the newest pendant; the relabel below drops its black
        xp, xm = nb, nb + 1
        # edges[k+2:] spans blacks x+1.. and whites y+1..; its copy starts at xp+2 and nw
        db, dw = xp + 1 - x, nw - y - 1
        edges += [(xp, y_last), (xm, y_last)]
        edges += [(bk + db, wh + dw) for bk, wh in base.edges[k + 2 :]]
        last = len(edges) - 1
        edges.append((xp, y + 1 + dw))
        # edges[:k] spans blacks 0..x-1 and whites 0..y; its copy follows
        db, dw = xp + pb + 1 - x, nw + qb - 1 - y
        edges += [(bk + db, wh + dw) for bk, wh in base.edges[:k]]
        edges.append((xm, y + dw))
        weights += [wk, wk1, *base.weights[k + 2 :], wk1, *base.weights[:k], wk]
        nb, nw = nb + pb + 1, nw + qb
    kept = [(e, wt * lam) for e, wt in zip(edges, weights) if e is not None]
    label = {bk: i for i, bk in enumerate(sorted({bk for (bk, _), _ in kept}))}
    whites = len({wh for (_, wh), _ in kept})
    if (len(label), whites) != (p, q):
        raise AssertionFailure(f"tree has {len(label)} blacks and {whites} whites, expected {p} and {q}")
    return _balanced(
        WeightedTree(p, q, tuple((label[bk], wh) for (bk, wh), _ in kept), tuple(wt for _, wt in kept))
    )


def _balanced(tree: WeightedTree) -> WeightedTree:
    """``tree``, once its weights are positive and solve the balance
    equations: each black's sum to q and each white's to p."""
    p, q = tree.p, tree.q
    sums = [0] * (p + q)
    for (bk, wh), wt in zip(tree.edges, tree.weights):
        sums[bk] += wt
        sums[p + wh] += wt
    for v, (got, want) in enumerate(zip(sums, [q] * p + [p] * q)):
        if got != want:
            raise AssertionFailure(f"tree vertex {v} has weight sum {got}, expected {want} for q/p = {q}/{p}")
    if min(tree.weights) <= 0:
        raise AssertionFailure(f"tree weight {min(tree.weights)} is not positive")
    return tree


# -- single-cone constructions ---------------------------------------------


def build_one_cone(g: int, p: int, q: int, *, k0=1.0, level=DEFAULT_LEVEL) -> DataSet:
    """A genus-g surface whose only singularity is one saddle of angle
    2*pi*(p + q + 2g - 1), with p smooth maxima and q smooth minima."""
    _check_one_cone_counts(g, p, q)  # before they enter the angle
    alpha = p + q + 2 * g - 1
    if not one_cone_admissible(g, alpha, p, q):
        raise Inadmissible(f"(g, p, q) = ({g}, {p}, {q}) is not realizable")
    _check_size(alpha)  # the one face has degree 2 * alpha
    if g == 0:
        tree = build_tree(p, q)
        weights = [Fraction(w, q) for w in tree.weights]
        ds = DataSet(tree.as_angulation(), k0, Fraction(q, p), weights, [Fraction(level)])
    elif q == 1 or p % q != 0:
        ds = _one_cone_genus_tree(g, p, q, k0, level)
    else:
        ds = _one_cone_genus_stars(g, p, q, k0, level)
    ma = ds.angulation
    if (ma.genus, ma.num_faces, ma.face_degree(0)) != (g, 1, 2 * alpha):
        raise AssertionFailure(
            f"map has genus {ma.genus} and {ma.num_faces} faces, the first of degree "
            f"{ma.face_degree(0)}, expected genus {g} and one face of degree 2 * alpha = {2 * alpha}"
        )
    return ds


def _one_cone_genus_tree(g, p, q, k0, level):
    """Merge the pruned planar tree into the canonical angulation at its
    white vertex; canonical arcs carry weight q / (2g+1).  Every leaf black
    carries its whole demand q, so the largest-label one is dropped."""
    tree = build_tree(p, q)
    degree = Counter(bk for bk, _ in tree.edges)
    x_drop = max(bk for bk, d in degree.items() if d == 1)
    e_drop = next(i for i, (bk, _) in enumerate(tree.edges) if bk == x_drop)
    y_glue = tree.edges[e_drop][1]

    colors, arcs, rows = _canonical_rows(g)
    weights = [Fraction(1, len(arcs))] * len(arcs)  # already divided by q

    def add_vertex(color):
        colors.append(color)
        rows.append([])
        return len(colors) - 1

    bmap = {bk: add_vertex(BLACK) for bk in range(tree.p) if bk != x_drop}
    wmap = {wh: add_vertex(WHITE) for wh in range(tree.q) if wh != y_glue}
    wmap[y_glue] = 1
    glue_block = []  # the tree's darts at y_glue, placed after the first canonical dart
    for i, ((bk, wh), wt) in enumerate(zip(tree.edges, tree.weights)):
        if i == e_drop:
            continue
        a = len(arcs)
        arcs.append((bmap[bk], wmap[wh]))
        weights.append(Fraction(wt, q))
        rows[bmap[bk]].append(2 * a)
        if wh == y_glue:
            glue_block.append(2 * a + 1)
        else:
            rows[wmap[wh]].append(2 * a + 1)
    rows[1][1:1] = glue_block
    ma = MixedAngulation(colors, arcs, rows)
    return DataSet(ma, k0, Fraction(q, p), weights, [Fraction(level)])


def _one_cone_genus_stars(g, p, q, k0, level):
    """q star copies chained into a cycle by connector arcs, then 2g-1
    handle arcs h_1 .. h_{2g-1} between the first star's last black vertex u
    and its white vertex v, placed so that the complement stays a single
    polygon: u lists them in order after its star arc, and v's rotation is
    its first star arc, the pairs (h_{2i}, h_{2i+1}) for i = g-1 down to 1,
    the rest of its row, then h_1.

    With k = p / q and n = kq, star j has the blacks jk .. jk + k - 1 and the
    white n + j; star arc x joins black x to its star's white, and connector
    arc n + j joins white n + j to the first black of star j + 1."""
    k = p // q
    n = k * q
    colors = [BLACK] * n + [WHITE] * q
    arcs = [(x, n + x // k) for x in range(n)] + [((j + 1) % q * k, n + j) for j in range(q)]
    weights = [  # already divided by q; the first star's last arc carries q - 1
        Fraction(1, 2) if x % k == 0 else Fraction(q - 1 if x == k - 1 else q, q) for x in range(n)
    ] + [Fraction(1, 2)] * q
    rows = [[2 * x] for x in range(n)]
    for j in range(q):
        rows[j * k].append(2 * (n + (j - 1) % q))
    rows += [[2 * x + 1 for x in range(j * k, j * k + k)] + [2 * (n + j) + 1] for j in range(q)]

    u, v = k - 1, n
    h = range(len(arcs), len(arcs) + 2 * g - 1)
    arcs += [(u, v)] * len(h)
    weights += [Fraction(1, (2 * g - 1) * q)] * len(h)
    rows[u] += [2 * a for a in h]
    rows[v][1:1] = [2 * h[j] + 1 for i in range(g - 1, 0, -1) for j in (2 * i - 1, 2 * i)]
    rows[v].append(2 * h[0] + 1)
    ma = MixedAngulation(colors, arcs, rows)
    return DataSet(ma, k0, Fraction(q, p), weights, [Fraction(level)])
