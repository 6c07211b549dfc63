"""Exact balance equations as graph algorithms on the bi-colored map.

No floating point enters this module.  :func:`solve_balance` scales the
demands once to integers over one denominator, works on those, and builds
its ``Fraction`` results at the end, one per distinct value.  The connection
matrix of a bi-colored angulation has one row per vertex (black rows first)
and one column per arc, with exactly two ones per column.  Scaling the white
rows by the ratio R gives the balance matrix whose affine solution set is
the space of weight functions realizing prescribed cone angles.

For R > 0 the system is the vertex/arc incidence system of a connected
bipartite graph with demand t at black vertices and t / R at white ones, so
:func:`solve_balance` never eliminates:

* a particular solution comes from peeling a breadth-first spanning tree
  from the leaves up, with the non-tree arcs at 0; the system is consistent
  exactly when nothing is left at the root;
* the kernel basis is one fundamental cycle per non-tree arc, with entries
  alternating +1/-1 around the (even) cycle, so its dimension is
  E - V + 1 = 2g + j0 - 1 by construction;
* a strictly positive solution is a transportation problem.  The residual
  graph runs black -> white along every arc and white -> black along every
  arc that carries flow.  A maximum flow on the demands scaled to integers,
  each black in turn sending its supply along shortest augmenting paths to
  whites with room left (Edmonds-Karp), either saturates them or exposes a
  violated Hall inequality.  An arc with zero flow can be made positive
  exactly when its ends lie in one strongly connected component of the
  residual graph, i.e. when the white end reaches the black end; pushing a
  small exact amount around one such alternating cycle per zero arc gives a
  positive witness, and an unreachable black end gives a cut that forces
  the arc to zero.  One breadth-first walk finds the augmenting paths, the
  cut and the cycles.

For R = 0 the white rows vanish into one ground vertex that roots the tree,
as in :func:`balance_rank`: each black hangs from its smallest arc, and the
ground's residual is free.  Either way the answer is a decision: a positive
witness or a :class:`HallCut` proving that none exists.

Nothing here eliminates.  The rank behind the dimension cross-checks,
:func:`balance_rank`, runs over the arc list with a union-find on the
vertices, independently of the spanning tree that :func:`solve_balance`
peels.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .angulation import BLACK, WHITE, MixedAngulation
from .errors import (
    AssertionFailure,
    BadRatio,
    BadTargets,
    Infeasible,
    NotATree,
)

_ZERO, _ONE, _MINUS_ONE = Fraction(0), Fraction(1), Fraction(-1)


@dataclass(frozen=True)
class HallCut:
    """Proof that the balance system has no strictly positive solution.

    Every arc at a white vertex of ``whites`` ends at a black vertex of
    ``blacks``.  Adding the black rows of ``blacks`` and subtracting the
    white rows of ``whites`` (each divided by R) therefore leaves the total
    weight of the ``crossing`` arcs, those from ``blacks`` to the whites
    outside ``whites``, equal to ``gap``.  The crossing set is nonempty and
    ``gap <= 0``, which no strictly positive weights satisfy.  At R = 0
    ``whites`` is empty.
    """

    blacks: frozenset
    whites: frozenset
    crossing: tuple
    gap: Fraction

    def __str__(self):
        return (
            f"arcs {' '.join(map(str, self.crossing))} must carry total weight "
            f"{self.gap} (black vertices {' '.join(map(str, sorted(self.blacks)))}; "
            f"white vertices {' '.join(map(str, sorted(self.whites))) or 'none'})"
        )


@dataclass
class SolutionSpace:
    particular: Optional[tuple]
    kernel_basis: list
    positive_witness: Optional[tuple] = None
    obstruction: Optional[HallCut] = None

    @property
    def kernel_dimension(self) -> int:
        return len(self.kernel_basis)


def solve_balance(ma: MixedAngulation, ratio, targets) -> SolutionSpace:
    """Affine solution set of the balance equations, and its positivity.

    ``targets`` maps vertex id -> prescribed angle (in weight units at black
    vertices, absolute cone angle at white ones).  For R = 0 the white targets
    must vanish.  The result carries either a strictly positive witness or a
    :class:`HallCut` obstruction.
    """
    ratio = Fraction(ratio)
    if not (0 <= ratio < 1):
        raise BadRatio(f"ratio {ratio} outside [0, 1)")
    # demand per vertex in weight units; None for the vanished white rows
    demand = []
    for v, color in enumerate(ma.colors):
        t = targets[v] if type(targets[v]) is Fraction else Fraction(targets[v])
        if color == WHITE:
            if not ratio:
                if t:
                    raise BadTargets(f"cusp system with nonzero white target at {v}")
                t = None
            else:
                t /= ratio
        demand.append(t)
    # from here on each demand is an integer in units of 1 / scale
    scale = math.lcm(*(t.denominator for t in demand if t is not None))
    demand = [None if t is None else t.numerator * (scale // t.denominator) for t in demand]
    incident = _incidence(ma, not ratio)
    particular, basis = _tree_solution(ma, incident, demand, scale)
    exact = _over(particular, scale)
    if all(x > 0 for x in particular):
        return SolutionSpace(exact, basis, exact)
    witness, obstruction = _positive_solution(ma, incident, demand, scale)
    return SolutionSpace(exact, basis, witness, obstruction)


def _over(numerators, den):
    """The Fractions n / ``den`` of ``numerators``, one per distinct n."""
    made = {n: Fraction(n, den) for n in set(numerators)}
    return tuple(map(made.__getitem__, numerators))


def _incidence(ma, cusp):
    """Each vertex's (arc, other end) pairs in arc order.  At R = 0
    (``cusp``) every white end is the ground, one more vertex numbered
    ``num_vertices``, and the whites' own lists stay empty."""
    ground = ma.num_vertices
    incident = [[] for _ in range(ground + cusp)]
    for a, (b, w) in enumerate(ma.arcs):
        if cusp:
            w = ground
        incident[b].append((a, w))
        incident[w].append((a, b))
    return incident


def _spanning_tree(incident, root):
    """Breadth-first order from ``root`` and each reached vertex's (arc to
    its parent, parent); the root's is (None, None)."""
    parent = [None] * len(incident)
    parent[root] = (None, None)
    order = [root]
    for v in order:  # the list grows while it is walked
        for a, u in incident[v]:
            if parent[u] is None:
                parent[u] = (a, v)
                order.append(u)
    return order, parent


def _peel(num_arcs, order, parent, residual):
    """Tree-arc weights meeting the demand ``residual`` (used up) below the
    root, leaves first, with the arcs off the tree at 0, and the residual
    left at the root, which vanishes exactly when the system is consistent."""
    weights = [0] * num_arcs
    for v in reversed(order[1:]):
        a, u = parent[v]
        weights[a] = residual[v]
        residual[u] -= residual[v]
    return weights, residual[order[0]]


def _tree_solution(ma, incident, demand, scale):
    """Particular solution by the tree peel, kernel by fundamental cycles.
    At R = 0 the tree hangs from the ground, whose residual is free."""
    ground = ma.num_vertices
    cusp = len(incident) > ground
    order, parent = _spanning_tree(incident, ground if cusp else 0)
    particular, residual = _peel(ma.num_arcs, order, parent, demand + [0] * cusp)
    if residual and not cusp:
        raise Infeasible(f"balance system is inconsistent: residual {Fraction(residual, scale)} at the root")
    depth = [0] * len(incident)
    for v in order[1:]:
        depth[v] = depth[parent[v][1]] + 1
    tree = {parent[v][0] for v in order[1:]}
    basis = []
    for a, (b, w) in enumerate(ma.arcs):
        if a in tree:
            continue
        # climb from both ends to the common ancestor; the tree arcs
        # alternate -1, +1, ... from each end, and the depths of the two
        # ends differ in parity, so the signs cancel at the ancestor too
        vec = [_ZERO] * ma.num_arcs
        vec[a] = _ONE
        ends = [b, ground if cusp else w]
        signs = [_MINUS_ONE, _MINUS_ONE]
        while ends[0] != ends[1]:
            i = 0 if depth[ends[0]] > depth[ends[1]] else 1
            t, ends[i] = parent[ends[i]]
            vec[t] = signs[i]
            signs[i] = _ONE if signs[i] is _MINUS_ONE else _MINUS_ONE
        basis.append(tuple(vec))
    return particular, basis


def _positive_solution(ma, incident, demand, scale):
    """(strictly positive solution, None) or (None, HallCut) for the
    integer ``demand`` in units of 1 / ``scale``."""
    nv, colors = ma.num_vertices, ma.colors
    for v, d in enumerate(demand):
        if d is not None and d <= 0:
            # a vertex with no positive share for its arcs
            reach = {v} if colors[v] == WHITE else set(range(nv)) - {v}
            return None, _hall_cut(ma, demand, scale, reach)
    if len(incident) > nv:
        # R = 0: each black's demand shared equally by its arcs
        return tuple(Fraction(demand[b], scale * len(incident[b])) for b, _ in ma.arcs), None

    # maximum flow in integer units: supply left at the blacks, room left at
    # the whites; each black in turn sends along shortest residual paths
    left = list(demand)
    flow = [0] * ma.num_arcs
    blacks = [v for v in range(nv) if colors[v] == BLACK]
    for source in blacks:
        while left[source]:
            via, end = _search(colors, incident, flow, [source],
                               lambda v: colors[v] == WHITE and left[v])
            if end is None:
                # nothing this black reaches can change later: it stays short
                break
            path, v = [], end
            while v != source:
                a, u = via[v]
                path.append((a, colors[v] == WHITE))  # (arc, walked black -> white)
                v = u
            push = min([left[source], left[end]] + [flow[a] for a, up in path if not up])
            for a, up in path:
                flow[a] += push if up else -push
            left[source] -= push
            left[end] -= push
    # an unsaturated black: the source side of a minimum cut violates Hall
    short = [v for v in blacks if left[v]]
    if short:
        return None, _hall_cut(ma, demand, scale, _search(colors, incident, flow, short)[0])

    zero = [a for a in range(ma.num_arcs) if not flow[a]]
    if not zero:
        return _over(flow, scale), None
    # push the least flow / parts around one cycle per zero arc, in units of
    # 1 / (scale * parts)
    parts = 2 * len(zero)
    witness = [f * parts for f in flow]
    delta = min(f for f in flow if f)
    for a in zero:
        b, w = ma.arcs[a]
        via, end = _search(colors, incident, flow, [w], lambda v: v == b)
        if end is None:
            return None, _hall_cut(ma, demand, scale, via)
        # raise a and the arcs walked black -> white, lower those walked back
        witness[a] += delta
        v = b
        while v != w:
            e, u = via[v]
            witness[e] += delta if colors[v] == WHITE else -delta
            v = u
    return _over(witness, scale * parts), None


def _search(colors, incident, flow, starts, stop=None):
    """Breadth-first reach in the residual graph from ``starts``.

    The residual graph runs black -> white along every arc and white -> black
    along the arcs that carry flow.  Returns (vertex -> (arc, vertex) it was
    reached by, the first reached vertex that satisfies ``stop``, where the
    walk ends, or None when the walk covers the whole reach).
    """
    via = {v: None for v in starts}
    queue = deque(starts)
    while queue:
        v = queue.popleft()
        black = colors[v] == BLACK
        for a, u in incident[v]:
            if u not in via and (black or flow[a]):
                via[u] = (a, v)
                if stop is not None and stop(u):
                    return via, u
                queue.append(u)
    return via, None


def _hall_cut(ma, demand, scale, reach):
    """The cut made of the vertices outside ``reach``, a set closed under
    black -> white arcs."""
    blacks = frozenset(
        v for v in range(ma.num_vertices) if ma.colors[v] == BLACK and v not in reach
    )
    whites = frozenset(
        v for v in range(ma.num_vertices) if ma.colors[v] == WHITE and v not in reach
    )
    crossing = tuple(a for a, (b, w) in enumerate(ma.arcs) if b in blacks and w in reach)
    gap = Fraction(sum(demand[b] for b in blacks) - sum(demand[w] for w in whites), scale)
    if gap > 0 or not crossing:
        raise AssertionFailure(f"cut with gap {gap} over arcs {crossing} proves nothing")
    return HallCut(blacks, whites, crossing, gap)


# -- trees --------------------------------------------------------------------


def solve_tree(ma: MixedAngulation, p: int, q: int):
    """Unique integer weights on a bi-colored tree with targets q/p.

    Black vertices must sum to ``q``, white ones to ``p``.  Peels the tree
    from its leaves up (the breadth-first order reversed is the leaf queue).
    Raises ``Infeasible`` if a forced weight is <= 0 or the residual left at
    the root is nonzero.  The weights are ints, by arc.
    """
    nv, na = ma.num_vertices, ma.num_arcs
    if na != nv - 1:
        raise NotATree(f"{na} arcs on {nv} vertices")
    demand = [q if color == BLACK else p for color in ma.colors]
    order, parent = _spanning_tree(_incidence(ma, False), 0)
    weights, residual = _peel(na, order, parent, demand)
    for v in reversed(order[1:]):
        w = weights[parent[v][0]]
        if w <= 0:
            raise Infeasible(f"forced weight {w} <= 0 at vertex {v}")
    if residual != 0:
        raise Infeasible(f"residual {residual} at final vertex {order[0]}")
    return tuple(weights)


# -- rank ---------------------------------------------------------------------


def balance_rank(ma: MixedAngulation, ratio) -> int:
    """Rank of the balance matrix Lambda(R) * M; at R = 0 its white rows
    vanish and are dropped.

    Column elimination on the two nonzeros of each arc: the classes of a
    union-find over the vertices are the rows tied together by the pivots so
    far.  An arc joining two classes is a pivot.  An arc inside one class
    closes a cycle, which is even because the map is bipartite, so the
    columns around it sum to zero with alternating signs and the arc is
    dependent.  At R = 0 one extra ground class stands in for the vanished
    white rows.
    """
    ground = ma.num_vertices
    parent = list(range(ground + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    cusp = ratio == 0
    rank = 0
    for b, w in ma.arcs:
        x, y = find(b), find(ground if cusp else w)
        if x != y:
            parent[x] = y
            rank += 1
    return rank

