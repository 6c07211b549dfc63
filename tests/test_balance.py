import math
import random
from collections import deque
from fractions import Fraction as F
from typing import NamedTuple

import networkx as nx
import pytest

from conftest import FIXTURES, make_calabi, random_bicolored_angulation
from hcmu.angulation import BLACK, WHITE, MixedAngulation
from hcmu.balance import (
    HallCut,
    SolutionSpace,
    _incidence,
    _positive_solution,
    balance_rank,
    solve_balance,
    solve_tree,
)
from hcmu.builders import (
    build_coprime_tree,
    build_one_cone,
    build_surface,
    build_tree,
    tree_angulation,
)
from hcmu.constraints import one_cone_admissible
from hcmu.errors import (
    AssertionFailure,
    BadRatio,
    BadTargets,
    HcmuError,
    Infeasible,
    NotATree,
)
from hcmu.serialization import load
from test_builders import brute_force_trees

RATIOS = (F(0), F(1, 3), F(2, 5), F(3, 4))


# -- dense oracle and certificate checks ---------------------------------------


class ConnectionMatrix(NamedTuple):
    """0-1 vertex/arc incidence as plain rows, black rows listed first."""

    rows: tuple  # tuple of row tuples over Fraction
    black_rows: int
    row_vertices: tuple  # vertex id per row

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)


def connection_matrix(ma):
    order = [v for v in range(ma.num_vertices) if ma.colors[v] == BLACK]
    blacks = len(order)
    order += [v for v in range(ma.num_vertices) if ma.colors[v] == WHITE]
    index = {v: r for r, v in enumerate(order)}
    rows = [[F(0)] * ma.num_arcs for _ in order]
    for a, (b, w) in enumerate(ma.arcs):
        rows[index[b]][a] += 1
        rows[index[w]][a] += 1
    return ConnectionMatrix(tuple(tuple(r) for r in rows), blacks, tuple(order))


def balance_rows(conn, ratio):
    """Rows of the ratio-scaled balance matrix Lambda(R) * M."""
    return [
        row if r < conn.black_rows else tuple(x * ratio for x in row)
        for r, row in enumerate(conn.rows)
    ]


def eliminate(m, ncols):
    """Reduce the row list ``m`` in place on its first ``ncols`` columns.

    Gauss-Jordan elimination over Fraction; returns the pivot columns in
    order, so row i of the result has its leading one in column pivots[i].
    """
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = F(1) / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return pivots


def matrix_rank(rows) -> int:
    """Exact rank over the rationals by Gaussian elimination."""
    m = [list(r) for r in rows]
    return len(eliminate(m, len(m[0]))) if m else 0


def dense_rank(ma, ratio):
    """Rank of the balance matrix by elimination, white rows dropped at R = 0."""
    conn = connection_matrix(ma)
    rows = balance_rows(conn, ratio)
    return matrix_rank(rows[: conn.black_rows] if ratio == 0 else rows)


def solve_affine(rows, rhs):
    """Dense Fraction Gauss-Jordan oracle: (particular or None, kernel basis)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    aug = [list(rows[r]) + [rhs[r]] for r in range(nrows)]
    pivots = eliminate(aug, ncols)
    rank = len(pivots)
    for r in range(rank, nrows):
        if aug[r][ncols] != 0:
            return None, []
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    particular = [F(0)] * ncols
    for r, col in enumerate(pivots):
        particular[col] = aug[r][ncols]
    basis = []
    for fcol in free:
        vec = [F(0)] * ncols
        vec[fcol] = F(1)
        for r, col in enumerate(pivots):
            vec[col] = -aug[r][fcol]
        basis.append(tuple(vec))
    return tuple(particular), basis


def system_rows(ma, ratio, targets):
    """Rows and right-hand side of the system solve_balance solves."""
    conn = connection_matrix(ma)
    rows = balance_rows(conn, ratio)
    rhs = [F(targets[v]) for v in conn.row_vertices]
    if ratio == 0:
        rows, rhs = rows[: conn.black_rows], rhs[: conn.black_rows]
    return rows, rhs


def solves(rows, rhs, x):
    return all(sum(a * b for a, b in zip(row, x)) == t for row, t in zip(rows, rhs))


def check_obstruction(ma, ratio, targets, space):
    """The Hall cut of ``space`` proves, in exact arithmetic, that no
    strictly positive solution exists."""
    cut = space.obstruction
    assert space.positive_witness is None and cut is not None
    colors = ma.colors
    assert all(colors[b] == BLACK for b in cut.blacks)
    assert all(colors[w] == WHITE for w in cut.whites)
    if ratio == 0:
        assert not cut.whites
    # the arcs of the whites in the cut all end at blacks in the cut ...
    assert all(b in cut.blacks for b, w in ma.arcs if w in cut.whites)
    # ... so the black rows minus the white rows leave the crossing arcs
    crossing = tuple(
        a for a, (b, w) in enumerate(ma.arcs) if b in cut.blacks and w not in cut.whites
    )
    assert cut.crossing == crossing and crossing
    gap = sum(F(targets[b]) for b in cut.blacks)
    gap -= sum(F(targets[w]) / ratio for w in cut.whites)
    assert cut.gap == gap <= 0
    # every solution carries the gap on the crossing arcs
    assert sum(space.particular[a] for a in crossing) == gap
    assert str(cut).startswith(f"arcs {' '.join(map(str, crossing))} must carry total weight {gap}")


def networkx_decision(ma, demand):
    """(maximum flow value, HallCut or None) by ``networkx.maximum_flow``.

    The demands are positive, in weight units.  The cut is the one the
    balance layer certifies: the vertices outside the residual reach of the
    unsaturated blacks or, when every black is saturated, of the white end
    of the first arc, in arc order, whose black end that reach misses.
    """
    colors = ma.colors
    scale = math.lcm(*(d.denominator for d in demand))
    network = nx.DiGraph()
    for v, d in enumerate(demand):
        if colors[v] == BLACK:
            network.add_edge("source", v, capacity=int(d * scale))
        else:
            network.add_edge(v, "sink", capacity=int(d * scale))
    for b, w in ma.arcs:
        network.add_edge(b, w)  # no capacity: unbounded; parallel arcs share it
    value, flow_of = nx.maximum_flow(network, "source", "sink")
    residual = nx.DiGraph()
    residual.add_nodes_from(range(ma.num_vertices))
    for b, w in ma.arcs:
        residual.add_edge(b, w)
        if flow_of[b][w] > 0:
            residual.add_edge(w, b)
    short = [v for v, d in enumerate(demand) if colors[v] == BLACK and flow_of["source"][v] < d * scale]
    if short:
        reach = set(short).union(*(nx.descendants(residual, v) for v in short))
    else:
        for b, w in ma.arcs:
            reach = nx.descendants(residual, w) | {w}
            if b not in reach:
                break
        else:
            return F(value, scale), None
    blacks = frozenset(v for v in range(ma.num_vertices) if colors[v] == BLACK and v not in reach)
    whites = frozenset(v for v in range(ma.num_vertices) if colors[v] == WHITE and v not in reach)
    crossing = tuple(a for a, (b, w) in enumerate(ma.arcs) if b in blacks and w in reach)
    gap = sum(demand[b] for b in blacks) - sum(demand[w] for w in whites)
    return F(value, scale), HallCut(blacks, whites, crossing, gap)


def check_flow(ma, ratio, targets, rows, rhs):
    """The positivity decision against networkx, for R > 0 and positive targets."""
    demand = [
        F(targets[v]) if ma.colors[v] == BLACK else F(targets[v]) / ratio
        for v in range(ma.num_vertices)
    ]
    scale = math.lcm(*(d.denominator for d in demand))
    witness, obstruction = _positive_solution(ma, _incidence(ma, False), [int(d * scale) for d in demand], scale)
    value, cut = networkx_decision(ma, demand)
    # a maximum flow saturates the demands or leaves a cut of its own value
    total = sum(d for v, d in enumerate(demand) if ma.colors[v] == BLACK)
    assert total + (obstruction.gap if obstruction else 0) == value
    assert (witness is None) == (cut is not None)
    assert obstruction == cut
    if witness is not None:
        assert all(x > 0 for x in witness) and solves(rows, rhs, witness)


def check_space(ma, ratio, targets):
    """solve_balance against the elimination oracle and the Fraction solve;
    returns the space."""
    assert_matches_the_fraction_solve(ma, ratio, targets)
    rows, rhs = system_rows(ma, ratio, targets)
    oracle, _ = solve_affine(rows, rhs)
    if oracle is None:
        with pytest.raises(Infeasible):
            solve_balance(ma, ratio, targets)
        return None
    space = solve_balance(ma, ratio, targets)
    assert solves(rows, rhs, space.particular)
    zero = [F(0)] * len(rows)
    for vec in space.kernel_basis:
        assert solves(rows, zero, vec)
        if ratio > 0:
            assert set(vec) <= {-1, 0, 1}
    dim = space.kernel_dimension
    assert dim == ma.num_arcs - matrix_rank(rows) == ma.num_arcs - balance_rank(ma, ratio)
    if ratio > 0:
        assert dim == 2 * ma.genus + ma.num_faces - 1
    else:
        assert dim == ma.num_arcs - ma.colors.count(BLACK)
    if space.kernel_basis:
        assert matrix_rank(space.kernel_basis) == dim
    if space.positive_witness is not None:
        assert space.obstruction is None
        assert all(x > 0 for x in space.positive_witness)
        assert solves(rows, rhs, space.positive_witness)
    else:
        check_obstruction(ma, ratio, targets, space)
    if ratio > 0 and all(F(t) > 0 for t in targets.values()):
        check_flow(ma, ratio, targets, rows, rhs)
    return space


def angles_of(ma, ratio, weights):
    """Targets met by ``weights``: weight sums, times R at white vertices."""
    sums = [F(0)] * ma.num_vertices
    for (b, w), x in zip(ma.arcs, weights):
        sums[b] += x
        sums[w] += x
    return {
        v: s if ma.colors[v] == BLACK else ratio * s for v, s in enumerate(sums)
    }


def parallel_pair():
    """b0 = 0 joined to w0 = 2 twice (arcs 0, 1) and to w1 = 3 (arc 2);
    b1 = 1 joined to w1 (arc 3)."""
    colors = [BLACK, BLACK, WHITE, WHITE]
    arcs = [(0, 2), (0, 2), (0, 3), (1, 3)]
    rot = [[(0, "b"), (1, "b"), (2, "b")], [(3, "b")], [(0, "w"), (1, "w")], [(2, "w"), (3, "w")]]
    return MixedAngulation(colors, arcs, rot, _allow_degenerate=True)


def two_leaf_star():
    colors = [BLACK, BLACK, WHITE]
    arcs = [(0, 2), (1, 2)]
    rot = [[(0, "b")], [(1, "b")], [(0, "w"), (1, "w")]]
    return MixedAngulation(colors, arcs, rot, _allow_degenerate=True)


def test_connection_matrix_star():
    conn = connection_matrix(two_leaf_star())
    assert conn.rows == ((1, 0), (0, 1), (1, 1))
    assert conn.black_rows == 2
    assert matrix_rank(conn.rows) == 2


def test_connection_matrix_calabi():
    conn = connection_matrix(make_calabi().angulation)
    assert conn.shape == (5, 6)
    for col in range(6):
        blacks = sum(conn.rows[r][col] for r in range(3))
        whites = sum(conn.rows[r][col] for r in range(3, 5))
        assert blacks == 1 and whites == 1
    assert matrix_rank(conn.rows) == 4  # a - 1


def test_rank_ignores_zero_columns():
    rows = [(1, 0, 0), (1, 0, 1)]
    assert matrix_rank(rows) == 2


def test_rank_is_vertices_minus_one_randomized():
    rng = random.Random(20240)
    for _ in range(200):
        ma = random_bicolored_angulation(rng)
        conn = connection_matrix(ma)
        assert matrix_rank(conn.rows) == ma.num_vertices - 1
        for ratio in RATIOS[1:]:
            assert balance_rank(ma, ratio) == ma.num_vertices - 1


def test_signed_row_identity():
    rng = random.Random(41)
    for _ in range(20):
        ma = random_bicolored_angulation(rng)
        conn = connection_matrix(ma)
        for col in range(ma.num_arcs):
            total = sum(conn.rows[r][col] for r in range(conn.black_rows))
            total -= sum(
                conn.rows[r][col] for r in range(conn.black_rows, len(conn.rows))
            )
            assert total == 0


def test_solve_balance_calabi():
    ds = make_calabi()
    targets = {v: F(1) for v in range(5)}
    space = solve_balance(ds.angulation, F(2, 3), targets)
    assert space.kernel_dimension == 2
    assert space.positive_witness is not None
    # the constant weight 1/2 lies in the affine solution set
    rows = balance_rows(connection_matrix(ds.angulation), F(2, 3))
    w = [F(1, 2)] * 6
    conn = connection_matrix(ds.angulation)
    for r, row in enumerate(rows):
        want = F(1) if r < conn.black_rows else F(1)
        assert sum(x * y for x, y in zip(row, w)) == want


def test_solve_balance_cusp_kernel():
    ds = make_calabi()
    targets = {0: F(1), 1: F(1), 2: F(1), 3: F(0), 4: F(0)}
    space = solve_balance(ds.angulation, F(0), targets)
    assert space.kernel_dimension == 3  # b - p = 6 - 3


def test_solve_balance_bad_targets():
    ds = make_calabi()
    with pytest.raises(BadTargets):
        solve_balance(ds.angulation, F(0), {v: F(1) for v in range(5)})


@pytest.mark.parametrize("ratio", [F(1), F(-1, 3)])
def test_solve_balance_refuses_a_ratio_outside_the_unit_interval(ratio):
    with pytest.raises(BadRatio) as caught:
        solve_balance(make_calabi().angulation, ratio, {v: F(1) for v in range(5)})
    assert type(caught.value) is BadRatio and str(caught.value) == f"ratio {ratio} outside [0, 1)"


def test_solve_tree_refuses_a_nonzero_root_residual():
    # one arc: the leaf's demand 2 forces its weight, the root's demand 1 is left short
    ma = tree_angulation(1, 1, [(0, 0)])
    with pytest.raises(Infeasible) as caught:
        solve_tree(ma, 2, 1)
    assert type(caught.value) is Infeasible and str(caught.value) == "residual -1 at final vertex 0"


def test_solve_tree_star():
    ma = tree_angulation(3, 1, [(0, 0), (1, 0), (2, 0)])
    assert solve_tree(ma, 3, 1) == (1, 1, 1)


def test_solve_tree_seven_three():
    tree = build_coprime_tree(7, 3)
    ma = tree.as_angulation()
    weights = solve_tree(ma, 7, 3)
    assert weights == tree.weights == (3, 3, 1, 2, 3, 2, 1, 3, 3)
    assert all(type(w) is int for w in weights)


def test_solve_tree_values_bounded_and_unique():
    for p, q in [(7, 3), (5, 2), (9, 4), (5, 1)]:
        tree = build_tree(p, q)
        ma = tree.as_angulation()
        weights = solve_tree(ma, p, q)
        assert all(1 <= w <= q for w in weights)
        # uniqueness: the balance system on a tree has trivial kernel
        # any positive ratio gives a trivial kernel on a tree system
        targets = {
            v: (F(q) if ma.colors[v] == BLACK else F(p, 2))
            for v in range(ma.num_vertices)
        }
        space = solve_balance(ma, F(1, 2), targets)
        assert space.kernel_dimension == 0


def test_no_tree_for_four_two():
    assert brute_force_trees(4, 2) == []


def test_solve_tree_rejects_non_tree(calabi):
    with pytest.raises(NotATree):
        solve_tree(calabi.angulation, 3, 2)


def divisibility_check(weights, lam: int) -> bool:
    """Every tree weight is a multiple of the common divisor ``lam``."""
    return all(F(w) % lam == 0 for w in weights)


def weight_space_dimension(dataset) -> int:
    """Kernel dimension of the balance matrix; must equal 2g + j0 - 1."""
    if dataset.ratio == 0:
        raise BadRatio("weight space dimension is defined for R > 0")
    ma = dataset.angulation
    dim = ma.num_arcs - balance_rank(ma, dataset.ratio)
    expected = 2 * ma.genus + ma.num_faces - 1
    if dim != expected:
        raise AssertionFailure(f"kernel dimension {dim} != 2g + j0 - 1 = {expected}")
    return dim


def test_divisibility():
    tree = build_tree(14, 6)
    assert divisibility_check(tree.weights, 2)
    assert divisibility_check(build_coprime_tree(7, 3).weights, 1)


def test_divisor_three_forces_contradiction():
    # with (6,3), divisibility by 3 would force the constant weight 3 and
    # degree-1 black vertices only, impossible with 3 white vertices
    assert brute_force_trees(6, 3) == []


def test_weight_space_dimension():
    assert weight_space_dimension(make_calabi()) == 2
    oc = build_one_cone(1, 2, 1)
    assert weight_space_dimension(oc) == 2  # 2g + j0 - 1 = 2 + 1 - 1


def test_dataset_weights_solve_their_own_balance(calabi):
    ds = calabi
    targets = {v: ds.vertex_angle(v) for v in range(5)}
    space = solve_balance(ds.angulation, ds.ratio, targets)
    rows = balance_rows(connection_matrix(ds.angulation), ds.ratio)
    conn = connection_matrix(ds.angulation)
    for r, row in enumerate(rows):
        v = conn.row_vertices[r]
        assert sum(x * y for x, y in zip(row, ds.weights)) == targets[v]


def test_one_incidence_table_per_solve(monkeypatch, calabi, two_level):
    import hcmu.balance as balance

    calls = []
    table = balance._incidence
    monkeypatch.setattr(balance, "_incidence", lambda *args: calls.append(args) or table(*args))
    cusp = build_surface(1, [6, 2, 0, 0, 0], {1})
    assert cusp.ratio == 0
    for ds in (calabi, cusp, two_level):
        calls.clear()
        space = solve_balance(ds.angulation, ds.ratio, dict(enumerate(ds.vertex_angles())))
        # no particular is positive, so the tree and the positive solution
        # (the flow, or the closed form at R = 0) both read the one table
        assert min(space.particular) <= 0 and space.positive_witness is not None
        assert len(calls) == 1
    calls.clear()
    solve_tree(build_tree(7, 3).as_angulation(), 7, 3)
    assert len(calls) == 1


# -- the Fraction solve, oracle for the integer one ------------------------------


def _other_end(ma, a, v):
    b, w = ma.arcs[a]
    return w if b == v else b


def _spanning_tree(ma):
    """Breadth-first order from vertex 0 and each vertex's arc to its parent."""
    incident = [[] for _ in range(ma.num_vertices)]
    for a, (b, w) in enumerate(ma.arcs):
        incident[b].append(a)
        incident[w].append(a)
    parent_arc = [None] * ma.num_vertices
    seen = [False] * ma.num_vertices
    seen[0] = True
    order = [0]
    for v in order:  # the list grows while it is walked
        for a in incident[v]:
            u = _other_end(ma, a, v)
            if not seen[u]:
                seen[u] = True
                parent_arc[u] = a
                order.append(u)
    return order, parent_arc


def _search(colors, incident, flow, starts, stop=None):
    """Breadth-first reach in the residual graph from ``starts``.

    The residual graph runs black -> white along every arc and white -> black
    along the arcs that carry flow.  Returns (vertex -> arc it was reached by,
    the first reached vertex that satisfies ``stop``, where the walk ends, or
    None when the walk covers the whole reach).
    """
    via = {v: None for v in starts}
    queue = deque(starts)
    while queue:
        v = queue.popleft()
        black = colors[v] == BLACK
        for a, u in incident[v]:
            if u not in via and (black or flow[a]):
                via[u] = a
                if stop is not None and stop(u):
                    return via, u
                queue.append(u)
    return via, None


def fraction_solve_balance(ma, ratio, targets):
    """solve_balance as it ran over Fraction: the peel, the residual, the
    fundamental cycles, the witness with its exact delta and the Hall cut
    gap all computed on Fractions."""
    ratio = F(ratio)
    if not (0 <= ratio < 1):
        raise BadRatio(f"ratio {ratio} outside [0, 1)")
    demand = []
    for v in range(ma.num_vertices):
        t = F(targets[v])
        if ma.colors[v] == WHITE:
            if ratio == 0:
                if t != 0:
                    raise BadTargets(f"cusp system with nonzero white target at {v}")
                t = None
            else:
                t /= ratio
        demand.append(t)
    if ratio == 0:
        particular, basis = fraction_star_solution(ma, demand)
    else:
        particular, basis = fraction_tree_solution(ma, demand)
    if all(x > 0 for x in particular):
        return SolutionSpace(particular, basis, particular)
    witness, obstruction = fraction_positive_solution(ma, demand)
    return SolutionSpace(particular, basis, witness, obstruction)


def fraction_tree_solution(ma, demand):
    order, parent_arc = _spanning_tree(ma)
    residual = list(demand)
    particular = [F(0)] * ma.num_arcs
    for v in reversed(order[1:]):
        a = parent_arc[v]
        particular[a] = residual[v]
        residual[_other_end(ma, a, v)] -= residual[v]
    if residual[order[0]] != 0:
        raise Infeasible(f"balance system is inconsistent: residual {residual[order[0]]} at the root")
    depth = [0] * ma.num_vertices
    for v in order[1:]:
        depth[v] = depth[_other_end(ma, parent_arc[v], v)] + 1
    tree = set(parent_arc)
    basis = []
    for a in range(ma.num_arcs):
        if a in tree:
            continue
        vec = [F(0)] * ma.num_arcs
        vec[a] = F(1)
        ends = list(ma.arcs[a])
        signs = [-F(1), -F(1)]
        while ends[0] != ends[1]:
            i = 0 if depth[ends[0]] > depth[ends[1]] else 1
            t = parent_arc[ends[i]]
            vec[t] = signs[i]
            signs[i] = -signs[i]
            ends[i] = _other_end(ma, t, ends[i])
        basis.append(tuple(vec))
    return tuple(particular), basis


def fraction_star_solution(ma, demand):
    particular = [F(0)] * ma.num_arcs
    first = {}
    basis = []
    for a, (b, _) in enumerate(ma.arcs):
        if b not in first:
            first[b] = a
            particular[a] = demand[b]
        else:
            vec = [F(0)] * ma.num_arcs
            vec[a], vec[first[b]] = F(1), -F(1)
            basis.append(tuple(vec))
    return tuple(particular), basis


def fraction_positive_solution(ma, demand):
    nv, colors = ma.num_vertices, ma.colors
    for v, d in enumerate(demand):
        if d is not None and d <= 0:
            reach = {v} if colors[v] == WHITE else set(range(nv)) - {v}
            return None, fraction_hall_cut(ma, demand, reach)
    if any(d is None for d in demand):
        degree = [0] * nv
        for b, _ in ma.arcs:
            degree[b] += 1
        return tuple(demand[b] / degree[b] for b, _ in ma.arcs), None
    scale = math.lcm(*(d.denominator for d in demand))
    left = [int(d * scale) for d in demand]
    incident = [[] for _ in range(nv)]
    for a, (b, w) in enumerate(ma.arcs):
        incident[b].append((a, w))
        incident[w].append((a, b))
    flow = [0] * ma.num_arcs
    blacks = [v for v in range(nv) if colors[v] == BLACK]
    for source in blacks:
        while left[source]:
            via, end = _search(colors, incident, flow, [source],
                               lambda v: colors[v] == WHITE and left[v])
            if end is None:
                break
            path, v = [], end
            while v != source:
                path.append((via[v], colors[v] == WHITE))
                v = _other_end(ma, via[v], v)
            push = min([left[source], left[end]] + [flow[a] for a, up in path if not up])
            for a, up in path:
                flow[a] += push if up else -push
            left[source] -= push
            left[end] -= push
    short = [v for v in blacks if left[v]]
    if short:
        return None, fraction_hall_cut(ma, demand, _search(colors, incident, flow, short)[0])
    witness = [F(f, scale) for f in flow]
    zero = [a for a in range(ma.num_arcs) if not flow[a]]
    if not zero:
        return tuple(witness), None
    delta = F(min(f for f in flow if f), scale * 2 * len(zero))
    for a in zero:
        b, w = ma.arcs[a]
        via, end = _search(colors, incident, flow, [w], lambda v: v == b)
        if end is None:
            return None, fraction_hall_cut(ma, demand, via)
        witness[a] += delta
        v = b
        while v != w:
            e = via[v]
            witness[e] += delta if colors[v] == WHITE else -delta
            v = _other_end(ma, e, v)
    return tuple(witness), None


def fraction_hall_cut(ma, demand, reach):
    colors = ma.colors
    blacks = frozenset(v for v in range(ma.num_vertices) if colors[v] == BLACK and v not in reach)
    whites = frozenset(v for v in range(ma.num_vertices) if colors[v] == WHITE and v not in reach)
    crossing = tuple(a for a, (b, w) in enumerate(ma.arcs) if b in blacks and w in reach)
    gap = sum(demand[b] for b in blacks) - sum(demand[w] for w in whites)
    assert gap <= 0 and crossing
    return HallCut(blacks, whites, crossing, gap)


def outcome(solve, ma, ratio, targets):
    """The space ``solve`` returns, or the class and message it raises."""
    try:
        return solve(ma, ratio, targets)
    except HcmuError as exc:
        return type(exc), str(exc)


def assert_matches_the_fraction_solve(ma, ratio, targets):
    """solve_balance equals the Fraction oracle field by field, as values
    and as printed text; a refusal has the oracle's class and message."""
    got = outcome(solve_balance, ma, ratio, targets)
    want = outcome(fraction_solve_balance, ma, ratio, targets)
    if not isinstance(want, SolutionSpace):
        assert got == want
        return
    for field in ("particular", "kernel_basis", "positive_witness", "obstruction"):
        mine, theirs = getattr(got, field), getattr(want, field)
        assert mine == theirs and str(mine) == str(theirs), field
    assert all(type(x) is F for x in got.particular)
    assert all(type(x) is F for vec in got.kernel_basis for x in vec)
    assert got.positive_witness is None or all(type(x) is F for x in got.positive_witness)
    assert got.obstruction is None or type(got.obstruction.gap) is F


# -- the graph algorithms against the elimination oracle -------------------------


def random_systems():
    """200 seeded (map, ratio, weights, noise targets).  The weights have
    zeros and negatives, so some systems have no positive point; the
    independent noise targets are almost never consistent."""
    rng = random.Random(7001)
    for _ in range(200):
        ma = random_bicolored_angulation(rng)
        ratio = rng.choice(RATIOS)
        weights = [F(rng.randint(-1, 9), rng.randint(1, 3)) for _ in range(ma.num_arcs)]
        noise = {v: F(rng.randint(1, 9), rng.randint(1, 4)) for v in range(ma.num_vertices)}
        if ratio == 0:
            noise.update({v: F(0) for v in range(ma.num_vertices) if ma.colors[v] == WHITE})
        yield ma, ratio, weights, noise


def test_random_angulations_match_the_oracle():
    found = blocked = inconsistent = 0
    for ma, ratio, weights, noise in random_systems():
        for r in RATIOS:
            assert balance_rank(ma, r) == dense_rank(ma, r)
        space = check_space(ma, ratio, angles_of(ma, ratio, weights))
        found += space.positive_witness is not None
        blocked += space.positive_witness is None
        inconsistent += check_space(ma, ratio, noise) is None
    assert found >= 40 and blocked >= 60 and inconsistent >= 75  # 80 / 120 / 150


def test_positive_weights_always_give_a_witness():
    rng = random.Random(7002)
    for _ in range(200):
        ma = random_bicolored_angulation(rng)
        ratio = rng.choice(RATIOS)
        weights = [F(rng.randint(1, 5), rng.randint(1, 4)) for _ in range(ma.num_arcs)]
        space = check_space(ma, ratio, angles_of(ma, ratio, weights))
        assert space.positive_witness is not None


def test_builder_outputs_match_the_oracle():
    surfaces = [
        make_calabi(),
        build_surface(0, [F(3)] * 6, range(1, 7)),
        build_surface(1, [4, 0, 0], {1}),
        build_surface(2, [5, 3], {1, 2}),
        build_one_cone(1, 4, 3),
        build_one_cone(0, 7, 3),
    ]
    for ds in surfaces:
        targets = {v: ds.vertex_angle(v) for v in range(ds.angulation.num_vertices)}
        space = check_space(ds.angulation, ds.ratio, targets)
        assert space.positive_witness is not None
        if ds.ratio > 0:
            assert space.kernel_dimension == 2 * ds.angulation.genus + ds.angulation.num_faces - 1


def test_cusp_builder_output_has_a_star_kernel():
    ds = build_surface(1, [4, 0, 0], {1})
    assert ds.ratio == 0
    targets = {v: ds.vertex_angle(v) for v in range(ds.angulation.num_vertices)}
    space = check_space(ds.angulation, ds.ratio, targets)
    blacks = ds.angulation.colors.count(BLACK)
    assert space.kernel_dimension == ds.angulation.num_arcs - blacks  # b - p


def test_arc_forced_to_zero_is_certified():
    # w0 takes all of b0's weight over the parallel arcs, so arc 2 carries 0
    ma = parallel_pair()
    ratio = F(1, 2)
    targets = {0: F(2), 1: F(1), 2: ratio * 2, 3: ratio * 1}
    space = check_space(ma, ratio, targets)
    cut = space.obstruction
    assert cut.blacks == {0} and cut.whites == {2}
    assert cut.crossing == (2,) and cut.gap == 0


def test_violated_hall_inequality_is_certified():
    # w0 wants 2 but its only neighbour b0 has 1 to give
    ma = parallel_pair()
    ratio = F(1, 2)
    targets = {0: F(1), 1: F(2), 2: ratio * 2, 3: ratio * 1}
    space = check_space(ma, ratio, targets)
    assert space.obstruction.gap < 0


def test_nonpositive_targets_are_certified():
    ds = make_calabi()
    ma = ds.angulation
    black = angles_of(ma, ds.ratio, [F(0), F(0), F(1), F(1), F(1), F(1)])
    assert black[0] == 0
    space = check_space(ma, ds.ratio, black)
    assert space.obstruction.blacks == {0} and not space.obstruction.whites
    white = angles_of(ma, ds.ratio, [F(1), F(-1), F(1), F(-1), F(1), F(-1)])
    assert white[4] < 0
    space = check_space(ma, ds.ratio, white)
    assert 4 not in space.obstruction.whites
    cusp = {0: F(1), 1: F(-1), 2: F(1), 3: F(0), 4: F(0)}
    space = check_space(ma, F(0), cusp)
    assert space.obstruction.blacks == {1} and space.obstruction.gap == -1


def test_witness_of_the_calabi_surface_is_exact():
    space = solve_balance(make_calabi().angulation, F(2, 3), {v: F(1) for v in range(5)})
    assert space.obstruction is None
    assert all(isinstance(x, F) and x > 0 for x in space.positive_witness)


# -- the integer solve against the Fraction solve -------------------------------


def fixture_outputs():
    return [load(FIXTURES / name) for name in ("calabi.json", "two_level.json")]


def ladder_outputs():
    """build_surface(0, [3] * n) for n = 4..64."""
    return [build_surface(0, [F(3)] * n, range(1, n + 1)) for n in range(4, 65)]


def one_cone_outputs():
    """build_one_cone on every admissible triple with g <= 2 and p <= 20, and
    on a few q for each of a ladder of p up to 301."""
    triples = [(g, p, q) for g in range(3) for p in range(2, 21) for q in range(1, p)]
    triples += [
        (g, p, q)
        for g in (0, 1)
        for p in (41, 60, 97, 120, 200, 301)
        for q in sorted({1, 2, 3, 7, 17, p // 2, p - 1})
    ]
    return [
        build_one_cone(g, p, q)
        for g, p, q in triples
        if one_cone_admissible(g, p + q + 2 * g - 1, p, q)
    ]


def own_targets(ds):
    return dict(enumerate(ds.vertex_angles()))


def test_the_fixtures_solve_as_over_fractions():
    for ds in fixture_outputs():
        assert_matches_the_fraction_solve(ds.angulation, ds.ratio, own_targets(ds))
        # a nonzero ratio and a cusp system on the same map
        black = {v: t for v, t in own_targets(ds).items() if ds.angulation.colors[v] == BLACK}
        cusp = {v: black.get(v, F(0)) for v in range(ds.angulation.num_vertices)}
        assert_matches_the_fraction_solve(ds.angulation, F(0), cusp)


def test_the_ladder_solves_as_over_fractions():
    for ds in ladder_outputs():
        assert_matches_the_fraction_solve(ds.angulation, ds.ratio, own_targets(ds))


def test_one_cone_outputs_solve_as_over_fractions():
    outputs = one_cone_outputs()
    assert len(outputs) >= 500 and max(ds.angulation.colors.count(BLACK) for ds in outputs) == 301
    for ds in outputs:
        assert_matches_the_fraction_solve(ds.angulation, ds.ratio, own_targets(ds))


def test_the_integer_solve_builds_one_fraction_per_distinct_value(monkeypatch):
    ds = build_surface(0, [F(3)] * 64, range(1, 65))
    targets = own_targets(ds)
    calls = []
    fraction_new = F.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    assert F(1, 3) and calls  # construction sees the patch
    calls.clear()
    space = solve_balance(ds.angulation, ds.ratio, targets)
    # the ratio, a demand t / R per white vertex, then one per distinct value
    # of the particular solution and of the witness, which the flow found
    assert space.obstruction is None and set(space.particular) != set(space.positive_witness)
    whites = ds.angulation.colors.count(WHITE)
    assert len(calls) == 1 + whites + len(set(space.particular)) + len(set(space.positive_witness))
