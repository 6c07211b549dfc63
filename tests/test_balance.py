import random
from fractions import Fraction as F
from typing import NamedTuple

import pytest

from conftest import make_calabi, random_bicolored_angulation
from hcmu.angulation import BLACK, WHITE, MixedAngulation
from hcmu.balance import (
    balance_rank,
    divisibility_check,
    solve_balance,
    solve_tree,
    weight_space_dimension,
)
from hcmu.builders import (
    build_coprime_tree,
    build_one_cone,
    build_surface,
    build_tree,
    tree_angulation,
)
from hcmu.errors import BadTargets, Infeasible, NotATree
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


def check_space(ma, ratio, targets):
    """solve_balance against the elimination oracle; returns the space."""
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


def test_solve_tree_star():
    ma = tree_angulation(3, 1, [(0, 0), (1, 0), (2, 0)])
    assert solve_tree(ma, 3, 1) == (1, 1, 1)


def test_solve_tree_seven_three():
    tree = build_coprime_tree(7, 3)
    ma = tree.as_angulation()
    assert solve_tree(ma, 7, 3) == tree.weights == (3, 3, 1, 2, 3, 2, 1, 3, 3)


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


# -- the graph algorithms against the elimination oracle -------------------------


def test_random_angulations_match_the_oracle():
    rng = random.Random(7001)
    found = blocked = inconsistent = 0
    for _ in range(200):
        ma = random_bicolored_angulation(rng)
        for r in RATIOS:
            assert balance_rank(ma, r) == dense_rank(ma, r)
        ratio = rng.choice(RATIOS)
        # weights with zeros and negatives: some systems have no positive point
        weights = [F(rng.randint(-1, 9), rng.randint(1, 3)) for _ in range(ma.num_arcs)]
        targets = angles_of(ma, ratio, weights)
        space = check_space(ma, ratio, targets)
        found += space.positive_witness is not None
        blocked += space.positive_witness is None
        # independent targets are almost never consistent
        noise = {v: F(rng.randint(1, 9), rng.randint(1, 4)) for v in range(ma.num_vertices)}
        if ratio == 0:
            noise.update({v: F(0) for v in range(ma.num_vertices) if ma.colors[v] == WHITE})
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
