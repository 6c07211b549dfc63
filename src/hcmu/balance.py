"""Exact linear algebra for balance equations.

Everything here runs over ``Fraction``; no floating point enters this module.
The connection matrix of a bi-colored angulation has one row per vertex
(black rows first) and one column per arc, with exactly two ones per column.
Scaling the white rows by the ratio R gives the balance matrix whose affine
solution set is the space of weight functions realizing prescribed cone
angles.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .angulation import BLACK, WHITE, MixedAngulation
from .errors import (
    AssertionFailure,
    BadRatio,
    BadTargets,
    Infeasible,
    NotATree,
)


@dataclass(frozen=True)
class ConnectionMatrix:
    """0-1 vertex/arc incidence with black rows listed first."""

    rows: tuple  # tuple of row tuples over Fraction
    black_rows: int
    row_vertices: tuple  # vertex id per row

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)


def connection_matrix(ma: MixedAngulation) -> ConnectionMatrix:
    order = [v for v in range(ma.num_vertices) if ma.colors[v] == BLACK]
    blacks = len(order)
    order += [v for v in range(ma.num_vertices) if ma.colors[v] == WHITE]
    index = {v: r for r, v in enumerate(order)}
    rows = [[Fraction(0)] * ma.num_arcs for _ in order]
    for a, (b, w) in enumerate(ma.arcs):
        rows[index[b]][a] += 1
        rows[index[w]][a] += 1
    return ConnectionMatrix(tuple(tuple(r) for r in rows), blacks, tuple(order))


def _eliminate(m, ncols):
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
        inv = Fraction(1) / m[rank][col]
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
    return len(_eliminate(m, len(m[0]))) if m else 0


def _solve_affine(rows, rhs):
    """Return (particular or None, kernel basis) of rows * x = rhs."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    aug = [list(rows[r]) + [rhs[r]] for r in range(nrows)]
    pivots = _eliminate(aug, ncols)
    rank = len(pivots)
    for r in range(rank, nrows):
        if aug[r][ncols] != 0:
            return None, []
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    particular = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        particular[col] = aug[r][ncols]
    basis = []
    for fcol in free:
        vec = [Fraction(0)] * ncols
        vec[fcol] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -aug[r][fcol]
        basis.append(tuple(vec))
    return tuple(particular), basis


@dataclass
class SolutionSpace:
    particular: Optional[tuple]
    kernel_basis: list
    positive_witness: Optional[tuple] = None

    @property
    def kernel_dimension(self) -> int:
        return len(self.kernel_basis)


@dataclass(frozen=True)
class BalanceSystem:
    """Lambda(R) * M * W = beta, rows ordered like the connection matrix."""

    connection: ConnectionMatrix
    ratio: Fraction
    targets: tuple

    @property
    def rows(self):
        return balance_rows(self.connection, self.ratio)

    @property
    def ratio_diagonal(self):
        n = len(self.connection.rows)
        return tuple(
            Fraction(1) if r < self.connection.black_rows else self.ratio
            for r in range(n)
        )


def balance_rows(conn: ConnectionMatrix, ratio: Fraction):
    """Rows of the ratio-scaled balance matrix Lambda(R) * M."""
    out = []
    for r, row in enumerate(conn.rows):
        if r < conn.black_rows:
            out.append(row)
        else:
            out.append(tuple(x * ratio for x in row))
    return out


def solve_balance(ma: MixedAngulation, ratio, targets) -> SolutionSpace:
    """Affine solution set of the balance equations.

    ``targets`` maps vertex id -> prescribed angle (in weight units at black
    vertices, absolute cone angle at white ones).  For R = 0 the white targets
    must vanish.
    """
    ratio = Fraction(ratio)
    if not (0 <= ratio < 1):
        raise BadRatio(f"ratio {ratio} outside [0, 1)")
    conn = connection_matrix(ma)
    rhs = []
    for r, v in enumerate(conn.row_vertices):
        t = Fraction(targets[v])
        if ratio == 0 and r >= conn.black_rows and t != 0:
            raise BadTargets(f"cusp system with nonzero white target at {v}")
        rhs.append(t)
    system = BalanceSystem(conn, ratio, tuple(rhs))
    particular, basis = _solve_affine(system.rows, rhs)
    if particular is None:
        raise Infeasible("balance system is inconsistent")
    witness = _positive_witness(particular, basis)
    return SolutionSpace(particular, basis, witness)


def _positive_witness(particular, basis, max_denominator=64):
    """Best-effort strictly positive point of the affine set.

    Scans kernel coefficients over a bounded rational grid; absence of a
    witness is reported as None, not proven.
    """
    if all(x > 0 for x in particular):
        return tuple(particular)
    if not basis:
        return None
    grid = [Fraction(n, d) for d in (1, 2, 4, 8, 16, 32, 64) for n in range(-4 * d, 4 * d + 1)]
    grid = sorted(set(grid), key=lambda f: (abs(f), f < 0))
    if len(basis) == 1:
        for c in grid:
            cand = [p + c * k for p, k in zip(particular, basis[0])]
            if all(x > 0 for x in cand):
                return tuple(cand)
        return None
    if len(basis) == 2:
        coarse = [c for c in grid if c.denominator <= 8]
        for c1, c2 in product(coarse, repeat=2):
            cand = [
                p + c1 * k1 + c2 * k2
                for p, k1, k2 in zip(particular, basis[0], basis[1])
            ]
            if all(x > 0 for x in cand):
                return tuple(cand)
        return None
    # higher dimensions: deterministic coarse sweep on the first two directions
    coarse = [c for c in grid if c.denominator <= 4]
    for c1, c2 in product(coarse, repeat=2):
        cand = list(particular)
        for i in range(len(cand)):
            cand[i] += c1 * basis[0][i] + c2 * basis[1][i]
        if all(x > 0 for x in cand):
            return tuple(cand)
    return None


# -- trees --------------------------------------------------------------------


def solve_tree(ma: MixedAngulation, p: int, q: int):
    """Unique integer weights on a bi-colored tree with targets q/p.

    Black vertices must sum to ``q``, white ones to ``p``.  Implements leaf
    peeling: repeatedly force the weight at a degree-1 vertex and delete it.
    Raises ``Infeasible`` if a forced weight is <= 0 or the last residual is
    nonzero.
    """
    nv, na = ma.num_vertices, ma.num_arcs
    if na != nv - 1:
        raise NotATree(f"{na} arcs on {nv} vertices")
    target = [
        Fraction(q) if ma.colors[v] == BLACK else Fraction(p)
        for v in range(nv)
    ]
    incident = [[] for _ in range(nv)]
    for a, (b, w) in enumerate(ma.arcs):
        incident[b].append(a)
        incident[w].append(a)
    alive_arc = [True] * na
    alive_vertex = [True] * nv
    deg = [len(inc) for inc in incident]
    residual = list(target)
    weights: list[Optional[Fraction]] = [None] * na
    remaining = nv
    while remaining > 1:
        v = next(
            (u for u in range(nv) if alive_vertex[u] and deg[u] == 1), None
        )
        if v is None:
            raise NotATree("no leaf found; graph is not a tree")
        a = next(x for x in incident[v] if alive_arc[x])
        w = residual[v]
        if w <= 0:
            raise Infeasible(f"forced weight {w} <= 0 at vertex {v}")
        weights[a] = w
        b, wv = ma.arcs[a]
        other = wv if b == v else b
        residual[other] -= w
        alive_arc[a] = False
        alive_vertex[v] = False
        deg[v] = 0
        deg[other] -= 1
        remaining -= 1
    last = next(u for u in range(nv) if alive_vertex[u])
    if residual[last] != 0:
        raise Infeasible(f"residual {residual[last]} at final vertex {last}")
    return tuple(weights)


def divisibility_check(weights, lam: int) -> bool:
    """Every tree weight is a multiple of the common divisor ``lam``."""
    return all(Fraction(w) % lam == 0 for w in weights)


def weight_space_dimension(dataset) -> int:
    """Kernel dimension of the balance matrix; must equal 2g + j0 - 1."""
    if dataset.ratio == 0:
        raise BadRatio("weight space dimension is defined for R > 0")
    ma = dataset.angulation
    conn = connection_matrix(ma)
    rows = balance_rows(conn, dataset.ratio)
    dim = ma.num_arcs - matrix_rank(rows)
    expected = 2 * ma.genus + ma.num_faces - 1
    if dim != expected:
        raise AssertionFailure(
            f"kernel dimension {dim} != 2g + j0 - 1 = {expected}"
        )
    return dim
