"""Geometric deformations as exact combinatorial surgeries.

A level circle at height c is an orbit of the successor map: leaving a bigon
through its exit boundary, the circle continues around the black end when
the boundary's marked point lies below the circle (face level > c) and
around the white end otherwise.  Twisting cuts along one circle and re-glues
with a rational shift, redirecting every meridian ray that crosses it; split
replaces an integer-angle extremal point by a saddle plus that many smooth
extremal points.  Both rewrite the rotations alike: every dart of an arc
that the surgery cuts is replaced in place by the darts of its pieces, and
every other dart is renumbered, so a rotation row starts where it did unless
its first dart was cut.  All arithmetic in this module is exact and integer:
the levels are compared on the data set's level grid, once per data set and
level, and positions along a circle or around a vertex are integers in units
of 1/D, D a multiple of the weight grid's denominator that also clears the
shift or the cut spacing.  Only the new weights are built as Fractions.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Optional

from .angulation import BLACK, WHITE, MixedAngulation
from .constraints import _rational
from .dataset import DataSet
from .errors import (
    AssertionFailure,
    BadCircleIndex,
    BadRatio,
    CriticalLevel,
    CuspVertex,
    CutOnBoundary,
    NotInteger,
)


class LevelCircle(NamedTuple):
    """One component of the level set at height ``level``."""

    level: Fraction
    members: tuple  # arc ids in traversal order, starting at the smallest
    circumference: Fraction


def _sides(ds: DataSet, c):
    """``c`` as a Fraction and, per face, whether its level lies above c,
    compared on the level grid; a critical level is refused."""
    c = _rational(c, "c")
    if not (0 < c < 1):
        raise CriticalLevel(f"level {c} outside (0, 1)")
    x, d = c.numerator * ds.grid.dl, c.denominator
    above = []
    for f, n in enumerate(ds.grid.levels):
        if n * d == x:
            raise CriticalLevel(f"level {c} equals the level of face {f}")
        above.append(n * d > x)
    return c, above


def circles_at_level(ds: DataSet, c) -> list:
    """All level circles at height c, sorted by smallest member arc, in a
    fresh list.  The data set keeps the last level walked as ``(level,
    sides, circles)``, ``sides`` being ``_sides``' answer per face, so
    ``twist`` and ``twist_is_trivial`` there compare no level and walk no
    circle again; any other level is checked by ``_sides``."""
    if ds._circles is not None and ds._circles[0] == c:
        return list(ds._circles[2])
    c, above = _sides(ds, c)
    ma = ds.angulation
    sigma, sigma_inv, face_of_dart = ma.sigma, ma.sigma_inv, ma.face_of_dart
    nxt = [
        sigma[2 * a] >> 1 if above[face_of_dart[2 * a]] else sigma_inv[2 * a + 1] >> 1
        for a in range(ma.num_arcs)
    ]
    dw, weights = ds.grid.dw, ds.grid.weights
    seen = [False] * ma.num_arcs
    circles = []
    for a0 in range(ma.num_arcs):
        if seen[a0]:
            continue
        orbit = []
        total = 0
        a = a0
        while True:
            if seen[a]:
                raise AssertionFailure("level successor is not a permutation")
            seen[a] = True
            orbit.append(a)
            total += weights[a]
            a = nxt[a]
            if a == a0:
                break
        circles.append(LevelCircle(c, tuple(orbit), Fraction(total, dw)))
    ds._circles = (c, above, tuple(circles))
    return circles


def _cut_data(ds: DataSet, circle: LevelCircle, sides, unit: int):
    """Per cut, at the end of each member's interval: its position
    (cumulative weight in units of 1/``unit``, a multiple of the weight
    grid's dw), its gate face, and whether the gate's level lies above c,
    read off the faces' ``sides`` that ``_circle`` returns."""
    ma = ds.angulation
    sigma = ma.sigma
    scale = unit // ds.grid.dw
    members = circle.members
    gates = [ma.face_left(a) for a in members]
    above = [sides[f] for f in gates]
    # the circle turns around a's black end at a gate above c, its white end below
    for a, nxt, up in zip(members, members[1:] + members[:1], above):
        if not (sigma[2 * a] == 2 * nxt if up else sigma[2 * nxt + 1] == 2 * a + 1):
            raise AssertionFailure(
                f"level circle leaves arc {a} for arc {nxt}, which does not follow it "
                f"around its {'black' if up else 'white'} end"
            )
    return list(accumulate(ds.grid.weights[a] * scale for a in members)), gates, above


def _circle(ds: DataSet, c, circle_index: int):
    """The circle ``circle_index`` at level c and, per face, whether its
    level lies above c."""
    circles = circles_at_level(ds, c)
    if type(circle_index) is not int or not (0 <= circle_index < len(circles)):
        raise BadCircleIndex(f"index {circle_index} of {len(circles)} circles")
    return circles[circle_index], ds._circles[1]


def twist_is_trivial(ds: DataSet, c, circle_index: int) -> bool:
    """True iff one side of the circle is a saddle-free disk, making every
    twist along it an isometry."""
    _, _, above = _cut_data(ds, *_circle(ds, c, circle_index), ds.grid.dw)
    return len(set(above)) == 1


# -- rebuilding after a surgery ------------------------------------------------

NEW_FACE = -1  # claim of a face that the surgery creates


def _kept(ds: DataSet, dropped, vmap=None):
    """The arcs a surgery keeps: every arc not in ``dropped``, renumbered in
    order, with its ends renumbered by ``vmap`` when one is given.

    Returns the old-to-new arc map, the kept arcs, their weights, and the
    claims of their darts, a list indexed by new int dart: each one borders
    the same old face as before.
    """
    ma = ds.angulation
    face_of_dart = ma.face_of_dart
    arc_map = {}
    arcs = []
    weights = []
    claims = []
    for a, (b, w) in enumerate(ma.arcs):
        if a in dropped:
            continue
        arc_map[a] = len(arcs)
        arcs.append((b, w) if vmap is None else (vmap[b], vmap[w]))
        weights.append(ds.weights[a])
        claims += face_of_dart[2 * a : 2 * a + 2]
    return arc_map, arcs, weights, claims


def _substitute(rows, arc_map, repl):
    """The rotation rows after a surgery: a dart of a kept arc is renumbered
    through ``arc_map``, and any other dart d is replaced in place by the
    new darts ``repl[d]``, so a row starts where it did unless its first
    dart was replaced."""
    out = []
    for row in rows:
        new = []
        for d in row:
            a = arc_map.get(d >> 1)
            if a is None:
                new += repl[d]
            else:
                new.append(2 * a + (d & 1))
        out.append(new)
    return out


def _rebuild(ds: DataSet, colors, arcs, weights, rotations, claims, new_level=None) -> DataSet:
    """The data set that a surgery on ``ds`` produces.

    ``claims[d]`` is the old face that int dart d of the new map borders,
    or ``NEW_FACE``.  The claims must agree on every new face, and each
    old face must be claimed by exactly one new face, of the same degree,
    which keeps its level; new faces get ``new_level``.
    """
    ma = ds.angulation
    new_ma = MixedAngulation(colors, arcs, rotations)
    if len(claims) != len(new_ma.face_of_dart):
        raise AssertionFailure(
            f"{len(claims)} face claims for the {len(new_ma.face_of_dart)} darts after a surgery"
        )
    old_of = [claims[walk[0]] for walk in new_ma.faces]  # each face's claim, off its first dart
    if [old_of[nf] for nf in new_ma.face_of_dart] != claims:
        raise AssertionFailure("inconsistent face claims after a surgery")
    if None in old_of or sorted(of for of in old_of if of != NEW_FACE) != list(range(ma.num_faces)):
        raise AssertionFailure("faces were not matched bijectively after a surgery")
    levels = []
    for walk, of in zip(new_ma.faces, old_of):
        if of == NEW_FACE:
            levels.append(new_level)
        elif len(walk) != len(ma.faces[of]):
            raise AssertionFailure("a surgery changed a saddle angle")
        else:
            levels.append(ds.face_levels[of])
    if new_ma.genus != ma.genus:
        raise AssertionFailure(f"a surgery changed the genus from {ma.genus} to {new_ma.genus}")
    return DataSet(new_ma, ds.k0, ds.ratio, weights, levels)


@dataclass(frozen=True)
class TwistOutcome:
    dataset: Optional[DataSet]
    non_generic: tuple = ()

    @property
    def is_generic(self) -> bool:
        return self.dataset is not None


def twist(ds: DataSet, c, circle_index: int, psi) -> TwistOutcome:
    """Cut along one level circle and re-glue with shift ``psi``.

    Every boundary ray crossing the circle continues on the far side at the
    shifted coordinate and runs straight to the extremal point there.  If a
    redirected ray lands exactly on a cut point whose saddle lies on the far
    side, the result has a saddle-saddle meridian and is reported instead of
    returned.

    The re-glued circle is cut by lines at coordinates tau: a cut whose
    gate's level lies below c stays, one whose gate's level lies above c
    moves by psi.  Each line and the next bound a strip, a new arc from the
    black end of its top member (whose interval holds tau) to the white end
    of its bottom member (whose interval holds tau - psi).  In every
    rotation a member's black dart is replaced in place by its strips' black
    darts in increasing tau, and its white dart by its strips' white darts
    in decreasing tau - psi; a member with no strip at one end loses that
    dart.

    Positions on the circle are integers in units of 1/D, D the lcm of the
    weight grid's dw and the denominator of ``psi``; the strip widths are
    the only Fractions built.
    """
    circle, sides = _circle(ds, c, circle_index)
    ma = ds.angulation
    members = circle.members
    k = len(members)
    psi = _rational(psi, "psi")
    unit = math.lcm(ds.grid.dw, psi.denominator)
    positions, gates, above = _cut_data(ds, circle, sides, unit)
    phi = positions[-1]
    psi = psi.numerator * (unit // psi.denominator) % phi

    gate_at = {}  # line coordinate tau -> gate face
    clashes = []
    for pos, gate, up in zip(positions, gates, above):
        tau = (pos + psi if up else pos) % phi
        if tau in gate_at:
            low, high = (gate_at[tau], gate) if up else (gate, gate_at[tau])
            clashes.append((ma.face_keys[low], ma.face_keys[high]))
        else:
            gate_at[tau] = gate
    if clashes:
        return TwistOutcome(None, tuple(sorted(clashes)))

    taus = sorted(gate_at)
    arc_map, new_arcs, new_weights, claims = _kept(ds, set(members))
    base = len(new_arcs)  # strip t becomes arc base + t
    repl = {d: [] for a in members for d in (2 * a, 2 * a + 1)}
    bottoms = []
    for t, tau in enumerate(taus):
        nxt = taus[(t + 1) % k]
        top = members[bisect_right(positions, tau)]
        below = (tau - psi) % phi  # the line's position on the bottom side
        bottom = members[bisect_right(positions, below)]
        new_arcs.append((ma.arcs[top][0], ma.arcs[bottom][1]))
        new_weights.append(Fraction((nxt - tau) % phi or phi, unit))
        claims += (gate_at[nxt], gate_at[tau])
        repl[2 * top].append(2 * (base + t))
        bottoms.append((below, bottom, t))
    for _, bottom, t in sorted(bottoms, reverse=True):
        repl[2 * bottom + 1].append(2 * (base + t) + 1)

    rows = _substitute(ma.darts, arc_map, repl)
    out = _rebuild(ds, ma.colors, new_arcs, new_weights, rows, claims)
    if out.total_weight() != ds.total_weight():
        raise AssertionFailure(
            f"twist changed the total weight from {ds.total_weight()} to {out.total_weight()}"
        )
    return TwistOutcome(out)


# -- split ---------------------------------------------------------------------


def split(ds: DataSet, vertex: int, offset, new_level) -> DataSet:
    """Replace an integer-angle extremal point by a saddle of the same angle.

    The cone at ``vertex`` is cut along equally spaced meridian segments
    reaching level ``new_level``; the sectors become smooth extremal points
    and the cut bottoms glue into a new saddle.  ``offset`` in [0, 1) places
    the first cut, in units of the cut spacing, measured from the smallest
    incident arc id.
    """
    ma = ds.angulation
    if type(vertex) is not int or not (0 <= vertex < ma.num_vertices):
        raise BadCircleIndex(f"no vertex {vertex}")
    color = ma.colors[vertex]
    if color == WHITE and ds.ratio == 0:
        raise CuspVertex("a cusp has angle zero and cannot be split")
    angle = ds.vertex_angle(vertex)
    if angle.denominator != 1 or angle < 2:
        raise NotInteger(f"vertex angle {angle} is not an integer > 1")
    alpha = int(angle)
    new_level = _rational(new_level, "new_level")
    if not (0 < new_level < 1):
        raise BadRatio(f"level {new_level} outside (0, 1)")
    offset = _rational(offset, "offset")
    if not (0 <= offset < 1):
        raise CutOnBoundary(f"offset {offset} outside [0, 1)")
    spacing = Fraction(1) if color == BLACK else 1 / ds.ratio
    first = offset * spacing
    # positions around the vertex, from its least dart, in units of 1/unit
    unit = math.lcm(ds.grid.dw, spacing.denominator, first.denominator)
    step = spacing.numerator * (unit // spacing.denominator)
    scale = unit // ds.grid.dw

    rot_x = [d >> 1 for d in ma.darts[vertex]]  # its arcs in rotation order
    start = rot_x.index(min(rot_x))
    rot_x = rot_x[start:] + rot_x[:start]
    bounds = list(accumulate((ds.grid.weights[a] * scale for a in rot_x), initial=0))
    total = bounds[-1]
    if total != alpha * step:
        raise AssertionFailure(
            f"weights around vertex {vertex} sum to {total}/{unit}, expected angle {alpha} "
            f"times the spacing, {alpha * step}/{unit}"
        )
    cuts = [first.numerator * (unit // first.denominator) + j * step for j in range(alpha)]
    if not set(bounds).isdisjoint(cuts):
        raise CutOnBoundary("a cut position hits a sector boundary")

    # -- new vertex numbering: drop x, append the alpha sector vertices
    others = [v for v in range(ma.num_vertices) if v != vertex]
    vmap = {v: i for i, v in enumerate(others)}
    q_base = len(others)
    colors = [ma.colors[v] for v in others] + [color] * alpha

    side = color == WHITE  # the sector vertices' darts are 2 * na + side
    far = side ^ 1
    arc_map, new_arcs, new_weights, claims = _kept(ds, set(rot_x), vmap)
    repl = {}
    q_members = {j: [] for j in range(alpha)}
    for r, a in enumerate(rot_x):
        lo, hi = bounds[r], bounds[r + 1]
        pts = [lo] + [p for p in cuts if lo < p < hi] + [hi]
        pieces = range(len(new_arcs), len(new_arcs) + len(pts) - 1)
        for na, a_s, b_s in zip(pieces, pts, pts[1:]):
            # the sector of the last cut at or before a_s; before the first cut, the last sector
            owner = (a_s - cuts[0]) // step % alpha
            ends = (q_base + owner, vmap[ma.arcs[a][far]])
            new_arcs.append((ends[side], ends[far]))
            new_weights.append(Fraction(b_s - a_s, unit))
            q_members[owner].append(((a_s - cuts[0]) % total, na))
        # every piece borders the new face but at the first one's far end and the
        # last one's split end, which border the arc's old faces
        claims += [NEW_FACE] * (2 * len(pieces))
        claims[2 * pieces[0] + far] = ma.face_of_dart[2 * a + far]
        claims[2 * pieces[-1] + side] = ma.face_of_dart[2 * a + side]
        # the far end of a split arc sees the pieces reversed
        repl[2 * a + far] = [2 * na + far for na in reversed(pieces)]
    rot = _substitute([ma.darts[v] for v in others], arc_map, repl)
    for j in range(alpha):
        rot.append([2 * na + side for _, na in sorted(q_members[j])])

    out = _rebuild(ds, colors, new_arcs, new_weights, rot, claims, new_level)
    new_ma = out.angulation
    new_faces = {f for f, of in zip(new_ma.face_of_dart, claims) if of == NEW_FACE}
    if len(new_faces) != 1 or new_ma.face_degree(new_faces.pop()) != 2 * alpha:
        raise AssertionFailure("split did not produce one new 2*alpha-gon")
    return out
