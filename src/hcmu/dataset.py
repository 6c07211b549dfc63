"""The data-set representation of a generic HCMU surface.

A surface is the tuple (angulation, K0, R, weights, face levels): the
bi-colored angulation records the gluing pattern of the bigon strips, the
weight of an arc is the top angle of its bigon divided by 2*pi, and the face
level places each saddle along the meridian as a normalized curvature level
s = (K0 - K)/(K0 - K1) in (0, 1).  Cone angles at the vertices follow from
the balance equations: Sum W at a black vertex, R * Sum W at a white one.

Each data set also holds its rationals on an integer grid (:class:`Grid`):
the weights as numerators over the lcm of their denominators, the levels
likewise.  Validation, the angle sums, the canonical form and the
deformations read those integers; the ``Fraction`` tuples stay the public
form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .angulation import BLACK, WHITE, MixedAngulation
from .constraints import AngleVector
from .errors import CensusInconsistent, ValidationError


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    where: object
    message: str

    def __str__(self):
        return f"{self.code}({self.where}): {self.message}"


class Grid(NamedTuple):
    """A data set's rationals as integer numerators over common denominators."""

    dw: int  # lcm of the weight denominators
    weights: tuple  # weight numerators over dw, by arc
    dl: int  # lcm of the face level denominators
    levels: tuple  # level numerators over dl, by face


def _on_grid(values):
    """(lcm of the denominators, each numerator over it) of Fractions."""
    ratios = [x.as_integer_ratio() for x in values]
    den = math.lcm(*{d for _, d in ratios})
    return den, tuple([n * (den // d) for n, d in ratios])


class DataSet:
    """Immutable surface representation.

    ``weights`` and ``face_levels`` are exact rationals; ``k0`` is the only
    floating quantity.  ``face_levels`` is indexed by face position in the
    angulation's canonical face order, and ``grid`` holds both on integer
    grids.  The canonical form and its hash are computed on first use and
    cached, so equality and hashing cost at most one code, and so are the
    circles of the last level circled.  A weight or level given as a
    ``Fraction`` is kept as it is.
    """

    __slots__ = ("angulation", "k0", "ratio", "weights", "face_levels", "grid", "_form", "_hash", "_circles")

    def __init__(self, angulation: MixedAngulation, k0, ratio, weights, face_levels):
        self.angulation = angulation
        self.k0 = float(k0)
        self.ratio = Fraction(ratio)
        self.weights = tuple([w if type(w) is Fraction else Fraction(w) for w in weights])
        if isinstance(face_levels, dict):
            levels = [face_levels[i] for i in range(angulation.num_faces)]
        else:
            levels = list(face_levels)
        self.face_levels = tuple([s if type(s) is Fraction else Fraction(s) for s in levels])
        self.grid = Grid(*_on_grid(self.weights), *_on_grid(self.face_levels))
        self._form = None
        self._hash = None
        self._circles = None  # (level, each face's side of it, circles), see deformations.circles_at_level
        issues = validate_dataset(self)
        if issues:
            raise ValidationError("; ".join(str(i) for i in issues), f"/{issues[0].code}")

    # -- angles ---------------------------------------------------------------

    def vertex_weight_sum(self, v: int) -> Fraction:
        grid = self.grid
        return Fraction(sum(grid.weights[a] for a in self.angulation.arcs_at(v)), grid.dw)

    def vertex_angle(self, v: int) -> Fraction:
        s = self.vertex_weight_sum(v)
        return s if self.angulation.colors[v] == BLACK else self.ratio * s

    def vertex_angles(self) -> list:
        """Every vertex angle, as :meth:`vertex_angle` gives it, in one pass.

        The weight sums are read off the grid; one Fraction is built per
        vertex.
        """
        den, r = self.grid.dw, self.ratio
        white_den = r.denominator * den
        return [
            Fraction(s, den) if c == BLACK else Fraction(r.numerator * s, white_den)
            for c, s in zip(self.angulation.colors, _grid_sums(self))
        ]

    def face_angle(self, f: int) -> Fraction:
        return Fraction(self.angulation.face_degree(f), 2)

    def total_weight(self) -> Fraction:
        return Fraction(sum(self.grid.weights), self.grid.dw)

    def canonical_form(self):
        """(code, dw, dl, k0, ratio), the code labelled by the grid's
        numerators: equal forms mean isomorphic surfaces with equal weights,
        levels, K0 and R (a finite positive float) and hashes alike in every
        process, since equal rationals share their lcm and no str is in it."""
        if self._form is None:
            dw, weights, dl, levels = self.grid
            code = self.angulation.canonical_form(weights, levels)
            self._form = (code, dw, dl, self.k0, self.ratio)
            self._hash = hash(self._form)
        return self._form

    def __eq__(self, other):
        return isinstance(other, DataSet) and self.canonical_form() == other.canonical_form()

    def __hash__(self):
        if self._form is None:
            self.canonical_form()
        return self._hash

    def __repr__(self):
        ma = self.angulation
        return (
            f"DataSet(genus={ma.genus}, vertices={ma.num_vertices}, "
            f"arcs={ma.num_arcs}, faces={ma.num_faces}, R={self.ratio})"
        )


def validate_dataset(ds) -> list:
    """All invariant violations, as a report (never raises)."""
    issues = []
    if not 0 < ds.k0 < math.inf:
        issues.append(ValidationIssue("BadK0", "k0", f"K0 = {ds.k0} must be finite and > 0"))
    if not (0 <= ds.ratio < 1):
        issues.append(ValidationIssue("BadRatio", "ratio", f"R = {ds.ratio} outside [0, 1)"))
    ma = ds.angulation
    if ma.degenerate:
        issues.append(ValidationIssue("BadAngulation", "angulation", "degenerate face of degree < 4"))
    _, weights, dl, levels = ds.grid
    if len(weights) != ma.num_arcs:
        issues.append(ValidationIssue("BadWeight", "*", "weight table does not match arcs"))
    else:
        for a, n in enumerate(weights):
            if not n > 0:
                issues.append(ValidationIssue("BadWeight", a, f"weight {ds.weights[a]} must be > 0"))
    if len(levels) != ma.num_faces:
        issues.append(ValidationIssue("BadLevel", "*", "level table does not match faces"))
    else:
        for f, n in enumerate(levels):
            if not 0 < n < dl:
                issues.append(ValidationIssue("BadLevel", f, f"level {ds.face_levels[f]} outside (0, 1)"))
    return issues


# -- census --------------------------------------------------------------------


def _grid_sums(ds) -> list:
    """Per vertex, the numerator of its weight sum over ``ds.grid.dw``."""
    sums = [0] * ds.angulation.num_vertices
    for (b, w), x in zip(ds.angulation.arcs, ds.grid.weights):
        sums[b] += x
        sums[w] += x
    return sums


def _extremal_sums(ds):
    """Weight sums over dw of the singular vertices, and the number of the
    smooth ones (angle 1: sum = dw if black, R * sum = 1 if white), by color."""
    dw, rn, rd = ds.grid.dw, ds.ratio.numerator, ds.ratio.denominator
    singular, smooth = {BLACK: [], WHITE: []}, {BLACK: 0, WHITE: 0}
    for c, s in zip(ds.angulation.colors, _grid_sums(ds)):
        if s == dw if c == BLACK else rn * s == rd * dw:
            smooth[c] += 1
        else:
            singular[c].append(s)
    return singular, smooth


@dataclass(frozen=True)
class ExtremalCensus:
    p: int
    q: int
    m_plus: int
    m_minus: int
    a_plus: Fraction
    a_minus: Fraction
    a: int
    m: int
    b: int

    def as_tuple(self):
        return (self.p, self.q, self.m_plus, self.m_minus, self.a, self.b)


def census(ds: DataSet) -> ExtremalCensus:
    """Counts of extremal points, checked against the index identities; a
    saddle's angle is half its face degree, an int on a bipartite map."""
    ma, dw, r = ds.angulation, ds.grid.dw, ds.ratio
    singular, smooth = _extremal_sums(ds)
    p = len(singular[BLACK]) + smooth[BLACK]
    cs = ExtremalCensus(
        p=p,
        q=ma.num_vertices - p,
        m_plus=smooth[BLACK],
        m_minus=smooth[WHITE],
        a_plus=Fraction(sum(singular[BLACK]), dw),
        a_minus=Fraction(r.numerator * sum(singular[WHITE]), r.denominator * dw),
        a=ma.num_vertices,
        m=smooth[BLACK] + smooth[WHITE],
        b=ma.num_arcs,
    )
    saddle_angle = sum(map(len, ma.faces)) // 2
    # index identity for the curvature gradient field
    total = ma.num_faces - saddle_angle + cs.a
    if total != 2 - 2 * ma.genus:
        raise CensusInconsistent(f"index sum {total} != {2 - 2 * ma.genus}")
    if cs.b != saddle_angle:
        raise CensusInconsistent("arc count differs from total saddle angle")
    return cs


def realized_angle_vector(ds: DataSet):
    """Multiset of (kind, angle) over the non-smooth points, sorted; the
    angles grow with their weight sums."""
    ma, dw, r = ds.angulation, ds.grid.dw, ds.ratio
    singular, _ = _extremal_sums(ds)
    halves = {d: Fraction(d, 2) for d in set(map(len, ma.faces))}
    return (
        [("maximum", Fraction(s, dw)) for s in sorted(singular[BLACK])]
        + [("minimum", Fraction(r.numerator * s, r.denominator * dw)) for s in sorted(singular[WHITE])]
        + [("saddle", halves[d]) for d in sorted(map(len, ma.faces))]
    )


def realized_prescription(ds: DataSet):
    """(genus, AngleVector, Z) that this surface realizes.

    Saddle angles claim the leading integer slots of the angle vector; ties
    with integer-angle extremal points are resolved by the equal-angle
    convention, so any consistent choice is returned.  One pass over the
    slots gives each saddle the first free slot of its angle.
    """
    pts = realized_angle_vector(ds)
    alpha = AngleVector([ang for _, ang in pts])
    wanted = {}
    for kind, ang in pts:
        if kind == "saddle":
            wanted[ang.numerator] = wanted.get(ang.numerator, 0) + 1
    Z = []
    for i in range(alpha.k):
        ang = alpha[i].numerator  # the first k entries are integers
        if wanted.get(ang):
            wanted[ang] -= 1
            Z.append(i + 1)
    if len(Z) != sum(kind == "saddle" for kind, _ in pts):
        raise CensusInconsistent("saddle angle missing from prescription")
    return ds.angulation.genus, alpha, frozenset(Z)
