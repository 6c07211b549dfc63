"""The data-set representation of a generic HCMU surface.

A surface is the tuple (angulation, K0, R, weights, face levels): the
bi-colored angulation records the gluing pattern of the bigon strips, the
weight of an arc is the top angle of its bigon divided by 2*pi, and the face
level places each saddle along the meridian as a normalized curvature level
s = (K0 - K)/(K0 - K1) in (0, 1).  Cone angles at the vertices follow from
the balance equations: Sum W at a black vertex, R * Sum W at a white one.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .angulation import BLACK, MixedAngulation
from .constraints import AngleVector, TypePartition
from .errors import CensusInconsistent, ValidationError


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    where: object
    message: str

    def __str__(self):
        return f"{self.code}({self.where}): {self.message}"


class DataSet:
    """Immutable surface representation.

    ``weights`` and ``face_levels`` are exact rationals; ``k0`` is the only
    floating quantity.  ``face_levels`` is indexed by face position in the
    angulation's canonical face order.
    """

    __slots__ = ("angulation", "k0", "ratio", "weights", "face_levels")

    def __init__(self, angulation: MixedAngulation, k0, ratio, weights, face_levels):
        self.angulation = angulation
        self.k0 = float(k0)
        self.ratio = Fraction(ratio)
        self.weights = tuple(Fraction(w) for w in weights)
        if isinstance(face_levels, dict):
            levels = [face_levels[i] for i in range(angulation.num_faces)]
        else:
            levels = list(face_levels)
        self.face_levels = tuple(Fraction(s) for s in levels)
        issues = validate_dataset(self)
        if issues:
            raise ValidationError("; ".join(str(i) for i in issues), f"/{issues[0].code}")

    # -- angles ---------------------------------------------------------------

    def vertex_weight_sum(self, v: int) -> Fraction:
        return sum((self.weights[a] for a in self.angulation.arcs_at(v)), Fraction(0))

    def vertex_angle(self, v: int) -> Fraction:
        s = self.vertex_weight_sum(v)
        return s if self.angulation.colors[v] == BLACK else self.ratio * s

    def face_angle(self, f: int) -> Fraction:
        return Fraction(self.angulation.face_degree(f), 2)

    def total_weight(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def canonical_form(self):
        code = self.angulation.canonical_form(self.weights, self.face_levels)
        return (code, repr(self.k0), self.ratio)

    def is_isomorphic(self, other: "DataSet") -> bool:
        return self.canonical_form() == other.canonical_form()

    def __eq__(self, other):
        return isinstance(other, DataSet) and self.canonical_form() == other.canonical_form()

    def __hash__(self):
        return hash(self.canonical_form())

    def __repr__(self):
        ma = self.angulation
        return (
            f"DataSet(genus={ma.genus}, vertices={ma.num_vertices}, "
            f"arcs={ma.num_arcs}, faces={ma.num_faces}, R={self.ratio})"
        )


def make_dataset(angulation, k0, ratio, weights, face_levels) -> DataSet:
    return DataSet(angulation, k0, ratio, weights, face_levels)


def validate_dataset(ds) -> list:
    """All invariant violations, as a report (never raises)."""
    issues = []
    if not ds.k0 > 0:
        issues.append(ValidationIssue("BadK0", "k0", f"K0 = {ds.k0} must be > 0"))
    if not (0 <= ds.ratio < 1):
        issues.append(ValidationIssue("BadRatio", "ratio", f"R = {ds.ratio} outside [0, 1)"))
    ma = ds.angulation
    if ma.degenerate:
        issues.append(ValidationIssue("BadAngulation", "angulation", "degenerate face of degree < 4"))
    if len(ds.weights) != ma.num_arcs:
        issues.append(ValidationIssue("BadWeight", "*", "weight table does not match arcs"))
    else:
        for a, w in enumerate(ds.weights):
            if not w > 0:
                issues.append(ValidationIssue("BadWeight", a, f"weight {w} must be > 0"))
    if len(ds.face_levels) != ma.num_faces:
        issues.append(ValidationIssue("BadLevel", "*", "level table does not match faces"))
    else:
        for f, s in enumerate(ds.face_levels):
            if not (0 < s < 1):
                issues.append(ValidationIssue("BadLevel", f, f"level {s} outside (0, 1)"))
    return issues


# -- cone point census --------------------------------------------------------


@dataclass(frozen=True)
class ConePoint:
    kind: str  # "maximum" | "minimum" | "saddle"
    angle: Fraction
    carrier: object  # vertex id or face key
    smooth: bool


def cone_points(ds: DataSet):
    """One cone point per vertex and per face; smooth means angle exactly 1."""
    ma = ds.angulation
    out = []
    for v in range(ma.num_vertices):
        kind = "maximum" if ma.colors[v] == BLACK else "minimum"
        ang = ds.vertex_angle(v)
        out.append(ConePoint(kind, ang, v, ang == 1))
    for f in range(ma.num_faces):
        ang = ds.face_angle(f)
        out.append(ConePoint("saddle", ang, ma.face_keys[f], False))
    return out


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


def census(
    ds: DataSet,
    partition: Optional[TypePartition] = None,
    alpha: Optional[AngleVector] = None,
) -> ExtremalCensus:
    """Counts of extremal points, checked against the index identities.

    With a prescribed ``partition`` (roles over ``alpha``), additionally
    verifies that the surface realizes exactly those roles.
    """
    ma = ds.angulation
    pts = cone_points(ds)
    maxima = [c for c in pts if c.kind == "maximum"]
    minima = [c for c in pts if c.kind == "minimum"]
    saddles = [c for c in pts if c.kind == "saddle"]
    m_plus = sum(1 for c in maxima if c.smooth)
    m_minus = sum(1 for c in minima if c.smooth)
    a_plus = sum((c.angle for c in maxima if not c.smooth), Fraction(0))
    a_minus = sum((c.angle for c in minima if not c.smooth), Fraction(0))
    cs = ExtremalCensus(
        p=len(maxima),
        q=len(minima),
        m_plus=m_plus,
        m_minus=m_minus,
        a_plus=a_plus,
        a_minus=a_minus,
        a=len(maxima) + len(minima),
        m=m_plus + m_minus,
        b=ma.num_arcs,
    )
    # index identity for the curvature gradient field
    total = sum((1 - c.angle for c in saddles), Fraction(0)) + cs.a
    if total != 2 - 2 * ma.genus:
        raise CensusInconsistent(f"index sum {total} != {2 - 2 * ma.genus}")
    if cs.b != sum(c.angle for c in saddles):
        raise CensusInconsistent("arc count differs from total saddle angle")
    if partition is not None:
        if alpha is None:
            _, alpha, _ = realized_prescription(ds)
        by_kind = {"saddle": [], "maximum": [], "minimum": []}
        for kind, ang in realized_angle_vector(ds):
            by_kind[kind].append(ang)
        want = {
            "saddle": sorted(alpha[i - 1] for i in partition.Z),
            "maximum": sorted(alpha[i - 1] for i in partition.Pplus),
            "minimum": sorted(alpha[i - 1] for i in partition.Pminus),
        }
        for kind in want:
            # prescribed angle-1 entries never occur, smooth points are free
            if sorted(by_kind[kind]) != want[kind]:
                raise CensusInconsistent(
                    f"{kind} angles {by_kind[kind]} != prescribed {want[kind]}"
                )
    return cs


def realized_angle_vector(ds: DataSet):
    """Multiset of (kind, angle) over the non-smooth points."""
    return sorted(
        ((c.kind, c.angle) for c in cone_points(ds) if not c.smooth),
        key=lambda t: (t[0], t[1]),
    )


def realized_prescription(ds: DataSet):
    """(genus, AngleVector, Z) that this surface realizes.

    Saddle angles claim the leading integer slots of the angle vector; ties
    with integer-angle extremal points are resolved by the equal-angle
    convention, so any consistent choice is returned.
    """
    pts = realized_angle_vector(ds)
    alpha = AngleVector([ang for _, ang in pts])
    saddle_angles = sorted(
        (ang for kind, ang in pts if kind == "saddle"), reverse=True
    )
    Z = []
    used = set()
    for ang in saddle_angles:
        for i in range(1, alpha.k + 1):
            if i not in used and alpha[i - 1] == ang:
                used.add(i)
                Z.append(i)
                break
        else:
            raise CensusInconsistent("saddle angle missing from prescription")
    return ds.angulation.genus, alpha, frozenset(Z)
