"""Decision procedures for existence of surfaces with prescribed angles.

An angle vector lists the prescribed cone angles (in units of 2*pi) with the
integer entries > 1 first and the zero entries (cusps) last.  A type
partition assigns each index a role: saddle (Z), maximum (P+) or minimum
(P-).  The integers m(Z), a(Z), b(Z) count smooth extremal points, all
extremal points, and bigons of any realizing surface; the existence tests
below are pure arithmetic in these quantities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import MAX_ARCS, BadAngleVector, BadGenus, BadTypePartition, EmptySpace, TooLarge


def _to_fraction(x) -> Fraction:
    f = x if type(x) is Fraction else Fraction(x)
    n, d = f.numerator, f.denominator
    if n < 0:
        raise BadAngleVector(f"negative angle {f}")
    if n == d:
        raise BadAngleVector("angle 1 (a smooth point) cannot be prescribed")
    return f


def _check_genus(g) -> None:
    """Refuse a negative genus before any formula uses it.  Every
    prescription reaches this check: through ``invariants_m_a`` (existence,
    ratios, dimensions, builders) or ``one_cone_admissible``."""
    if g < 0:
        raise BadGenus(f"genus {g} is negative")


def _is_saddle_angle(f: Fraction) -> bool:
    return f.denominator == 1 and f.numerator > 1


class AngleVector:
    """Prescribed cone angles, stored in convention order.

    Integer entries > 1 come first, then the remaining nonzero entries, then
    the zeros; the given order is kept within each group, so indices of an
    already convention-ordered vector are unchanged.  ``k`` counts the
    integer entries, ``q_zeros`` the cusps.  An entry that is already a
    ``Fraction`` is kept as it is.
    """

    __slots__ = ("entries", "k", "q_zeros")

    def __init__(self, entries: Sequence):
        ints, rest, zeros = [], [], []
        for f in map(_to_fraction, entries):
            (ints if _is_saddle_angle(f) else rest if f.numerator else zeros).append(f)
        if not (ints or rest or zeros):
            raise BadAngleVector("empty angle vector")
        self.entries = tuple(ints + rest + zeros)
        self.k = len(ints)
        self.q_zeros = len(zeros)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return isinstance(other, AngleVector) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"AngleVector({list(self.entries)!r})"

    @property
    def n(self):
        return len(self.entries)


def as_angle_vector(alpha) -> AngleVector:
    return alpha if isinstance(alpha, AngleVector) else AngleVector(alpha)


@dataclass(frozen=True)
class TypePartition:
    """Disjoint role assignment (Z, P+, P-) of the indices 1..n."""

    Z: frozenset
    Pplus: frozenset
    Pminus: frozenset

    @classmethod
    def make(cls, alpha: AngleVector, Z, Pplus=None, Pminus=None):
        n = alpha.n
        Z = frozenset(Z)
        all_idx = frozenset(range(1, n + 1))
        zeros = frozenset(i for i in all_idx if alpha[i - 1] == 0)
        if Pminus is None and Pplus is None:
            # default roles: forced cusps go to P-, every other non-saddle
            # index to P+
            Pminus = zeros
            Pplus = all_idx - Z - Pminus
        Pplus = frozenset(Pplus)
        Pminus = frozenset(Pminus)
        if Z | Pplus | Pminus != all_idx or (Z & Pplus) or (Z & Pminus) or (Pplus & Pminus):
            raise BadTypePartition("roles must partition the index set")
        for i in Z:
            if not _is_saddle_angle(alpha[i - 1]):
                raise BadTypePartition(f"index {i} cannot be a saddle")
        if zeros and Pminus != zeros:  # so no cusp is a maximum
            raise BadTypePartition("with cusps, P- must be exactly the zeros")
        return cls(Z, Pplus, Pminus)


def invariants_m_a(g: int, alpha, Z) -> tuple:
    """(m(Z), a(Z), b(Z)) for the subset Z of saddle indices."""
    _check_genus(g)
    alpha = as_angle_vector(alpha)
    Z = frozenset(Z)
    for i in Z:
        if not (1 <= i <= alpha.k):
            raise BadTypePartition(f"saddle index {i} outside 1..k")
    # Z indexes integer entries only, so the saddle angles sum as ints
    s = sum(alpha[i - 1].numerator for i in Z)
    m = s - (2 * g - 2 + alpha.n)
    a = s - len(Z) - (2 * g - 2)
    return (m, a, s)


@dataclass(frozen=True)
class ExistenceResult:
    nonempty: bool
    case: Optional[str] = None

    def __bool__(self):
        return self.nonempty


EMPTY = ExistenceResult(False)


def _case_a(a, m, alpha: AngleVector, Z) -> ExistenceResult:
    if a >= 3 and m >= 0:
        return ExistenceResult(True, "A.1")
    if a == 2 and m == 1:
        return ExistenceResult(True, "A.2")
    if a == 2 and m == 0:
        # a - m = n - |Z|, so exactly two entries lie outside Z
        non_z = [alpha[i - 1] for i in range(1, alpha.n + 1) if i not in Z]
        if non_z[0] != non_z[1]:
            return ExistenceResult(True, "A.3")
    return EMPTY


def _decide(g: int, alpha: AngleVector, Z: frozenset) -> ExistenceResult:
    """Case B with cusps, case A without, on the invariants of Z."""
    m, a, _ = invariants_m_a(g, alpha, Z)
    q = alpha.q_zeros
    if q > 0:
        if a >= q + 1 and m >= 0:
            return ExistenceResult(True, "B")
        return EMPTY
    return _case_a(a, m, alpha, Z)


def check_refined(g: int, alpha, Z) -> ExistenceResult:
    """Does some type partition with the given saddle set Z realize alpha?"""
    alpha = as_angle_vector(alpha)
    Z = frozenset(Z)
    if not Z:
        raise BadTypePartition("Z must be nonempty; footballs have no saddle")
    return _decide(g, alpha, Z)


def check_existence(g: int, alpha) -> ExistenceResult:
    """Nonemptiness of the moduli space for genus g and angle vector alpha.

    With k > 0 integer entries this is the refined test with every integer
    entry a saddle.  With k = 0 (the football strata) the same decision runs
    with no saddle, which forces g = 0 and n <= 2.
    """
    alpha = as_angle_vector(alpha)
    if alpha.k > 0:
        return check_refined(g, alpha, range(1, alpha.k + 1))
    return ExistenceResult(True, "football") if _decide(g, alpha, frozenset()) else EMPTY


def enumerate_ratios(g: int, alpha, partition: TypePartition):
    """All candidate ratio values (R, m+, m-) for a fixed type partition.

    With cusps the ratio is identically zero.  Otherwise every integer m+
    with A- + m > m+ > (A- + m - A+)/2 and 0 <= m+ <= m gives the candidate
    R = (A- + m - m+) / (A+ + m+).  These m+ form one interval, whose ends are
    computed directly; an interval of more than ``MAX_ARCS`` candidates is
    refused with ``TooLarge``.
    """
    alpha = as_angle_vector(alpha)
    res = check_refined(g, alpha, partition.Z)
    if not res:
        raise EmptySpace("refined space is empty")
    m, _, _ = invariants_m_a(g, alpha, partition.Z)
    if alpha.q_zeros > 0:
        return [(Fraction(0), int(m), 0)]
    a_plus = sum(alpha[i - 1] for i in partition.Pplus)
    a_minus = sum(alpha[i - 1] for i in partition.Pminus)
    first = max(0, math.floor(Fraction(a_minus + m - a_plus, 2)) + 1)
    last = min(m, math.ceil(a_minus + m) - 1)
    count = last - first + 1
    if count > MAX_ARCS:
        raise TooLarge(f"{count} ratio candidates; at most {MAX_ARCS} are listed")
    return [(Fraction(a_minus + m - mp, 1) / (a_plus + mp), mp, m - mp) for mp in range(first, last + 1)]


def one_cone_admissible(g: int, alpha: int, p: int, q: int) -> bool:
    """Can a genus-g surface carry a single saddle cone of angle 2*pi*alpha
    with p smooth maxima and q smooth minima?"""
    _check_genus(g)
    if alpha != int(alpha):
        return False
    alpha = int(alpha)
    if alpha < 2 * g + 2:
        return False
    if not (p > q > 0 and p + q == alpha - 2 * g + 1):
        return False
    if g == 0 and q > 1 and p % q == 0:
        return False
    return True
