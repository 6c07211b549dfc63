"""Decision procedures for existence of surfaces with prescribed angles.

An angle vector lists the prescribed cone angles (in units of 2*pi) with the
integer entries > 1 first and the zero entries (cusps) last.  A type
partition assigns each index a role: saddle (Z), maximum (P+) or minimum
(P-).  The integers m(Z), a(Z), b(Z) count smooth extremal points, all
extremal points, and bigons of any realizing surface; the existence tests
below are pure arithmetic in these quantities.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import BadAngleVector, BadGenus, BadTypePartition, EmptySpace


def _to_fraction(x) -> Fraction:
    f = Fraction(x)
    if f < 0:
        raise BadAngleVector(f"negative angle {f}")
    if f == 1:
        raise BadAngleVector("angle 1 (a smooth point) cannot be prescribed")
    return f


def _check_genus(g) -> None:
    """Refuse a negative genus before any formula uses it.  Every
    prescription reaches this check: through ``invariants_m_a`` (existence,
    ratios, dimensions, builders), the football branch of
    ``check_existence``, or ``one_cone_admissible``."""
    if g < 0:
        raise BadGenus(f"genus {g} is negative")


def _is_saddle_angle(f: Fraction) -> bool:
    return f.denominator == 1 and f > 1


class AngleVector:
    """Prescribed cone angles, stored in convention order.

    Integer entries > 1 come first, then the remaining nonzero entries, then
    the zeros; the given order is kept within each group, so indices of an
    already convention-ordered vector are unchanged.  ``k`` counts the
    integer entries, ``q_zeros`` the cusps.
    """

    __slots__ = ("entries", "k", "q_zeros")

    def __init__(self, entries: Sequence):
        vals = [_to_fraction(x) for x in entries]
        if not vals:
            raise BadAngleVector("empty angle vector")
        ints = [v for v in vals if _is_saddle_angle(v)]
        zeros = [v for v in vals if v == 0]
        rest = [v for v in vals if v != 0 and not _is_saddle_angle(v)]
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
        if zeros and Pminus != zeros:
            raise BadTypePartition("with cusps, P- must be exactly the zeros")
        if any(alpha[i - 1] == 0 for i in Pplus):
            raise BadTypePartition("a cusp cannot be a maximum")
        return cls(Z, Pplus, Pminus)

    def signature(self, alpha: AngleVector):
        """Equal-angle relabelings are identified through this key."""
        ang = lambda ids: tuple(sorted(alpha[i - 1] for i in ids))
        return (ang(self.Z), ang(self.Pplus), ang(self.Pminus))


def invariants_m_a(g: int, alpha, Z) -> tuple:
    """(m(Z), a(Z), b(Z)) for the subset Z of saddle indices."""
    _check_genus(g)
    alpha = as_angle_vector(alpha)
    Z = frozenset(Z)
    for i in Z:
        if not (1 <= i <= alpha.k):
            raise BadTypePartition(f"saddle index {i} outside 1..k")
    n = alpha.n
    s = sum(alpha[i - 1] for i in Z)
    m = s - (2 * g - 2 + n)
    a = sum(alpha[i - 1] - 1 for i in Z) - (2 * g - 2)
    b = s
    assert b == n + m + (2 * g - 2)
    return (m, a, b)


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
        non_z = [alpha[i - 1] for i in range(1, alpha.n + 1) if i not in Z]
        assert len(non_z) == 2
        if non_z[0] != non_z[1]:
            return ExistenceResult(True, "A.3")
    return EMPTY


def check_refined(g: int, alpha, Z) -> ExistenceResult:
    """Does some type partition with the given saddle set Z realize alpha?"""
    alpha = as_angle_vector(alpha)
    Z = frozenset(Z)
    if not Z:
        raise BadTypePartition("Z must be nonempty; footballs have no saddle")
    m, a, _ = invariants_m_a(g, alpha, Z)
    q = alpha.q_zeros
    if q > 0:
        if a >= q + 1 and m >= 0:
            return ExistenceResult(True, "B")
        return EMPTY
    return _case_a(a, m, alpha, Z)


def check_existence(g: int, alpha) -> ExistenceResult:
    """Nonemptiness of the moduli space for genus g and angle vector alpha.

    With k > 0 integer entries this is the refined test with every integer
    entry a saddle; only the football strata (k = 0) are decided here.
    """
    alpha = as_angle_vector(alpha)
    if alpha.k > 0:
        return check_refined(g, alpha, range(1, alpha.k + 1))
    _check_genus(g)
    # no possible saddle: only footballs, forcing g = 0 and n <= 2
    m0 = -(2 * g - 2 + alpha.n)
    a0 = 2 - 2 * g
    q = alpha.q_zeros
    if q > 0:
        ok = a0 >= q + 1 and m0 >= 0
    else:
        ok = (a0 == 2 and m0 == 1) or (
            a0 == 2 and m0 == 0 and alpha[-2] != alpha[-1]
        )
    return ExistenceResult(True, "football") if ok else EMPTY


def enumerate_ratios(g: int, alpha, partition: TypePartition):
    """All candidate ratio values (R, m+, m-) for a fixed type partition.

    With cusps the ratio is identically zero.  Otherwise every integer m+
    with A- + m > m+ > (A- + m - A+)/2 and 0 <= m+ <= m gives the candidate
    R = (A- + m - m+) / (A+ + m+).
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
    out = []
    upper = a_minus + m
    lower = (a_minus + m - a_plus) / 2
    mp = 0
    while mp <= m:
        if lower < mp < upper:
            r = Fraction(a_minus + m - mp, 1) / (a_plus + mp)
            out.append((r, mp, int(m - mp)))
        mp += 1
    return out


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
