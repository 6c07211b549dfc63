"""Reference checks for benchmark outputs.

Everything here is written from the theory, not from ``hcmu``'s code paths,
so that a later change to a layer cannot also change the check that judges
it: faces are traced again from the rotation system, balance solutions are
substituted into the system with exact ``Fraction`` arithmetic, existence and
dimension come from the closed formulas in (m, a), and meridian lengths from
complete and incomplete elliptic integrals.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction

from scipy.special import ellipk, ellipkinc

BLACK = "black"

# relative agreement the geometry layer promises for its quadrature
GEOMETRY_RTOL = 1e-9


class CheckFailed(Exception):
    """An output of the program disagrees with its reference."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


# -- combinatorics -------------------------------------------------------------


def face_degrees(arcs, rotations):
    """Degrees of the orbits of d -> rotation_predecessor(opposite(d))."""
    prev = {}
    for rot in rotations:
        for i, dart in enumerate(rot):
            prev[tuple(dart)] = tuple(rot[i - 1])
    seen = set()
    degrees = []
    for arc in range(len(arcs)):
        for end in ("b", "w"):
            d = (arc, end)
            if d in seen:
                continue
            deg = 0
            while d not in seen:
                seen.add(d)
                deg += 1
                d = prev[(d[0], "w" if d[1] == "b" else "b")]
            degrees.append(deg)
    return degrees


def genus_of(num_vertices, arcs, degrees):
    euler = num_vertices - len(arcs) + len(degrees)
    expect(euler % 2 == 0, f"odd Euler count {euler}")
    return (2 - euler) // 2


def saddle_angles(degrees):
    """Sorted saddle cone angles: a face of degree 2k is a saddle of angle k."""
    return sorted(Fraction(d, 2) for d in degrees)


def vertex_sums(num_vertices, arcs, x):
    sums = [Fraction(0)] * num_vertices
    for (b, w), value in zip(arcs, x):
        sums[b] += value
        sums[w] += value
    return sums


def vertex_angles(colors, arcs, weights, ratio):
    """Cone angle per vertex: the weight sum at black, R times it at white."""
    sums = vertex_sums(len(colors), arcs, weights)
    return [s if c == BLACK else ratio * s for c, s in zip(colors, sums)]


def check_balance_point(colors, arcs, ratio, targets, x, what):
    """x solves the balance equations: (1 or R) * sum of x around v = target."""
    expect(len(x) == len(arcs), f"{what} has {len(x)} entries for {len(arcs)} arcs")
    got = vertex_angles(colors, arcs, [Fraction(v) for v in x], Fraction(ratio))
    for v, (lhs, rhs) in enumerate(zip(got, targets)):
        expect(lhs == rhs, f"{what} gives {lhs} at vertex {v}, target {rhs}")


def check_solution_space(colors, arcs, ratio, targets, space, genus, saddles):
    check_balance_point(colors, arcs, ratio, targets, space.particular, "particular solution")
    zero = [Fraction(0)] * len(colors)
    for i, vec in enumerate(space.kernel_basis):
        check_balance_point(colors, arcs, ratio, zero, vec, f"kernel vector {i}")
    if ratio > 0:
        want = 2 * genus + saddles - 1
        expect(space.kernel_dimension == want, f"kernel dimension {space.kernel_dimension} != {want}")
    if space.positive_witness is not None:
        expect(all(v > 0 for v in space.positive_witness), "witness is not strictly positive")
        check_balance_point(colors, arcs, ratio, targets, space.positive_witness, "witness")


# -- prescriptions -------------------------------------------------------------


def invariants(g, alpha, saddles):
    """(m, a): smooth extremal points and all extremal points of any realization."""
    s = sum(alpha[i - 1] for i in saddles)
    m = s - (2 * g - 2 + len(alpha))
    a = sum(alpha[i - 1] - 1 for i in saddles) - (2 * g - 2)
    return m, a


def surely_realizable(g, alpha, saddles):
    """The sufficient conditions a >= 3, m >= 0 (no cusp) or a >= q + 1, m >= 0."""
    m, a = invariants(g, alpha, saddles)
    q = sum(1 for x in alpha if x == 0)
    return m >= 0 and (a >= q + 1 if q else a >= 3)


def ratio_candidates(g, alpha, saddles):
    """(R, m+, m-) for the default roles (non-saddles are maxima, cusps minima):
    R = (m - m+) / (A+ + m+) for every integer (m - A+)/2 < m+ < m."""
    m, _ = invariants(g, alpha, saddles)
    m = int(m)
    if any(x == 0 for x in alpha):
        return [(Fraction(0), m, 0)]
    a_plus = sum(x for i, x in enumerate(alpha, 1) if i not in saddles)
    return [
        (Fraction(m - mp) / (a_plus + mp), mp, m - mp)
        for mp in range(m + 1)
        if (m - a_plus) / 2 < mp < m
    ]


def refined_dimension(g, alpha, saddles):
    q = sum(1 for x in alpha if x == 0)
    return 2 * g + 2 * len(saddles) + (q - 1 if q else 0)


# -- geometry ------------------------------------------------------------------


def _moduli(k0, k1):
    """(2 sqrt 3 / sqrt(A + B), m) with A = K0 + 2 K1, B = K0 - K1."""
    a, b = k0 + 2 * k1, k0 - k1
    return 2.0 * math.sqrt(3.0) / math.sqrt(a + b), b / (a + b)


def meridian_length(k0, k1):
    scale, m = _moduli(k0, k1)
    return scale * float(ellipk(m))


def meridian_distance(k0, k1, s):
    """Distance from the maximum to normalized level s = cos^2(theta)."""
    scale, m = _moduli(k0, k1)
    return scale * float(ellipkinc(math.pi / 2 - math.acos(math.sqrt(s)), m))


def area(k0, ratio, total_weight):
    return 4.0 * math.pi * (2 - float(ratio)) * float(total_weight) / k0


def close(value, reference, what):
    if math.isinf(reference):
        expect(value == reference, f"{what} {value} != {reference}")
        return
    expect(
        abs(value - reference) <= GEOMETRY_RTOL * max(1.0, abs(reference)),
        f"{what} {value!r} != reference {reference!r}",
    )


# -- digests -------------------------------------------------------------------

_FLOAT = re.compile(r"-?\d+\.\d*(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+|\binf\b|\bnan\b")


def mask_floats(text):
    """Text with every decimal number replaced, so a digest covers exact parts only."""
    return _FLOAT.sub("#", text)
