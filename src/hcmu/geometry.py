"""Closed-form realization of the character line element.

The curvature K(v) decreases from K0 to K1 along a meridian and obeys
3 K'^2 = -(K - K0)(K - K1)(K + K0 + K1).  With the normalized level
s = (K0 - K)/(K0 - K1) = sin^2(phi) the ODE separates into
dv/dphi = 2 sqrt(3) / sqrt(A + B cos^2 phi), A = K0 + 2 K1, B = K0 - K1,
so the meridian distance down to level s is the incomplete elliptic integral
of the first kind c F(phi | m) with m = B/(A + B), c = 2 sqrt(3)/sqrt(A + B)
(DLMF 19.2), and the element length is c K(m).  Both are evaluated in
Carlson's form F(phi | m) = sqrt(s) R_F(1 - s, 1 - m s, 1) and
K(m) = R_F(0, 1 - m, 1) (DLMF 19.25.1, 19.25.5), which take 1 - s and
1 - m = A/(A + B) directly instead of an amplitude rounded near pi/2;
R_F itself comes from Carlson's duplication algorithm (DLMF 19.36.1), one
loop for a float and for an array of levels.  At the cusp m = 1,
F(phi | 1) = asinh(tan phi).
The warped function is h = K'/cbar with cbar = -(K0 - K1)(2 K0 + K1)/6;
the integral of h over the element is 2 (2 - R)/K0, so areas are rational
in (K0, R).

K1 = -K0/2 (ratio 0) is the cusp, m = 1: the element length is infinite and
profiles stop at a configurable level just below 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadRatio

DEFAULT_CUSP_SMAX = 1 - 1e-6


@dataclass(frozen=True)
class CurvaturePair:
    """Extremal curvatures with K0 > 0 and -K0/2 <= K1 < K0."""

    k0: float
    k1: float

    def __post_init__(self):
        if not 0 < self.k0 < math.inf:
            raise BadRatio(f"K0 = {self.k0} must be positive and finite")
        if not (-self.k0 / 2 - 1e-12 * self.k0 <= self.k1 < self.k0):
            raise BadRatio(f"K1 = {self.k1} outside [-K0/2, K0)")

    @property
    def is_cusp(self) -> bool:
        return self.k0 + 2 * self.k1 <= 1e-14 * self.k0

    @property
    def cbar(self) -> float:
        j, k0, k1 = _scaled(self.k0, self.k1)
        try:
            return math.ldexp(-(k0 - k1) * (2 * k0 + k1) / 6.0, 4 * j)
        except OverflowError:
            raise BadRatio(f"cbar of K0 = {self.k0} overflows") from None


def _scaled(k0, k1):
    """(j, K0 / 4^j, K1 / 4^j) with K0 / 4^j in [1, 4).

    The division is exact, and polynomials in the scaled pair neither
    overflow nor underflow.  A quantity homogeneous of degree d in (K0, K1)
    is its value at the scaled pair times 4^(d j); for K0 in [1, 4) nothing
    changes, bit for bit.
    """
    j = (math.frexp(k0)[1] - 1) // 2
    return j, math.ldexp(k0, -2 * j), math.ldexp(k1, -2 * j)


def k1_from_ratio(k0: float, ratio) -> float:
    """K1 = (2R - 1)/(2 - R) * K0."""
    r = Fraction(ratio)
    if not (0 <= r < 1):
        raise BadRatio(f"ratio {r} outside [0, 1)")
    return float(Fraction(2 * r - 1, 1) / (2 - r)) * k0


def ratio_from_pair(k0: float, k1: float) -> float:
    """R = (K0 + 2 K1)/(2 K0 + K1), the bottom/top angle ratio."""
    CurvaturePair(k0, k1)
    return (k0 + 2 * k1) / (2 * k0 + k1)


def _moduli(k0, k1):
    """(c, 1 - m) such that the distance to level s is c F(asin(sqrt(s)) | m).

    A cusp pair gets 1 - m = 0 exactly, so both integrals diverge at s = 1.
    """
    pair = CurvaturePair(k0, k1)
    j, k0, k1 = _scaled(k0, k1)
    a = 0.0 if pair.is_cusp else k0 + 2 * k1
    b = k0 - k1
    return math.ldexp(2.0 * math.sqrt(3.0) / math.sqrt(a + b), -j), a / (a + b)


def _distance(c, m1, s, t):
    """c F(asin(sqrt(s)) | 1 - m1) with t = 1 - s, in Carlson's form.

    At the cusp (m1 = 0) the integral is elementary, F(phi | 1) =
    asinh(tan phi) = asinh(sqrt(s / t)), and several times faster.
    """
    if m1 == 0:
        with np.errstate(divide="ignore"):  # t = 0 at the bottom: +inf
            return c * np.arcsinh(np.sqrt(s) / np.sqrt(t))
    sqrt = np.sqrt if isinstance(s, np.ndarray) else math.sqrt
    return c * sqrt(s) * _rf(t, t + s * m1, 1.0)


# Carlson's (3 r)^(-1/6) for the relative tolerance r = 2^-53
_RF_Q = (3.0 * 2.0**-53) ** (-1.0 / 6.0)
_RF_BLOCK = 8192  # entries per pass over an array, whose temporaries then stay in cache

# (sqrt, largest of three, any, ldexp) on floats and on arrays; np.ldexp is
# slow unless its exponents are C ints
_FLOAT_OPS = (math.sqrt, max, bool, math.ldexp)
_ARRAY_OPS = (
    np.sqrt,
    lambda u, v, w: np.maximum(np.maximum(u, v), w),
    np.ndarray.any,
    lambda r, n: np.ldexp(r, np.asarray(n, dtype=np.intc)),
)


def _rf(x, y, z):
    """Carlson's symmetric integral R_F(x, y, z), x, y, z >= 0, at most one 0.

    ``x`` is a float, with ``y`` and ``z`` floats, or a one-dimensional array,
    with ``y`` and ``z`` arrays or floats that broadcast to it.  The same code
    serves both, entry by entry, so a level's value does not depend on the
    levels computed with it; an array runs in blocks.
    """
    if isinstance(x, np.ndarray) and x.size > _RF_BLOCK:
        x, y, z = np.broadcast_arrays(x, y, z)
        return np.concatenate([
            _rf(x[i:i + _RF_BLOCK], y[i:i + _RF_BLOCK], z[i:i + _RF_BLOCK])
            for i in range(0, x.size, _RF_BLOCK)
        ])
    sqrt, largest, anywhere, ldexp = _ARRAY_OPS if isinstance(x, np.ndarray) else _FLOAT_OPS
    a, tail, steps = _duplication(x, y, z, sqrt, largest, anywhere)
    # R_F = 2^n (1 + tail) / sqrt(4^n A_n), with the roundings of the square
    # root and of its reciprocal recovered exactly, so that only the last sum
    # rounds at full size
    root = sqrt(a)
    inverse = 1.0 / root
    rh, rl = _halves(root)
    ih, il = _halves(inverse)
    square, one = root * root, inverse * root
    eta = ((a - square) - (((rh * rh - square) + 2.0 * rh * rl) + rl * rl)) / a  # a = root^2 (1 + eta)
    rho = (1.0 - one) - (((ih * rh - one) + ih * rl + il * rh) + il * rl)  # inverse root = 1 - rho
    return ldexp(inverse + inverse * (rho + tail - 0.5 * eta), steps)


def _duplication(x, y, z, sqrt, largest, anywhere):
    """(4^n A_n, the series for R_F less its leading 1, n), entry by entry.

    Duplication (Carlson 1995; DLMF 19.36.1): a step adds
    lambda = sqrt(x y) + sqrt(y z) + sqrt(z x) to all three arguments and
    divides them by 4, which keeps R_F and moves them four times closer to
    their mean A.  Once 4^-n Q < A_n the fifth-order series in the scaled
    deviations X, Y, Z = -X - Y is exact to about one rounding, and the
    entry takes no further step.  The loop keeps 4^n x_n, 4^n y_n, 4^n z_n,
    4^n A_n, the same floats scaled by a power of two, so no step divides.
    """
    a = (x + y + z) / 3.0
    q = _RF_Q * largest(abs(a - x), abs(a - y), abs(a - z))
    steps = 0
    while anywhere(going := q >= a):
        sx, sy, sz = sqrt(x), sqrt(y), sqrt(z)
        lam = (sx * (sy + sz) + sy * sz) * going  # 0 where converged
        # one at a time, so that each old array is freed before the next
        # new one: peak memory, more than arithmetic, bounds a block's time
        x = x + lam
        y = y + lam
        z = z + lam
        a = a + lam
        steps = steps + going
    # 4^n (A_n - x_n) loses about 3 digits to cancellation, which reach the
    # series only at the size of X^2 < 1e-5 times that loss
    X, Y = (a - x) / a, (a - y) / a
    xy, s = X * Y, X + Y
    e2 = xy - s * s
    e3 = -(xy * s)
    return a, e2 * (e2 / 24.0 - 0.1 - 3.0 * e3 / 44.0) + e3 / 14.0, steps


def _halves(u):
    """(hi, lo) with u = hi + lo and 26-bit halves, whose products are exact
    (Veltkamp's split, for Dekker's exact product)."""
    t = 134217729.0 * u  # 2^27 + 1
    hi = t - (t - u)
    return hi, u - hi


def _k_of_s(s, k0, k1):
    return k0 - s * (k0 - k1)


def _h_of_s(s, k0, k1):
    """h = |K'| / |cbar| evaluated from the curvature polynomial.

    h is homogeneous of degree -1/2 in (K0, K1), so it is evaluated at the
    scaled pair, where K0^3 and K0^2 stay in range, and multiplied by 2^-j.
    """
    s = np.asarray(s, dtype=float)
    j, k0, k1 = _scaled(k0, k1)
    a, b = k0 + 2 * k1, k0 - k1
    # (K0 - K)(K - K1)(K + K0 + K1) with K = K0 - s b is s b * u * (a + u) with
    # u = (1 - s) b: no factor is a difference of nearby numbers, so h is
    # exactly 0 at the bottom and keeps its digits next to it (a = 0 at the cusp)
    u = (1.0 - s) * b
    prod = (s * b) * u * (a + u)
    cbar = b * (2 * k0 + k1) / 6.0
    return np.ldexp(np.sqrt(np.maximum(prod, 0.0) / 3.0) / cbar, -j)


def level_to_distance(k0: float, k1: float, s) -> float:
    """Meridian distance from the maximum down to normalized level s."""
    c, m1 = _moduli(k0, k1)
    if not 0 <= s <= 1:
        raise BadRatio(f"level {s} outside [0, 1]")
    # 1 - s before rounding: a Fraction level keeps its distance to the bottom
    return float(_distance(c, m1, float(s), float(1 - s)))


def element_length(k0: float, k1: float) -> float:
    """Total meridian length l(K0, K1); +inf exactly at the cusp pair."""
    c, m1 = _moduli(k0, k1)
    return float(_distance(c, m1, 1.0, 0.0))


def cusp_profile_closed_form(k0: float, u) -> float:
    """Curvature along a cusp meridian: K(u) = K0 - (3 K0/2) tanh^2(sqrt(K0) u / (2 sqrt(2)))."""
    t = np.tanh(math.sqrt(k0) * np.asarray(u, dtype=float) / (2.0 * math.sqrt(2.0)))
    out = k0 - 1.5 * k0 * t * t
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LineElementProfile:
    """Sampled (v, s, K, h) along one character line element."""

    k0: float
    k1: float
    ratio: float
    length: float
    cbar: float
    v: np.ndarray
    s: np.ndarray
    K: np.ndarray
    h: np.ndarray

    def estimated_top_slope(self) -> float:
        """h'(0) from the first interior samples.

        h is odd around v = 0, so h/v is a series in v^2; Lagrange
        extrapolation of three samples to v = 0 gives the slope.
        """
        return _odd_slope(self.v[1:4], self.h[1:4])

    def estimated_bottom_slope(self) -> float:
        """h'(l) by the mirrored extrapolation; requires a finite element."""
        if not math.isfinite(self.length):
            raise BadRatio("cusp profile has no bottom endpoint")
        x = self.length - self.v[-4:-1][::-1]
        h = self.h[-4:-1][::-1]
        return -_odd_slope(x, h)


def _odd_slope(v, h):
    """Limit of h/v at v = 0 for an odd analytic h, via extrapolation in v^2."""
    x = np.asarray(v, dtype=float) ** 2
    y = np.asarray(h, dtype=float) / np.asarray(v, dtype=float)
    total = 0.0
    for i in range(len(x)):
        li = 1.0
        for j in range(len(x)):
            if j != i:
                li *= x[j] / (x[j] - x[i])
        total += y[i] * li
    return total


def solve_profile(k0: float, ratio, n_samples: int, s_max=None) -> LineElementProfile:
    """Sample the line element at uniform normalized levels.

    For ratio 0 the length is +inf and sampling stops at ``s_max``
    (default 1 - 1e-6); otherwise the grid covers [0, 1] endpoint to
    endpoint.
    """
    r = Fraction(ratio)
    if not (0 <= r < 1):
        raise BadRatio(f"ratio {r} outside [0, 1)")
    if n_samples < 16:
        raise BadRatio(f"need at least 16 samples, got {n_samples}")
    k1 = k1_from_ratio(k0, r)
    pair = CurvaturePair(k0, k1)
    if pair.is_cusp:
        top = float(s_max) if s_max is not None else DEFAULT_CUSP_SMAX
        if not 0 < top < 1:
            raise BadRatio(f"s_max {top} outside (0, 1)")
    else:
        top = 1.0
    s = np.linspace(0.0, top, n_samples)
    c, m1 = _moduli(k0, k1)
    v = _distance(c, m1, s, 1.0 - s)
    return LineElementProfile(
        k0=k0,
        k1=k1,
        ratio=float(r),
        length=element_length(k0, k1),
        cbar=pair.cbar,
        v=v,
        s=s,
        K=_k_of_s(s, k0, k1),
        h=_h_of_s(s, k0, k1),
    )


# -- areas ---------------------------------------------------------------------


def football_area(k0: float, ratio, top_angle) -> float:
    """Area of the football with top angle 2*pi*alpha: 4*pi*(2 - R)*alpha / K0."""
    r = Fraction(ratio)
    if not (0 <= r < 1):
        raise BadRatio(f"ratio {r} outside [0, 1)")
    return 4.0 * math.pi * float(top_angle) * (2 - float(r)) / k0


def surface_area(ds) -> float:
    """Total area: the footballs of all arcs, one top angle W(e) each."""
    return football_area(ds.k0, ds.ratio, ds.total_weight())
