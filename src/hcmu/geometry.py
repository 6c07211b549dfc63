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
R_F itself comes from Carlson's duplication algorithm (DLMF 19.36.1).  At
the cusp m = 1, F(phi | 1) = asinh(tan phi).
A single level (``level_to_distance``, ``element_length``) is evaluated on
floats with ``math``, except the cusp's ``arcsinh``, which is numpy's, as in a
profile.  A profile is evaluated in place: its four arrays are
allocated once, and v, K and h are filled block by block, each block by
ufuncs writing into one small workspace, with the same operations in the same
order as for a single level, so a distance sample equals
``level_to_distance`` at its level bit for bit.
The warped function is h = K'/cbar with cbar = -(K0 - K1)(2 K0 + K1)/6;
the integral of h over the element is 2 (2 - R)/K0, so areas are rational
in (K0, R).

K1 = -K0/2 (ratio 0) is the cusp, m = 1: the element length is infinite and
profiles stop at the level ``DEFAULT_CUSP_SMAX`` = 1 - 1e-6.

numpy is imported by the functions that use it, not by this module, so it is
loaded when an array profile is first sampled (or a cusp level first
evaluated): the combinatorial layers and every other command start without it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadRatio

DEFAULT_CUSP_SMAX = 1 - 1e-6
MAX_SAMPLES = 2**20  # a profile's four arrays then take at most 32 MiB


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
    """c F(asin(sqrt(s)) | 1 - m1) with t = 1 - s, in Carlson's form, for floats.

    At the cusp (m1 = 0) the integral is elementary, F(phi | 1) =
    asinh(tan phi) = asinh(sqrt(s / t)), and several times faster.
    """
    if m1 == 0:
        import numpy as np

        with np.errstate(divide="ignore"):  # t = 0 at the bottom: +inf
            return c * np.arcsinh(np.sqrt(s) / np.sqrt(t))
    return c * math.sqrt(s) * _rf(t, t + s * m1, 1.0)


# Carlson's (3 r)^(-1/6) for the relative tolerance r = 2^-53
_RF_Q = (3.0 * 2.0**-53) ** (-1.0 / 6.0)
_RF_BLOCK = 8192  # samples per block, whose workspace then stays in cache
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter


def _rf(x, y, z):
    """Carlson's symmetric integral R_F(x, y, z) of floats x, y, z >= 0, at most one 0.

    Duplication (Carlson 1995; DLMF 19.36.1): a step adds
    lambda = sqrt(x y) + sqrt(y z) + sqrt(z x) to all three arguments and
    divides them by 4, which keeps R_F and moves them four times closer to
    their mean A.  Once 4^-n Q < A_n the fifth-order series in the scaled
    deviations X, Y, Z = -X - Y is exact to about one rounding.  The loop
    keeps 4^n x_n, 4^n y_n, 4^n z_n, 4^n A_n, the same floats scaled by a
    power of two, so no step divides.  :func:`_rf_block` is the same
    computation over arrays, operation for operation.
    """
    a = (x + y + z) / 3.0
    q = _RF_Q * max(abs(a - x), abs(a - y), abs(a - z))
    steps = 0
    while q >= a:
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z, a = x + lam, y + lam, z + lam, a + lam
        steps += 1
    # 4^n (A_n - x_n) loses about 3 digits to cancellation, which reach the
    # series only at the size of X^2 < 1e-5 times that loss
    X, Y = (a - x) / a, (a - y) / a
    xy, s = X * Y, X + Y
    e2 = xy - s * s
    e3 = -(xy * s)
    tail = e2 * (e2 / 24.0 - 0.1 - 3.0 * e3 / 44.0) + e3 / 14.0
    # R_F = 2^n (1 + tail) / sqrt(4^n A_n), with the roundings of the square
    # root and of its reciprocal recovered exactly (Dekker's product on
    # Veltkamp's 26-bit halves), so that only the last sum rounds at full size
    root = math.sqrt(a)
    inverse = 1.0 / root
    rh, rl = _halves(root)
    ih, il = _halves(inverse)
    square, one = root * root, inverse * root
    eta = ((a - square) - (((rh * rh - square) + 2.0 * rh * rl) + rl * rl)) / a  # a = root^2 (1 + eta)
    rho = (1.0 - one) - (((ih * rh - one) + ih * rl + il * rh) + il * rl)  # inverse root = 1 - rho
    return math.ldexp(inverse + inverse * (rho + tail - 0.5 * eta), steps)


def _halves(u):
    """(hi, lo) with u = hi + lo and 26-bit halves, whose products are exact."""
    t = _SPLIT * u
    hi = t - (t - u)
    return hi, u - hi


def _rf_block(x, y, z, rows, going, steps):
    """R_F(x, y, z) entry by entry over arrays of one length, left in ``x``.

    The operations of :func:`_rf` in the same order, each a ufunc writing
    into ``x``, ``y``, ``z`` (overwritten) or the eight arrays of ``rows``;
    ``going`` (bool) and ``steps`` (C int) are as long as ``x``.  An entry
    that has converged takes lambda = 0, which leaves it as it is, so its
    value does not depend on the entries computed with it.
    """
    import numpy as np

    a, bound, p, q, r, u, e, f = rows
    np.add(x, y, out=a)
    np.add(a, z, out=a)
    np.divide(a, 3.0, out=a)
    np.subtract(a, x, out=p)
    np.absolute(p, out=p)
    for w in (y, z):
        np.subtract(a, w, out=q)
        np.absolute(q, out=q)
        np.maximum(p, q, out=p)
    np.multiply(p, _RF_Q, out=bound)
    steps.fill(0)
    while np.greater_equal(bound, a, out=going).any():
        np.sqrt(x, out=p)
        np.sqrt(y, out=q)
        np.sqrt(z, out=r)
        np.add(q, r, out=u)
        np.multiply(p, u, out=p)
        np.multiply(q, r, out=q)
        np.add(p, q, out=p)
        np.multiply(p, going, out=p)  # lambda, 0 where converged
        for w in (x, y, z, a):
            np.add(w, p, out=w)
        np.add(steps, going, out=steps)
    # the series: X, Y in x, y; xy in z; X + Y in p; e2 in x; e3 in y; tail in z
    for w in (x, y):
        np.subtract(a, w, out=w)
        np.divide(w, a, out=w)
    np.multiply(x, y, out=z)
    np.add(x, y, out=p)
    np.multiply(p, p, out=x)
    np.subtract(z, x, out=x)
    np.multiply(z, p, out=y)
    np.negative(y, out=y)
    np.divide(x, 24.0, out=z)
    np.subtract(z, 0.1, out=z)
    np.multiply(y, 3.0, out=p)
    np.divide(p, 44.0, out=p)
    np.subtract(z, p, out=z)
    np.multiply(x, z, out=z)
    np.divide(y, 14.0, out=p)
    np.add(z, p, out=z)
    # the exact tail: root in x, inverse in y, its halves in p, q and r, u
    np.sqrt(a, out=x)
    np.divide(1.0, x, out=y)
    for w, hi, lo in ((x, p, q), (y, r, u)):
        np.multiply(w, _SPLIT, out=hi)
        np.subtract(hi, w, out=lo)
        np.subtract(hi, lo, out=hi)
        np.subtract(w, hi, out=lo)
    np.multiply(x, x, out=bound)  # square
    np.multiply(y, x, out=x)  # one
    # eta in bound
    np.multiply(p, p, out=e)
    np.subtract(e, bound, out=e)
    np.multiply(p, 2.0, out=f)
    np.multiply(f, q, out=f)
    np.add(e, f, out=e)
    np.multiply(q, q, out=f)
    np.add(e, f, out=e)
    np.subtract(a, bound, out=bound)
    np.subtract(bound, e, out=bound)
    np.divide(bound, a, out=bound)
    # rho in x
    np.multiply(r, p, out=e)
    np.subtract(e, x, out=e)
    for hi, lo in ((r, q), (u, p), (u, q)):
        np.multiply(hi, lo, out=f)
        np.add(e, f, out=e)
    np.subtract(1.0, x, out=x)
    np.subtract(x, e, out=x)
    # 2^n (inverse + inverse (rho + tail - eta / 2))
    np.add(x, z, out=x)
    np.multiply(bound, 0.5, out=bound)
    np.subtract(x, bound, out=x)
    np.multiply(y, x, out=x)
    np.add(y, x, out=x)
    np.ldexp(x, steps, out=x)


def _workspace(m):
    """Working arrays for blocks of up to m samples: eleven float rows, the
    duplication's flags and its step counts."""
    import numpy as np

    return np.empty((11, m)), np.empty(m, dtype=bool), np.empty(m, dtype=np.intc)


def _sample(k0, k1, s, v, K, h, work):
    """v, K and h at the levels ``s`` of one block, written into v, K and h.

    h = |K'| / |cbar| comes from the curvature polynomial.  It is homogeneous
    of degree -1/2 in (K0, K1), so it is evaluated at the scaled pair, where
    K0^3 and K0^2 stay in range, and multiplied by 2^-j.
    """
    import numpy as np

    rows, going, steps = work
    n = len(s)
    x, y, z, *rest = rows[:, :n]
    # K = K0 - s (K0 - K1)
    np.multiply(s, k0 - k1, out=K)
    np.subtract(k0, K, out=K)
    j, sk0, sk1 = _scaled(k0, k1)
    a, b = sk0 + 2 * sk1, sk0 - sk1
    # (K0 - K)(K - K1)(K + K0 + K1) with K = K0 - s b is s b * u * (a + u) with
    # u = (1 - s) b: no factor is a difference of nearby numbers, so h is
    # exactly 0 at the bottom and keeps its digits next to it (a = 0 at the cusp)
    np.subtract(1.0, s, out=x)  # t = 1 - s
    np.multiply(x, b, out=y)
    np.multiply(s, b, out=z)
    np.multiply(z, y, out=z)
    np.add(y, a, out=y)
    np.multiply(z, y, out=z)
    # h = sqrt(max(s b * u * (a + u), 0) / 3) / cbar, times 2^-j
    np.maximum(z, 0.0, out=z)
    np.divide(z, 3.0, out=z)
    np.sqrt(z, out=z)
    np.divide(z, b * (2 * sk0 + sk1) / 6.0, out=z)
    np.ldexp(z, -j, out=h)
    c, m1 = _moduli(k0, k1)
    if m1 == 0:
        # the cusp's asinh(sqrt(s) / sqrt(t)): +inf at the bottom, t = 0
        np.sqrt(s, out=y)
        np.sqrt(x, out=z)
        with np.errstate(divide="ignore"):
            np.divide(y, z, out=y)
        np.arcsinh(y, out=y)
        np.multiply(y, c, out=v)
        return
    np.multiply(s, m1, out=y)
    np.add(x, y, out=y)  # 1 - m s = t + s m1
    z.fill(1.0)
    _rf_block(x, y, z, rest, going[:n], steps[:n])
    np.sqrt(s, out=y)
    np.multiply(y, c, out=y)
    np.multiply(y, x, out=v)


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
    """Limit of h/v at v = 0 for an odd analytic h, via extrapolation in v^2;
    v and h are float arrays, slices of a profile's."""
    x = v**2
    y = h / v
    total = 0.0
    for i in range(len(x)):
        li = 1.0
        for j in range(len(x)):
            if j != i:
                li *= x[j] / (x[j] - x[i])
        total += y[i] * li
    return total


def solve_profile(k0: float, ratio, n_samples: int) -> LineElementProfile:
    """Sample the line element at uniform normalized levels.

    For ratio 0 the length is +inf and sampling stops at
    ``DEFAULT_CUSP_SMAX``; otherwise the grid covers [0, 1] endpoint to
    endpoint.  ``n_samples`` lies in [16, MAX_SAMPLES].  The four arrays are
    allocated once, and v, K and h are filled one block of levels at a time
    through one small workspace, so no other array grows with the samples.
    """
    import numpy as np

    r = Fraction(ratio)
    if not (0 <= r < 1):
        raise BadRatio(f"ratio {r} outside [0, 1)")
    if n_samples < 16:
        raise BadRatio(f"need at least 16 samples, got {n_samples}")
    if n_samples > MAX_SAMPLES:
        raise BadRatio(f"need at most {MAX_SAMPLES} samples, got {n_samples}")
    k1 = k1_from_ratio(k0, r)
    pair = CurvaturePair(k0, k1)
    s = np.linspace(0.0, DEFAULT_CUSP_SMAX if pair.is_cusp else 1.0, n_samples)
    v, K, h = np.empty(n_samples), np.empty(n_samples), np.empty(n_samples)
    work = _workspace(min(n_samples, _RF_BLOCK))
    for i in range(0, n_samples, _RF_BLOCK):
        block = slice(i, i + _RF_BLOCK)
        _sample(k0, k1, s[block], v[block], K[block], h[block], work)
    return LineElementProfile(
        k0=k0,
        k1=k1,
        ratio=float(r),
        length=element_length(k0, k1),
        cbar=pair.cbar,
        v=v,
        s=s,
        K=K,
        h=h,
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
