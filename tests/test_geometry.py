import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

import hcmu
from hcmu.errors import BadRatio
from hcmu.geometry import (
    DEFAULT_CUSP_SMAX,
    MAX_SAMPLES,
    CurvaturePair,
    _moduli,
    _rf,
    _rf_block,
    _sample,
    _scaled,
    _workspace,
    element_length,
    football_area,
    k1_from_ratio,
    level_to_distance,
    solve_profile,
    surface_area,
)

GRID_K0 = (0.5, 1.0, 2.0, 5.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: k1_from_ratio(1.0, 1), "ratio 1 outside [0, 1)"),
        (lambda: k1_from_ratio(1.0, F(-1, 2)), "ratio -1/2 outside [0, 1)"),
        (lambda: solve_profile(1.0, F(3, 2), 64), "ratio 3/2 outside [0, 1)"),
        (lambda: football_area(1.0, 1, 2), "ratio 1 outside [0, 1)"),
        (lambda: solve_profile(1.0, F(1, 2), 15), "need at least 16 samples, got 15"),
        (lambda: level_to_distance(1.0, 0.0, 1.5), "level 1.5 outside [0, 1]"),
        (lambda: level_to_distance(1.0, 0.0, F(-1, 4)), "level -1/4 outside [0, 1]"),
        (lambda: solve_profile(1.0, 0, 64).estimated_bottom_slope(), "cusp profile has no bottom endpoint"),
    ],
)
def test_numeric_refusals(call, message):
    with pytest.raises(BadRatio) as caught:
        call()
    assert type(caught.value) is BadRatio and str(caught.value) == message
GRID_R = (F(0), F(1, 4), F(1, 3), F(2, 3), F(9, 10))


# -- independent oracles -------------------------------------------------------


def rk_shoot_length(k0, k1, steps=60000):
    """Element length by RK4 on dK/dv away from the endpoints, with series
    start and square-root tail; independent of the closed form."""

    def slope(k):
        prod = -(k - k0) * (k - k1) * (k + k0 + k1) / 3.0
        return -math.sqrt(max(prod, 0.0))

    cbar = -(k0 - k1) * (2 * k0 + k1) / 6.0
    scale = 1.0 / math.sqrt(k0)
    v0 = 1e-4 * scale
    k = k0 + 0.5 * cbar * v0 * v0
    h = 6.0 * scale / steps
    v = v0
    delta = 1e-9 * (k0 - k1)
    while k - k1 > delta:
        s1 = slope(k)
        s2 = slope(max(k + 0.5 * h * s1, k1))
        s3 = slope(max(k + 0.5 * h * s2, k1))
        s4 = slope(max(k + h * s3, k1))
        step = (h / 6.0) * (s1 + 2 * s2 + 2 * s3 + s4)
        if k + step <= k1 + delta:
            break
        k += step
        v += h
    c_tail = math.sqrt((k0 - k1) * (k0 + 2 * k1) / 3.0)
    return v + 2.0 * math.sqrt(k - k1) / c_tail


def dv_dtheta(theta, k0, k1):
    """Meridian speed in theta, with K = K1 + (K0 - K1) sin^2(theta)."""
    return 2.0 * math.sqrt(3.0) / math.sqrt(k0 + 2 * k1 + (k0 - k1) * math.sin(theta) ** 2)


def quad(f, a, b):
    """Adaptive quadrature that refuses a result above its error budget."""
    val, err = integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)
    assert err <= max(1e-10, 1e-9 * abs(val)), f"estimated error {err} on [{a}, {b}]"
    return val


def quad_distance(k0, k1, s):
    """Meridian distance down to level s = cos^2(theta) by quadrature.

    Below s = 1/2 the integral runs over the amplitude pi/2 - theta from 0 to
    asin(sqrt(s)); above, over theta from asin(sqrt(1 - s)) to pi/2.  Either
    way no limit is rounded near pi/2, so a level near 0 or 1 keeps its
    digits.
    """
    if s < 0.5:
        return quad(lambda p: dv_dtheta(math.pi / 2 - p, k0, k1), 0.0, math.asin(math.sqrt(s)))
    return quad(lambda t: dv_dtheta(t, k0, k1), math.asin(math.sqrt(1 - s)), math.pi / 2)


def warped_integral(k0, k1):
    """integral of h dv over the whole element, by quadrature in theta."""
    cbar = (k0 - k1) * (2 * k0 + k1) / 6.0

    def f(theta):
        k = k1 + (k0 - k1) * math.sin(theta) ** 2
        prod = (k0 - k) * (k - k1) * (k + k0 + k1)
        return math.sqrt(max(prod, 0.0) / 3.0) / cbar * dv_dtheta(theta, k0, k1)

    return quad(f, 0.0, math.pi / 2)


def fd_derivative(v, y, order=1):
    """5-point nonuniform finite differences at the interior samples.

    Solves the batched Vandermonde systems for the local polynomial
    derivative weights; entries outside the interior are NaN.
    """
    n = len(v)
    idx = np.arange(2, n - 2)
    x = v[idx[:, None] + np.arange(-2, 3)[None, :]] - v[idx][:, None]
    powers = x[:, :, None] ** np.arange(5)[None, None, :]  # (m, 5, 5)
    rhs = np.zeros((len(idx), 5, 1))
    rhs[:, order, 0] = math.factorial(order)
    w = np.linalg.solve(np.swapaxes(powers, 1, 2), rhs)[..., 0]
    out = np.full(n, np.nan)
    out[idx] = np.einsum(
        "ij,ij->i", w, y[idx[:, None] + np.arange(-2, 3)[None, :]]
    )
    return out


def cusp_profile_closed_form(k0, u):
    """Curvature along a cusp meridian: K(u) = K0 - (3 K0/2) tanh^2(sqrt(K0) u / (2 sqrt(2)))."""
    t = np.tanh(math.sqrt(k0) * np.asarray(u, dtype=float) / (2.0 * math.sqrt(2.0)))
    out = k0 - 1.5 * k0 * t * t
    return float(out) if out.ndim == 0 else out


def ratio_from_pair(k0, k1):
    """R = (K0 + 2 K1)/(2 K0 + K1), the bottom/top angle ratio: the inverse
    of k1_from_ratio."""
    CurvaturePair(k0, k1)
    return (k0 + 2 * k1) / (2 * k0 + k1)


RF_Q = (3.0 * 2.0**-53) ** (-1.0 / 6.0)  # Carlson's (3 r)^(-1/6) for r = 2^-53


def halves(u):
    """Veltkamp's split of u into two 26-bit halves."""
    t = 134217729.0 * u
    hi = t - (t - u)
    return hi, u - hi


def oracle_rf(x, y, z):
    """R_F over whole arrays by the expressions solve_profile evaluated
    before it worked block by block in place: Carlson's duplication with
    array temporaries, its series and the exact-rounding (Dekker) tail."""
    x, y, z = np.broadcast_arrays(x, y, z)
    a = (x + y + z) / 3.0
    q = RF_Q * np.maximum(np.maximum(abs(a - x), abs(a - y)), abs(a - z))
    steps = 0
    while (going := q >= a).any():
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = (sx * (sy + sz) + sy * sz) * going
        x, y, z, a = x + lam, y + lam, z + lam, a + lam
        steps = steps + going
    X, Y = (a - x) / a, (a - y) / a
    xy, s = X * Y, X + Y
    e2 = xy - s * s
    e3 = -(xy * s)
    tail = e2 * (e2 / 24.0 - 0.1 - 3.0 * e3 / 44.0) + e3 / 14.0
    root = np.sqrt(a)
    inverse = 1.0 / root
    rh, rl = halves(root)
    ih, il = halves(inverse)
    square, one = root * root, inverse * root
    eta = ((a - square) - (((rh * rh - square) + 2.0 * rh * rl) + rl * rl)) / a
    rho = (1.0 - one) - (((ih * rh - one) + ih * rl + il * rh) + il * rl)
    return np.ldexp(inverse + inverse * (rho + tail - 0.5 * eta), np.asarray(steps, dtype=np.intc))


def oracle_profile(k0, k1, s):
    """(v, K, h) at the levels s by whole-array expressions."""
    c, m1 = _moduli(k0, k1)
    t = 1.0 - s
    if m1 == 0:
        with np.errstate(divide="ignore"):
            v = c * np.arcsinh(np.sqrt(s) / np.sqrt(t))
    else:
        v = c * np.sqrt(s) * oracle_rf(t, t + s * m1, 1.0)
    K = k0 - s * (k0 - k1)
    j, k0, k1 = _scaled(k0, k1)
    a, b = k0 + 2 * k1, k0 - k1
    u = (1.0 - s) * b
    prod = (s * b) * u * (a + u)
    cbar = b * (2 * k0 + k1) / 6.0
    h = np.ldexp(np.sqrt(np.maximum(prod, 0.0) / 3.0) / cbar, -j)
    return v, K, h


def sampled(k0, k1, levels):
    """(v, K, h) at any levels, through solve_profile's block filler."""
    s = np.asarray(levels, dtype=float)
    v, K, h = np.empty_like(s), np.empty_like(s), np.empty_like(s)
    _sample(k0, k1, s, v, K, h, _workspace(len(s)))
    return v, K, h


# -- conversions ----------------------------------------------------------------


def test_curvature_ratio_conversions():
    assert k1_from_ratio(2.0, F(2, 3)) == pytest.approx(0.5, abs=1e-15)
    assert k1_from_ratio(3.0, F(0)) == pytest.approx(-1.5, abs=1e-15)
    assert ratio_from_pair(2.0, 0.5) == pytest.approx(2 / 3, abs=1e-15)
    for k0 in GRID_K0:
        for r in GRID_R:
            back = ratio_from_pair(k0, k1_from_ratio(k0, r))
            assert back == pytest.approx(float(r), abs=1e-13)
    # ratio approaches 1 from below as K1 -> K0
    assert ratio_from_pair(1.0, 1.0 - 1e-9) < 1


def test_curvature_pair_validation():
    with pytest.raises(BadRatio):
        CurvaturePair(-1.0, 0.0)
    with pytest.raises(BadRatio):
        CurvaturePair(1.0, 1.0)
    with pytest.raises(BadRatio):
        CurvaturePair(1.0, -0.6)


# -- profiles --------------------------------------------------------------------


def test_boundary_slopes_on_grid():
    for k0 in GRID_K0:
        for r in GRID_R:
            p = solve_profile(k0, r, 2001)
            assert abs(p.estimated_top_slope() - 1.0) < 1e-8
            if r != 0:
                assert abs(p.estimated_bottom_slope() + float(r)) < 1e-6


def test_cusp_profile_reports_infinite_length():
    p = solve_profile(1.0, F(0), 64)
    assert p.length == math.inf
    assert p.s[-1] < 1


def test_profile_monotone_and_positive():
    p = solve_profile(2.0, F(1, 3), 501)
    assert np.all(np.diff(p.K) < 0)
    assert np.all(np.diff(p.v) > 0)
    assert np.all(p.h[1:-1] > 0)
    # endpoint values vanish up to the rounding of K0 - s (K0 - K1)
    assert p.h[0] == 0 and abs(p.h[-1]) < 1e-6


def test_cbar_value():
    p = solve_profile(2.0, F(2, 3), 64)
    assert p.cbar == pytest.approx(-(2.0 - 0.5) * (4.0 + 0.5) / 6.0, rel=1e-15)


@pytest.mark.parametrize("k0", [1e120, 1e-120, 1e-200])
def test_profile_at_extreme_curvature_follows_the_scaling_law(k0):
    # h(s; K0, R) = h(s; 1, R) / sqrt(K0) and v likewise; evaluated directly,
    # K0^3 and K0^2 overflow to inf (1e120) or underflow to 0 and nan
    unit = solve_profile(1.0, F(1, 2), 16)
    p = solve_profile(k0, F(1, 2), 16)
    assert np.all(np.isfinite(p.h)) and np.all(p.h[1:-1] > 0)
    np.testing.assert_allclose(math.sqrt(k0) * p.h, unit.h, rtol=1e-13, atol=0)
    np.testing.assert_allclose(math.sqrt(k0) * p.v, unit.v, rtol=1e-13, atol=0)
    assert p.cbar == pytest.approx(k0 * k0 * unit.cbar, rel=1e-13, abs=0)


def test_profile_whose_cbar_overflows_is_refused():
    with pytest.raises(BadRatio, match="overflows"):
        solve_profile(1e200, F(1, 2), 16)
    with pytest.raises(BadRatio, match="finite"):
        solve_profile(math.inf, F(1, 2), 16)


def test_ode_residual_small():
    for k0, r in [(1.0, F(0)), (2.0, F(2, 3)), (5.0, F(1, 3)), (0.5, F(9, 10))]:
        p = solve_profile(k0, r, 10001)
        kp = fd_derivative(p.v, p.K)
        res = 3 * kp**2 + (p.K - p.k0) * (p.K - p.k1) * (p.K + p.k0 + p.k1)
        assert np.nanmax(np.abs(res)) < 1e-8 * k0**3


def test_warped_curvature_identity():
    p = solve_profile(2.0, F(1, 3), 2001)
    hpp = fd_derivative(p.v, p.h, order=2)
    res = hpp + p.K * p.h
    good = ~np.isnan(res)
    scale = np.nanmax(np.abs(p.K * p.h))
    assert np.nanmax(np.abs(res[good])) < 1e-5 * scale


def test_cusp_decay_rate():
    k0 = 2.0
    p = solve_profile(k0, F(0), 4001)
    c0 = math.sqrt(k0 / 2)
    tail = p.s > 0.99
    ratio = p.h[tail] * np.exp(c0 * p.v[tail])
    assert ratio.max() / ratio.min() < 4.0


def test_scaling_invariance():
    lam = 1.7
    p1 = solve_profile(1.3, F(1, 3), 513)
    p2 = solve_profile(lam**2 * 1.3, F(1, 3), 513)
    assert np.allclose(p2.v, p1.v / lam, rtol=1e-12, atol=1e-14)
    assert np.allclose(p2.K, lam**2 * p1.K, rtol=1e-12, atol=1e-12)
    assert np.allclose(p2.h, p1.h / lam, rtol=1e-12, atol=1e-14)


def test_length_matches_rk_oracle():
    k0, k1 = 2.0, 0.5
    assert abs(element_length(k0, k1) - rk_shoot_length(k0, k1)) < 1e-6


def test_level_to_distance_limits():
    k0, k1 = 2.0, 0.5
    assert level_to_distance(k0, k1, 0) == 0
    small = level_to_distance(k0, k1, F(1, 10**6))
    assert 0 < small < 1e-2
    total = element_length(k0, k1)
    assert level_to_distance(k0, k1, F(999, 1000)) < total
    # monotone in s
    vals = [level_to_distance(k0, k1, F(i, 10)) for i in range(1, 10)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_cusp_level_to_distance_finite_but_unbounded():
    k0 = 2.0
    k1 = -1.0
    assert element_length(k0, k1) == math.inf
    v9 = level_to_distance(k0, k1, F(9, 10))
    v999 = level_to_distance(k0, k1, F(999, 1000))
    assert math.isfinite(v999) and v999 > v9 > 0


def test_cusp_closed_form_inverts_quadrature():
    k0, k1 = 2.0, -1.0
    u = 1.0
    lo, hi = F(0), F(1) - F(1, 10**9)
    for _ in range(60):
        mid = (lo + hi) / 2
        if level_to_distance(k0, k1, mid) < u:
            lo = mid
        else:
            hi = mid
    k_quad = k0 - float(lo) * (k0 - k1)
    assert abs(k_quad - cusp_profile_closed_form(k0, u)) < 1e-7


def test_cusp_closed_form_endpoints():
    assert cusp_profile_closed_form(3.0, 0.0) == 3.0
    assert cusp_profile_closed_form(3.0, 80.0) == pytest.approx(-1.5, abs=1e-12)


def test_cusp_closed_form_against_sampled_profile():
    k0 = 2.0
    p = solve_profile(k0, F(0), 3001)
    dev = np.abs(p.K - cusp_profile_closed_form(k0, p.v))
    assert dev.max() < 1e-7


def test_distance_near_the_bottom_matches_mpmath():
    # at s = 1 - 1e-9 an amplitude asin(sqrt(s)) loses about 5e-9 relative;
    # the cusp, m near 1 (R = 1/1000) and a regular ratio
    mpmath = pytest.importorskip("mpmath")
    k0 = 2.0
    with mpmath.workdps(40):
        for k1 in (-1.0, k1_from_ratio(k0, F(1, 1000)), 0.5):
            a, b = mpmath.mpf(k0) + 2 * mpmath.mpf(k1), mpmath.mpf(k0) - mpmath.mpf(k1)
            c, m = 2 * mpmath.sqrt(3) / mpmath.sqrt(a + b), b / (a + b)
            for s in (1 - 1e-9, F(1) - F(1, 10**9)):
                level = mpmath.mpf(s) if isinstance(s, float) else mpmath.mpf(s.numerator) / s.denominator
                want = c * mpmath.ellipf(mpmath.asin(mpmath.sqrt(level)), m)
                got = level_to_distance(k0, k1, s)
                assert abs(got - want) / want < 1e-13


@pytest.mark.parametrize("m1", [1 / 3, 1e-3, 1e-9, 0.5, 0.999])
def test_carlson_rf_matches_scipy(m1):
    # R_F(1 - s, 1 - m s, 1) over a profile's levels, array and scalar paths
    s = np.linspace(0.0, 1.0, 65536)
    t = 1.0 - s
    y = t + s * m1
    want = special.elliprf(t, y, 1.0)
    x, n = t.copy(), len(t)
    work = np.empty((8, n)), np.empty(n, dtype=bool), np.empty(n, dtype=np.intc)
    _rf_block(x, y.copy(), np.ones(n), *work)  # leaves R_F in x
    assert np.max(np.abs(x - want) / want) < 2e-15
    for i in range(0, 65536, 1021):
        got = _rf(float(t[i]), float(y[i]), 1.0)
        assert type(got) is float and abs(got - want[i]) / want[i] < 2e-15


def test_profile_samples_are_level_to_distance_bit_for_bit():
    # each level takes its own number of duplication steps, so its distance
    # does not depend on the levels sampled with it (10000 spans two blocks)
    for r in (F(1, 3), F(299, 300), F(1, 10**9)):
        for n in (16, 10000):
            p = solve_profile(1.3, r, n)
            for s, v in list(zip(p.s, p.v))[::61]:
                assert level_to_distance(p.k0, p.k1, float(s)) == v


@pytest.mark.parametrize("n", [16, 8191, 8192, 8193, 10000, 65536])
def test_profile_is_the_whole_array_oracle_bit_for_bit(n):
    # block by block, in place: every sample goes through the operations of
    # the whole-array expressions in their order, on both sides of a block
    # boundary (8192) and at the cusp
    for r in (F(1, 3), F(299, 300), F(1, 10**9), F(0)):
        for k0 in (1e-300, 1.3, 1e100):
            p = solve_profile(k0, r, n)
            for got, want in zip((p.v, p.K, p.h), oracle_profile(p.k0, p.k1, p.s)):
                assert np.array_equal(got, want)


def test_profile_working_memory_does_not_grow_with_the_samples():
    # beyond its four arrays (32 n bytes) a profile allocates one workspace
    # of one block, whatever the sample count
    def extra(ratio, n):
        tracemalloc.start()
        try:
            solve_profile(1.7, ratio, n)
            return tracemalloc.get_traced_memory()[1] - 32 * n
        finally:
            tracemalloc.stop()

    for r in (F(1, 3), F(0)):
        small, large = extra(r, 32768), extra(r, 131072)
        assert abs(large - small) <= 64 * 1024, (r, small, large)


def test_profile_sample_count_above_the_maximum_is_refused():
    # refused before anything is allocated: 10^11 samples would take 3.2 TB
    for n in (MAX_SAMPLES + 1, 10**11):
        with pytest.raises(BadRatio, match=f"at most {MAX_SAMPLES} samples"):
            solve_profile(1.0, F(1, 2), n)


def test_carlson_rf_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(19361)
    with mpmath.workdps(40):
        for _ in range(30):
            # at most one argument 0, in any position
            args = [rng.choice([0.0, rng.random()]), rng.random(), rng.uniform(0.0, 1e3)]
            rng.shuffle(args)
            want = mpmath.elliprf(*args)
            assert abs(_rf(*args) - want) / want < 1e-15


def test_h_is_zero_at_the_bottom_and_matches_mpmath_near_it():
    # h = sqrt((K0 - K)(K - K1)(K + K0 + K1) / 3) / |cbar| with K = K0 - s (K0 - K1);
    # K - K1 formed as a difference is rounding noise at s = 1
    mpmath = pytest.importorskip("mpmath")
    for k0 in GRID_K0:
        for r in GRID_R:
            k1 = k1_from_ratio(k0, r)
            assert sampled(k0, k1, [1.0])[2][0] == 0.0
            with mpmath.workdps(40):
                K0, K1 = mpmath.mpf(k0), mpmath.mpf(k1)
                cbar = (K0 - K1) * (2 * K0 + K1) / 6
                for s in (1 - 1e-3, 1 - 1e-6, 1 - 1e-9, DEFAULT_CUSP_SMAX):
                    K = K0 - mpmath.mpf(s) * (K0 - K1)
                    want = mpmath.sqrt((K0 - K) * (K - K1) * (K + K0 + K1) / 3) / abs(cbar)
                    got = sampled(k0, k1, [s])[2][0]
                    assert abs(got - want) / want < 1e-13


# -- areas -----------------------------------------------------------------------


def test_football_area_normalization():
    for r in (F(0), F(1, 3), F(2, 3)):
        k0 = 4 * math.pi * (2 - float(r))
        assert football_area(k0, r, 1) == pytest.approx(1.0, rel=1e-15)


def test_football_area_linear_in_angle():
    a1 = football_area(2.0, F(1, 3), 1.5)
    a2 = football_area(2.0, F(1, 3), 3.0)
    assert a2 == pytest.approx(2 * a1, rel=1e-15)


def test_area_quadrature_matches_closed_form():
    rng = random.Random(99)
    for _ in range(20):
        k0 = rng.uniform(0.4, 6.0)
        r = F(rng.randint(0, 9), 10)
        alpha = rng.uniform(0.3, 4.0)
        closed = football_area(k0, r, alpha)
        numeric = 2 * math.pi * alpha * warped_integral(k0, k1_from_ratio(k0, r))
        assert abs(numeric - closed) / closed < 1e-6


def test_surface_area_of_calabi():
    from conftest import make_calabi

    ds = make_calabi()
    # total weight 3, R = 2/3, K0 = 2: area = 2*pi*3 * 6/(2 K0 + K1)
    expect = 2 * math.pi * 3 * 6 / (2 * 2.0 + 0.5)
    assert surface_area(ds) == pytest.approx(expect, rel=1e-9)
    total = sum(
        football_area(ds.k0, ds.ratio, w) for w in map(float, ds.weights)
    )
    assert surface_area(ds) == pytest.approx(total, rel=1e-9)


def test_tiny_curvature_profile_is_finite_and_reaches_the_length():
    p = solve_profile(1e-9, F(1, 3), 64)
    assert np.all(np.isfinite(p.v))
    assert np.all(np.diff(p.v) > 0)
    assert p.v[-1] == element_length(p.k0, p.k1)


def test_closed_form_matches_quadrature_oracle():
    worst = 0.0
    for k0 in GRID_K0:
        for r in GRID_R + (F(499, 500),):
            k1 = k1_from_ratio(k0, r)
            p = solve_profile(k0, r, 257)
            top = DEFAULT_CUSP_SMAX if r == 0 else 1.0
            assert p.s[-1] == top
            want = [quad_distance(k0, k1, s) for s in p.s]
            assert p.v[0] == want[0] == 0
            rel = np.abs(p.v[1:] - want[1:]) / np.asarray(want[1:])
            for s in (F(1, 10**6), F(1, 3), F(9, 10), top):
                got = level_to_distance(k0, k1, s)
                rel = np.append(rel, abs(got - quad_distance(k0, k1, float(s))) / got)
            if r == 0:
                assert element_length(k0, k1) == math.inf
                assert level_to_distance(k0, k1, 1) == math.inf
            else:
                length = element_length(k0, k1)
                rel = np.append(rel, abs(length - quad_distance(k0, k1, 1.0)) / length)
            worst = max(worst, rel.max())
    assert worst < 1e-12


# -- imports ---------------------------------------------------------------------


@pytest.mark.parametrize("module", ["scipy", "networkx"])
def test_import_does_not_load_scipy_integrate(module):
    # test oracles only: scipy.special alone adds about 0.3 s to every
    # start-up, scipy.integrate more, and networkx about 0.1 s
    src = str(Path(hcmu.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = f"import sys, hcmu, hcmu.cli; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


COLD_START = """
import json, sys
import hcmu, hcmu.cli
fixtures, tmp = sys.argv[1:]
calabi, two_level = f"{fixtures}/calabi.json", f"{fixtures}/two_level.json"
commands = [
    ["validate", calabi],
    ["check", "--genus", "0", "--angles", "2,2,2"],
    ["dim", "--genus", "1", "--angles", "4,0"],
    ["ratios", "--genus", "0", "--angles", "2,2,2", "--saddles", "1,2,3"],
    ["build", "--genus", "0", "--angles", "2,3", "--saddles", "1", "-o", f"{tmp}/s.json"],
    ["one-cone", "--genus", "0", "-p", "7", "-q", "3", "-o", f"{tmp}/c.json"],
    ["solve", calabi],
    ["twist", two_level, "--level", "1/2", "--circle", "0", "--psi", "1/5", "-o", f"{tmp}/t.json"],
    ["split", f"{tmp}/s.json", "--vertex", "0", "--offset", "1/3", "--level", "3/4", "-o", f"{tmp}/after.json"],
    ["export-dot", calabi],
]
codes = [hcmu.cli.main(command) for command in commands]
before = "numpy" in sys.modules
code = hcmu.cli.main(["profile", "--k0", "2", "--ratio", "2/3", "--samples", "16", "-o", f"{tmp}/p.csv"])
print(json.dumps([codes, before, code, "numpy" in sys.modules]))
"""


def test_only_an_array_profile_loads_numpy(tmp_path):
    # every subcommand but profile is exact combinatorics, so none of them
    # pays for importing numpy; profile loads it and writes the golden bytes
    here = Path(__file__).resolve().parent
    src = str(Path(hcmu.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", COLD_START, str(here.parent / "fixtures"), str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    codes, before, code, after = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0] * 10 and code == 0
    assert (before, after) == (False, True)
    assert (tmp_path / "p.csv").read_bytes() == (here / "golden" / "profile_k2_r23_n16.csv").read_bytes()
