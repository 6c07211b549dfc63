import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import hcmu
from hcmu.errors import BadRatio
from hcmu.geometry import (
    DEFAULT_CUSP_SMAX,
    CurvaturePair,
    _h_of_s,
    cusp_profile_closed_form,
    element_length,
    football_area,
    k1_from_ratio,
    level_to_distance,
    ratio_from_pair,
    solve_profile,
    surface_area,
)

GRID_K0 = (0.5, 1.0, 2.0, 5.0)
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


def test_h_is_zero_at_the_bottom_and_matches_mpmath_near_it():
    # h = sqrt((K0 - K)(K - K1)(K + K0 + K1) / 3) / |cbar| with K = K0 - s (K0 - K1);
    # K - K1 formed as a difference is rounding noise at s = 1
    mpmath = pytest.importorskip("mpmath")
    for k0 in GRID_K0:
        for r in GRID_R:
            k1 = k1_from_ratio(k0, r)
            assert _h_of_s([1.0], k0, k1)[0] == 0.0
            with mpmath.workdps(40):
                K0, K1 = mpmath.mpf(k0), mpmath.mpf(k1)
                cbar = (K0 - K1) * (2 * K0 + K1) / 6
                for s in (1 - 1e-3, 1 - 1e-6, 1 - 1e-9, DEFAULT_CUSP_SMAX):
                    K = K0 - mpmath.mpf(s) * (K0 - K1)
                    want = mpmath.sqrt((K0 - K) * (K - K1) * (K + K0 + K1) / 3) / abs(cbar)
                    got = _h_of_s([s], k0, k1)[0]
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


def test_import_does_not_load_scipy_integrate():
    # scipy.integrate adds about 0.3 s and tens of MiB to every start-up
    src = str(Path(hcmu.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, hcmu; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
