import math

import mpmath
import numpy as np
import pytest
from scipy import special

from onebitfb.specfun import (
    integrate_semi_infinite,
    marcum_q1,
    marcum_q1_bounds,
)

# Frozen via scipy.integrate.quad of the defining integral
# x exp(-(x^2+a^2)/2) I0(ax) from b to infinity (i0e-scaled form).
MARCUM_GOLDENS = [
    (1.0, 2.0, 0.26901206003591),
    (0.5, 0.3, 0.961059416570078),
    (10.0, 12.0, 0.0253294742979414),
    (50.0, 50.0, 0.503989622320054),
    (0.001, 5.0, 3.72667646369063e-06),
    (3.0, 0.5, 0.998300232705539),
]

# Frozen via mpmath at 50 digits: the Poisson mixture
# sum_n e^{-a^2/2} (a^2/2)^n / n! * Q(n+1, b^2/2), Q the regularized upper
# incomplete gamma.
MARCUM_MPMATH_GOLDENS = [
    (5.0, 20.0, 7.3632569038849647e-51),
    (20.0, 35.0, 4.8616793396764066e-51),
    (1.0, 12.0, 6.7155062342890964e-28),
    (10.0, 10.0, 0.51997218964954834),
]

# Frozen via mpmath at 40 digits: quadrature of the defining integral in the
# form x exp(-(x-a)^2/2) I0e(ax) from b to infinity.  chndtr is NaN at all of
# them but the six at a = 2.5e5 with b != a.
MARCUM_RIDGE_GOLDENS = [
    (250000.0, 250000.0, 0.5000007978845608),
    (250000.0, 250000.1, 0.46017295662567603),
    (250000.0, 249999.9, 0.5398286311845139),
    (250000.0, 250001.0, 0.15865573787242215),
    (250000.0, 249999.0, 0.8413452300104759),
    (250000.0, 250005.0, 2.8665454530335634e-07),
    (250000.0, 249995.0, 0.9999997133514016),
    (1000000.0, 1000000.0, 0.5000001994711402),
    (1000000.0, 1000000.1, 0.4601723612084821),
    (1000000.0, 999999.9, 0.5398280357440655),
    (1000000.0, 1000001.0, 0.15865537491678908),
    (1000000.0, 999999.0, 0.8413448670539354),
    (1000000.0, 1000005.0, 2.866523152380221e-07),
    (1000000.0, 999995.0, 0.9999997133491715),
    (10000000.0, 10000000.0, 0.5000000199471141),
    (10000000.0, 10000000.1, 0.4601721827184747),
    (10000000.0, 9999999.9, 0.53982785697678),
    (10000000.0, 10000001.0, 0.15865526602999297),
    (10000000.0, 9999999.0, 0.8413447581670794),
    (10000000.0, 10000005.0, 2.866516462151604e-07),
    (10000000.0, 9999995.0, 0.9999997133485025),
]

# Frozen as MARCUM_RIDGE_GOLDENS, on both sides of ab = 3.4e10, where
# marcum_q1 leaves chndtr for the ridge form.
MARCUM_CUTOFF_GOLDENS = [
    (100000.0, 99999.5, 0.69146422160284736),
    (100000.0, 100000.5, 0.30853929905042034),
    (100000.0, 99997.0, 0.99865012412777816),
    (100000.0, 100003.0, 0.0013499201907059627),
    (185000.0, 184999.5, 0.69146341280256621),
    (185000.0, 185000.5, 0.30853849025325415),
    (185000.0, 184997.0, 0.99865011394638715),
    (185000.0, 185003.0, 0.0013499100095502165),
    (190000.0, 189999.5, 0.69146338776232465),
    (190000.0, 190000.5, 0.30853846521307938),
    (190000.0, 189997.0, 0.99865011363117492),
    (190000.0, 190003.0, 0.0013499096943430365),
]


class TestMarcumQ1:
    @pytest.mark.parametrize("a,b,want", MARCUM_GOLDENS)
    def test_quadrature_goldens(self, a, b, want):
        assert marcum_q1(a, b) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("a,b,want", MARCUM_MPMATH_GOLDENS)
    def test_mpmath_goldens(self, a, b, want):
        # abs=0: approx otherwise also accepts anything within 1e-12 absolute
        assert marcum_q1(a, b) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("a", [100.0, 1500.0])
    def test_equal_arguments_identity(self, a):
        # Q1(a, a) = (1 + exp(-a^2) I0(a^2)) / 2, the complement identity at b = a.
        # 2e-14: scipy's chndtr is 2e-14 relative off at noncentrality 1500^2.
        assert marcum_q1(a, a) == pytest.approx(0.5 * (1.0 + special.i0e(a * a)), abs=2e-14)

    def test_a_zero_is_rayleigh_tail(self):
        for b in (0.1, 1.0, 3.0):
            assert marcum_q1(0.0, b) == pytest.approx(math.exp(-b * b / 2), rel=1e-13)

    def test_b_zero_is_one(self):
        assert marcum_q1(2.0, 0.0) == 1.0

    def test_complement_identity(self):
        # Q1(a,b) + Q1(b,a) = 1 + exp(-(a^2+b^2)/2) I0(ab)
        rng = np.random.default_rng(3)
        a = rng.uniform(0.1, 8.0, 50)
        b = rng.uniform(0.1, 8.0, 50)
        lhs = marcum_q1(a, b) + marcum_q1(b, a)
        rhs = 1.0 + np.exp(-(a * a + b * b) / 2 + a * b) * special.i0e(a * b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_monotone_in_each_argument(self):
        b = np.full(40, 2.5)
        a = np.linspace(0.0, 6.0, 40)
        q = marcum_q1(a, b)
        assert np.all(np.diff(q) > 0)
        q2 = marcum_q1(np.full(40, 2.5), np.linspace(0.1, 8.0, 40))
        assert np.all(np.diff(q2) < 0)

    def test_range_and_broadcasting(self):
        a = np.linspace(0.0, 30.0, 17)[:, None]
        b = np.linspace(0.0, 30.0, 23)[None, :]
        q = marcum_q1(a, b)
        assert q.shape == (17, 23)
        assert np.all(q >= 0.0) and np.all(q <= 1.0)

    def test_huge_arguments_saturate_or_raise(self):
        # chndtr gives NaN at these noncentralities; the bounds pin Q1 far off
        # the ridge, and on it Q1(a, a) is (1 + i0e(a^2)) / 2 exactly.
        assert marcum_q1(1e44, 0.5) == 1.0
        assert marcum_q1(0.5, 1e44) == 0.0
        assert marcum_q1(5e5, 5e5) == pytest.approx(0.5 * (1.0 + special.i0e(2.5e11)), abs=1e-14)

    @pytest.mark.parametrize("a,b,want", [(2e154, 2.2e154, 0.0), (2.2e154, 2e154, 1.0),
                                          (2e154, 2e154, 0.5)])
    def test_overflowing_squares_warn_nothing(self, a, b, want):
        # a^2, b^2 and a b overflow past 1.3e154; the |a - b| > 40 bound and the
        # ridge form decide Q1 there, and warnings are errors in this suite.
        assert marcum_q1(a, b) == want

    @pytest.mark.parametrize("a,b,want", MARCUM_RIDGE_GOLDENS)
    def test_ridge_past_chndtr(self, a, b, want):
        # ab > 3.4e10 at each point, so the normal-plus-ridge form runs, off by at
        # most 0.034/(ab).
        assert marcum_q1(a, b) == pytest.approx(want, rel=0, abs=0.04 / (a * b) + 2.3e-16)

    @pytest.mark.parametrize("a,b,want", MARCUM_CUTOFF_GOLDENS)
    def test_near_the_chndtr_cutoff(self, a, b, want):
        # chndtr below ab = 3.4e10 and the ridge form above it are equally close.
        assert marcum_q1(a, b) == pytest.approx(want, rel=0, abs=2.5e-12)

    def test_no_chndtr_past_the_cutoff(self, monkeypatch):
        # Near the ridge chndtr costs O(max(a, b)) time, 7 ms a call at 1e5.
        calls = []
        chndtr = special.chndtr
        monkeypatch.setattr(special, "chndtr", lambda *args: calls.append(args) or chndtr(*args))
        for a in (185000.0, 1e6, 1e100, 1e200):  # 185000^2 = 3.4225e10
            for d in (0.0, 0.5, -0.5, 3.0, -3.0, 39.0, -39.0):
                marcum_q1(a, a - d)
        assert calls == []
        marcum_q1(184000.0, 184000.0)  # ab = 3.3856e10
        assert len(calls) == 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            marcum_q1(-1.0, 2.0)
        with pytest.raises(ValueError):
            marcum_q1(1.0, -2.0)
        with pytest.raises(ValueError):
            marcum_q1(np.nan, 2.0)

    def test_bounds_bracket_value(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = rng.uniform(0.05, 20.0)
            b = rng.uniform(0.05, 20.0)
            lo, hi = marcum_q1_bounds(a, b)
            q = marcum_q1(a, b)
            assert lo - 1e-12 <= q <= hi + 1e-12

    def test_asymptotic_near_ridge(self):
        # normal-tail form approximates the exact value when a,b are large and close
        a, b = 200.0, 203.0
        approx = math.sqrt(b / a) * special.ndtr(a - b)
        assert approx == pytest.approx(marcum_q1(a, b), rel=2e-2)


class TestQuadrature:
    @pytest.mark.parametrize("c", [1e-300, 1e-12, 1e-3, 0.5, 1.0, 7.0, 1e3, 1e12, 1e300, 1.7e308])
    def test_frullani_is_exact(self, c):
        # X = c: int_0^inf (e^-t - e^-(1+c)t) dt / t = log(1 + c), to one rounding.
        got = integrate_semi_infinite(lambda t: -c * t, math.log1p(c))
        assert got == pytest.approx(math.log1p(c), rel=2.3e-16, abs=0.0)

    def test_exponential_matches_mpmath(self):
        # X a mean-c exponential: E log(1 + X) = e^{1/c} E1(1/c).
        cs = np.geomspace(1e-12, 1e15, 55)
        got = np.array([integrate_semi_infinite(lambda t: -np.log1p(c * t), math.log1p(c))
                        for c in cs])
        with mpmath.workdps(40):
            want = np.array([float(mpmath.exp(1 / c) * mpmath.e1(1 / c))
                             for c in map(mpmath.mpf, cs)])
        assert np.max(np.abs(got / want - 1.0)) <= 4.5e-16
