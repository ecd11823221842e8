import math

import mpmath
import numpy as np
import pytest
from scipy import special

from onebitfb import specfun
from onebitfb.specfun import (
    ConvergenceError,
    QuadratureSpec,
    expx_e1,
    expx_expn,
    integrate_semi_infinite,
    marcum_q1,
    marcum_q1_asymptotic,
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

# Frozen via mpmath: exp(x) * e1(x) at 30 digits.
EXPX_E1_GOLDENS = [
    (0.5, 0.92291063248373047),
    (10.0, 0.091563333939788082),
    (51.0, 0.019237629337915531),
    (1000.0, 0.00099900199402388071),
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

    @pytest.mark.parametrize("a,b,want", MARCUM_RIDGE_GOLDENS)
    def test_ridge_past_chndtr(self, a, b, want):
        # Where chndtr is NaN the normal-plus-ridge form runs, off by at most
        # 0.034/(ab); where chndtr still converges it is up to 6e-12 off.
        if np.isnan(special.chndtr(min(a, b) ** 2, 2.0, max(a, b) ** 2)):
            tol = 0.04 / (a * b) + 2.3e-16
        else:
            tol = 1e-11
        assert marcum_q1(a, b) == pytest.approx(want, rel=0, abs=tol)

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

    def test_asymptotic_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            marcum_q1_asymptotic(0.0, 1.0)


class TestScalars:
    @pytest.mark.parametrize("x,want", EXPX_E1_GOLDENS)
    def test_expx_e1_goldens(self, x, want):
        assert expx_e1(x) == pytest.approx(want, rel=1e-13)

    def test_expx_e1_matches_mpmath_above_switch(self):
        # The hyperu branch, batched, against 40-digit e^x E1(x).
        x = np.geomspace(50.0, 1e12, 300)[1:]
        got = expx_e1(x)
        with mpmath.workdps(40):
            want = np.array([float(mpmath.exp(v) * mpmath.e1(v)) for v in x])
        assert np.max(np.abs(got / want - 1.0)) <= 2e-15

    def test_expx_e1_continuous_at_switch(self):
        lo = expx_e1(50.0 - 1e-9)
        hi = expx_e1(50.0 + 1e-9)
        assert lo == pytest.approx(hi, rel=1e-10)

    def test_expx_e1_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            expx_e1(0.0)

    def test_expx_e1_limit_at_infinity(self):
        # 1/P for a subnormal power; hyperu(1, 1, inf) is NaN.
        assert expx_e1(math.inf) == 0.0
        assert np.array_equal(expx_e1(np.array([math.inf, 1e300])), [0.0, 1e-300])


def _expx_expn_reference(m: int, x: float, dps: int) -> mpmath.mpf:
    """e^x E_m(x) = int_0^inf e^{-x s} (1+s)^{-m} ds, by mpmath quadrature at ``dps`` digits.

    mpmath's own expint(m, x) is no reference here: at 30 digits it gives
    -0.063 for m = 75, x = 100, and at 80 digits 5e197 for m = 500, x = 709.
    """
    with mpmath.workdps(dps):
        x = mpmath.mpf(x)
        s = 1 / (x + m)  # the scale of the integrand's decay
        return mpmath.quad(lambda u: mpmath.exp(-x * u) * (1 + u) ** -m,
                           [0, s, 4 * s, 16 * s, 64 * s, mpmath.inf])


class TestExpxExpn:
    # Past m = 50, scipy's expn stops its asymptotic series early where a
    # coefficient vanishes: at m = 2x it is 1.3e-7 off at x = 50 and 4e-7 at x = 30.
    @pytest.mark.parametrize("x", [1e-3, 0.37, 1.0, 7.5, 25.5, 30.0, 50.0, 50.5, 100.0, 709.0,
                                   1e3, 1e6, 1e10])
    def test_matches_mpmath(self, x):
        got = expx_expn(2000, x)
        for m in (1, 3, 50, 51, 60, 75, 100, 500, 2000):
            want = _expx_expn_reference(m, x, 20)
            with mpmath.workdps(30):
                assert abs(want / _expx_expn_reference(m, x, 30) - 1) < 1e-16
            assert got[m - 1] == pytest.approx(float(want), rel=1e-14), (m, x)

    def test_recurrence_and_limits(self):
        for x in (1e-300, 1e-8, 2.0, 49.99, 50.01, 1e300):
            j = expx_expn(3000, x)
            m = np.arange(1.0, 3000.0)
            assert np.all(j > 0.0) and np.all(np.diff(j) <= 0.0)
            assert np.max(np.abs(m * j[1:] + x * j[:-1] - 1.0)) < 2e-14
        assert np.array_equal(expx_expn(5, math.inf), np.zeros(5))

    def test_fraction_cap_is_a_named_failure(self, monkeypatch):
        monkeypatch.setattr(specfun, "_CF_MAX_ITER", 3)
        with pytest.raises(ConvergenceError, match="continued fraction"):
            expx_expn(10, 60.0)

    @pytest.mark.parametrize("orders,x", [(0, 1.0), (3, 0.0), (3, -1.0), (3, math.nan)])
    def test_bad_input_is_named(self, orders, x):
        with pytest.raises(ValueError, match="expx_expn"):
            expx_expn(orders, x)


class TestQuadrature:
    def test_rayleigh_normalization(self):
        val = integrate_semi_infinite(lambda x: 2 * x * np.exp(-x * x), 0.0)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_rayleigh_tail(self):
        val = integrate_semi_infinite(lambda x: 2 * x * np.exp(-x * x), 1.0)
        assert val == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_gaussian_moment(self):
        val = integrate_semi_infinite(
            lambda x: x * x * np.exp(-x * x / 2) / math.sqrt(2 * math.pi), 0.0
        )
        assert val == pytest.approx(0.5, rel=1e-9)

    def test_breakpoints_resolve_a_narrow_step(self):
        # A step 1e-9 wide just past x = 1, where bisecting [0, 4] puts a
        # panel edge: no node of [1, 2] lands before the step, so without a
        # panel of its own the integral is 2e-7 too high.
        c = 1.0 + 1e-7

        def f(x):
            return 2 * x * np.exp(-x * x) * special.ndtr((x - c) / 1e-9)

        spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-12, tail_cutoff_tol=1e-18)
        got = integrate_semi_infinite(f, 0.0, spec, breakpoints=(c - 1e-8, c + 1e-8))
        assert got == pytest.approx(math.exp(-c * c), rel=1e-12)

    def test_breakpoints_below_lower_are_skipped(self):
        f = lambda x: 2 * x * np.exp(-x * x)  # noqa: E731
        assert integrate_semi_infinite(f, 1.0, breakpoints=(0.5, 1.0, 1.5)) == pytest.approx(
            math.exp(-1.0), rel=1e-10
        )

    def test_each_bisection_is_one_integrand_call(self):
        # Both breakpoint panels, then one 15-node call per tail segment,
        # then both halves of each bisected panel in one 30-node call.
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.exp(-x) * np.cos(4.0 * x)

        got = integrate_semi_infinite(f, 0.0, breakpoints=(0.5, 1.0))
        assert got == pytest.approx(1.0 / 17.0, rel=1e-9)
        tail = sizes.count(15)
        assert sizes == [30] + [15] * tail + [30] * (len(sizes) - 1 - tail)
        assert len(sizes) > tail + 1

    def test_convergence_error_carries_estimate(self):
        spec = QuadratureSpec(
            abs_tol=1e-16, rel_tol=1e-16, max_subdivisions=3, tail_cutoff_tol=1e-18
        )
        with pytest.raises(ConvergenceError) as err:
            integrate_semi_infinite(lambda x: np.exp(-x) * np.cos(40 * x), 0.0, spec)
        assert math.isfinite(err.value.estimate)
        assert err.value.error_bound > 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)
