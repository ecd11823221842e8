import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from onebitfb import ergodic
from onebitfb.channel import CorrelationParams
from onebitfb.cli import main as cli_main
from onebitfb.ergodic import (
    ErgodicConfig,
    affine_rate_approx,
    ebn0_db_from_power,
    full_csi_rate,
    no_csi_rate,
    optimal_threshold,
    prob_some_above,
    rate_at_ebn0,
    rate_bracket,
    suboptimal_threshold,
    sum_rate,
    sum_rate_lower,
    sum_rate_upper,
    wideband_metrics,
)
from onebitfb.outage import eps1_outdated
from onebitfb.specfun import marcum_q1

LOG2 = math.log(2.0)

# Frozen Riemann-sum oracle (4e6-point trapezoid of the rate integrand with
# the Marcum factor from scipy.stats.ncx2.sf) at K=16, P=100, rho=0.9, alpha=1.5.
RATE_ORACLE_GOLDEN = 5.16213290734

# Frozen mpmath golden: sum_k C(4,k)(-1)^{k+1} e^{k/10} E1(k/10).
FULL_CSI_GOLDEN_4_10 = 2.94079210910671

# Frozen from a 201-point fine-grid argmax around the package optimum,
# rate evaluated at abs_tol 1e-12.
ALPHA_OPT_GOLDEN_100_100_09 = 3.0811911443589137


def expx_e1(x: float) -> float:
    """e^x E1(x), for x up to about 700."""
    return math.exp(x) * special.exp1(x)


def full_csi_mpmath(k: int, power: float) -> float:
    """E[log(1 + P max_k v_k^2)] at 25 digits, from the law of the max rather than its MGF.

    int_0^inf P Pr(max > x) / (1 + P x) dx, in u = ln x.  Below
    x = e^-62 min(1, 1/P) the integrand adds under 1e-26 of the rate; above
    x = ln K + 75, Pr(max > x) < K e^-x does.
    """
    with mpmath.workdps(25):
        p = mpmath.mpf(power)

        def f(u):
            x = mpmath.exp(u)
            return p * x / (1 + p * x) * -mpmath.expm1(k * mpmath.log1p(-mpmath.exp(-x)))

        lp, top = -mpmath.log(p), mpmath.log(k) + 75
        lo, hi = min(lp, 0) - 62, mpmath.log(top)
        breaks = sorted(b for b in (lp - 8, lp, lp + 8, mpmath.log(top - 74), mpmath.log(top - 35))
                        if lo < b < hi)
        return float(mpmath.quad(f, [lo, *breaks, hi]))


def kibble_brace(alpha: float, rho: float):
    """Pr(v_tau^2 >= alpha | v^2 >= alpha) by Kibble's bivariate-exponential series,
    e^alpha sum_n (1 - r) r^n Q(n + 1, alpha / (1 - r))^2 with r = rho^2, to 50 digits."""
    with mpmath.workdps(50):
        r = mpmath.mpf(rho) ** 2
        x = mpmath.mpf(alpha) / (1 - r)
        total, n = mpmath.mpf(0), 0
        while True:
            term = (1 - r) * r ** n * mpmath.gammainc(n + 1, x, regularized=True) ** 2
            total += term
            if n > x and term < total * mpmath.mpf(10) ** -55:
                return mpmath.exp(alpha) * total
            n += 1


def rician_mixture_rate(power: float, rho: float, alpha: float) -> float:
    """E[log(1 + P v_tau^2) | v^2 >= alpha] by scipy's quad, without Pr(N>0).

    Given v^2 = alpha + t, t ~ Exp(1), v_tau is Rician with
    nu = rho sqrt(alpha + t) and sigma^2 = (1 - rho^2)/2.
    """
    var = (1.0 - rho * rho) / 2.0

    def given_t(t):
        nu = rho * math.sqrt(alpha + t)

        def f(z):
            return (math.log1p(power * z * z) * z / var
                    * math.exp(-(z - nu) ** 2 / (2.0 * var)) * special.i0e(z * nu / var))

        sd = math.sqrt(var)
        return integrate.quad(f, max(0.0, nu - 40.0 * sd), nu + 40.0 * sd, points=[nu],
                              epsabs=0.0, epsrel=1e-13, limit=200)[0]

    return integrate.quad(lambda t: math.exp(-t) * given_t(t), 0.0, 60.0,
                          epsabs=0.0, epsrel=1e-12, limit=200)[0]


class TestSumRate:
    def test_against_riemann_oracle(self):
        cfg = ErgodicConfig(16, 100.0, CorrelationParams(0.9), 1.5)
        assert sum_rate(cfg) == pytest.approx(RATE_ORACLE_GOLDEN, abs=1e-6)

    def test_rho_zero_closed_form(self):
        cfg = ErgodicConfig(4, 10.0, CorrelationParams(0.0), 1.0)
        want = prob_some_above(1.0, 4) * expx_e1(1.0 / 10.0)
        assert sum_rate(cfg) == pytest.approx(want, rel=1e-13)

    def test_instantaneous_closed_form(self):
        cfg = ErgodicConfig(4, 10.0, CorrelationParams(1.0), 1.0)
        want = prob_some_above(1.0, 4) * (math.log1p(10.0) + expx_e1(1.0 + 0.1))
        assert sum_rate(cfg) == pytest.approx(want, rel=1e-12)

    def test_general_rho_continuous_at_one(self):
        base = ErgodicConfig(8, 50.0, CorrelationParams(1.0), 1.2)
        near = ErgodicConfig(8, 50.0, CorrelationParams(1.0 - 1e-7), 1.2)
        assert sum_rate(near) == pytest.approx(sum_rate(base), abs=1e-3)

    @pytest.mark.parametrize("k,power,alpha,slope", [(4, 10.0, 1.0, 1.5279),
                                                     (16, 100.0, 2.5, 1.4860)])
    def test_linear_approach_to_rho_one(self, k, power, alpha, slope):
        # |R(rho) - R(1)| / (1 - rho) settles to a constant: the rate is O(1 - rho)
        # from the instantaneous closed form, down to the |rho| = 1 cutoff.
        at_one = sum_rate(ErgodicConfig(k, power, CorrelationParams(1.0), alpha))
        for one_minus_rho in (1e-3, 1e-6, 1.5e-9):
            cfg = ErgodicConfig(k, power, CorrelationParams(1.0 - one_minus_rho), alpha)
            gap = abs(sum_rate(cfg) - at_one)
            assert gap / one_minus_rho == pytest.approx(slope, rel=1e-3)

    @pytest.mark.parametrize("one_minus_rho", [1e-7, 1e-8])
    def test_marcum_step_near_rho_one(self, one_minus_rho):
        # The Marcum-Q factor steps at z0 = sqrt(alpha)/rho over a width of
        # about sqrt(1 - rho^2); scipy's quad is split around it.
        k, power, alpha, rho = 4, 10.0, 1.0, 1.0 - one_minus_rho
        s = math.sqrt(1.0 - rho * rho)

        def f(z):
            q = marcum_q1(math.sqrt(2.0) * rho / s * z, math.sqrt(2.0 * alpha) / s)
            return math.log1p(power * z * z) * 2.0 * z * math.exp(alpha - z * z) * q

        z0 = math.sqrt(alpha) / rho
        cuts = [0.0, z0 - 40.0 * s, z0, z0 + 40.0 * s, 12.0]
        want = prob_some_above(alpha, k) * sum(
            integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]
            for a, b in zip(cuts, cuts[1:])
        )
        got = sum_rate(ErgodicConfig(k, power, CorrelationParams(rho), alpha))
        assert got == pytest.approx(want, rel=1e-12)

    # The last three are far past where the conditional density's Marcum-Q
    # factor is resolved by chndtr: alpha (1 - rho^2) from 96 to 7.5e5.
    @pytest.mark.parametrize("rho,alpha", [(0.9, 300.0), (0.5, 79.0), (0.5, 81.0), (0.5, 300.0),
                                           (0.3, 500.0), (0.5, 705.0), (0.5, 709.0),
                                           (0.5, 710.0), (0.5, 745.0), (0.5, 760.0),
                                           (0.5, 1e6), (0.93, 709.0), (0.999, 4e4)])
    def test_large_alpha_matches_rician_mixture(self, rho, alpha, monkeypatch):
        # Pr(N>0) is set to 1: it underflows to 0 past alpha = 745.
        monkeypatch.setattr(ergodic, "prob_some_above", lambda alpha, k: 1.0)
        cfg = ErgodicConfig(4, 100.0, CorrelationParams(rho), alpha)
        want = rician_mixture_rate(100.0, rho, alpha)
        assert sum_rate(cfg) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("k,snr_db,rho,alpha", [
        (4, -25.0, 0.1, 1.0), (4, 20.0, 0.9, 0.5), (16, 60.0, 0.5, 2.0), (64, 0.0, 0.99, 3.5),
        (64, 10.0, 0.7, 2.8), (256, 40.0, 0.97, 5.0), (1024, -10.0, 0.3, 6.0),
        (1024, 20.0, 0.5, 5.3), (1024, 60.0, 0.99, 7.0), (100, -5.0, 0.995, 0.3),
        (16, 20.0, 0.999, 2.0), (100, 0.0, 0.9999, 3.0),
    ])
    def test_series_matches_split_quadrature(self, k, snr_db, rho, alpha):
        # The reference is scipy's quad of the rate's defining integral over
        # the conditional envelope density, split at its Marcum-Q step.
        corr, power = CorrelationParams(rho), 10.0 ** (snr_db / 10.0)
        s = math.sqrt(1.0 - rho * rho)

        def f(z):
            q = marcum_q1(math.sqrt(2.0) * rho / s * z, math.sqrt(2.0 * alpha) / s)
            return math.log1p(power * z * z) * 2.0 * z * math.exp(alpha - z * z) * q

        z0, width, top = math.sqrt(alpha) / rho, s / (math.sqrt(2.0) * rho), math.sqrt(alpha + 60.0)
        cuts = sorted({0.0, top} | {z for z in (z0 - 40.0 * width, z0, z0 + 40.0 * width)
                                    if 0.0 < z < top})
        want = prob_some_above(alpha, k) * sum(
            integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]
            for a, b in zip(cuts, cuts[1:])
        )
        assert sum_rate(ErgodicConfig(k, power, corr, alpha)) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("rho", [1e-300, 1e-160, -1e-300])
    def test_rho_squared_underflow_is_rho_zero(self, rho):
        # rho^2 is 0 below rho = 1.5e-162 and subnormal just above.
        cfg = ErgodicConfig(4, 10.0, CorrelationParams(rho), 1.0)
        want = sum_rate(ErgodicConfig(4, 10.0, CorrelationParams(0.0), 1.0))
        assert sum_rate(cfg) == pytest.approx(want, rel=1e-15)

    def test_alpha_zero_single_user_is_no_csi(self):
        # At alpha = 0 the conditioning is void and v_tau^2 is a unit exponential.
        for rho in (0.0, 0.3, 0.5, 0.9, 0.99, 0.995, 1.0):
            for power in (1e-3, 20.0, 1e6):
                cfg = ErgodicConfig(1, power, CorrelationParams(rho), 0.0)
                assert sum_rate(cfg) == pytest.approx(no_csi_rate(power), rel=1e-14)

    def test_monotone_in_power(self):
        c = CorrelationParams(0.8)
        rates = [sum_rate(ErgodicConfig(4, p, c, 1.0)) for p in (1.0, 10.0, 100.0)]
        assert rates[0] < rates[1] < rates[2]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ErgodicConfig(0, 10.0, CorrelationParams(0.5), 1.0)
        with pytest.raises(ValueError):
            ErgodicConfig(1, -1.0, CorrelationParams(0.5), 1.0)
        with pytest.raises(ValueError):
            ErgodicConfig(1, 10.0, CorrelationParams(0.5), -0.1)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="threshold"):
                ErgodicConfig(1, 10.0, CorrelationParams(0.5), bad)
        # alpha P overflows inside log(1 + alpha P), and 0 * inf is NaN.
        with pytest.raises(OverflowError, match="threshold"):
            ErgodicConfig(1, 1e30, CorrelationParams(1.0), 1e300)


class TestBounds:
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_sandwich(self, rho, alpha):
        cfg = ErgodicConfig(8, 100.0, CorrelationParams(rho), alpha)
        r = sum_rate(cfg)
        assert sum_rate_lower(cfg) <= r + 1e-6
        assert r <= sum_rate_upper(cfg) + 1e-6

    def test_bracket_limits(self):
        c = CorrelationParams(0.5)
        assert rate_bracket(1.0, CorrelationParams(1.0)) == 1.0
        assert rate_bracket(0.0, c) == pytest.approx(1.0, rel=1e-12)
        # rho=0: bracket collapses to exp(-alpha/(1-rho^2))
        assert rate_bracket(2.0, CorrelationParams(0.0)) == pytest.approx(
            math.exp(-2.0), rel=1e-12
        )

    @pytest.mark.parametrize("alpha,rho", [(1e-17, 0.99), (1e-16, 0.9)])
    def test_bracket_is_a_probability(self, alpha, rho):
        # 1 + Q1(rho s, s) - Q1(s, rho s) rounds 1 ulp above 1 at these points.
        assert rate_bracket(alpha, CorrelationParams(rho)) == 1.0

    def test_bracket_asymptotic_path_cancels(self):
        # the two asymptotic terms are symmetric, so the bracket is exactly 1
        assert rate_bracket(math.log(1e8) - 2.0, CorrelationParams(0.5), asymptotic=True) == 1.0

    # Acceptance criterion 10's point is alpha = ln 1e8 - 2, rho = 0.5, where the
    # brace is 9.9941227293e-4; at fixed |rho| < 1 it falls toward 0 (8.25e-9 at 50).
    @pytest.mark.parametrize("alpha,rel,abs_", [(math.log(1e8) - 2.0, 1e-12, 0.0),
                                               (10.0, 1e-12, 0.0), (50.0, 0.0, 1e-15)])
    def test_bracket_matches_kibble_series(self, alpha, rel, abs_):
        want = kibble_brace(alpha, 0.5)
        assert rate_bracket(alpha, CorrelationParams(0.5)) == pytest.approx(
            float(want), rel=rel, abs=abs_)

    @pytest.mark.parametrize("alpha,rho", [(5.0, 0.5), (1.0, 1e-100), (0.01, 1e-200),
                                           (0.1, 1e-100), (1e308, 0.5), (1e-320, 1e-10)])
    def test_bracket_asymptotic_path_is_one(self, alpha, rho):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rate_bracket(alpha, CorrelationParams(rho), asymptotic=True) == 1.0

    @pytest.mark.parametrize("alpha", [9e307, 1e308, 1.7976931348623157e308])
    def test_bracket_overflow_names_alpha(self, alpha):
        # s = sqrt(2 alpha)/sqrt(1 - rho^2) overflows once 2 alpha does.
        with pytest.raises(OverflowError, match="alpha"):
            rate_bracket(alpha, CorrelationParams(0.5))

    def test_bracket_is_one_minus_eps1(self):
        # At R = log1p(alpha), P1 = 1, eps1's (e^R - 1)/P1 is alpha to 1 ulp, and
        # eps1 = Q1(s, |rho| s) - Q1(|rho| s, s), the complement of the brace.
        for rhos, tol in (([-0.99, -0.5, 1e-3, 0.1, 0.5, 0.9, 0.99], 1e-14),
                          ([1.0 - 1e-6, 1.0 - 1e-8], 1e-11)):
            for rho in rhos:
                c = CorrelationParams(rho)
                for alpha in np.geomspace(1e-12, 700.0, 29):
                    alpha = float(alpha)
                    eps1 = eps1_outdated(math.log1p(alpha), 1.0, alpha, c)
                    assert abs(rate_bracket(alpha, c) - (1.0 - eps1)) <= tol, (rho, alpha)


class TestThresholds:
    def test_suboptimal(self):
        assert suboptimal_threshold(100, 2.0) == pytest.approx(math.log(100) - 2.0)
        with pytest.raises(ValueError):
            suboptimal_threshold(2, 5.0)

    def test_optimal_golden(self):
        got = optimal_threshold(100, 100.0, CorrelationParams(0.9))
        assert got == pytest.approx(ALPHA_OPT_GOLDEN_100_100_09, abs=1e-3)

    def test_optimal_is_local_max(self):
        c = CorrelationParams(0.8)
        a = optimal_threshold(16, 50.0, c)
        r = sum_rate(ErgodicConfig(16, 50.0, c, a))
        for da in (-0.05, 0.05):
            assert r >= sum_rate(ErgodicConfig(16, 50.0, c, a + da)) - 1e-9

    @pytest.mark.parametrize("k,rho", [(1, 0.9), (1, 1.0), (4, 0.0), (1024, 0.0)])
    def test_optimum_at_zero_is_exact(self, k, rho):
        # K = 1: raising alpha only drops transmissions; rho = 0: the rate is
        # Pr(N>0) times a constant.
        assert optimal_threshold(k, 100.0, CorrelationParams(rho)) == 0.0

    @pytest.mark.parametrize("k", [2, 1024, 10**6])
    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_optimum_beats_coarse_grid(self, k, rho):
        c = CorrelationParams(rho)

        def rate(alpha):
            return sum_rate(ErgodicConfig(k, 100.0, c, alpha))

        grid_best = max(rate(a) for a in np.arange(0.0, math.log(k) + 6.0 + 1e-9, 0.05))
        assert rate(optimal_threshold(k, 100.0, c)) >= grid_best * (1.0 - 1e-9)

    def test_optimal_names_num_users(self):
        with pytest.raises(ValueError, match="num_users"):
            optimal_threshold(0, 10.0, CorrelationParams(0.5))


class TestWideband:
    def test_limit_pins(self):
        wb = wideband_metrics(0.0, 1, CorrelationParams(0.0))
        assert wb.ebn0_min_linear == pytest.approx(LOG2, abs=1e-15)
        assert round(wb.ebn0_min_db, 2) == -1.59
        assert wb.slope_s0 == pytest.approx(1.0, abs=1e-15)

    def test_affine_approx(self):
        wb = wideband_metrics(2.0, 100, CorrelationParams(0.9))
        assert affine_rate_approx(wb.ebn0_min_db - 1.0, wb) == 0.0
        r1 = affine_rate_approx(wb.ebn0_min_db + 3.01, wb)
        # one 3 dB doubling above minimum: S0 bits
        assert r1 == pytest.approx(wb.slope_s0 * LOG2, rel=1e-3)

    def test_ebn0_roundtrip(self):
        c = CorrelationParams(0.9)
        rate, power = rate_at_ebn0(2.0, 4, c, 0.8)
        assert rate > 0
        assert ebn0_db_from_power(rate, power) == pytest.approx(2.0, abs=1e-6)

    def test_inversion_just_above_minimum(self):
        c = CorrelationParams(0.9)
        target = wideband_metrics(3.0, 100, c).ebn0_min_db + 0.05
        rate, power = rate_at_ebn0(target, 100, c, 3.0)
        assert ebn0_db_from_power(rate, power) == pytest.approx(target, abs=1e-6)

    def test_inversion_carries_no_state(self):
        # The middle case follows one at another alpha, the last one at another
        # rho: anything kept from an earlier call would change their results.
        cases = [(3.0, CorrelationParams(0.9)), (1.0, CorrelationParams(0.9)),
                 (1.0, CorrelationParams(0.7))]
        args = [(wideband_metrics(a, 100, c).ebn0_min_db + 3.0, 100, c, a) for a, c in cases]
        got = [rate_at_ebn0(*arg) for arg in args]
        fresh = [rate_at_ebn0(*arg) for arg in reversed(args)][::-1]
        assert got == fresh
        for (target, k, corr, alpha), (rate, power) in zip(args, got):
            assert rate == sum_rate(ErgodicConfig(k, power, corr, alpha))
            assert abs(ebn0_db_from_power(rate, power) - target) <= 1e-9

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 30.0, 700.0, 705.0])
    def test_inversion_hits_its_target(self, alpha):
        # P / R_bits overflows at large alpha and target, where R_bits carries
        # Pr(N>0) = e^-alpha; the implied Eb/N0 is taken here in logs.
        for k in (1, 4, 10**6):
            for rho in (0.0, 0.5, 1.0):
                c = CorrelationParams(rho)
                floor = wideband_metrics(alpha, k, c).ebn0_min_db
                for offset in (1e-9, 1.0, 30.0, 300.0):
                    try:
                        rate, power = rate_at_ebn0(floor + offset, k, c, alpha)
                    except OverflowError as exc:
                        # At K = 1 and alpha = 705 the rate 1e-9 dB above the
                        # floor is about 3e-316, and Pr(N>0) I underflows to 0
                        # on the way there.
                        assert alpha == 705.0 and "alpha" in str(exc), exc
                        continue
                    implied = 10.0 * (math.log10(power) - math.log10(rate / LOG2))
                    assert abs(implied - (floor + offset)) <= 1e-9, (k, rho, offset, power)

    @staticmethod
    def _marcum_elements(monkeypatch, rho):
        """Marcum-Q elements one inversion evaluates at K=100, alpha=3."""
        elements = []

        def counting(a, b):
            out = marcum_q1(a, b)
            elements.append(np.size(out))
            return out

        monkeypatch.setattr(ergodic, "marcum_q1", counting)
        c = CorrelationParams(rho)
        rate_at_ebn0(wideband_metrics(3.0, 100, c).ebn0_min_db + 3.0, 100, c, 3.0)
        return sum(elements)

    def test_inversion_below_cap_evaluates_no_marcum(self, monkeypatch):
        for rho in (0.9, 0.999):
            assert self._marcum_elements(monkeypatch, rho) == 0

    def test_inversion_no_csi_closed_form(self):
        # K=1, rho=0, alpha=0: R(P) = e^{1/P} E1(1/P), so the point must
        # satisfy that closed form as well as hit the target.
        rate, power = rate_at_ebn0(-1.5, 1, CorrelationParams(0.0), 0.0)
        assert rate == pytest.approx(0.021341, abs=5e-7)
        assert rate == pytest.approx(no_csi_rate(power), rel=1e-14)
        assert ebn0_db_from_power(rate, power) == pytest.approx(-1.5, abs=1e-9)

    @pytest.mark.parametrize("k,rho,alpha", [(1, 0.0, 0.0), (100, 0.9, 3.0), (4, 0.5, 1.0)])
    def test_inversion_reaches_the_largest_power(self, monkeypatch, k, rho, alpha):
        # The largest float power implies about 3,052 dB; the first Newton
        # step from the wideband start overshoots ln P = 709.78 on the way,
        # and goes onto it, so an unreachable target costs a few passes.
        passes = count_passes(monkeypatch)
        c = CorrelationParams(rho)
        for target in (2700.0, 3000.0, 3040.0):
            rate, power = rate_at_ebn0(target, k, c, alpha)
            assert abs(ebn0_db_from_power(rate, power) - target) <= 1e-9
        for target in (3100.0, 1e6):
            passes.clear()
            with pytest.raises(OverflowError, match="ebn0_db"):
                rate_at_ebn0(target, k, c, alpha)
            assert len(passes) <= 4, target

    def test_inversion_rejects_nan_target(self):
        with pytest.raises(ValueError, match="ebn0_db"):
            rate_at_ebn0(math.nan, 4, CorrelationParams(0.9), 0.8)

    def test_vanishing_transmit_probability_is_named(self):
        with pytest.raises(OverflowError, match="alpha"):
            wideband_metrics(1e300, 16, CorrelationParams(0.5))
        # Pr(N>0) is subnormal but not 0, and log 2 / (Pr(N>0) (1 + rho^2 alpha)) overflows.
        for alpha in (720.0, 744.0, np.float64(720.0)):
            with pytest.raises(OverflowError, match="alpha"):
                wideband_metrics(alpha, 1, CorrelationParams(0.5))

    def test_below_minimum_rate_is_zero(self):
        wb = wideband_metrics(0.0, 1, CorrelationParams(0.0))
        rate, power = rate_at_ebn0(wb.ebn0_min_db - 1.0, 1, CorrelationParams(0.0), 0.0)
        assert rate == 0.0 and power == 0.0


def rate_derivatives(k, power, rho, alpha):
    """dR/dalpha, d^2R/dalpha^2 and dR/dP from the terms the Newton searches use."""
    r = rho * rho
    rate, (mq, mq2, p_drate) = ergodic._log1p_mean(power, alpha * r, 1.0 - r, derivatives=True)
    prob = prob_some_above(alpha, k)
    log_hazard, dlog_slope = ergodic._log_hazard(math.log(alpha), k)
    dprob = -prob * math.exp(log_hazard)
    ddprob = dprob * dlog_slope / alpha
    return (dprob * rate + prob * r * mq,
            ddprob * rate + 2.0 * dprob * r * mq - prob * r * r * mq2,
            prob * p_drate / power)


def count_passes(monkeypatch):
    """A list that grows by one per pass of the traced rate integral."""
    passes = []
    integrate = ergodic.integrate_semi_infinite

    def counting(*args):
        passes.append(1)
        return integrate(*args)

    monkeypatch.setattr(ergodic, "integrate_semi_infinite", counting)
    return passes


class TestNewtonSearches:
    @pytest.mark.parametrize("k", [1, 10**6])
    @pytest.mark.parametrize("rho", [0.0, 1.0])
    @pytest.mark.parametrize("power", [1e-10, 1e15])
    def test_derivatives_match_central_differences(self, k, rho, power):
        c = CorrelationParams(rho)
        alpha = math.log(k) + 1.5

        def rate(a, p=power):
            return sum_rate(ErgodicConfig(k, p, c, a))

        d1, d2, dp = rate_derivatives(k, power, rho, alpha)
        h = 1e-4
        assert d1 == pytest.approx((rate(alpha + h) - rate(alpha - h)) / (2 * h), rel=1e-7)
        h2 = 1e-3
        fd2 = (rate(alpha + h2) - 2.0 * rate(alpha) + rate(alpha - h2)) / (h2 * h2)
        assert d2 == pytest.approx(fd2, rel=1e-6)
        fdp = (rate(alpha, power * (1 + h)) - rate(alpha, power * (1 - h))) / (2 * h * power)
        assert dp == pytest.approx(fdp, rel=1e-7)

    @pytest.mark.parametrize("k,rho,power", [(2, 0.5, 1e-10), (16, 1.0, 100.0), (64, 0.5, 1e15),
                                             (10**6, 1.0, 1e-10), (10**6, 0.9, 100.0)])
    def test_optimum_is_stationary(self, k, rho, power):
        c = CorrelationParams(rho)
        alpha = optimal_threshold(k, power, c)
        d1, _, _ = rate_derivatives(k, power, rho, alpha)
        rate = sum_rate(ErgodicConfig(k, power, c, alpha))
        # Each term of dR/dalpha is about R; they cancel to roundoff.
        assert abs(d1) <= 1e-13 * rate
        for a in (alpha - 1e-3, alpha + 1e-3):
            assert rate >= sum_rate(ErgodicConfig(k, power, c, a))

    def test_pass_counts(self, monkeypatch):
        passes = count_passes(monkeypatch)
        search, inversion = [], []
        for k in (1, 2, 64, 10**6):
            for rho in (0.0, 0.5, 1.0):
                c = CorrelationParams(rho)
                for power in np.geomspace(1e-10, 1e15, 26):
                    passes.clear()
                    optimal_threshold(k, float(power), c)
                    search.append(len(passes))
                for alpha in (0.0, 1.0, math.log(k)):
                    ebn0_min = wideband_metrics(alpha, k, c).ebn0_min_db
                    for offset in np.geomspace(1e-6, 100.0, 17):
                        passes.clear()
                        rate_at_ebn0(ebn0_min + float(offset), k, c, alpha)
                        inversion.append(len(passes))
        # The inversion's last pass is its sum_rate call at the root.
        assert max(search) == 6
        assert max(inversion) == 7

    # The P -> 0 optimum solves -Pr'/Pr = r / (1 + alpha r); the roots are
    # 40-digit mpmath bisections of that equation.
    @pytest.mark.parametrize("k,rho,power,want", [
        (4, 1.0, 5e-324, 1.076729887243410558),
        (10**6, 1e-8, 1e-320, 10.113148852988066968),
        (2, 1.0, 1e-323, 0.60349782108132835221),
    ])
    def test_subnormal_power_takes_the_small_power_limit(self, monkeypatch, k, rho, power, want):
        passes = count_passes(monkeypatch)
        assert optimal_threshold(k, power, CorrelationParams(rho)) == pytest.approx(want, rel=1e-12)
        assert not passes

    # At tiny rho the root of log h = log(r I'/I) lies near (r I'/(4 I))^(1/3), far below
    # the first point, where x plus an additive step of nearly -x would round to 0.  The
    # roots are 40-digit mpmath findroot solutions of that equation, with I and I' by
    # mpmath.quad at r = rho^2 exactly (rho^2 = 1e-320 is subnormal as a double).
    @pytest.mark.parametrize("rho,power,want", [
        (1e-100, 1.0, 1.1916521482210276666e-67),
        (1e-100, 1e10, 4.811162450953474207e-68),
        (1e-160, 1.0, 1.1916521482210276417e-107),
        (1e-160, 1e10, 4.8111624509534741064e-108),
    ])
    def test_tiny_rho_keeps_the_root(self, monkeypatch, rho, power, want):
        passes = count_passes(monkeypatch)
        assert optimal_threshold(4, power, CorrelationParams(rho)) == pytest.approx(want, rel=1e-9)
        assert len(passes) <= 7

    # At K = 2 the hazard is 2 (1 - e^-alpha) / (2 - e^-alpha), so h = x at
    # alpha = log1p(x / (2 - 2 x)).  At rho = 1e-160 that root is subnormal, alpha r
    # is below 1e-600 and 1 - r is 1 to 1e-320, so x = r I'/I takes its alpha = 0
    # value, with I = e^(1/P) E1(1/P) and I' = r (1 - I/P); 300 digits carry
    # 1 - I/P at P = 1e-200.  The search returns the nearest double to the root:
    # 5e-321, 3.384e-321 and, at P = 1e300, 5e-324 (the root is 7.24e-324, since
    # there I = 690 and the root is about r / (2 I), not r / 2).
    @pytest.mark.parametrize("power", [1e-200, 1.0, 1e300])
    def test_subnormal_root_is_a_newton_point(self, monkeypatch, power):
        passes = count_passes(monkeypatch)
        got = optimal_threshold(2, power, CorrelationParams(1e-160))
        assert len(passes) <= 7
        with mpmath.workdps(300):
            r, p = mpmath.mpf(1e-160) ** 2, mpmath.mpf(power)
            rate = mpmath.exp(1 / p) * mpmath.e1(1 / p)
            x = r * (1 - rate / p) / rate
            assert abs(got - mpmath.log1p(x / (2 - 2 * x))) <= mpmath.mpf(math.ulp(0.0)) / 2

    def test_step_limit_raises(self, monkeypatch, capsys):
        monkeypatch.setattr(ergodic, "_MAX_STEPS", 2)
        c = CorrelationParams(0.9)
        with pytest.raises(ArithmeticError, match="optimal_threshold.*2 Newton steps"):
            optimal_threshold(64, 100.0, c)
        with pytest.raises(ArithmeticError, match="rate_at_ebn0.*2 Newton steps"):
            rate_at_ebn0(wideband_metrics(3.0, 100, c).ebn0_min_db + 3.0, 100, c, 3.0)
        assert cli_main(["ergodic", "--k", "64", "--rho", "0.9", "--alpha", "optimal"]) == 3
        assert "optimal_threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("power,alpha", [(1.7e308, 0.0), (1.7e308, 1e-300), (1e308, 0.5),
                                             (1e300, 1e6)])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0 - 1e-16, 1.0])
    def test_derivative_terms_near_float_limit(self, power, alpha, rho):
        r = rho * rho
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rate, extra = ergodic._log1p_mean(power, alpha * r, 1.0 - r, derivatives=True)
        assert math.isfinite(rate) and np.isfinite(extra).all() and (extra >= 0.0).all()


class TestDiagnostics:
    @pytest.mark.parametrize("alpha,k,want", [
        (0.0, 4, 1.0), (1e-17, 4, 1.0), (1.0, 1, math.exp(-1.0)),
        (20.0, 2, 2.0 * math.exp(-20.0) - math.exp(-40.0)), (800.0, 64, 0.0), (1e300, 4, 0.0),
    ])
    def test_transmit_probability_limits(self, alpha, k, want):
        # e^-alpha rounds to 1 below alpha = 5.6e-17, where log1p(-1) is -inf.
        assert prob_some_above(alpha, k) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_scaling_ratio_moderate(self):
        # multiuser-diversity scaling: rate at the optimal threshold over log log K
        c = CorrelationParams(1.0)
        alpha = optimal_threshold(64, 10.0, c)
        ratio = sum_rate(ErgodicConfig(64, 10.0, c, alpha)) / math.log(math.log(64))
        assert ratio > 1.0

    def test_report_consistency(self):
        cfg = ErgodicConfig(8, 25.0, CorrelationParams(0.7), 1.0)
        assert sum_rate_lower(cfg) <= sum_rate(cfg) <= sum_rate_upper(cfg)
        want = 1.0 - (1.0 - math.exp(-1.0)) ** 8
        assert prob_some_above(1.0, 8) == pytest.approx(want, rel=1e-14)


class TestReferences:
    def test_full_csi_golden(self):
        assert full_csi_rate(4, 10.0) == pytest.approx(FULL_CSI_GOLDEN_4_10, rel=1e-8)

    def test_full_csi_single_user_is_no_csi(self):
        for power in np.geomspace(1e-320, 1.7e308, 60):
            assert full_csi_rate(1, float(power)) == no_csi_rate(float(power))

    @pytest.mark.parametrize("k", [1, 3, 7, 50, 300, 1024, 5000])
    def test_full_csi_matches_mpmath(self, k):
        for power in (1e-10, 1e-4, 1.0, 1e4, 1e15, 1.7e308):
            want = full_csi_mpmath(k, power)
            assert full_csi_rate(k, power) == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("power", [1e300, 1e308, 1.7e308])
    def test_full_csi_near_float_limit(self, power):
        # P x overflows where the density of max_k v_k^2 is far from 0.
        k = 4

        def f(x):
            pdf = k * (-math.expm1(-x)) ** (k - 1) * math.exp(-x)
            return (math.log(power) + math.log(x) + math.log1p(1.0 / (power * x))) * pdf

        want = integrate.quad(f, 0.0, 60.0, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        assert full_csi_rate(k, power) == pytest.approx(want, rel=1e-9)

    def test_no_csi_matches_mpmath(self):
        # e^x E1(x) at x = 1/P, against 40 digits, from x = 1e-3 to 1e12.
        x = np.geomspace(1e-3, 1e12, 300)
        got = np.array([no_csi_rate(1.0 / v) for v in x])
        with mpmath.workdps(40):
            want = np.array([float(mpmath.exp(v) * mpmath.e1(v)) for v in x])
        assert np.max(np.abs(got / want - 1.0)) <= 2e-15

    @pytest.mark.parametrize("power", [1e-300, 1e-308])
    def test_rates_at_tiny_power_are_power_sized(self, power):
        # To first order in P the rate is Pr(N>0) P (1 + alpha rho^2), its
        # Jensen bound.
        assert no_csi_rate(power) == pytest.approx(power, rel=1e-12, abs=0.0)
        for rho, alpha in ((0.5, 2.0), (0.9, 3.0), (1.0, 1.0)):
            cfg = ErgodicConfig(8, power, CorrelationParams(rho), alpha)
            assert sum_rate(cfg) == pytest.approx(sum_rate_upper(cfg), rel=1e-12, abs=0.0)

    def test_no_csi_validation(self):
        with pytest.raises(ValueError):
            no_csi_rate(0.0)

    @pytest.mark.parametrize(
        "fn,args,name",
        [
            (full_csi_rate, (0, 10.0), "num_users"),
            (full_csi_rate, (4, math.nan), "power"),
            (full_csi_rate, (4, -1.0), "power"),
            (full_csi_rate, (4, math.inf), "power"),
            (no_csi_rate, (math.nan,), "power"),
            (no_csi_rate, (math.inf,), "power"),
        ],
    )
    def test_bad_input_is_named(self, fn, args, name):
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            fn(*args)
