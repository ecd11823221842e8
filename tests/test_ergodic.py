import math

import numpy as np
import pytest
from scipy import integrate, special

from onebitfb import ergodic
from onebitfb.channel import CorrelationParams
from onebitfb.ergodic import (
    ErgodicConfig,
    ThresholdPolicy,
    affine_rate_approx,
    ebn0_db_from_power,
    ergodic_report,
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
from onebitfb.specfun import QuadratureSpec, expx_e1, marcum_q1

LOG2 = math.log(2.0)

# Frozen Riemann-sum oracle (4e6-point trapezoid of the rate integrand with
# the Marcum factor from scipy.stats.ncx2.sf) at K=16, P=100, rho=0.9, alpha=1.5.
RATE_ORACLE_GOLDEN = 5.16213290734

# Frozen mpmath golden: sum_k C(4,k)(-1)^{k+1} e^{k/10} E1(k/10).
FULL_CSI_GOLDEN_4_10 = 2.94079210910671

# Frozen from a 201-point fine-grid argmax around the package optimum,
# rate evaluated at abs_tol 1e-12.
ALPHA_OPT_GOLDEN_100_100_09 = 3.0811911443589137

TIGHT = QuadratureSpec(
    abs_tol=1e-15, rel_tol=1e-12, max_subdivisions=2000, tail_cutoff_tol=1e-18
)
# The quadrature tolerance of the low-SNR figure (fig2).
FIG2_QUAD = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10)


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
        at_one = sum_rate(ErgodicConfig(k, power, CorrelationParams(1.0), alpha), TIGHT)
        for one_minus_rho in (1e-3, 1e-6, 1.5e-9):
            cfg = ErgodicConfig(k, power, CorrelationParams(1.0 - one_minus_rho), alpha)
            gap = abs(sum_rate(cfg, TIGHT) - at_one)
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
        got = sum_rate(ErgodicConfig(k, power, CorrelationParams(rho), alpha), TIGHT)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("rho,alpha", [(0.9, 300.0), (0.5, 79.0), (0.5, 81.0), (0.5, 300.0),
                                           (0.3, 500.0), (0.5, 705.0), (0.5, 709.0),
                                           (0.5, 710.0), (0.5, 745.0), (0.5, 760.0)])
    def test_large_alpha_matches_rician_mixture(self, rho, alpha, monkeypatch):
        # Given v^2 = alpha + t, t ~ Exp(1), v_tau is Rician with
        # nu = rho sqrt(alpha + t) and sigma^2 = (1 - rho^2)/2.  Pr(N>0) is
        # set to 1: it underflows to 0 past alpha = 745.
        power, var = 100.0, (1.0 - rho * rho) / 2.0

        def given_t(t):
            nu = rho * math.sqrt(alpha + t)

            def f(z):
                return (math.log1p(power * z * z) * z / var
                        * math.exp(-(z - nu) ** 2 / (2.0 * var)) * special.i0e(z * nu / var))

            sd = math.sqrt(var)
            return integrate.quad(f, max(0.0, nu - 40.0 * sd), nu + 40.0 * sd, points=[nu],
                                  epsabs=0.0, epsrel=1e-13, limit=200)[0]

        want = integrate.quad(lambda t: math.exp(-t) * given_t(t), 0.0, 60.0,
                              epsabs=0.0, epsrel=1e-12, limit=200)[0]
        monkeypatch.setattr(ergodic, "prob_some_above", lambda alpha, k: 1.0)
        cfg = ErgodicConfig(4, power, CorrelationParams(rho), alpha)
        assert sum_rate(cfg, TIGHT) == pytest.approx(want, rel=1e-12)

    # 1e6 needs more mixture terms than the series takes at any rho, 709 at
    # rho = 0.93 (about 5,300), and rho = 0.999 more at every alpha: all
    # integrate, where the Marcum-Q factor is out of reach once
    # alpha (1 - rho^2) > 60.
    @pytest.mark.parametrize("rho,alpha", [(0.5, 1e6), (0.93, 709.0), (0.999, 4e4)],
                             ids=["1000000.0", "709.0", "rho0.999"])
    def test_alpha_past_marcum_reach_is_named(self, rho, alpha):
        with pytest.raises(OverflowError, match="alpha"):
            sum_rate(ErgodicConfig(4, 100.0, CorrelationParams(rho), alpha))

    @pytest.mark.parametrize("k,snr_db,rho,alpha", [
        (4, -25.0, 0.1, 1.0), (4, 20.0, 0.9, 0.5), (16, 60.0, 0.5, 2.0), (64, 0.0, 0.99, 3.5),
        (64, 10.0, 0.7, 2.8), (256, 40.0, 0.97, 5.0), (1024, -10.0, 0.3, 6.0),
        (1024, 20.0, 0.5, 5.3), (1024, 60.0, 0.99, 7.0), (100, -5.0, 0.995, 0.3),
    ])
    def test_series_matches_split_quadrature(self, k, snr_db, rho, alpha):
        # Below the term cap the rate is the mixture series; the reference is
        # scipy's quad of the defining integral, split at the Marcum-Q step.
        corr, power = CorrelationParams(rho), 10.0 ** (snr_db / 10.0)
        assert ergodic._mixture_weights(alpha, corr) is not None
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
        # The series at alpha = 0 sums geometric weights c r^n to e^{1/P} E1(1/P).
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

    def test_bracket_asymptotic_path_cancels(self):
        # the two asymptotic terms are symmetric, so the bracket is exactly 1
        assert rate_bracket(math.log(1e8) - 2.0, CorrelationParams(0.5), asymptotic=True) == 1.0


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
            return sum_rate(ErgodicConfig(k, 100.0, c, alpha), TIGHT)

        grid_best = max(rate(a) for a in np.arange(0.0, math.log(k) + 6.0 + 1e-9, 0.05))
        assert rate(optimal_threshold(k, 100.0, c)) >= grid_best * (1.0 - 1e-9)

    def test_optimal_names_num_users(self):
        with pytest.raises(ValueError, match="num_users"):
            optimal_threshold(0, 10.0, CorrelationParams(0.5))

    def test_policy_resolution(self):
        c = CorrelationParams(0.9)
        assert ThresholdPolicy("fixed", 1.25).resolve(8, 10.0, c) == 1.25
        sub = ThresholdPolicy("suboptimal", delta=1.0).resolve(8, 10.0, c)
        assert sub == pytest.approx(math.log(8) - 1.0)
        opt = ThresholdPolicy("optimal").resolve(8, 10.0, c)
        assert opt == pytest.approx(optimal_threshold(8, 10.0, c))
        with pytest.raises(ValueError):
            ThresholdPolicy("bogus")
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="alpha"):
                ThresholdPolicy("fixed", bad)
            with pytest.raises(ValueError, match="delta"):
                ThresholdPolicy("suboptimal", delta=bad)


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
        rate, power = rate_at_ebn0(target, 100, c, 3.0, FIG2_QUAD)
        assert ebn0_db_from_power(rate, power) == pytest.approx(target, abs=1e-6)

    def test_inversion_is_bisection_over_sum_rate(self):
        # The same bisection written over the public sum_rate.  The middle case
        # follows one at another alpha, the last one at another rho: a density
        # kept from an earlier call would change their results.
        def bisect(ebn0_db, k, corr, alpha, quad):
            def point(log_power):
                power = math.exp(log_power)
                return sum_rate(ErgodicConfig(k, power, corr, alpha), quad), power

            lo, up = math.log(1e-10), 0.0
            best = point(up)
            while ebn0_db_from_power(*best) < ebn0_db:
                lo, up = up, up + 4.0
                best = point(up)
            while up - lo > 1e-12:
                mid = 0.5 * (lo + up)
                trial = point(mid)
                if ebn0_db_from_power(*trial) < ebn0_db:
                    lo = mid
                else:
                    up, best = mid, trial
            return best

        cases = [(3.0, CorrelationParams(0.9)), (1.0, CorrelationParams(0.9)),
                 (1.0, CorrelationParams(0.7))]
        args = [(wideband_metrics(a, 100, c).ebn0_min_db + 3.0, 100, c, a, FIG2_QUAD)
                for a, c in cases]
        got = [rate_at_ebn0(*arg) for arg in args]
        assert got == [bisect(*arg) for arg in args]

    @staticmethod
    def _marcum_elements(monkeypatch, rho):
        """Marcum-Q elements one fig2-tolerance inversion evaluates at K=100, alpha=3."""
        elements = []

        def counting(a, b):
            out = marcum_q1(a, b)
            elements.append(np.size(out))
            return out

        monkeypatch.setattr(ergodic, "marcum_q1", counting)
        c = CorrelationParams(rho)
        rate_at_ebn0(wideband_metrics(3.0, 100, c).ebn0_min_db + 3.0, 100, c, 3.0, FIG2_QUAD)
        return sum(elements)

    def test_inversion_evaluates_each_node_once(self, monkeypatch):
        # Above the series' term cap the rate is a quadrature, and the density
        # does not depend on P: one inversion needs it at each of about 300
        # distinct nodes, where a fresh sum_rate per step needs 13,000.
        assert ergodic._mixture_weights(3.0, CorrelationParams(0.999)) is None
        assert 0 < self._marcum_elements(monkeypatch, 0.999) <= 1000

    def test_inversion_below_cap_evaluates_no_marcum(self, monkeypatch):
        assert self._marcum_elements(monkeypatch, 0.9) == 0

    def test_inversion_no_csi_closed_form(self):
        # K=1, rho=0, alpha=0: R(P) = e^{1/P} E1(1/P), so the point must
        # satisfy that closed form as well as hit the target.
        rate, power = rate_at_ebn0(-1.5, 1, CorrelationParams(0.0), 0.0, FIG2_QUAD)
        assert rate == pytest.approx(0.021341, abs=5e-7)
        assert rate == pytest.approx(no_csi_rate(power), rel=1e-14)
        assert ebn0_db_from_power(rate, power) == pytest.approx(-1.5, abs=1e-9)

    def test_inversion_rejects_nan_target(self):
        with pytest.raises(ValueError, match="ebn0_db"):
            rate_at_ebn0(math.nan, 4, CorrelationParams(0.9), 0.8)

    def test_vanishing_transmit_probability_is_named(self):
        with pytest.raises(OverflowError, match="alpha"):
            wideband_metrics(1e300, 16, CorrelationParams(0.5))

    def test_below_minimum_rate_is_zero(self):
        wb = wideband_metrics(0.0, 1, CorrelationParams(0.0))
        rate, power = rate_at_ebn0(wb.ebn0_min_db - 1.0, 1, CorrelationParams(0.0), 0.0)
        assert rate == 0.0 and power == 0.0


class TestDiagnostics:
    def test_scaling_ratio_moderate(self):
        # multiuser-diversity scaling: rate at the optimal threshold over log log K
        c = CorrelationParams(1.0)
        alpha = optimal_threshold(64, 10.0, c)
        ratio = sum_rate(ErgodicConfig(64, 10.0, c, alpha)) / math.log(math.log(64))
        assert ratio > 1.0

    def test_report_consistency(self):
        cfg = ErgodicConfig(8, 25.0, CorrelationParams(0.7), 1.0)
        rep = ergodic_report(cfg)
        assert rep.lower_nats <= rep.rate_nats <= rep.upper_nats
        assert rep.prob_transmit == pytest.approx(prob_some_above(1.0, 8))


class TestReferences:
    def test_full_csi_golden(self):
        assert full_csi_rate(4, 10.0) == pytest.approx(FULL_CSI_GOLDEN_4_10, rel=1e-8)

    def test_full_csi_single_user_is_no_csi(self):
        assert full_csi_rate(1, 30.0) == pytest.approx(no_csi_rate(30.0), rel=1e-9)

    @pytest.mark.parametrize("power", [1e300, 1e308, 1.7e308])
    def test_full_csi_near_float_limit(self, power):
        # P x overflows where the density of max_k v_k^2 is far from 0.
        k = 4

        def f(x):
            pdf = k * (-math.expm1(-x)) ** (k - 1) * math.exp(-x)
            return (math.log(power) + math.log(x) + math.log1p(1.0 / (power * x))) * pdf

        want = integrate.quad(f, 0.0, 60.0, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        assert full_csi_rate(k, power) == pytest.approx(want, rel=1e-9)

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
            (expx_e1, (math.nan,), "x"),
            (expx_e1, (np.array([1.0, math.nan]),), "x"),
        ],
    )
    def test_bad_input_is_named(self, fn, args, name):
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            fn(*args)
