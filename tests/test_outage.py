import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from onebitfb.channel import CorrelationParams
from onebitfb.ergodic import prob_some_above, rate_bracket
from onebitfb.outage import (
    DMT_SCHEMES,
    OutageConfig,
    PowerMode,
    default_threshold,
    dmt_analytic,
    dmt_empirical_slope,
    eps0_outdated,
    eps1_outdated,
    outage_instant,
    outage_longterm_closed,
    outage_outdated,
    power_split_longterm,
    zero_outage_threshold,
)
from onebitfb.specfun import marcum_q1

LOG2 = math.log(2.0)

# Frozen from an independent quadrature oracle: the conditional CDF of the
# outdated envelope expressed through scipy.stats.ncx2, integrated over the
# truncated Rayleigh density of the feedback-time envelope.
OUTDATED_GOLDENS = [
    # (K, rho, snr_db, mode_name, eps, eps1, eps0)
    (8, 0.9, 15.0, "short", 0.113165546319, 0.113164506613, 0.543271323232),
    (16, 0.5, 10.0, "long", 0.623063537042, 0.62966765386, 0.0167856194564),
]


def _mode(name):
    return PowerMode.short_term() if name == "short" else PowerMode.long_term()


class TestPowerMode:
    def test_short_term(self):
        assert PowerMode.short_term().resolve(10.0, 1.0, 4) == (10.0, 10.0)

    def test_long_term_split(self):
        p1, p0 = PowerMode.long_term().resolve(10.0, 1.0, 4)
        assert p1 == 5.0
        assert p0 == pytest.approx(5.0 / (1 - math.exp(-1.0)) ** 4)
        # average power P/2 (1 + Pr) never exceeds the constraint
        pr = prob_some_above(1.0, 4)
        avg = p1 * pr + p0 * (1 - pr)
        assert avg == pytest.approx(5.0 * (1 + pr), rel=1e-12)
        assert avg <= 10.0 + 1e-12

    def test_explicit(self):
        assert PowerMode.explicit(3.0, 7.0).resolve(10.0, 1.0, 4) == (3.0, 7.0)
        with pytest.raises(ValueError):
            PowerMode.explicit(-1.0, 2.0)

    def test_split_matches_helper(self):
        assert power_split_longterm(10.0, 1.0, 4) == PowerMode.long_term().resolve(
            10.0, 1.0, 4
        )

    def test_numpy_user_count_gives_floats(self):
        cfg = OutageConfig(np.int64(4), 10.0, CorrelationParams(0.5), 1.0, 0.5,
                           PowerMode.long_term())
        report = outage_outdated(cfg)
        assert all(type(v) is float for v in vars(report).values())
        assert report.p0 == outage_outdated(replace(cfg, num_users=4)).p0


class TestInstantPieces:
    def test_eps1_zero_when_rate_supported(self):
        # qualified users see at least log(1 + P1 alpha)
        assert eps1_outdated(math.log1p(50.0 * 2.0), 50.0, 2.0, CorrelationParams(1.0)) == 0.0
        assert eps1_outdated(0.5, 50.0, 2.0, CorrelationParams(1.0)) == 0.0

    def test_eps1_above_support(self):
        r, p1, a = 3.0, 10.0, 0.5
        want = -math.expm1(a - (math.exp(r) - 1) / p1)
        assert eps1_outdated(r, p1, a, CorrelationParams(1.0)) == pytest.approx(want, rel=1e-12)

    def test_eps0_formula_and_boundary(self):
        r, p0, a = 1.0, 100.0, 0.2
        want = (1 - math.exp(-a * (math.exp(r) - 1) / (p0 * a))) / (1 - math.exp(-a))
        assert eps0_outdated(r, p0, a, CorrelationParams(1.0)) == pytest.approx(want, rel=1e-12)
        # at R = log(1 + P0 alpha) the printed branch gives exactly 1
        r_b = math.log1p(p0 * a)
        assert eps0_outdated(r_b, p0, a, CorrelationParams(1.0)) == pytest.approx(1.0, rel=1e-12)
        assert eps0_outdated(r_b + 0.01, p0, a, CorrelationParams(1.0)) == 1.0
        # R <= log(1 + P0 alpha) holds by roundoff while (e^R - 1)/P0 is one ulp above alpha
        edge = eps0_outdated(5.904530806425463, 318.3970824767598, 1.1485505192854613,
                             CorrelationParams(1.0))
        assert 1.0 - 1e-12 <= edge <= 1.0

    def test_eps0_needs_positive_alpha(self):
        with pytest.raises(ValueError):
            eps0_outdated(1.0, 10.0, 0.0, CorrelationParams(1.0))

    def test_siso_no_feedback_limit(self):
        # K = 1, short-term, alpha ~ 0: classic Rayleigh outage
        r, p = 2.0, 50.0
        cfg = OutageConfig(1, p, CorrelationParams(1.0), r, 1e-12, PowerMode.short_term())
        want = 1 - math.exp(-(math.exp(r) - 1) / p)
        assert outage_instant(cfg).eps == pytest.approx(want, rel=1e-6)

    def test_mixture_weights(self):
        cfg = OutageConfig(8, 20.0, CorrelationParams(1.0), 2.5, 1.0, PowerMode.short_term())
        rep = outage_instant(cfg)
        pr = prob_some_above(1.0, 8)
        assert rep.eps == pytest.approx(rep.eps1 * pr + rep.eps0 * (1 - pr), rel=1e-12)


class TestLongTermPipeline:
    def test_identity_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = 10 ** rng.uniform(0.5, 3.0)
            k = int(rng.integers(1, 9))
            r = rng.uniform(0.5, 3.0)
            alpha = zero_outage_threshold(p, r)
            p1, p0 = power_split_longterm(p, alpha, k)
            cfg = OutageConfig(
                k, p, CorrelationParams(1.0), r, alpha, PowerMode.explicit(p1, p0)
            )
            composed = outage_instant(cfg).eps
            assert composed == pytest.approx(
                outage_longterm_closed(p, k, r), abs=1e-12
            )

    def test_golden_point(self):
        assert outage_longterm_closed(100.0, 1, 2.0) == pytest.approx(0.01521, abs=5e-6)

    def test_eps1_vanishes_at_zero_outage_threshold(self):
        alpha = zero_outage_threshold(100.0, 2.0)
        cfg = OutageConfig(1, 100.0, CorrelationParams(1.0), 2.0, alpha, PowerMode.long_term())
        rep = outage_instant(cfg)
        assert rep.eps1 == 0.0
        assert rep.eps == pytest.approx(outage_longterm_closed(100.0, 1, 2.0), abs=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 8, 16])
    @pytest.mark.parametrize("bits", [2, 3])
    def test_instant_outage_keeps_relative_precision(self, k, bits):
        # At rho = 1 and the zero-outage threshold eps1 = 0, so the outage is
        # eps0 Pr(N=0) alone, down to 1e-104 at 40 dB: under long-term power
        # the closed form with a = 2c/P, under short-term (1 - e^-a)^K, a = c/P.
        rate = bits * LOG2
        with mpmath.workdps(40):
            c = mpmath.expm1(rate)
            for db in range(0, 41, 2):
                power = 10.0 ** (db / 10.0)
                base = -mpmath.expm1(-2 * c / power)
                want = {"long": base ** (k - 1) * -mpmath.expm1(-2 * c * base ** k / power),
                        "short": (-mpmath.expm1(-c / power)) ** k}
                for name, expected in want.items():
                    mode = _mode(name)
                    alpha = default_threshold(mode, power, rate)
                    cfg = OutageConfig(k, power, CorrelationParams(1.0), rate, alpha, mode)
                    got = outage_outdated(cfg).eps
                    assert abs(got / expected - 1) <= 1e-13, (name, db, got, expected)

    def test_default_threshold(self):
        r, p = 2.0, 100.0
        assert default_threshold(PowerMode.long_term(), p, r) == pytest.approx(
            2 * math.expm1(r) / p
        )
        assert default_threshold(PowerMode.short_term(), p, r) == pytest.approx(
            math.expm1(r) / p
        )


class TestOutdated:
    @pytest.mark.parametrize("k,rho,db,mode_name,eps,e1,e0", OUTDATED_GOLDENS)
    def test_quadrature_goldens(self, k, rho, db, mode_name, eps, e1, e0):
        p = 10 ** (db / 10)
        r = 3 * LOG2
        mode = _mode(mode_name)
        alpha = default_threshold(mode, p, r)
        rep = outage_outdated(OutageConfig(k, p, CorrelationParams(rho), r, alpha, mode))
        assert rep.eps == pytest.approx(eps, rel=1e-9)
        assert rep.eps1 == pytest.approx(e1, rel=1e-9)
        assert rep.eps0 == pytest.approx(e0, rel=1e-9)

    def test_rho_zero_collapse_exact(self):
        # without correlation the conditioning is irrelevant
        r, a = 2.0, 0.8
        c = CorrelationParams(0.0)
        for p in (5.0, 50.0):
            want = 1 - math.exp(-(math.exp(r) - 1) / p)
            assert eps1_outdated(r, p, a, c) == pytest.approx(want, rel=1e-12)
            assert eps0_outdated(r, p, a, c) == pytest.approx(want, rel=1e-12)

    def test_instantaneous_dispatch(self):
        c = CorrelationParams(1.0)
        cfg = OutageConfig(8, 30.0, c, 2.0, 0.5, PowerMode.short_term())
        assert outage_outdated(cfg).eps == outage_instant(cfg).eps

    def test_near_one_approaches_instantaneous(self):
        near = CorrelationParams(1.0 - 1e-6)
        mode = PowerMode.short_term()
        for r in np.linspace(0.5, 3.0, 6):
            cfg_i = OutageConfig(4, 31.6, CorrelationParams(1.0), float(r), 0.3, mode)
            cfg_o = OutageConfig(4, 31.6, near, float(r), 0.3, mode)
            assert outage_outdated(cfg_o).eps == pytest.approx(
                outage_instant(cfg_i).eps, abs=1e-3
            )

    @pytest.mark.parametrize("power,rate,scale", [(31.6, 1.5, 0.37397), (100.0, 2.0, 0.28516)])
    def test_square_root_approach_to_rho_one(self, power, rate, scale):
        # At the zero-outage threshold eps1(1) = 0, and outdated feedback loses
        # a boundary layer of width sqrt(1 - rho^2): eps is O(sqrt(1 - rho)).
        mode = PowerMode.long_term()
        alpha = default_threshold(mode, power, rate)
        at_one = outage_outdated(OutageConfig(4, power, CorrelationParams(1.0), rate, alpha, mode))
        for one_minus_rho in (1e-3, 1e-6, 2e-9):
            cfg = OutageConfig(4, power, CorrelationParams(1.0 - one_minus_rho), rate, alpha, mode)
            gap = abs(outage_outdated(cfg).eps - at_one.eps)
            assert gap / math.sqrt(one_minus_rho) == pytest.approx(scale, rel=1e-3)

    @staticmethod
    def gaps_to_rho_one(rho):
        """eps1, 1 - rate brace and 1 - eps0 at rho, short-term power, R = 3 bits,
        P = 31.6 and the zero-outage threshold (e^R - 1)/P; each is 0 at rho = 1."""
        rate, power = 3.0 * LOG2, 31.6
        alpha, corr = math.expm1(rate) / power, CorrelationParams(rho)
        return np.array([eps1_outdated(rate, power, alpha, corr),
                         1.0 - rate_bracket(alpha, corr),
                         1.0 - eps0_outdated(rate, power, alpha, corr)])

    def test_square_root_law_through_the_old_snap_band(self):
        # Each gap is c sqrt(1 - rho), c constant to 1e-3 down to 1 - rho = 1e-11,
        # inside the band 1 - rho < 1e-9 that used to count as rho = 1.
        rhos = [1.0 - x for x in (1e-6, 1e-9, 1e-11)]
        scales = [self.gaps_to_rho_one(rho) / math.sqrt(1.0 - rho) for rho in rhos]
        for scale in scales:
            np.testing.assert_allclose(scale, [0.37553, 0.37553, 1.5144], rtol=1e-3)
            np.testing.assert_allclose(scale, scales[0], rtol=1e-3)

    def test_last_double_below_one_is_near_rho_one(self):
        at_one = self.gaps_to_rho_one(1.0)
        below = self.gaps_to_rho_one(math.nextafter(1.0, 0.0))
        assert np.all(below > 0.0)  # the outdated forms run at every |rho| < 1
        np.testing.assert_allclose(below, at_one, rtol=0, atol=5e-8)

    @pytest.mark.parametrize("form", [eps1_outdated, eps0_outdated])
    def test_tiny_power_is_the_zero_power_limit(self, form):
        # (e^R - 1)/P overflows: certain outage, as at P = 0, for every rho.
        for rho in (0.0, 0.5, 1.0):
            assert form(LOG2, 1e-320, 1.0, CorrelationParams(rho)) == 1.0

    def test_terms_helper(self):
        # the Marcum-Q arguments use mu = 2 (e^R-1)/(1-rho^2), nu = 2 alpha/(1-rho^2)
        r, p, a, rho = 2.0, 10.0, 0.5, 0.6
        mu, nu = 2 * math.expm1(r) / (1 - rho**2), 2 * a / (1 - rho**2)
        x, y = math.sqrt(mu / p), math.sqrt(nu)
        ecr = math.exp(-math.expm1(r) / p)
        q_hi, q_lo = marcum_q1(x, rho * y), marcum_q1(rho * x, y)
        want1 = q_hi - math.exp(a) * ecr * q_lo
        want0 = (1 - ecr - math.exp(-a) * q_hi + ecr * q_lo) / -math.expm1(-a)
        assert 0 < want1 < 1 and 0 < want0 < 1
        c = CorrelationParams(rho)
        assert eps1_outdated(r, p, a, c) == pytest.approx(want1, rel=1e-12)
        assert eps0_outdated(r, p, a, c) == pytest.approx(want0, rel=1e-12)


class TestDmt:
    def test_analytic_intercepts(self):
        assert dmt_analytic("longterm_1bit", 16)[0][1] == 32.0
        assert dmt_analytic("shortterm_1bit", 16)[0][1] == 16.0
        assert dmt_analytic("full_csi", 16)[0][1] == 16.0
        assert dmt_analytic("outdated_1bit", 16)[0][1] == 1.0
        assert dmt_analytic("no_csi", 16)[0][1] == 1.0
        assert dmt_analytic("p2p_1bit", 16)[0][1] == 2.0

    def test_analytic_shape(self):
        curve = dmt_analytic("longterm_1bit", 2)
        assert [r for r, _ in curve] == pytest.approx([0.1 * i for i in range(11)])
        assert [d for _, d in curve] == pytest.approx(
            [4.0, 3.6, 3.2, 2.8, 2.4, 2.0, 1.6, 1.2, 0.8, 0.4, 0.0])
        with pytest.raises(ValueError):
            dmt_analytic("bogus", 2)
        assert "longterm_1bit" in DMT_SCHEMES

    def test_empirical_matches_analytic(self):
        for k in (1, 2):
            slope = dmt_empirical_slope(
                lambda p, k=k: outage_longterm_closed(p, k, 1.0), 0.0, 1e6, 1e8
            )
            assert slope == pytest.approx(2 * k, rel=0.01)

    def test_empirical_rejects_underflow(self):
        with pytest.raises(OverflowError):
            dmt_empirical_slope(lambda p: 0.0, 0.0, 1e6, 1e8)


class TestValidation:
    def test_config_checks(self):
        c = CorrelationParams(0.5)
        with pytest.raises(ValueError):
            OutageConfig(0, 10.0, c, 1.0, 0.5, PowerMode.short_term())
        with pytest.raises(ValueError):
            OutageConfig(1, 10.0, c, -1.0, 0.5, PowerMode.short_term())
        with pytest.raises(ValueError):
            OutageConfig(1, 10.0, c, 1.0, -0.5, PowerMode.short_term())
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="rate_nats"):
                OutageConfig(1, 10.0, c, bad, 0.5, PowerMode.short_term())
            with pytest.raises(ValueError, match="threshold"):
                OutageConfig(1, 10.0, c, 1.0, bad, PowerMode.short_term())
            with pytest.raises(ValueError, match="power"):
                OutageConfig(1, bad, c, 1.0, 0.5, PowerMode.short_term())
            with pytest.raises(ValueError, match="P1, P0"):
                PowerMode.explicit(bad, 2.0)

    @pytest.mark.parametrize(
        "evaluate",
        [
            pytest.param(lambda r: eps1_outdated(r, 1.0, 0.5, CorrelationParams(1.0)),
                         id="eps1_instant"),
            pytest.param(lambda r: eps0_outdated(r, 1.0, 0.5, CorrelationParams(1.0)),
                         id="eps0_instant"),
            pytest.param(lambda r: eps1_outdated(r, 1.0, 0.5, CorrelationParams(0.5)),
                         id="eps1_outdated"),
            pytest.param(lambda r: eps0_outdated(r, 1.0, 0.5, CorrelationParams(0.5)),
                         id="eps0_outdated"),
            pytest.param(lambda r: zero_outage_threshold(10.0, r), id="zero_outage_threshold"),
            pytest.param(lambda r: default_threshold(PowerMode.long_term(), 10.0, r),
                         id="default_threshold"),
        ],
    )
    def test_nan_rate_rejected(self, evaluate):
        with pytest.raises(ValueError, match="rate_nats"):
            evaluate(math.nan)

    @pytest.mark.parametrize(
        "evaluate",
        [
            pytest.param(lambda r: eps1_outdated(r, 1.0, 0.5, CorrelationParams(1.0)),
                         id="eps1_instant"),
            pytest.param(lambda r: eps1_outdated(r, 1.0, 0.5, CorrelationParams(0.5)),
                         id="eps1_outdated"),
            pytest.param(lambda r: eps0_outdated(r, 1.0, 0.5, CorrelationParams(1.0)),
                         id="eps0_instant"),
            pytest.param(lambda r: eps0_outdated(r, 1.0, 0.5, CorrelationParams(0.5)),
                         id="eps0_outdated"),
            pytest.param(lambda r: zero_outage_threshold(10.0, r), id="zero_outage_threshold"),
            pytest.param(lambda r: default_threshold(PowerMode.short_term(), 10.0, r),
                         id="default_threshold"),
        ],
    )
    def test_rate_past_exp_range_is_named(self, evaluate):
        # e^R - 1 overflows past R = 709.78 nats.
        with pytest.raises(OverflowError, match="rate_nats"):
            evaluate(1e6 * math.log(2.0))

    @pytest.mark.parametrize(
        "evaluate,power_name",
        [
            pytest.param(lambda: zero_outage_threshold(1e-3, 1020 * LOG2), "power",
                         id="zero_outage_threshold"),
            pytest.param(lambda: default_threshold(PowerMode.explicit(1e-320, 1.0), 10.0, LOG2),
                         "p1", id="default_threshold"),
        ],
    )
    def test_overflowing_threshold_is_named(self, evaluate, power_name):
        # (e^R - 1)/P1 past the float range: a numerical failure, not a usage error.
        with pytest.raises(OverflowError, match=f"rate_nats = .*, {power_name} = "):
            evaluate()

    def test_underflowing_long_term_threshold_is_named(self):
        # 2(e^R - 1)/P rounds to 0, where the two-level split has no P0.  Short-term
        # power may use alpha = 0: all-zero feedback then has probability 0.
        with pytest.raises(ArithmeticError, match="rate_nats = 1e-20, power = 1e[+]308"):
            default_threshold(PowerMode.long_term(), 1e308, 1e-20)
        assert default_threshold(PowerMode.short_term(), 1e308, 1e-20) == 0.0

    @pytest.mark.parametrize(
        "form,args",
        [
            pytest.param(outage_longterm_closed, {"power": 10.0, "num_users": 2, "rate_nats": 1.0},
                         id="outage_longterm_closed"),
            pytest.param(power_split_longterm, {"power": 10.0, "alpha": 1.0, "num_users": 2},
                         id="power_split_longterm"),
        ],
    )
    def test_nan_argument_is_named(self, form, args):
        for name in args:
            with pytest.raises(ValueError, match=f"^{name} must"):
                form(**{**args, name: math.nan})

    def test_huge_threshold_leaves_no_outage_on_one(self):
        # v^2 >= 1e300 puts v_tau near rho 1e150: no outage at one bit.  The
        # e^{alpha - c/P1} factor overflows but multiplies a Q1 of 0.
        assert eps1_outdated(math.log(2.0), 50.0, 1e300, CorrelationParams(0.5)) == 0.0
