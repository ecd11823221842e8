import math

import numpy as np
import pytest
from scipy import integrate, special

from onebitfb.channel import CorrelationParams, rho_from_jakes
from onebitfb.mcsim import _draw_blocks
from onebitfb.specfun import marcum_q1


def joint_pdf(v, v_tau, c: CorrelationParams):
    """Joint density of the two correlated Rayleigh envelopes, for |rho| < 1.

    f(v_tau, v) = 4 v_tau v / (1-rho^2) * exp(-(v_tau^2+v^2)/(1-rho^2))
                  * I0(2 |rho| v_tau v / (1-rho^2)),
    evaluated with the exponentially scaled I0 so large arguments are safe.
    """
    r = c.abs_rho
    omr2 = 1.0 - r * r
    arg = 2.0 * r * v_tau * v / omr2
    # exp(arg - (v^2+v_tau^2)/(1-rho^2)) = exp(-(v_tau - r v)^2/(1-rho^2) - v^2)
    expo = -((v_tau - r * v) ** 2) / omr2 - v * v
    return 4.0 * v_tau * v / omr2 * special.i0e(arg) * math.exp(expo)


def conditional_pdf_vtau(z, alpha: float, c: CorrelationParams):
    """Density of the transmission-time envelope given the feedback event v^2 >= alpha, |rho| < 1.

    f(z | v^2 >= alpha) = 2 z exp(-z^2 + alpha)
                          * Q1(sqrt(2)|rho| z / sqrt(1-rho^2),
                               sqrt(2 alpha) / sqrt(1-rho^2)).

    Reduces bit-exactly to the unconditional Rayleigh density 2 z exp(-z^2)
    when alpha = 0 or rho = 0.
    """
    z = np.asarray(z, dtype=float)
    if alpha == 0.0 or c.rho == 0.0:
        return 2.0 * z * np.exp(-z * z)
    r = c.abs_rho
    s = math.sqrt(1.0 - r * r)
    q = marcum_q1(math.sqrt(2.0) * r / s * z, math.sqrt(2.0 * alpha) / s)
    return 2.0 * z * np.exp(-z * z + alpha) * q


class TestParams:
    def test_rho_bounds(self):
        CorrelationParams(-1.0)
        CorrelationParams(1.0)
        with pytest.raises(ValueError):
            CorrelationParams(1.0001)
        with pytest.raises(ValueError):
            CorrelationParams(float("nan"))

    def test_abs_rho_and_instantaneous(self):
        c = CorrelationParams(-0.7)
        assert c.abs_rho == 0.7
        assert not c.is_instantaneous
        # Instantaneous means |rho| = 1 exactly.  A band within 1e-9 of 1 used to
        # count too; the outdated forms hold there (tests/test_outage.py), so no
        # |rho| < 1 is snapped to 1.
        below_one = math.nextafter(1.0, 0.0)
        for sign in (1.0, -1.0):
            assert CorrelationParams(sign).is_instantaneous
            assert not CorrelationParams(sign * below_one).is_instantaneous

    def test_jakes_golden(self):
        # J0(2*pi*50*0.001), frozen via mpmath besselj
        c = rho_from_jakes(doppler_hz=50.0, delay_s=0.001)
        assert c.rho == pytest.approx(0.9754777740752495, rel=1e-13)

    def test_jakes_zero_delay(self):
        assert rho_from_jakes(100.0, 0.0).rho == 1.0

    def test_jakes_validation(self):
        for doppler_hz, delay_s in ((-1.0, 0.001), (50.0, -1e-3)):
            with pytest.raises(ValueError, match="doppler_hz and delay_s"):
                rho_from_jakes(doppler_hz, delay_s)


class TestDensities:
    def test_joint_pdf_normalizes(self):
        c = CorrelationParams(0.6)
        val, _ = integrate.dblquad(
            lambda vt, v: joint_pdf(v, vt, c), 0.0, 8.0, 0.0, 8.0
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_conditional_pdf_normalizes(self):
        for rho, alpha in [(0.9, 1.5), (0.5, 0.3), (0.0, 2.0)]:
            c = CorrelationParams(rho)
            val, _ = integrate.quad(
                lambda z: float(conditional_pdf_vtau(z, alpha, c)), 0.0, 10.0
            )
            assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("rho", [0.5, 0.9, 0.99])
    def test_conditional_pdf_is_joint_pdf_marginal(self, rho):
        # f(z | v^2 >= alpha) = e^alpha * int_{sqrt(alpha)}^inf f(v, z) dv,
        # integrated here from the I0 form of the joint density.
        c = CorrelationParams(rho)
        width = math.sqrt(1.0 - rho * rho)
        for alpha in (0.3, 1.5, 4.0):
            lo = math.sqrt(alpha)
            for z in np.linspace(0.05, lo / rho + 6.0 * width, 40):
                got = conditional_pdf_vtau(z, alpha, c)
                if got <= 1e-10:
                    continue
                # joint_pdf peaks near v = z / rho; split the v range there.
                cuts = [lo] + [v for v in (z / rho,) if v > lo] + [lo + z / rho + 12.0]
                want = math.exp(alpha) * sum(
                    integrate.quad(lambda v: joint_pdf(v, z, c), a, b,
                                   epsabs=0.0, epsrel=1e-13, limit=200)[0]
                    for a, b in zip(cuts, cuts[1:])
                )
                assert got == pytest.approx(want, rel=1e-12), (alpha, z)

    def test_conditional_pdf_alpha_zero_is_rayleigh(self):
        c = CorrelationParams(0.8)
        z = np.linspace(0.01, 4.0, 50)
        np.testing.assert_allclose(
            conditional_pdf_vtau(z, 0.0, c), 2 * z * np.exp(-z * z), rtol=1e-12
        )

    def test_conditional_pdf_rho_zero_drops_conditioning(self):
        c = CorrelationParams(0.0)
        z = np.linspace(0.01, 4.0, 50)
        np.testing.assert_allclose(
            conditional_pdf_vtau(z, 2.5, c), 2 * z * np.exp(-z * z), rtol=1e-12
        )


class TestSampling:
    """The power-pair sampler behind every Monte-Carlo estimate."""

    def test_moments(self):
        # alpha = 0: every user sends a "1", so the scheduled user is uniform over all K
        rng = np.random.default_rng(7)
        g, g_tau, _ = (np.concatenate(x) for x in zip(*_draw_blocks(rng, 0.9, 400_000, 4, 0.0)))
        assert np.all(g >= 0) and np.all(g_tau >= 0)
        # the squared envelopes are unit exponentials with corr(g, g_tau) = rho^2
        assert np.mean(g) == pytest.approx(1.0, abs=0.01)
        assert np.mean(g_tau) == pytest.approx(1.0, abs=0.01)
        corr = np.corrcoef(g, g_tau)[0, 1]
        assert corr == pytest.approx(0.81, abs=0.01)

    def test_instantaneous_pairs_identical(self):
        rng = np.random.default_rng(1)
        [(g, g_tau, _)] = _draw_blocks(rng, 1.0, 100, 4, 0.0)  # one panel
        np.testing.assert_allclose(g, g_tau, rtol=1e-12)
