"""Reference values computed apart from onebitfb.

Q1 comes from scipy's noncentral chi-square survival function, rates from
``scipy.integrate.quad`` over their defining integrals, and the paper's
closed forms (outage, epsilon_1/epsilon_0, Eb/N0_min, DMT intercepts) are
written out again here.  Nothing in this module imports the package under
test, so a fault in it cannot hide itself by agreeing with its own output.

``scipy.stats`` and ``scipy.integrate`` are imported where they are used, so
that the benchmark's set-up time is the package's and not the checks'.
"""

from __future__ import annotations

import math

from scipy import special

LOG2 = math.log(2.0)


def q1(a: float, b: float) -> float:
    """First-order Marcum Q: Q1(a, b) = P[noncentral chi^2_2(a^2) > b^2]."""
    from scipy import stats

    if b == 0.0:
        return 1.0
    if a == 0.0:
        return math.exp(-0.5 * b * b)
    try:
        return float(stats.ncx2.sf(b * b, 2, a * a))
    except OverflowError:
        # Boost's tgamma overflows for large a and tiny b (e.g. a=34,
        # b=3e-5).  There Q1(b, a) is tiny and well conditioned, and the
        # complement identity Q1(a,b) + Q1(b,a) = 1 + e^{-(a^2+b^2)/2} I0(ab)
        # is exact.
        ridge = math.exp(-0.5 * (a - b) ** 2) * float(special.i0e(a * b))
        return 1.0 + ridge - float(stats.ncx2.sf(a * a, 2, b * b))


def prob_some_above(alpha: float, k: int) -> float:
    """Pr(N > 0) = 1 - (1 - e^{-alpha})^K."""
    return -math.expm1(k * math.log1p(-math.exp(-alpha))) if alpha > 0 else 1.0


def _quad(f, lo: float, hi: float) -> float:
    from scipy import integrate

    val, err = integrate.quad(f, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=400)
    if not err <= 1e-10 * max(1.0, abs(val)):
        raise ArithmeticError(f"reference quadrature error {err:.1e} too large")
    return val


def conditional_rate(k: int, power: float, rho: float, alpha: float) -> float:
    """E[log(1 + P |h_tau|^2); some user reports 1], in nats.

    The scheduled user's estimation-time power v^2 is Exp(1) truncated to
    v^2 >= alpha.  For |rho| < 1 the transmission-time envelope z then has
    density 2 z e^{-z^2 + alpha} Q1(sqrt2 |rho| z / s, sqrt(2 alpha) / s),
    s = sqrt(1 - rho^2), which is the joint Rayleigh density integrated over
    v >= sqrt(alpha).  The integrand is negligible beyond z^2 = alpha + 60.
    """
    pr = prob_some_above(alpha, k)
    r = abs(rho)
    if r == 0.0:
        inner = _quad(lambda x: math.log1p(power * x) * math.exp(-x), 0.0, 80.0)
    elif r == 1.0:
        inner = _quad(lambda t: math.log1p(power * (alpha + t)) * math.exp(-t), 0.0, 80.0)
    else:
        s = math.sqrt(1.0 - r * r)
        a_scale = math.sqrt(2.0) * r / s
        b = math.sqrt(2.0 * alpha) / s

        def f(z):
            return math.log1p(power * z * z) * 2.0 * z * math.exp(alpha - z * z) * q1(a_scale * z, b)

        inner = _quad(f, 0.0, math.sqrt(alpha + 60.0))
    return pr * inner


def rate_upper(k: int, power: float, rho: float, alpha: float) -> float:
    """Jensen bound Pr(N>0) log(1 + P (1 + rho^2 alpha))."""
    return prob_some_above(alpha, k) * math.log1p(power * (1.0 + rho * rho * alpha))


def rate_lower(k: int, power: float, rho: float, alpha: float) -> float:
    """Truncation bound Pr(N>0) log(1 + alpha P) [1 + Q1(|rho| s, s) - Q1(s, |rho| s)].

    s = sqrt(2 alpha / (1 - rho^2)); the brace is 1 at |rho| = 1.
    """
    r = abs(rho)
    if r == 1.0:
        brace = 1.0
    else:
        s = math.sqrt(2.0 * alpha / (1.0 - r * r))
        brace = 1.0 + q1(r * s, s) - q1(s, r * s)
    return prob_some_above(alpha, k) * math.log1p(alpha * power) * brace


def ebn0_min_db(k: int, rho: float, alpha: float) -> float:
    """Minimum energy per bit log 2 / (Pr(N>0) (1 + rho^2 alpha)), in dB."""
    lin = LOG2 / (prob_some_above(alpha, k) * (1.0 + rho * rho * alpha))
    return 10.0 * math.log10(lin)


def wideband_slope(k: int, rho: float, alpha: float) -> float:
    """S0 = Pr(N>0) (1 + r2 a)^2 / (1 + 2 a r2 - a r2^2 + a^2 r2^2 / 2), r2 = rho^2."""
    r2 = rho * rho
    m2 = 1.0 + r2 * alpha
    denom = 1.0 + 2.0 * alpha * r2 - alpha * r2 * r2 + 0.5 * alpha * alpha * r2 * r2
    return prob_some_above(alpha, k) * m2 * m2 / denom


def default_threshold(mode: str, power: float, rate_nats: float, p1: float | None = None) -> float:
    """Zero-outage threshold: 2c/P for long-term, c/P1 otherwise (c = e^R - 1)."""
    c = math.expm1(rate_nats)
    if mode == "long_term_two_level":
        return 2.0 * c / power
    return c / (power if mode == "short_term" else p1)


def powers(mode: str, power: float, alpha: float, k: int, explicit=None) -> tuple[float, float]:
    """(P1, P0): equal, two-level P/2 and P/(2 (1-e^{-alpha})^K), or given."""
    if mode == "short_term":
        return power, power
    if mode == "explicit":
        return explicit
    return 0.5 * power, 0.5 * power / (-math.expm1(-alpha)) ** k


def eps_conditional(rate_nats: float, p1: float, p0: float, alpha: float, rho: float) -> tuple[float, float]:
    """(epsilon_1, epsilon_0): outage given a "1" report, and given all "0".

    |rho| = 1:  eps1 = (1 - e^{alpha - c/P1})^+,
                eps0 = (1 - e^{-c/P0}) / (1 - e^{-alpha}) if c <= P0 alpha else 1.
    rho = 0:    both are 1 - e^{-c/P}.
    otherwise, with mu = 2c/(1-rho^2), nu = 2 alpha/(1-rho^2):
      eps1 = Q1(sqrt(mu/P1), |rho| sqrt nu) - e^{alpha - c/P1} Q1(|rho| sqrt(mu/P1), sqrt nu)
      eps0 = [1 - e^{-c/P0} - e^{-alpha} Q1(sqrt(mu/P0), |rho| sqrt nu)
              + e^{-c/P0} Q1(|rho| sqrt(mu/P0), sqrt nu)] / (1 - e^{-alpha}).
    """
    c = math.expm1(rate_nats)
    r = abs(rho)
    if r == 1.0:
        e1 = max(0.0, -math.expm1(alpha - c / p1))
        e0 = -math.expm1(-c / p0) / -math.expm1(-alpha) if c <= p0 * alpha else 1.0
        return e1, e0
    if r == 0.0:
        return -math.expm1(-c / p1), -math.expm1(-c / p0)
    mu = 2.0 * c / (1.0 - r * r)
    sqnu = math.sqrt(2.0 * alpha / (1.0 - r * r))
    a1 = math.sqrt(mu / p1)
    a0 = math.sqrt(mu / p0)
    e1 = q1(a1, r * sqnu) - math.exp(alpha - c / p1) * q1(r * a1, sqnu)
    ec0 = math.exp(-c / p0)
    e0 = (1.0 - ec0 - math.exp(-alpha) * q1(a0, r * sqnu) + ec0 * q1(r * a0, sqnu)) / -math.expm1(-alpha)
    return e1, e0


def outage(k: int, rate_nats: float, p1: float, p0: float, alpha: float, rho: float) -> float:
    """Total outage Pr(N>0) eps1 + Pr(N=0) eps0."""
    e1, e0 = eps_conditional(rate_nats, p1, p0, alpha, rho)
    pr_none = (-math.expm1(-alpha)) ** k
    return (1.0 - pr_none) * e1 + pr_none * e0


def outage_longterm_closed(power: float, k: int, rate_nats: float) -> float:
    """(1 - e^{-2c/P})^{K-1} (1 - e^{-2c (1 - e^{-2c/P})^K / P}), c = e^R - 1."""
    c = math.expm1(rate_nats)
    base = -math.expm1(-2.0 * c / power)
    return base ** (k - 1) * -math.expm1(-2.0 * c * base ** k / power)


# Diversity at multiplexing gain 0 of each scheme of the paper, as
# (multiple of K, constant).
DMT_INTERCEPTS = {
    "longterm_1bit": (2.0, 0.0),
    "shortterm_1bit": (1.0, 0.0),
    "full_csi": (1.0, 0.0),
    "outdated_1bit": (0.0, 1.0),
    "no_csi": (0.0, 1.0),
    "p2p_1bit": (0.0, 2.0),
}


def dmt_intercept(scheme: str, k: int) -> float:
    per_k, const = DMT_INTERCEPTS[scheme]
    return per_k * k + const


def jakes_rho(doppler_hz: float, delay_s: float) -> float:
    """Jakes correlation J0(2 pi f_D tau)."""
    return float(special.j0(2.0 * math.pi * doppler_hz * delay_s))
