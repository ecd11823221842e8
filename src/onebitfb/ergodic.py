"""Ergodic sum-rate of the 1-bit feedback scheme with outdated CSI.

Closed-form rate, Jensen upper / truncation lower bounds, threshold policies
and the numerical threshold optimizer, wideband (low-SNR) metrics and the
Eb/N0 inversion, and the full-CSI and no-CSI reference rates.

All rates are in nats per channel use; the CLI converts to bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

from .channel import CorrelationParams, DegenerateCorrelationError
from .specfun import (QuadratureSpec, expx_e1, expx_expn, integrate_semi_infinite, marcum_q1,
                      marcum_q1_asymptotic)

__all__ = [
    "ErgodicConfig",
    "ErgodicReport",
    "ThresholdPolicy",
    "WidebandReport",
    "prob_some_above",
    "conditional_pdf_vtau",
    "sum_rate",
    "sum_rate_upper",
    "sum_rate_lower",
    "rate_bracket",
    "optimal_threshold",
    "suboptimal_threshold",
    "wideband_metrics",
    "affine_rate_approx",
    "ebn0_db_from_power",
    "rate_at_ebn0",
    "ergodic_report",
    "full_csi_rate",
    "no_csi_rate",
]

_LOG2 = math.log(2.0)
_3DB = 10.0 * math.log10(2.0)
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# The conditional density's Marcum-Q factor is about exp(-alpha (1 - rho^2)) at
# its peak and smaller toward z = 0, where marcum_q1 loses relative accuracy
# below 1e-60: the quadrature holds 1e-12 up to this product, and is 9-25% low at 200-500.
_MAX_ALPHA_DECORRELATION = 60.0
# Past this many terms of its mixture series sum_rate integrates instead.  The
# series needs about (alpha + 39)/(1 - rho^2) terms, so this is rho = 0.995 at
# small alpha, where the series and the quadrature each take about 1 ms.
_MAX_TERMS = 4000
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class ErgodicConfig:
    num_users: int
    power: float
    corr: CorrelationParams
    threshold: float

    def __post_init__(self):
        if self.num_users < 1:
            raise ValueError("num_users must be >= 1")
        if not (self.power > 0 and math.isfinite(self.power)):
            raise ValueError("power must be positive and finite")
        if not (math.isfinite(self.threshold) and self.threshold >= 0):
            raise ValueError("threshold must be nonnegative and finite")
        if not math.isfinite(self.power * (1.0 + self.threshold)):  # log(1 + alpha P) needs it
            raise OverflowError("power * (1 + threshold) overflows")


@dataclass(frozen=True)
class ErgodicReport:
    rate_nats: float
    upper_nats: float
    lower_nats: float
    prob_transmit: float


@dataclass(frozen=True)
class ThresholdPolicy:
    """Threshold selection rule: fixed value, log K - delta, or optimized."""

    kind: str  # "fixed" | "suboptimal" | "optimal"
    alpha: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if self.kind not in ("fixed", "suboptimal", "optimal"):
            raise ValueError(f"unknown threshold policy {self.kind!r}")
        if self.kind == "fixed" and not (
            self.alpha is not None and math.isfinite(self.alpha) and self.alpha >= 0
        ):
            raise ValueError("fixed policy needs a finite alpha >= 0")
        if self.kind == "suboptimal" and not (
            self.delta is not None and math.isfinite(self.delta) and self.delta > 0
        ):
            raise ValueError("suboptimal policy needs a finite delta > 0")

    def resolve(self, num_users: int, power: float, corr: CorrelationParams) -> float:
        if self.kind == "fixed":
            return float(self.alpha)
        if self.kind == "suboptimal":
            return suboptimal_threshold(num_users, self.delta)
        return optimal_threshold(num_users, power, corr)


@dataclass(frozen=True)
class WidebandReport:
    ebn0_min_db: float
    slope_s0: float
    ebn0_min_linear: float


def prob_some_above(alpha: float, num_users: int):
    """Probability that at least one of K users exceeds the threshold.

    1 - (1 - e^{-alpha})^K, computed via log1p/expm1 so the near-1 and
    near-0 regimes keep full relative precision.
    """
    alpha_arr = np.asarray(alpha, dtype=float)
    if np.any(alpha_arr < 0):
        raise ValueError("alpha must be nonnegative")
    if num_users < 1:
        raise ValueError("num_users must be >= 1")
    with np.errstate(divide="ignore"):
        out = -np.expm1(num_users * np.log1p(-np.exp(-alpha_arr)))
    return float(out) if out.ndim == 0 else out


def conditional_pdf_vtau(z, alpha: float, c: CorrelationParams):
    """Density of the transmission-time envelope given the feedback event v^2 >= alpha.

    f(z | v^2 >= alpha) = 2 z exp(-z^2 + alpha)
                          * Q1(sqrt(2)|rho| z / sqrt(1-rho^2),
                               sqrt(2 alpha) / sqrt(1-rho^2)).

    Reduces bit-exactly to the unconditional Rayleigh density 2 z exp(-z^2)
    when alpha = 0 or rho = 0.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    z = np.asarray(z, dtype=float)
    if alpha == 0.0 or c.rho == 0.0:
        out = 2.0 * z * np.exp(-z * z)
        return float(out) if out.ndim == 0 else out
    if c.is_instantaneous:
        raise DegenerateCorrelationError(
            "conditional density requires |rho| < 1; use the truncated "
            "Rayleigh specialization for instantaneous feedback"
        )
    r = c.abs_rho
    s = math.sqrt(1.0 - r * r)
    q = marcum_q1(math.sqrt(2.0) * r / s * z, math.sqrt(2.0 * alpha) / s)
    # exp(alpha - z^2) Q1 <= 1: past alpha = 709, capping the exponent short of
    # overflow lowers the product only where Q1 < e^-709, instead of giving inf * 0.
    expo = -z * z + alpha
    out = 2.0 * z * np.exp(expo if alpha <= 709.0 else np.minimum(expo, 709.0)) * q
    return float(out) if np.ndim(out) == 0 else out


def sum_rate(cfg: ErgodicConfig, quad: QuadratureSpec | None = None) -> float:
    """Ergodic sum-rate (nats) of the 1-bit scheme with outdated feedback.

    Pr(N>0) times E[log(1 + P v_tau^2) | v^2 >= alpha].  rho = 0 and
    |rho| = 1 use their exact specializations.  Otherwise, with r = rho^2,
    c = 1 - r and b = 1/(P c), the squared envelopes are Kibble's
    bivariate gamma pair, a mixture over n of independent Gamma(n+1, c)
    pairs with weights c r^n (Kibble 1941), so

        rate = Pr(N>0) sum_n w_n I_n,  w_n = e^alpha c r^n Q(n+1, alpha/c),
        I_n = E[log(1 + c P G_{n+1})] = sum_{j<=n} e^b E_{j+1}(b)

    with Q the regularized upper incomplete gamma function, G_{n+1} a
    Gamma(n+1, 1) variable and the last step Gradshteyn-Ryzhik 3.383.10.
    Every term is positive, so nothing cancels.  The sum stops at
    n_max = ceil(y + 10 sqrt(y+1) + ln(1e-17)/ln r), y = alpha/c, and
    ``quad`` is not used.  When n_max passes ``_MAX_TERMS`` (rho above
    about 0.995) the rate is instead the integral of log1p(P z^2) against
    :func:`conditional_pdf_vtau` to the tolerances of ``quad``; it raises
    ``OverflowError`` naming alpha once alpha (1 - rho^2) > 60.
    """
    return _sum_rate(cfg, quad, conditional_pdf_vtau, _mixture_weights)


def _sum_rate(cfg: ErgodicConfig, quad: QuadratureSpec | None, density, weights) -> float:
    """:func:`sum_rate` with ``density(z, alpha, corr)`` in place of :func:`conditional_pdf_vtau`
    and ``weights(alpha, corr)`` in place of :func:`_mixture_weights`."""
    prob = prob_some_above(cfg.threshold, cfg.num_users)
    power, alpha, corr = cfg.power, cfg.threshold, cfg.corr
    if corr.rho == 0.0:
        # Feedback and transmission-time channel are independent.
        return prob * expx_e1(1.0 / power)
    if corr.is_instantaneous:
        # The truncated exponential law integrated by parts.
        return prob * (math.log1p(alpha * power) + expx_e1(alpha + 1.0 / power))
    r = corr.abs_rho
    mix = weights(alpha, corr)
    if mix is not None:
        gains = np.cumsum(expx_expn(len(mix), 1.0 / (power * (1.0 - r * r))))
        return prob * float(np.dot(mix, gains))
    if alpha * (1.0 - r * r) > _MAX_ALPHA_DECORRELATION:
        raise OverflowError(f"alpha = {alpha:.6g} is too large at rho = {corr.rho:.6g}: the "
                            f"rate needs alpha (1 - rho^2) <= {_MAX_ALPHA_DECORRELATION:g}")

    def integrand(z):
        return np.log1p(z * z * power) * density(z, alpha, corr)

    # The Marcum-Q factor steps from 0 to 1 at z0 = sqrt(alpha)/|rho| over a
    # width of about sqrt(1-rho^2)/(sqrt(2)|rho|), which near |rho| = 1 is
    # narrower than a panel's node spacing: give the step panels of its own.
    z0 = math.sqrt(alpha) / r
    w = 8.0 * math.sqrt(1.0 - r * r) / (math.sqrt(2.0) * r)
    edges = (z0 - w, z0 + w) if w < z0 else ()
    return prob * integrate_semi_infinite(integrand, 0.0, quad, breakpoints=edges)


def _mixture_weights(alpha: float, corr: CorrelationParams):
    """The weights w_n of the series in :func:`sum_rate`, or None past ``_MAX_TERMS`` terms.

    They do not depend on P.  Taken in log space, since e^alpha overflows
    past alpha = 709; where Q(n+1, y) underflows, far below the mean of a
    Poisson(y) count, it is that count's CDF summed from its log pmf.  They
    are the law of the mixture index given v^2 >= alpha, so they sum to 1
    but for the truncated 1e-17: dividing by their sum cancels the rounding
    they share, which at alpha = 300-760 puts the rate 2e-15 instead of 8e-14
    from a Rician-mixture quadrature.
    """
    if corr.is_instantaneous:
        return None
    r = corr.abs_rho ** 2
    c = 1.0 - r
    y = alpha / c
    log_r = math.log(r) if r > 0.0 else -math.inf  # rho^2 underflows below rho = 1.5e-162
    n_max = y + 10.0 * math.sqrt(y + 1.0) + math.log(1e-17) / log_r
    if not n_max <= _MAX_TERMS:  # NaN alpha too: ErgodicConfig names it
        return None
    n = np.arange(math.ceil(n_max) + 1.0)
    q = sc.gammaincc(n + 1.0, y)
    log_q = np.log(np.maximum(q, _TINY))
    low = q < _TINY
    if low.any():
        log_pmf = sc.xlogy(n, y) - y - sc.gammaln(n + 1.0)
        log_q[low] = np.logaddexp.accumulate(log_pmf)[low]
    w = np.exp(alpha + math.log(c) + sc.xlogy(n, r) + log_q)
    return w / w.sum()


def sum_rate_upper(cfg: ErgodicConfig) -> float:
    """Jensen upper bound: Pr(N>0) log(1 + P (1 + rho^2 alpha))."""
    prob = prob_some_above(cfg.threshold, cfg.num_users)
    r2 = cfg.corr.rho ** 2
    return prob * math.log1p(cfg.power * (1.0 + r2 * cfg.threshold))


def rate_bracket(alpha: float, corr: CorrelationParams, asymptotic: bool = False) -> float:
    """The Marcum-Q brace shared by the lower rate bound and r_low.

    1 + Q1(|rho| s, s) - Q1(s, |rho| s) with s = sqrt(2 alpha)/sqrt(1-rho^2).
    With ``asymptotic=True`` both Q1 terms are replaced by their
    large-argument Gaussian-prefactor approximation (the form under which
    the brace tends to 1 as alpha grows).
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if corr.is_instantaneous:
        return 1.0
    r = corr.abs_rho
    if r == 0.0 or alpha == 0.0:
        # Q1(0, s) = exp(-s^2/2) = exp(-alpha/(1-rho^2)); Q1(s, 0) = 1.
        return math.exp(-alpha / (1.0 - r * r))
    s = math.sqrt(2.0 * alpha) / math.sqrt(1.0 - r * r)
    if asymptotic:
        q_rs = marcum_q1_asymptotic(r * s, s)
        q_sr = marcum_q1_asymptotic(s, r * s)
    else:
        q_rs = marcum_q1(r * s, s)
        q_sr = marcum_q1(s, r * s)
    return 1.0 + q_rs - q_sr


def sum_rate_lower(cfg: ErgodicConfig) -> float:
    """Truncation lower bound: Pr(N>0) log(1 + alpha P) times the rate brace."""
    prob = prob_some_above(cfg.threshold, cfg.num_users)
    return prob * math.log1p(cfg.threshold * cfg.power) * rate_bracket(cfg.threshold, cfg.corr)


def suboptimal_threshold(num_users: int, delta: float) -> float:
    """The log K - delta threshold rule."""
    if num_users < 1:
        raise ValueError("num_users must be >= 1")
    log_k = math.log(num_users)
    if not 0.0 < delta < log_k:
        raise ValueError("suboptimal rule requires 0 < delta < log K")
    return log_k - delta


def optimal_threshold(
    num_users: int,
    power: float,
    corr: CorrelationParams,
    quad: QuadratureSpec | None = None,
) -> float:
    """Numerically maximize the sum-rate over the threshold.

    The rate rises and then falls in alpha, so a golden-section search
    narrows [0, log K + 6] to a bracket of width 1e-4 and returns its
    midpoint, or exactly 0 when the maximum sits at alpha = 0.
    """
    if num_users < 1:
        raise ValueError("num_users must be >= 1")
    coarse = quad or QuadratureSpec(abs_tol=1e-9, rel_tol=1e-7)

    def rate(alpha: float) -> float:
        return sum_rate(ErgodicConfig(num_users, power, corr, alpha), coarse)

    lo, up = 0.0, math.log(num_users) + 6.0
    x1, x2 = up - _INV_PHI * (up - lo), lo + _INV_PHI * (up - lo)
    f1, f2 = rate(x1), rate(x2)
    while up - lo > 1e-4:
        if f1 >= f2:
            up, x2, f2 = x2, x1, f1
            f1 = rate(x1 := up - _INV_PHI * (up - lo))
        else:
            lo, x1, f1 = x1, x2, f2
            f2 = rate(x2 := lo + _INV_PHI * (up - lo))
    if lo == 0.0 and rate(0.0) >= max(f1, f2):
        return 0.0
    return 0.5 * (lo + up)


def wideband_metrics(alpha: float, num_users: int, corr: CorrelationParams) -> WidebandReport:
    """Minimum energy per bit and wideband slope of the 1-bit scheme.

    Eb/N0_min = log 2 / [Pr(N>0) (1 + rho^2 alpha)]
    S0 = Pr(N>0) (1 + rho^2 alpha)^2 / (1 + 2 a r2 - a r2^2 + a^2 r2^2 / 2)
    with r2 = rho^2 and a = alpha.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    prob = prob_some_above(alpha, num_users)
    if prob == 0.0:
        raise OverflowError(f"alpha = {alpha:.6g}: Pr(N>0) underflows to 0; Eb/N0_min is infinite")
    r2 = corr.rho ** 2
    m2 = 1.0 + r2 * alpha
    ebn0_min = _LOG2 / (prob * m2)
    denom = 1.0 + 2.0 * alpha * r2 - alpha * r2 * r2 + 0.5 * alpha * alpha * r2 * r2
    slope = prob * m2 * m2 / denom
    return WidebandReport(
        ebn0_min_db=10.0 * math.log10(ebn0_min),
        slope_s0=slope,
        ebn0_min_linear=ebn0_min,
    )


def affine_rate_approx(ebn0_db: float, report: WidebandReport) -> float:
    """Wideband affine rate approximation, in nats; clamped at zero below Eb/N0_min.

    The slope S0 is in bits per 3.01 dB (per doubling of energy); the result
    is converted to nats to match the rest of the package.
    """
    delta_db = ebn0_db - report.ebn0_min_db
    if delta_db <= 0.0:
        return 0.0
    return report.slope_s0 / _3DB * delta_db * _LOG2


def ebn0_db_from_power(rate_nats: float, power: float) -> float:
    """Eb/N0 (dB) implied by a rate/power operating point: P / R_bits."""
    if rate_nats <= 0:
        raise ValueError("rate must be positive")
    return 10.0 * math.log10(power / (rate_nats / _LOG2))


def rate_at_ebn0(
    ebn0_db: float,
    num_users: int,
    corr: CorrelationParams,
    alpha: float,
    quad: QuadratureSpec | None = None,
) -> tuple[float, float]:
    """Invert the implicit Eb/N0 relation; returns (rate_nats, power).

    Zero rate at or below Eb/N0_min.  Above it, P / R_bits(P) rises with P:
    bisect in log P to width 1e-12, from [ln 1e-10, 0] with the upper end
    raised by 4 until it brackets the target.  The mixture weights of
    :func:`sum_rate` do not depend on P, so they are computed once per call.
    Where the rate is a quadrature instead, the density does not depend on P
    either and every panel is a bisection of the same first segments, so it
    is evaluated once per distinct set of nodes and kept for this call only.
    """
    if not math.isfinite(ebn0_db):
        raise ValueError("ebn0_db must be finite")
    if ebn0_db <= wideband_metrics(alpha, num_users, corr).ebn0_min_db:
        return 0.0, 0.0
    weights = _mixture_weights(alpha, corr)
    memo = {}

    def density(z, a, c):
        key = z.tobytes()
        if key not in memo:
            memo[key] = conditional_pdf_vtau(z, a, c)
        return memo[key]

    def point(log_power: float) -> tuple[float, float]:
        power = math.exp(log_power)
        cfg = ErgodicConfig(num_users, power, corr, alpha)
        return _sum_rate(cfg, quad, density, lambda a, c: weights), power

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


def ergodic_report(cfg: ErgodicConfig, quad: QuadratureSpec | None = None) -> ErgodicReport:
    """Rate plus both bounds and the transmit probability, in one pass."""
    return ErgodicReport(
        rate_nats=sum_rate(cfg, quad),
        upper_nats=sum_rate_upper(cfg),
        lower_nats=sum_rate_lower(cfg),
        prob_transmit=prob_some_above(cfg.threshold, cfg.num_users),
    )


def full_csi_rate(num_users: int, power: float, quad: QuadratureSpec | None = None) -> float:
    """Reference rate with non-delayed full CSI: E[log(1 + P max_k v_k^2)].

    The max of K unit exponentials has density K (1-e^{-x})^{K-1} e^{-x}.
    """
    if num_users < 1:
        raise ValueError("num_users must be >= 1")
    if not 0 < power < math.inf:  # NaN fails it too
        raise ValueError("power must be positive and finite")

    def integrand(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            log_pdf = np.log(num_users) + (num_users - 1) * np.log1p(-np.exp(-x)) - x
        with np.errstate(over="ignore"):
            px = power * x
        gain = np.log1p(px)
        # Where P x overflows, log(1 + P x) is log P + log x to rounding.
        big = np.isinf(px)
        gain[big] = math.log(power) + np.log(x[big])
        return gain * np.exp(log_pdf)

    return integrate_semi_infinite(integrand, 0.0, quad)


def no_csi_rate(power: float) -> float:
    """Reference rate with no CSI: E[log(1 + P v^2)] = e^{1/P} E1(1/P)."""
    if not 0 < power < math.inf:
        raise ValueError("power must be positive and finite")
    return expx_e1(1.0 / power)
