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

from .channel import CorrelationParams
from .specfun import QuadratureSpec, integrate_semi_infinite, marcum_q1, marcum_q1_asymptotic

__all__ = [
    "ErgodicConfig",
    "ErgodicReport",
    "ThresholdPolicy",
    "WidebandReport",
    "prob_some_above",
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
# Users per block of the full-CSI log-MGF sum, which bounds its
# (nodes x users) array: 300 nodes by 256 users is 600 kB.
_USER_BLOCK = 256


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


def prob_some_above(alpha: float, num_users: int) -> float:
    """Probability that at least one of K users exceeds the threshold.

    1 - (1 - e^{-alpha})^K, computed via log1p/expm1 so the near-1 and
    near-0 regimes keep full relative precision.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if num_users < 1:
        raise ValueError("num_users must be >= 1")
    miss = np.exp(-alpha)
    if miss == 1.0:  # alpha = 0, or too small to move e^-alpha off 1
        return 1.0
    return float(-np.expm1(num_users * np.log1p(-miss)))


def sum_rate(cfg: ErgodicConfig, quad: QuadratureSpec | None = None) -> float:
    """Ergodic sum-rate (nats) of the 1-bit scheme with outdated feedback.

    Pr(N>0) times E[log(1 + P v_tau^2) | v^2 >= alpha], for every rho.  Given
    v^2 >= alpha, v^2 is alpha plus a unit exponential, and v_tau^2 given v^2
    is noncentral with mean rho^2 v^2 + 1 - rho^2, so the moment generating
    function of P v_tau^2 is elementary:

        M(t) = exp(-alpha r t P / (1 + c t P)) / (1 + t P),  r = rho^2, c = 1 - r.

    Hamdi's lemma (IEEE Trans. Commun. 58(2), 2010) turns it into one
    integral with a nonnegative, bounded integrand:

        E[log(1 + P v_tau^2) | v^2 >= alpha] = int_0^inf (1 - M(t)) e^-t dt / t.

    At rho = 0 it is e^{1/P} E1(1/P) and at |rho| = 1 the instantaneous
    closed form log(1 + alpha P) + e^{alpha + 1/P} E1(alpha + 1/P).
    ``quad`` is ignored: the integral is the fixed trapezoid rule of
    :func:`onebitfb.specfun.integrate_semi_infinite`.
    """
    r = cfg.corr.rho ** 2
    shift = cfg.threshold * r
    return prob_some_above(cfg.threshold, cfg.num_users) * _log1p_mean(cfg.power, shift, 1.0 - r)


def _log1p_mean(power: float, shift: float, c: float) -> float:
    """E[log(1 + X)] for X with M(t) = exp(-shift t P / (1 + c t P)) / (1 + t P).

    X has mean P (1 + shift), so the grid of the rate integral depends on
    alpha only through ``shift``.
    """

    def log_mgf(t):
        # Where t P passes 1e300, 1 - M(t) is 1 to rounding either way.
        tp = np.minimum(t * power, 1e300)
        return -np.log1p(tp) - shift * tp / (1.0 + c * tp)

    return integrate_semi_infinite(log_mgf, math.log1p(power * (1.0 + shift)))


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


def optimal_threshold(num_users: int, power: float, corr: CorrelationParams) -> float:
    """Numerically maximize the sum-rate over the threshold.

    The rate rises and then falls in alpha, so a golden-section search
    narrows [0, log K + 6] to a bracket of width 1e-4 and returns its
    midpoint, or exactly 0 when the maximum sits at alpha = 0.
    """
    if num_users < 1:
        raise ValueError("num_users must be >= 1")

    def rate(alpha: float) -> float:
        return sum_rate(ErgodicConfig(num_users, power, corr, alpha))

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
    raised by 4 until it brackets the target.  Each step is one
    :func:`sum_rate` call; ``quad`` is ignored.
    """
    if not math.isfinite(ebn0_db):
        raise ValueError("ebn0_db must be finite")
    if ebn0_db <= wideband_metrics(alpha, num_users, corr).ebn0_min_db:
        return 0.0, 0.0

    def point(log_power: float) -> tuple[float, float]:
        power = math.exp(log_power)
        return sum_rate(ErgodicConfig(num_users, power, corr, alpha)), power

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


def ergodic_report(cfg: ErgodicConfig) -> ErgodicReport:
    """Rate plus both bounds and the transmit probability, in one pass."""
    return ErgodicReport(
        rate_nats=sum_rate(cfg),
        upper_nats=sum_rate_upper(cfg),
        lower_nats=sum_rate_lower(cfg),
        prob_transmit=prob_some_above(cfg.threshold, cfg.num_users),
    )


def full_csi_rate(num_users: int, power: float) -> float:
    """Reference rate with non-delayed full CSI: E[log(1 + P max_k v_k^2)].

    By Renyi's representation the max of K unit exponentials is
    sum_{i<=K} E_i / i with E_i unit exponentials, so P max has

        log M(t) = -sum_{i<=K} log1p(t P / i)  and mean P H_K,

    H_K the K-th harmonic number.  The sum runs over blocks of
    ``_USER_BLOCK`` users, so a call costs O(K) time and bounded memory.
    """
    if num_users < 1:
        raise ValueError("num_users must be >= 1")
    if not 0 < power < math.inf:  # NaN fails it too
        raise ValueError("power must be positive and finite")

    def log_mgf(t):
        tp = t * power
        out = np.zeros_like(t)
        for lo in range(1, num_users + 1, _USER_BLOCK):
            users = np.arange(lo, min(lo + _USER_BLOCK, num_users + 1), dtype=float)
            out -= np.log1p(np.divide.outer(tp, users)).sum(axis=1)
        return out

    harmonic = math.fsum(1.0 / i for i in range(1, num_users + 1))
    mean = power * harmonic
    # Where P H_K overflows, log(1 + P H_K) is log P + log H_K to rounding.
    log1p_mean = math.log1p(mean) if mean < math.inf else math.log(power) + math.log(harmonic)
    return integrate_semi_infinite(log_mgf, log1p_mean)


def no_csi_rate(power: float) -> float:
    """Reference rate with no CSI: E[log(1 + P v^2)] = e^{1/P} E1(1/P).

    The 1-bit rate integral at alpha = 0, and the full-CSI rate at K = 1.
    """
    if not 0 < power < math.inf:
        raise ValueError("power must be positive and finite")
    return _log1p_mean(power, 0.0, 1.0)
