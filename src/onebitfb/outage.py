"""Outage probability and diversity-multiplexing tradeoff of the 1-bit scheme.

Covers instantaneous and outdated feedback under short-term, long-term
two-level, and explicit power policies, the zero-outage threshold and the
two-level power split, closed-form long-term outage, analytic DMT curves and
finite-SNR secant diversity estimates.

Rates are in nats; probabilities are plain floats in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .channel import CorrelationParams, check_count, check_nonnegative, check_positive
from .ergodic import prob_some_above
from .specfun import marcum_q1

__all__ = [
    "PowerMode",
    "OutageConfig",
    "OutageReport",
    "DMT_SCHEMES",
    "outage_instant",
    "zero_outage_threshold",
    "power_split_longterm",
    "outage_longterm_closed",
    "eps1_outdated",
    "eps0_outdated",
    "outage_outdated",
    "dmt_analytic",
    "dmt_empirical_slope",
    "default_threshold",
]

# Diversity gain at multiplexing gain 0 of each scheme, d0 = a K + b, as (a, b).
_DMT_INTERCEPTS = {
    "longterm_1bit": (2, 0),
    "shortterm_1bit": (1, 0),
    "full_csi": (1, 0),
    "outdated_1bit": (0, 1),
    "no_csi": (0, 1),
    "p2p_1bit": (0, 2),
}
DMT_SCHEMES = tuple(_DMT_INTERCEPTS)


@dataclass(frozen=True)
class PowerMode:
    """Transmit-power policy resolved against the feedback outcome.

    short_term: P1 = P0 = P.
    long_term_two_level: P1 = P/2, P0 = P / (2 (1-e^{-alpha})^K).
    explicit: caller-supplied (P1, P0) for sensitivity studies.
    """

    kind: str
    p1: float | None = None
    p0: float | None = None

    def __post_init__(self):
        if self.kind not in ("short_term", "long_term_two_level", "explicit"):
            raise ValueError(f"unknown power mode {self.kind!r}")
        if self.kind == "explicit":
            if not all(p is not None and math.isfinite(p) and p >= 0 for p in (self.p1, self.p0)):
                raise ValueError("explicit mode requires finite P1, P0 >= 0")

    @classmethod
    def short_term(cls) -> "PowerMode":
        return cls("short_term")

    @classmethod
    def long_term(cls) -> "PowerMode":
        return cls("long_term_two_level")

    @classmethod
    def explicit(cls, p1: float, p0: float) -> "PowerMode":
        return cls("explicit", p1=p1, p0=p0)

    def resolve(self, power: float, alpha: float, num_users: int) -> tuple[float, float]:
        """Concrete (P1, P0) for a long-term budget ``power`` and threshold."""
        if self.kind == "long_term_two_level":
            return power_split_longterm(power, alpha, num_users)
        check_positive("power", power)
        check_nonnegative("alpha", alpha)
        check_count("num_users", num_users)
        return (power, power) if self.kind == "short_term" else (float(self.p1), float(self.p0))


@dataclass(frozen=True)
class OutageConfig:
    num_users: int
    power: float
    corr: CorrelationParams
    rate_nats: float
    threshold: float
    mode: PowerMode

    def __post_init__(self):
        check_count("num_users", self.num_users)
        check_positive("power", self.power)
        check_positive("rate_nats", self.rate_nats)
        check_nonnegative("threshold", self.threshold)


@dataclass(frozen=True)
class OutageReport:
    eps: float
    eps1: float
    eps0: float
    p1: float
    p0: float


def _snr_for(rate_nats: float) -> float:
    """e^R - 1, the SNR that supports rate R, or an OverflowError naming the rate."""
    try:
        return math.expm1(rate_nats)
    except OverflowError:
        raise OverflowError(f"rate_nats = {rate_nats:.6g} is too large for e^R - 1") from None


def zero_outage_threshold(power: float, rate_nats: float) -> float:
    """Threshold making feedback-"1" blocks outage-free under P1 = P/2.

    alpha = 2 (e^R - 1) / P, i.e. R = log(1 + (P/2) alpha) exactly.
    """
    return default_threshold(PowerMode.long_term(), power, rate_nats)


def power_split_longterm(power: float, alpha: float, num_users: int) -> tuple[float, float]:
    """Two-level split: P1 = P/2 and P0 = P / (2 (1-e^{-alpha})^K).

    The implied average Pr(N>0) P1 + Pr(N=0) P0 never exceeds the budget P.
    """
    check_positive("power", power)
    check_positive("alpha", alpha)  # P0 is unbounded at alpha = 0, where Pr(N=0) = 0
    check_count("num_users", num_users)
    pr_none = math.pow(-math.expm1(-alpha), num_users)  # a float for a numpy K too
    p0 = 0.5 * power / pr_none if pr_none > 0.0 else math.inf
    if not math.isfinite(p0):
        raise OverflowError(f"P0 overflows: (1-e^-alpha)^K = {pr_none:.3g} at K={num_users}")
    return 0.5 * power, p0


def outage_longterm_closed(power: float, num_users: int, rate_nats: float) -> float:
    """Closed-form outage under the zero-outage threshold and two-level split.

    eps = (1 - e^{-2c/P})^{K-1} (1 - e^{-2c (1 - e^{-2c/P})^K / P}), c = e^R - 1.
    """
    check_positive("power", power)
    check_count("num_users", num_users)
    check_positive("rate_nats", rate_nats)
    c = _snr_for(rate_nats)
    base = -math.expm1(-2.0 * c / power)
    return base ** (num_users - 1) * -math.expm1(-2.0 * c * base ** num_users / power)


def _marcum_pair(rate_nats: float, c: float, power: float, alpha: float, corr: CorrelationParams):
    """(Q1(a, |rho| sb), Q1(|rho| a, sb)), a = sqrt(mu/P), sb = sqrt(nu); an argument
    that overflows is an OverflowError naming rate_nats or alpha."""
    omr2 = 1.0 - corr.rho ** 2
    a = math.sqrt(2.0 * c / omr2 / power)
    sb = math.sqrt(2.0 * alpha / omr2)
    for name, value, arg in (("rate_nats", rate_nats, a), ("alpha", alpha, sb)):
        if math.isinf(arg):
            raise OverflowError(f"{name} = {value:.6g} overflows a Marcum-Q argument")
    r = corr.abs_rho
    return marcum_q1(a, r * sb), marcum_q1(r * a, sb)


def eps1_outdated(rate_nats: float, p1: float, alpha: float, corr: CorrelationParams) -> float:
    """Outage probability given feedback "1".

    Q1(sqrt(mu/P1), |rho| sqrt(nu)) - e^{alpha - (e^R-1)/P1}
    Q1(|rho| sqrt(mu/P1), sqrt(nu)), with mu = 2 (e^R - 1) / (1 - rho^2) and
    nu = 2 alpha / (1 - rho^2).  At |rho| = 1 (instantaneous feedback) it is
    zero where the qualified channel supports the rate (R <= log(1 + P1
    alpha)) and 1 - e^{alpha - (e^R - 1)/P1} otherwise; at rho = 0 it is the
    unconditional exponential outage.
    """
    check_positive("rate_nats", rate_nats)
    check_nonnegative("p1", p1)
    check_nonnegative("alpha", alpha)
    c = _snr_for(rate_nats)
    x = c / p1 if p1 > 0.0 else math.inf
    if math.isinf(x):
        return 1.0  # P1 = 0, or c/P1 past the float range: the P1 -> 0 limit
    if corr.is_instantaneous:
        if rate_nats <= math.log1p(p1 * alpha):
            return 0.0
        return max(0.0, -math.expm1(alpha - x))  # not -0.0 at c/P1 = alpha
    if corr.rho == 0.0:
        return -math.expm1(-x)
    q_a, q = _marcum_pair(rate_nats, c, p1, alpha, corr)
    # e^{alpha - c/P1} Q1 <= 1, so the exponential overflows only where Q1 underflows.
    val = q_a - (math.exp(alpha - x) * q if q > 0.0 else 0.0)
    return min(max(val, 0.0), 1.0)


def eps0_outdated(rate_nats: float, p0: float, alpha: float, corr: CorrelationParams) -> float:
    """Outage probability given all-zero feedback (mu, nu as in eps1_outdated).

    At |rho| = 1 it is (1 - e^{-(e^R - 1)/P0}) / (1 - e^{-alpha}) where
    R <= log(1 + P0 alpha), and 1 above.
    """
    check_positive("rate_nats", rate_nats)
    check_nonnegative("p0", p0)
    check_positive("alpha", alpha)  # the all-zero feedback event has probability 0 at alpha = 0
    c = _snr_for(rate_nats)
    x = c / p0 if p0 > 0.0 else math.inf
    if math.isinf(x):
        return 1.0  # P0 = 0, or c/P0 past the float range: the P0 -> 0 limit
    if corr.is_instantaneous:
        if rate_nats <= math.log1p(p0 * alpha):  # c/P0 may still round one ulp above alpha
            return min(-math.expm1(-x) / -math.expm1(-alpha), 1.0)
        return 1.0
    if corr.rho == 0.0:
        return -math.expm1(-x)
    q_a, q = _marcum_pair(rate_nats, c, p0, alpha, corr)
    ecr = math.exp(-x)
    val = (1.0 - ecr - math.exp(-alpha) * q_a + ecr * q) / -math.expm1(-alpha)
    return min(max(val, 0.0), 1.0)


def outage_outdated(cfg: OutageConfig) -> OutageReport:
    """Total outage eps1 Pr(N>0) + eps0 Pr(N=0) at the resolved powers, capped at 1.

    Pr(N=0) = (1 - e^{-alpha})^K is formed directly (1 - Pr(N>0) keeps only
    absolute precision); at alpha = 0 it is 0 and eps0 never enters.
    """
    p1, p0 = cfg.mode.resolve(cfg.power, cfg.threshold, cfg.num_users)
    e1 = eps1_outdated(cfg.rate_nats, p1, cfg.threshold, cfg.corr)
    e0 = eps0_outdated(cfg.rate_nats, p0, cfg.threshold, cfg.corr) if cfg.threshold > 0 else 0.0
    pr_none = math.pow(-math.expm1(-cfg.threshold), cfg.num_users)  # a float for a numpy K too
    eps = min(e1 * prob_some_above(cfg.threshold, cfg.num_users) + e0 * pr_none, 1.0)
    return OutageReport(eps=eps, eps1=e1, eps0=e0, p1=p1, p0=p0)


def outage_instant(cfg: OutageConfig) -> OutageReport:
    """Total outage with instantaneous feedback: ``outage_outdated`` at rho = 1."""
    return outage_outdated(replace(cfg, corr=CorrelationParams(1.0)))


def dmt_analytic(scheme: str, num_users: int) -> list[tuple[float, float]]:
    """The DMT curve d(r) = d0 * (1 - r) as (r, d) pairs at r = 0, 0.1, ..., 1."""
    check_count("num_users", num_users)
    if scheme not in _DMT_INTERCEPTS:
        raise ValueError(f"unknown DMT scheme {scheme!r}")
    per_user, fixed = _DMT_INTERCEPTS[scheme]
    d0 = float(per_user * num_users + fixed)
    return [(i / 10, d0 * (1.0 - i / 10)) for i in range(11)]


def dmt_empirical_slope(eps_fn, r: float, p_lo: float, p_hi: float) -> float:
    """Finite-SNR secant estimate of the diversity gain at multiplexing gain r.

    -[log eps(P_hi) - log eps(P_lo)] / [log P_hi - log P_lo] where eps_fn
    maps power to outage probability (the caller bakes the rate rule, e.g.
    R = r log P, into the closure).  Only analytic evaluators are usable at
    these powers; Monte-Carlo cannot resolve the probabilities involved.
    """
    if not p_hi > p_lo > 1.0:
        raise ValueError("need P_hi > P_lo > 1")
    e_lo = eps_fn(p_lo)
    e_hi = eps_fn(p_hi)
    if e_lo < 1e-300 or e_hi < 1e-300:
        raise OverflowError(
            "outage probability underflowed; use a lower P_hi"
        )
    return -(math.log(e_hi) - math.log(e_lo)) / (math.log(p_hi) - math.log(p_lo))


def default_threshold(mode: PowerMode, power: float, rate_nats: float) -> float:
    """Zero-outage threshold matched to the power policy.

    Long-term two-level transmits P/2 on "1" blocks, so alpha = 2(e^R-1)/P;
    short-term (and explicit) transmit P1 on "1" blocks, alpha = (e^R-1)/P1.
    """
    check_positive("power", power)
    check_positive("rate_nats", rate_nats)
    long_term = mode.kind == "long_term_two_level"
    p1 = float(mode.p1) if mode.kind == "explicit" else power
    check_positive("p1", p1)
    alpha = 2.0 * _snr_for(rate_nats) / power if long_term else _snr_for(rate_nats) / p1
    if math.isinf(alpha):
        raise OverflowError(f"the zero-outage threshold overflows at rate_nats = {rate_nats:.6g},"
                            f" {'power' if long_term else 'p1'} = {p1:.6g}")
    if long_term and alpha == 0.0:  # the two-level split needs alpha > 0
        raise ArithmeticError(f"the zero-outage threshold 2(e^R - 1)/P underflows to 0 at"
                              f" rate_nats = {rate_nats:.6g}, power = {power:.6g}")
    return alpha
