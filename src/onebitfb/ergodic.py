"""Ergodic sum-rate of the 1-bit feedback scheme with outdated CSI.

Closed-form rate, Jensen upper / truncation lower bounds, the log K - delta
threshold rule and the numerical threshold optimizer, wideband (low-SNR)
metrics and the Eb/N0 inversion, and the full-CSI and no-CSI reference rates.

All rates are in nats per channel use; the CLI converts to bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CorrelationParams, check_count, check_nonnegative, check_positive
from .specfun import QuadratureSpec, integrate_semi_infinite, marcum_q1

__all__ = [
    "ErgodicConfig",
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
    "full_csi_rate",
    "no_csi_rate",
]

_LOG2 = math.log(2.0)
_3DB = 10.0 * math.log10(2.0)
_DB_PER_NEPER = 10.0 / math.log(10.0)  # d(10 log10 x) / d(ln x)
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
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
        check_count("num_users", self.num_users)
        check_positive("power", self.power)
        check_nonnegative("threshold", self.threshold)
        if not math.isfinite(self.power * (1.0 + self.threshold)):  # log(1 + alpha P) needs it
            raise OverflowError("power * (1 + threshold) overflows")


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
    check_nonnegative("alpha", alpha)
    check_count("num_users", num_users)
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


def _log1p_mean(power: float, shift: float, c: float, derivatives: bool = False):
    """E[log(1 + X)] for X with M(t) = exp(-shift t P / (1 + c t P)) / (1 + t P).

    X has mean P (1 + shift), so the grid of the rate integral depends on
    alpha only through ``shift``.  With ``derivatives`` the same pass also
    returns, with q = t P / (1 + c t P), the three integrals

        int M q,  int M q^2  and  int M (t P / (1 + t P) + shift q / (1 + c t P))

    against e^-t dt / t: with shift = alpha r they are dI/dalpha / r,
    -d^2I/dalpha^2 / r^2 and P dI/dP of the integral I.  Each is formed as
    (M q) times a factor, and M q <= 1/c (tP/(1 + tP) at c = 0), so no
    term overflows for any finite P.
    """

    def log_mgf(t):
        # Where t P passes 1e300, 1 - M(t) is 1 to rounding either way.
        tp = np.minimum(t * power, 1e300)
        log_m = -np.log1p(tp) - shift * tp / (1.0 + c * tp)
        if not derivatives:
            return log_m
        m = np.exp(log_m)
        ctp = 1.0 + c * tp
        mq = m * (tp / ctp)
        return log_m, np.stack([mq, mq * (tp / ctp), m * (tp / (1.0 + tp)) + shift * (mq / ctp)])

    return integrate_semi_infinite(log_mgf, math.log1p(power * (1.0 + shift)))


def sum_rate_upper(cfg: ErgodicConfig) -> float:
    """Jensen upper bound: Pr(N>0) log(1 + P (1 + rho^2 alpha))."""
    prob = prob_some_above(cfg.threshold, cfg.num_users)
    r2 = cfg.corr.rho ** 2
    return prob * math.log1p(cfg.power * (1.0 + r2 * cfg.threshold))


def rate_bracket(alpha: float, corr: CorrelationParams, asymptotic: bool = False) -> float:
    """The Marcum-Q brace shared by the lower rate bound and r_low.

    1 + Q1(|rho| s, s) - Q1(s, |rho| s) with s = sqrt(2 alpha)/sqrt(1-rho^2),
    the probability Pr(v_tau^2 >= alpha | v^2 >= alpha), capped at 1 (roundoff
    passes it by 1 ulp as alpha -> 0); an s that overflows is an OverflowError
    naming alpha.  ``asymptotic=True`` puts the symmetric Gaussian-prefactor
    form of Q1 in both terms, so it is exactly 1: not the large-alpha limit,
    since at fixed |rho| < 1 the brace falls toward 0 as alpha grows.
    """
    check_nonnegative("alpha", alpha)
    if corr.is_instantaneous:
        return 1.0
    r = corr.abs_rho
    if r == 0.0 or alpha == 0.0:
        # Q1(0, s) = exp(-s^2/2) = exp(-alpha/(1-rho^2)); Q1(s, 0) = 1.
        return math.exp(-alpha / (1.0 - r * r))
    if asymptotic:
        return 1.0
    s = math.sqrt(2.0 * alpha) / math.sqrt(1.0 - r * r)
    if math.isinf(s):
        raise OverflowError(f"alpha = {alpha:.6g} overflows a Marcum-Q argument")
    return min(1.0 + marcum_q1(r * s, s) - marcum_q1(s, r * s), 1.0)


def sum_rate_lower(cfg: ErgodicConfig) -> float:
    """Truncation lower bound: Pr(N>0) log(1 + alpha P) times the rate brace."""
    prob = prob_some_above(cfg.threshold, cfg.num_users)
    return prob * math.log1p(cfg.threshold * cfg.power) * rate_bracket(cfg.threshold, cfg.corr)


def suboptimal_threshold(num_users: int, delta: float) -> float:
    """The log K - delta threshold rule."""
    check_count("num_users", num_users)
    log_k = math.log(num_users)
    if not 0.0 < delta < log_k:
        raise ValueError("suboptimal rule requires 0 < delta < log K")
    return log_k - delta


def _log_hazard(log_alpha: float, num_users: int) -> tuple[float, float]:
    """log(-Pr'/Pr) and d log(-Pr') / d log alpha, for Pr(N>0) = 1 - (1 - e^-alpha)^K
    at alpha = e^log_alpha.

    -Pr' = K e^-alpha (1 - e^-alpha)^(K-1), in logs: the power underflows at
    K = 1e6 and small alpha, where its log is finite.  Below alpha = 1e-16,
    1 - e^-alpha is alpha to rounding, so its log is log_alpha, also where
    alpha is subnormal or underflows to 0.
    """
    alpha = math.exp(log_alpha)
    miss, hit = math.exp(-alpha), -math.expm1(-alpha)
    # log(1 - e^-alpha), to full relative precision at either end.
    log_hit = math.log1p(-miss) if alpha > 0.5 else math.log(hit) if alpha > 1e-16 else log_alpha
    log_slope = math.log(num_users) - alpha + (num_users - 1) * log_hit
    return (log_slope - math.log(prob_some_above(alpha, num_users)),
            (num_users * miss - 1.0) * (alpha / hit if alpha > 1e-16 else 1.0))


# Newton steps either search may take.  Both stop on the step size or the
# bracket width, in 6 passes or fewer on the grids tests/test_ergodic.py pins.
_MAX_STEPS = 100


def optimal_threshold(num_users: int, power: float, corr: CorrelationParams) -> float:
    """Maximize the sum-rate R = Pr(N>0) I over the threshold, by Newton steps.

    dR/dalpha = R (g - h), with the gain g = I'/I and the hazard
    h = -Pr'/Pr of the max of K unit exponentials.  Where K = 1,
    dR/dalpha(0) = I'(0) - I(0) < 0, and where rho = 0, I' = 0; alpha* is
    exactly 0 in both cases.  Elsewhere dR/dalpha(0) > 0.  The hazard
    rises in alpha (the max has an increasing failure rate) and the gain
    falls (I is concave in alpha), so dR/dalpha = 0 has one root, that of
    f = log h - log g, which rises.  Newton steps solve f = 0 in log alpha,
    where f is about (K - 1) log alpha near 0, from log max(log K - 1.5,
    0.3 log K), inside the bracket (-inf, log(log K + 6)] kept by the sign
    of f (:func:`_newton`).  The open lower end lets a Newton point reach a
    root below the least normal double (at K = 2 it is about r I'/(2 I),
    5e-321 at rho = 1e-160) where a point in alpha would underflow to 0 and
    bisect toward it.  Each step is one pass of the rate integral that
    also gives I' and I'' (:func:`_log1p_mean`): at most 7 passes from
    K = 2 to 1e6, rho from 0.05 to 1 and P from 1e-10 to 1e15.  Where
    P (1 + alpha r) < 1e-290, I' underflows toward subnormal P, and a step
    takes the P -> 0 limit I = P (1 + alpha r) instead of a pass: there
    alpha* solves -Pr'/Pr = r / (1 + alpha r).
    """
    check_count("num_users", num_users)
    check_positive("power", power)
    r = corr.rho ** 2
    if num_users == 1 or r == 0.0:
        return 0.0
    log_k, log_r = math.log(num_users), 2.0 * math.log(abs(corr.rho))  # r may be subnormal

    def newton_step(log_alpha: float) -> tuple[float, float]:
        alpha = math.exp(log_alpha)
        ErgodicConfig(num_users, power, corr, alpha)  # names an overflowing P (1 + alpha)
        if power * (1.0 + alpha * r) < 1e-290:  # the P -> 0 limit I = P (1 + alpha r), I'' = 0
            log_gain, curvature = log_r - math.log1p(alpha * r), 0.0
        else:
            rate, (mq, mq2, _) = _log1p_mean(power, alpha * r, 1.0 - r, derivatives=True)
            log_gain, curvature = log_r + math.log(mq / rate), r * mq2 / mq
        log_h, dlog_slope = _log_hazard(log_alpha, num_users)
        # df/dlog alpha = alpha ((log -Pr')' - Pr'/Pr - I''/I' + I'/I).
        df = dlog_slope + alpha * (math.exp(log_h) + curvature + math.exp(log_gain))
        f = log_h - log_gain
        return f, -f / df if df > 0.0 else math.nan

    return math.exp(_newton(newton_step, math.log(max(log_k - 1.5, 0.3 * log_k)),
                            math.log(log_k + 6.0), "optimal_threshold"))


def _newton(step_at, x: float, up: float, name: str, f_tol: float = 0.0) -> float:
    """The root of an increasing f below ``up``, by safeguarded Newton steps from x.

    ``step_at(x)`` returns f(x) and the Newton step there, or NaN where it
    has none.  The sign of f keeps a bracket.  The first point past ``up``
    is ``up`` itself; any other point outside the bracket, or a step that
    does not halve the step before last, gives way to a bisection (4 below
    x while the bracket has no lower end).
    Returns x once |f(x)| is at most ``f_tol``, or the next point once it is
    within 1e-12 of x or the bracket is 1e-12 wide.  Reaching ``_MAX_STEPS``
    raises ArithmeticError naming ``name``.
    """
    lo, last, before, top = -math.inf, math.inf, math.inf, up  # top: up, until a step lands on it
    for _ in range(_MAX_STEPS):
        f, step = step_at(x)
        point = x + step
        if abs(f) <= f_tol:
            return x
        if abs(point - x) <= 1e-12:
            return point
        lo, up = (x, up) if f < 0.0 else (lo, x)
        if lo < up == top <= point:
            point, top = up, math.inf
        elif not (lo < point < up and abs(point - x) < 0.5 * abs(before)):
            point = 0.5 * (lo + up) if up - lo < math.inf else x + math.copysign(4.0, -f)
            if up - lo <= 1e-12:
                return point
        x, last, before = point, point - x, last
    raise ArithmeticError(f"{name}: no convergence in {_MAX_STEPS} Newton steps")


def wideband_metrics(alpha: float, num_users: int, corr: CorrelationParams) -> WidebandReport:
    """Minimum energy per bit and wideband slope of the 1-bit scheme.

    Eb/N0_min = log 2 / [Pr(N>0) (1 + rho^2 alpha)]
    S0 = Pr(N>0) (1 + rho^2 alpha)^2 / (1 + 2 a r2 - a r2^2 + a^2 r2^2 / 2)
    with r2 = rho^2 and a = alpha.
    """
    prob = prob_some_above(alpha, num_users)  # checks alpha and num_users
    alpha = float(alpha)  # a numpy scalar would warn where log 2 / (prob m2) overflows
    r2 = corr.rho ** 2
    m2 = 1.0 + r2 * alpha
    ebn0_min = _LOG2 / (prob * m2) if prob > 0.0 else math.inf
    if ebn0_min == math.inf:
        raise OverflowError(f"alpha = {alpha:.6g}: Pr(N>0) = {prob:.3g} and Eb/N0_min overflows")
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
    """Eb/N0 (dB) implied by a rate/power operating point: P / R_bits, taken in
    logs since the quotient overflows where R_bits is small and P large."""
    check_positive("rate_nats", rate_nats)
    check_positive("power", power)
    return 10.0 * (math.log10(power) - math.log10(rate_nats / _LOG2))


def rate_at_ebn0(
    ebn0_db: float,
    num_users: int,
    corr: CorrelationParams,
    alpha: float,
    quad: QuadratureSpec | None = None,
) -> tuple[float, float]:
    """Invert the implicit Eb/N0 relation; returns (rate_nats, power).

    Zero rate at or below Eb/N0_min.  Above it, the implied Eb/N0,
    P / R_bits(P), rises with P, and its derivative in ln P is
    (10 / ln 10) (1 - P R'(P) / R(P)) dB, so each Newton step in ln P is one
    pass of the rate integral that also gives P dI/dP (:func:`_log1p_mean`).
    The first point is where the wideband expansion
    ln(Eb/N0 / Eb/N0_min) = P ln 2 / (S0 Eb/N0_min) meets the target.
    Steps stop once one moves ln P by at most 1e-12 or the implied Eb/N0 is
    within 1e-12 dB of the target: at most 6 passes from 1e-6 to 100 dB
    above Eb/N0_min, then one :func:`sum_rate` call at the final power.
    The first step past the largest P with P (1 + alpha) finite goes onto it, so
    a target above the Eb/N0 there is an OverflowError naming ebn0_db within 4
    passes; a rate that underflows to 0 (alpha past 700) names alpha.  ``quad`` is ignored.
    """
    if not math.isfinite(ebn0_db):
        raise ValueError("ebn0_db must be finite")
    wb = wideband_metrics(alpha, num_users, corr)
    if ebn0_db <= wb.ebn0_min_db:
        return 0.0, 0.0
    r = corr.rho ** 2
    prob = prob_some_above(alpha, num_users)

    def newton_step(log_power: float) -> tuple[float, float]:
        power = math.exp(log_power)
        ErgodicConfig(num_users, power, corr, alpha)
        rate, (_, _, dpower) = _log1p_mean(power, alpha * r, 1.0 - r, derivatives=True)
        if prob * rate == 0.0:
            raise OverflowError(f"alpha = {alpha:.6g}: the rate near ebn0_db = {ebn0_db:.6g}"
                                " underflows to 0")
        miss = ebn0_db_from_power(prob * rate, power) - ebn0_db
        slope = _DB_PER_NEPER * (1.0 - dpower / rate)
        return miss, -miss / slope if slope > 0.0 else math.nan

    start = (ebn0_db - wb.ebn0_min_db) / _DB_PER_NEPER * wb.ebn0_min_linear * wb.slope_s0 / _LOG2
    log_cap = _LOG_FLOAT_MAX - math.log1p(alpha) - 1e-12  # a margin for exp's roundoff
    power = math.exp(_newton(newton_step, min(math.log(start), log_cap), log_cap,
                             "rate_at_ebn0", f_tol=1e-12))
    rate = sum_rate(ErgodicConfig(num_users, power, corr, alpha))
    if ebn0_db_from_power(rate, power) < ebn0_db - 1e-9:
        raise OverflowError(f"ebn0_db = {ebn0_db:.6g}: the power it needs overflows")
    return rate, power


def full_csi_rate(num_users: int, power: float) -> float:
    """Reference rate with non-delayed full CSI: E[log(1 + P max_k v_k^2)].

    By Renyi's representation the max of K unit exponentials is
    sum_{i<=K} E_i / i with E_i unit exponentials, so P max has

        log M(t) = -sum_{i<=K} log1p(t P / i)  and mean P H_K,

    H_K the K-th harmonic number.  The sum runs over blocks of
    ``_USER_BLOCK`` users, so a call costs O(K) time and bounded memory.
    """
    check_count("num_users", num_users)
    check_positive("power", power)

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
    check_positive("power", power)
    return _log1p_mean(power, 0.0, 1.0)
