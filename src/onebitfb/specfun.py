"""Special functions and the rate integral used by every closed form in the package.

Provides the first-order Marcum-Q function (through scipy's noncentral
chi-square CDF), its exponential bounds, and E[log(1 + X)] from the moment
generating function of X by one fixed trapezoid rule, the integral behind
every ergodic rate.

All functions are pure.  ``marcum_q1`` and ``marcum_q1_bounds`` take
scalars or numpy arrays, and ``integrate_semi_infinite`` passes its nodes
to ``log_mgf`` as one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSpec",
    "marcum_q1",
    "marcum_q1_bounds",
    "integrate_semi_infinite",
]

@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget of an adaptive integrator; no rate reads them.

    Every rate is one fixed trapezoid rule (see
    :func:`integrate_semi_infinite`).  The class stays because the
    acceptance tests and ``perfbench`` build one and pass it to
    ``ergodic.sum_rate`` and ``ergodic.rate_at_ebn0``, which ignore it.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 500
    tail_cutoff_tol: float = 1e-12


def marcum_q1(a, b):
    """First-order Marcum-Q function Q1(a, b): scalar core; arrays elementwise through it.

    Q1(a,b) = int_b^inf x exp(-(x^2+a^2)/2) I0(a x) dx is the upper tail at
    b^2 of a noncentral chi-square with 2 degrees of freedom and
    noncentrality a^2, so it is computed from ``scipy.special.chndtr`` (the
    noncentral chi-square CDF, from Boost) in one of two branches:

    * b < a:   Q1 = 1 - chndtr(b^2, 2, a^2), a value of at least about 1/2;
    * b >= a:  Q1 = exp(-(a-b)^2/2) i0e(ab) + chndtr(a^2, 2, b^2), the
      complement identity Q1(a,b) + Q1(b,a) = 1 + exp(-(a^2+b^2)/2) I0(ab)
      rearranged into a sum of two nonnegative terms, so the small upper
      tail is formed without cancellation.

    Absolute error is at roundoff level: under 1e-15 for a, b <= 50 against
    a 50-digit reference, 1e-14 at a = b = 1500.  Relative error stays
    near 1e-14 down to Q1 of about 1e-60; below that ``chndtr`` underflows
    to 0 and Q1 keeps only its absolute accuracy (relative error up to about
    20% once Q1 is under 1e-65).

    Where |a - b| > 40 the exponential bounds (see :func:`marcum_q1_bounds`)
    put Q1 within 1e-300 of 0 or 1, and that value is returned: ``chndtr``
    gives NaN there once a^2 or b^2 passes about 1e19.  Where ab > 3.4e10, or
    ``chndtr`` gives NaN, Q1 is ndtr(a - b) + exp(-(a-b)^2/2) i0e(ab) / 2,
    which keeps the complement identity exactly, is exact at a = b and is
    within 0.034/(ab) absolute of a 40-digit quadrature of the defining
    integral: under 1e-12, as close as ``chndtr`` comes near the ridge,
    where ``chndtr`` costs O(max(a, b)) time.

    Scalars give a float; arrays broadcast, each element a scalar call.
    """
    if not (np.isscalar(a) and np.isscalar(b)):
        return _marcum_q1_elementwise(a, b)
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("marcum_q1 requires finite arguments")
    if a < 0.0 or b < 0.0:
        raise ValueError("marcum_q1 requires nonnegative arguments")
    d = a - b
    if abs(d) > 40.0:
        return float(b < a)
    # Both branches need chndtr(min^2, 2, max^2).  np.exp keeps the bits of
    # numpy's array exp, which math.exp misses on some pairs.
    import scipy.special as sc  # imported here: it costs a CLI run about 0.2 s
    lo, hi = min(a, b), max(a, b)
    tail = sc.chndtr(lo * lo, 2.0, hi * hi) if a * b <= 3.4e10 else math.nan
    out = 1.0 - tail if b < a else np.exp(-0.5 * (d * d)) * sc.i0e(a * b) + tail
    if math.isnan(out):
        out = sc.ndtr(d) + 0.5 * np.exp(-0.5 * d * d) * sc.i0e(a * b)
    return min(max(float(out), 0.0), 1.0)


_marcum_q1_elementwise = np.vectorize(marcum_q1, otypes=[float])


def marcum_q1_bounds(a, b):
    """Exponential lower/upper bounds on Q1(a, b).

    For a < b:  exp(-(b+a)^2/2) <= Q1 <= exp(-(b-a)^2/2).
    For b < a:  1 - [exp(-(b-a)^2/2) - exp(-(b+a)^2/2)]/2 <= Q1 <= 1.
    For a == b the conservative pair (first-regime lower, 1) is returned,
    which keeps the sandwich valid in the limit from either side.
    """
    a_arr, b_arr = np.broadcast_arrays(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    )
    if np.any(a_arr < 0) or np.any(b_arr < 0):
        raise ValueError("marcum_q1_bounds requires nonnegative arguments")
    e_minus = np.exp(-0.5 * (b_arr - a_arr) ** 2)
    e_plus = np.exp(-0.5 * (b_arr + a_arr) ** 2)
    lower = np.where(b_arr < a_arr, 1.0 - 0.5 * (e_minus - e_plus), e_plus)
    upper = np.where(a_arr < b_arr, e_minus, 1.0)
    if a_arr.ndim == 0:
        return float(lower), float(upper)
    return lower, upper


# The trapezoid rule of integrate_semi_infinite: its step in s = ln t, the
# top of its range in s, and the relative size of the terms it drops.
_STEP = 0.25
_LOG_T_TOP = math.log(45.0)
_LOG_TINY = math.log(1e-17)


def integrate_semi_infinite(log_mgf, log1p_mean: float):
    """E[log(1 + X)] of a nonnegative X, from its moment generating function.

    Hamdi's lemma (IEEE Trans. Commun. 58(2), 2010):

        E[log(1 + X)] = int_0^inf (1 - M(t)) e^-t dt / t,  M(t) = E e^{-t X}.

    ``log_mgf(t)`` returns log M at an array of t; it runs with numpy's
    overflow warning off.  ``log1p_mean`` is log(1 + E X), which the caller
    forms so that it does not overflow where E X does.

    ``log_mgf`` may instead return a pair (log M, H), H an (m, len(t))
    array; the result is then the pair (E[log(1 + X)], the m integrals
    int_0^inf H(t) e^-t dt / t) from the same nodes.  Derivatives of the
    rate in a parameter of M are integrals of this kind, with H = M times
    the derivative of -log M; they must vanish like t as t -> 0, as
    1 - M does.

    The trapezoid rule with step ``_STEP`` in s = ln t, over t from
    1e-17 / (e (1 + E X)), below which the integrand in s is under 1e-17 of
    its scale, to 45, past which e^-t is.  Where |M| <= 1 and M is analytic
    for |Im s| < pi/2, as for every X here, the rule is off by about
    exp(-pi^2/_STEP), 7e-18; every term is nonnegative.  The result is
    capped at ``log1p_mean``, its Jensen bound.  The cap binds only where
    E X is below about 1e-29, where the sum rounds 1-2 ulp above it, and at
    a subnormal E X, where each term carries the 5e-324 resolution of
    subnormals.
    """
    t = np.exp(np.arange(_LOG_T_TOP, _LOG_TINY - log1p_mean - 1.0, -_STEP))
    with np.errstate(over="ignore"):
        out = log_mgf(t)
    log_m, extra = out if isinstance(out, tuple) else (out, None)
    decay = np.exp(-t)
    rate = min(_STEP * float(np.dot(-np.expm1(log_m), decay)), log1p_mean)
    return rate if extra is None else (rate, _STEP * (extra @ decay))
