"""Special functions and quadrature used by every closed form in the package.

Provides the first-order Marcum-Q function (series evaluation,
large-argument asymptotics and exponential bounds), the standard normal
upper tail, a stable ``exp(x)*E1(x)``, and an adaptive semi-infinite
integrator built on a 15-point Gauss-Kronrod panel rule.

All functions are pure and accept scalars or numpy arrays where noted.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as sc

__all__ = [
    "QuadratureSpec",
    "ConvergenceError",
    "std_normal_sf",
    "expx_e1",
    "marcum_q1",
    "marcum_q1_asymptotic",
    "marcum_q1_bounds",
    "integrate_semi_infinite",
]

_SQRT2 = math.sqrt(2.0)

# Beyond this product a*b the Poisson-mixture series needs too many terms;
# switch to the large-argument evaluation (relative error O(1/sqrt(a*b))).
_SERIES_AB_LIMIT = 1.0e6


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for the adaptive semi-infinite integrator."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 500
    tail_cutoff_tol: float = 1e-12

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0 and self.tail_cutoff_tol > 0):
            raise ValueError("all tolerances must be strictly positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


class ConvergenceError(RuntimeError):
    """Adaptive integration ran out of subdivisions.

    Carries the best available estimate and its error bound.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


def std_normal_sf(t):
    """Upper tail of the standard normal, 1 - CDF, computed without cancellation."""
    t = np.asarray(t, dtype=float)
    out = 0.5 * sc.erfc(t / _SQRT2)
    return float(out) if out.ndim == 0 else out


def expx_e1(x):
    """Stable ``exp(x) * E1(x)`` for x > 0.

    Direct evaluation overflows for large x; the continued fraction
    E1(x) = e^{-x} / (x + 1/(1 + 1/(x + 2/(1 + ...)))) is used there.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("expx_e1 requires x > 0")
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    small = x <= 50.0
    out[small] = np.exp(x[small]) * sc.exp1(x[small])
    if np.any(~small):
        out[~small] = np.array([_expx_e1_cf(v) for v in x[~small]])
    return float(out[0]) if scalar else out


def _expx_e1_cf(x: float) -> float:
    # Modified Lentz evaluation of the standard continued fraction for E1.
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        an = -(i * i)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h


def _marcum_q1_series(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Poisson-mixture series Q1(a,b) = sum_n P(n; a^2/2) * Q(n+1, b^2/2).

    P(n; x) is the Poisson pmf and Q(n+1, y) the regularized upper incomplete
    gamma.  Terms are summed over a window of the Poisson distribution wide
    enough that the neglected mass (hence the truncation error, since each
    gamma factor is at most 1) is below 1e-15.  The pmf is evaluated in log
    space so large noncentralities neither overflow nor underflow the window.
    """
    x = 0.5 * a * a
    y = 0.5 * b * b
    xmin = float(x.min())
    xmax = float(x.max())
    n_lo = max(0, int(math.floor(xmin - 12.0 * math.sqrt(xmin) - 25.0)))
    n_hi = int(math.ceil(xmax + 12.0 * math.sqrt(xmax) + 25.0))
    n = np.arange(n_lo, n_hi + 1, dtype=float)
    lgam = sc.gammaln(n + 1.0)

    out = np.empty_like(x)
    # Chunk the elements so the (elements x terms) matrix stays modest.
    chunk = max(1, int(4.0e6 / len(n)))
    for start in range(0, x.size, chunk):
        sl = slice(start, start + chunk)
        xs = x[sl, None]
        ys = y[sl, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_pmf = sc.xlogy(n, xs) - xs - lgam
        pmf = np.exp(log_pmf)
        out[sl] = np.sum(pmf * sc.gammaincc(n + 1.0, ys), axis=1)
    return np.clip(out, 0.0, 1.0)


def _marcum_q1_large(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Large a*b evaluation via the Gaussian-tail form of the Rician integral.

    For b >= a uses sqrt(b/a) * Phi_bar(b - a); for b < a the complementary
    identity Q1(a,b) + Q1(b,a) = 1 + exp(-(a^2+b^2)/2) I0(ab) is applied so
    the same tail form is always used with ordered arguments.
    """
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    tail = np.sqrt(hi / lo) * std_normal_sf(hi - lo)
    ridge = sc.i0e(a * b) * np.exp(-0.5 * (a - b) ** 2)
    out = np.where(b >= a, tail, 1.0 + ridge - tail)
    return np.clip(out, 0.0, 1.0)


def marcum_q1(a, b):
    """First-order Marcum-Q function Q1(a, b), vectorized.

    Q1(a,b) = int_b^inf x exp(-(x^2+a^2)/2) I0(a x) dx.  Evaluated through
    the absolutely convergent Poisson-mixture series; switches to a
    large-argument asymptotic evaluation when a*b exceeds 1e6.
    """
    a_arr, b_arr = np.broadcast_arrays(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    )
    if not (np.all(np.isfinite(a_arr)) and np.all(np.isfinite(b_arr))):
        raise ValueError("marcum_q1 requires finite arguments")
    if np.any(a_arr < 0) or np.any(b_arr < 0):
        raise ValueError("marcum_q1 requires nonnegative arguments")
    scalar = a_arr.ndim == 0
    af = np.atleast_1d(a_arr).ravel().astype(float)
    bf = np.atleast_1d(b_arr).ravel().astype(float)

    out = np.empty_like(af)
    big = af * bf > _SERIES_AB_LIMIT
    if np.any(~big):
        out[~big] = _marcum_q1_series(af[~big], bf[~big])
    if np.any(big):
        out[big] = _marcum_q1_large(af[big], bf[big])
    if scalar:
        return float(out[0])
    return out.reshape(a_arr.shape)


def marcum_q1_asymptotic(a, b):
    """Large-argument approximation of Q1(a, b).

    The Gaussian-prefactor form (2 pi a b)^{-1/2} exp(-(b-a)^2/2).  Only
    meaningful as a cross-check for large arguments; raises for a = 0
    (prefactor diverges).
    """
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if np.any(a_arr <= 0):
        raise ValueError("marcum_q1_asymptotic requires a > 0")
    if np.any(b_arr < 0):
        raise ValueError("marcum_q1_asymptotic requires b >= 0")
    out = np.exp(-0.5 * (b_arr - a_arr) ** 2) / np.sqrt(
        2.0 * math.pi * a_arr * b_arr
    )
    return float(out) if np.ndim(out) == 0 else out


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
    lower = np.where(
        a_arr < b_arr,
        e_plus,
        np.where(b_arr < a_arr, 1.0 - 0.5 * (e_minus - e_plus), e_plus),
    )
    upper = np.where(a_arr < b_arr, e_minus, 1.0)
    if a_arr.ndim == 0:
        return float(lower), float(upper)
    return lower, upper


# 15-point Gauss-Kronrod nodes/weights on [-1, 1], with the embedded
# 7-point Gauss weights used for the error estimate.
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_GK_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_G7_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


def _gk15(f: Callable, lo: float, hi: float):
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    fx = np.asarray(f(mid + half * _GK_NODES), dtype=float)
    ik = half * float(np.dot(_GK_WEIGHTS, fx))
    ig = half * float(np.dot(_G7_WEIGHTS, fx[1::2]))
    resabs = half * float(np.dot(_GK_WEIGHTS, np.abs(fx)))
    # |K15 - G7| is a conservative bound on the K15 error; floor at roundoff.
    err = max(abs(ik - ig), 50.0 * np.finfo(float).eps * resabs)
    return ik, err


def integrate_semi_infinite(f, lower, spec: QuadratureSpec | None = None):
    """Integrate ``f`` over [lower, inf) for sub-Gaussian-tailed integrands.

    ``f`` must accept numpy arrays.  The domain is extended in doubling
    segments until a segment contributes less than ``tail_cutoff_tol`` in
    magnitude (twice in a row), then the finite interval is refined by
    adaptive bisection with the 15-point Kronrod rule per panel.

    Raises :class:`ConvergenceError` (carrying the best estimate) if the
    subdivision budget is exhausted before the tolerances are met.
    """
    if spec is None:
        spec = QuadratureSpec()
    lower = float(lower)

    # Grow the upper cutoff until the tail is negligible.
    panels = []  # (neg_err, lo, hi, value, err)
    seg_lo = lower
    seg_len = 4.0
    quiet = 0
    while quiet < 2:
        seg_hi = seg_lo + seg_len
        val, err = _gk15(f, seg_lo, seg_hi)
        panels.append((seg_lo, seg_hi, val, err))
        if abs(val) + err < spec.tail_cutoff_tol:
            quiet += 1
        else:
            quiet = 0
        seg_lo = seg_hi
        seg_len *= 2.0
        if seg_hi > lower + 1e6:
            raise ConvergenceError(
                "tail of integrand does not decay below tail_cutoff_tol",
                sum(p[2] for p in panels),
                sum(p[3] for p in panels),
            )

    heap = [(-err, lo, hi, val, err) for (lo, hi, val, err) in panels]
    heapq.heapify(heap)
    total = sum(p[2] for p in panels)
    total_err = sum(p[3] for p in panels)
    n_subdiv = 0
    while total_err > max(spec.abs_tol, spec.rel_tol * abs(total)):
        if n_subdiv >= spec.max_subdivisions:
            raise ConvergenceError(
                "subdivision budget exhausted", total, total_err
            )
        _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        total += v1 + v2 - val
        total_err += e1 + e2 - err
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
        n_subdiv += 1
    return total
