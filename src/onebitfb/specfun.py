"""Special functions and quadrature used by every closed form in the package.

Provides the first-order Marcum-Q function (through scipy's noncentral
chi-square CDF), its large-argument approximation and exponential bounds,
and an adaptive semi-infinite integrator built on a 15-point Gauss-Kronrod
panel rule.

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
    "marcum_q1",
    "marcum_q1_asymptotic",
    "marcum_q1_bounds",
    "integrate_semi_infinite",
]

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


def marcum_q1(a, b):
    """First-order Marcum-Q function Q1(a, b), vectorized.

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
    gives NaN there once a^2 or b^2 passes about 1e19.  Nearer the ridge it
    stops converging (NaN) once max(a, b) passes about 2e5; there Q1 is
    ndtr(a - b) + exp(-(a-b)^2/2) i0e(ab) / 2, which keeps the complement
    identity exactly, is exact at a = b and is within 0.034/(ab) absolute
    of a 40-digit quadrature of the defining integral: under 1e-12 wherever
    it is used.
    """
    # Ufunc broadcasting and array .all()/.any(): np.broadcast_arrays, np.all
    # and np.any cost about 5, 4 and 4 us a call.
    a_arr, b_arr = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not (np.isfinite(a_arr).all() and np.isfinite(b_arr).all()):
        raise ValueError("marcum_q1 requires finite arguments")
    if (a_arr < 0).any() or (b_arr < 0).any():
        raise ValueError("marcum_q1 requires nonnegative arguments")
    # Both branches need chndtr(min^2, 2, max^2): one call per element.
    lo, hi = np.minimum(a_arr, b_arr), np.maximum(a_arr, b_arr)
    tail = sc.chndtr(lo * lo, 2.0, hi * hi)
    below = b_arr < a_arr
    out = np.where(below, 1.0 - tail,
                   np.exp(-0.5 * (a_arr - b_arr) ** 2) * sc.i0e(a_arr * b_arr) + tail)
    out = np.where(np.abs(a_arr - b_arr) > 40.0, below.astype(float), out)
    ridge = np.isnan(out)
    if ridge.any():
        d = a_arr - b_arr
        out = np.where(ridge, sc.ndtr(d) + 0.5 * np.exp(-0.5 * d * d) * sc.i0e(a_arr * b_arr), out)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


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
    lower = np.where(b_arr < a_arr, 1.0 - 0.5 * (e_minus - e_plus), e_plus)
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
# Roundoff floor of a panel's error bound, per unit of its K15 sum of |f|.
_ROUNDOFF_FLOOR = 50.0 * np.finfo(float).eps


def _gk15(f: Callable, *panels):
    """K15 value and error bound of each (lo, hi) panel, from one call of ``f`` on all their nodes."""
    halves = [0.5 * (hi - lo) for lo, hi in panels]
    fx = np.asarray(f(np.concatenate([0.5 * (hi + lo) + half * _GK_NODES
                                      for (lo, hi), half in zip(panels, halves)])), dtype=float)
    out = []
    # One 15-element dot per sum and panel: a 2-D product may add in another order.
    for half, row in zip(halves, fx.reshape(len(panels), 15)):
        ik = half * float(np.dot(_GK_WEIGHTS, row))
        ig = half * float(np.dot(_G7_WEIGHTS, row[1::2]))
        resabs = half * float(np.dot(_GK_WEIGHTS, np.abs(row)))
        # |K15 - G7| is a conservative bound on the K15 error; floor at roundoff.
        out.append((ik, max(abs(ik - ig), _ROUNDOFF_FLOOR * resabs)))
    return out


def integrate_semi_infinite(f, lower, spec: QuadratureSpec | None = None):
    """Integrate ``f`` over [lower, inf) for sub-Gaussian-tailed integrands.

    ``f`` must accept numpy arrays and be elementwise: the nodes of several
    panels go to it in one array.  The domain is extended in doubling
    segments until a segment contributes less than ``tail_cutoff_tol`` in
    magnitude (twice in a row), then the finite interval is refined by
    adaptive bisection with the 15-point Kronrod rule per panel.

    Raises :class:`ConvergenceError` (carrying the best estimate) if the
    subdivision budget is exhausted before the tolerances are met.
    """
    spec = spec or QuadratureSpec()
    lower = float(lower)

    # Grow the upper cutoff until the tail is negligible.
    panels = []
    seg_lo = lower
    seg_len = 4.0
    quiet = 0
    while quiet < 2:
        seg_hi = seg_lo + seg_len
        [(val, err)] = _gk15(f, (seg_lo, seg_hi))
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
        (v1, e1), (v2, e2) = _gk15(f, (lo, mid), (mid, hi))
        total += v1 + v2 - val
        total_err += e1 + e2 - err
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
        n_subdiv += 1
    return total
