"""Monte-Carlo simulator of the threshold-feedback scheduling protocol.

Per fading block each of K users feeds back whether its estimation-time power
g = |h|^2 is at least alpha; the base station picks uniformly among the N
"1" users (among all K when N = 0), assigns the mode-dependent power, and
records the rate or outage against the transmission-time power g_tau.

Per block it draws only what the protocol reads: K uniforms U, one per user,
one uniform for the pick and, unless |rho| = 1, two normals for the chosen
user's g_tau.  Each gain is its own inverse-CDF draw g = -log(1 - U): 1 - U
lies in (0, 1] and is exact on the generator's 2^-53 grid, so g <= 53 log 2
= 36.74, which cuts off a tail of mass near 1e-16 (every block is silent at
alpha past 36.74).  A user's bit is read from U by an exact cut (``_cut``),
the least grid point whose computed gain is >= alpha, and -log is taken only
for the scheduled user of each block.  As the oracle for every closed form
it stays a literal simulation: N is counted from the K per-user draws, never
drawn as Binomial(K, e^-alpha) with g = alpha + Exp(1), which would repeat
the closed forms' own derivation.

Blocks are i.i.d.; trials are partitioned into fixed-size chunks, each driven
by a generator seeded from (seed, chunk index), so results are bit-identical
for a given config regardless of execution order.  Within a chunk, panels of
whole blocks, about _PANEL uniforms each, are drawn, resolved and summed one
at a time, so a chunk holds one panel whatever K or alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CorrelationParams, check_count, check_nonnegative, check_positive
from .outage import PowerMode

__all__ = [
    "SimConfig",
    "McEstimate",
    "simulate_ergodic_rate",
    "simulate_outage",
    "simulate_avg_power",
]

_CHUNK = 1 << 16
_PANEL = 1 << 16  # user uniforms per panel of _draw_blocks: with _CHUNK, it defines the stream
_GRID = 2.0**-53  # spacing of Generator.random's doubles


@dataclass(frozen=True)
class SimConfig:
    num_users: int
    power: float
    corr: CorrelationParams
    threshold: float
    n_blocks: int
    seed: int
    rate_nats: float | None = None  # outage mode only
    mode: PowerMode | None = None  # outage / power accounting

    def __post_init__(self):
        check_count("num_users", self.num_users)
        check_count("n_blocks", self.n_blocks)
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError("seed must be an integer >= 0")
        if self.rate_nats is not None:
            check_positive("rate_nats", self.rate_nats)
        check_nonnegative("threshold", self.threshold)
        check_positive("power", self.power)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n: int


def _chunk_rng(seed: int, chunk_idx: int) -> np.random.Generator:
    return np.random.default_rng([seed, chunk_idx])


def _cut(alpha: float) -> float:
    """The least U on the 2^-53 grid with -log(1 - U) >= alpha as computed, or 1.0 if none.

    Starts from 1 - e^-alpha on the grid and steps to the first grid point
    whose computed gain reaches alpha, so that U >= cut is the bit the gain
    itself gives at every point: -log(1 - U) rises with U.
    """
    j = math.floor(-math.expm1(-alpha) / _GRID)

    def reaches(i: int) -> bool:
        return -np.log(np.array([1.0 - i * _GRID]))[0] >= alpha

    with np.errstate(divide="ignore"):  # at j = 2^53 the gain is -log 0 = inf
        while j > 0 and reaches(j - 1):
            j -= 1
        while not reaches(j):
            j += 1
    return j * _GRID


def _draw_blocks(rng, rho: float, n: int, k: int, alpha: float):
    """Per panel of blocks, the scheduled user's powers (g, g_tau) and N, the count of "1" bits.

    A panel is max(1, _PANEL // K) whole blocks (the last of a chunk may be
    shorter).  It draws one pick uniform per block, then K uniforms U per
    block into one reused buffer, then, unless |rho| = 1, two normals per
    block, in that order, and is yielded before the next panel is drawn.
    A user's gain is g = -log(1 - U) and its bit is U >= _cut(alpha).  The
    pick is the floor(u M)-th of the M candidates: the N "1" users, or all
    K when N = 0.  The phase of h is independent of |h| and w is circular,
    so |h_tau|^2 = |rho h + w'|^2, with w' ~ CN(0, 1 - rho^2), has the law
    of g_tau = (|rho| sqrt(g) + s w1)^2 + (s w2)^2 with w1, w2 ~ N(0, 1)
    and s = sqrt((1 - rho^2)/2); at |rho| = 1 that is g itself.
    """
    cut = _cut(alpha)
    rows = max(1, _PANEL // k)
    buf = np.empty((min(rows, n), k))
    s = math.sqrt(0.5 * (1.0 - rho * rho))
    for start in range(0, n, rows):
        pick = rng.random(min(rows, n - start))
        u = rng.random(out=buf[:pick.size])
        ones = np.flatnonzero(u >= cut)  # the "1" users, in block order
        n_above = np.bincount(ones // k, minlength=pick.size)
        tx = n_above > 0
        m = np.where(tx, n_above, k)
        t = np.minimum((pick * m).astype(np.int64), m - 1)
        # A block with N > 0 takes its t-th "1", a silent block its t-th user: the clipped
        # index of a silent block is discarded, and ones is empty only if all are silent.
        first = np.cumsum(n_above) - n_above
        nth_one = ones.take(first + t, mode="clip") if ones.size else t
        g = -np.log(1.0 - np.take(u, np.where(tx, nth_one, np.arange(0, u.size, k) + t)))
        if abs(rho) == 1.0:  # s = 0: g_tau is g
            yield g, g, n_above
            continue
        w = rng.standard_normal((2, pick.size))
        w *= s  # in place: (a, b) = (|rho| sqrt(g) + s w1, s w2), then squared
        w[0] += abs(rho) * np.sqrt(g)
        w *= w
        yield g, w[0] + w[1], n_above


def _aggregate(cfg: SimConfig, per_chunk) -> list[McEstimate]:
    """Stream chunks through ``per_chunk`` and sum the rows it yields per panel to McEstimates."""
    total = total_sq = 0.0
    for chunk_idx, start in enumerate(range(0, cfg.n_blocks, _CHUNK)):
        rng = _chunk_rng(cfg.seed, chunk_idx)
        for rows in per_chunk(rng, min(_CHUNK, cfg.n_blocks - start)):
            x = np.array(rows, dtype=float, ndmin=2)
            total += x.sum(axis=1)
            total_sq += (x * x).sum(axis=1)
    mean = total / cfg.n_blocks
    stderr = np.sqrt(np.maximum(total_sq / cfg.n_blocks - mean * mean, 0.0) / cfg.n_blocks)
    return [McEstimate(float(m), float(se), cfg.n_blocks) for m, se in zip(mean, stderr)]


def simulate_ergodic_rate(cfg: SimConfig) -> McEstimate:
    """Mean per-block rate (nats) under the ergodic convention P1 = P, P0 = 0."""

    def per_chunk(rng, n):
        for _, g_tau, n_above in _draw_blocks(rng, cfg.corr.rho, n, cfg.num_users, cfg.threshold):
            yield np.where(n_above > 0, np.log1p(g_tau * cfg.power), 0.0)  # 0: silent block

    return _aggregate(cfg, per_chunk)[0]


def _outage_and_power(cfg: SimConfig) -> tuple[McEstimate | None, McEstimate]:
    """Outage frequency (None without ``rate_nats``) and mean transmit power, in one pass."""
    mode = cfg.mode or PowerMode.short_term()
    p1, p0 = mode.resolve(cfg.power, cfg.threshold, cfg.num_users)
    if cfg.rate_nats is not None:
        # A block with power P is in outage where log(1 + g_tau P) < R, that is g_tau < (e^R - 1)/P.
        try:
            c = math.expm1(cfg.rate_nats)
        except OverflowError:  # e^R - 1 past the float range: every block counts as an outage
            c = math.inf
        x1, x0 = (c / p if p > 0.0 else math.inf for p in (p1, p0))

    def per_chunk(rng, n):
        for _, g_tau, n_above in _draw_blocks(rng, cfg.corr.rho, n, cfg.num_users, cfg.threshold):
            tx = n_above > 0
            yield [tx] if cfg.rate_nats is None else [tx, g_tau < np.where(tx, x1, x0)]

    # Each block sends P1 or P0: the mean power is P0 + (P1 - P0) f, f the fraction with N > 0,
    # stepped from the nearer end so that P0 >> P1 at f near 1 does not cancel (1 - f is exact).
    frac, *outage = _aggregate(cfg, per_chunk)
    f = frac.mean
    mean = p0 + (p1 - p0) * f if f <= 0.5 else p1 - (p1 - p0) * (1.0 - f)
    power = McEstimate(mean, abs(p1 - p0) * frac.stderr, frac.n)
    return (outage[0] if outage else None), power


def simulate_outage(cfg: SimConfig) -> McEstimate:
    """Empirical outage frequency, with _aggregate's sample stderr (binomial for a 0/1 row)."""
    if cfg.rate_nats is None:
        raise ValueError("outage simulation needs rate_nats > 0")
    return _outage_and_power(cfg)[0]


def simulate_avg_power(cfg: SimConfig) -> McEstimate:
    """Empirical mean transmit power over blocks."""
    return _outage_and_power(cfg)[1]
