"""Monte-Carlo simulator of the threshold-feedback scheduling protocol.

Per fading block each of K users feeds back whether its estimation-time power
v^2 = |h|^2 is at least alpha; the base station picks uniformly among the N
"1" users (among all K when N = 0), assigns the mode-dependent power, and
records the rate or outage against the transmission-time envelope v_tau.

Per block it draws only what the protocol reads: K exponential gains, one
uniform for the pick and, unless |rho| = 1, two normals for the chosen user's
v_tau.  As the oracle for every closed form it stays a literal simulation: N
is counted from the K gains, never drawn as Binomial(K, e^-alpha) with
v^2 = alpha + Exp(1), which would repeat the closed forms' own derivation.

Blocks are i.i.d.; trials are partitioned into fixed-size chunks, each driven
by a generator seeded from (seed, chunk index), so results are bit-identical
for a given config regardless of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CorrelationParams
from .outage import PowerMode

__all__ = [
    "SimConfig",
    "McEstimate",
    "simulate_ergodic_rate",
    "simulate_outage",
    "simulate_avg_power",
]

_CHUNK = 1 << 16
_PANEL = 1 << 16  # exponentials per panel of _draw_blocks


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
        if self.num_users < 1:
            raise ValueError("num_users must be >= 1")
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.rate_nats is not None and not (math.isfinite(self.rate_nats) and self.rate_nats > 0):
            raise ValueError("rate_nats must be positive and finite")
        if not (math.isfinite(self.threshold) and self.threshold >= 0):
            raise ValueError("threshold must be nonnegative and finite")
        if not (math.isfinite(self.power) and self.power > 0):
            raise ValueError("power must be positive and finite")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n: int


def _chunk_rng(seed: int, chunk_idx: int) -> np.random.Generator:
    return np.random.default_rng([seed, chunk_idx])


def _draw_blocks(rng, rho: float, n: int, k: int, alpha: float):
    """The scheduled user's envelopes (v, v_tau) and N, the count of "1" bits, per block.

    Draws K gains |h|^2 ~ Exp(1) per block, then one uniform per block, then,
    unless |rho| = 1, two normals per block, in that order.  The pick is the
    floor(u M)-th of the M candidates: the N users with v^2 >= alpha, or all
    K when N = 0.  The phase of h is independent of |h| and w is circular,
    so |h_tau| = |rho h + s w| has the law of |(|rho| v + s w1) + j s w2|,
    with w1, w2 ~ N(0, 1/2); at |rho| = 1 that is v itself.

    The gains are drawn in panels of _PANEL (whole blocks, at least one) into
    one reused buffer.  The generator fills sequentially, so the stream is
    that of one (n, K) draw.  Of each panel only what the pick reads is kept:
    the "1" users' gains, and all K gains of each block with N = 0.
    """
    rows = max(1, _PANEL // k)
    buf = np.empty((min(rows, n), k))
    n_above = np.empty(n, dtype=np.int64)
    ones, silent = [], []  # per panel: the "1" users' gains, and the rows of its N = 0 blocks
    for start in range(0, n, rows):
        g = rng.standard_exponential(out=buf[:n - start])
        idx = np.flatnonzero(g >= alpha)
        counts = np.bincount(idx // k, minlength=len(g))
        n_above[start:start + len(g)] = counts
        ones.append(np.take(g, idx))
        silent.append(g[counts == 0])
    tx = n_above > 0
    m = np.where(tx, n_above, k)
    target = np.minimum((rng.random(n) * m).astype(np.int64), m - 1)
    # The candidates: every "1" gain in block order, then each silent block's K gains.
    cum = np.cumsum(n_above)
    first = cum - n_above
    silent_blocks = np.flatnonzero(~tx)
    first[silent_blocks] = cum[-1] + k * np.arange(silent_blocks.size)
    v = np.sqrt(np.concatenate(ones + silent, axis=None)[first + target])
    if abs(rho) == 1.0:  # s = 0: hypot(v + 0 w1, 0 w2) is v, bit for bit
        return v, v, n_above
    s = math.sqrt(1.0 - rho * rho)
    w = rng.standard_normal((2, n)) * math.sqrt(0.5)
    return v, np.hypot(abs(rho) * v + s * w[0], s * w[1]), n_above


def _aggregate(cfg: SimConfig, per_block) -> list[McEstimate]:
    """Stream chunks through ``per_block`` and reduce each row it returns to an McEstimate."""
    total = total_sq = 0.0
    n_done = 0
    chunk_idx = 0
    while n_done < cfg.n_blocks:
        n = min(_CHUNK, cfg.n_blocks - n_done)
        rng = _chunk_rng(cfg.seed, chunk_idx)
        x = np.array(per_block(rng, n), dtype=float, ndmin=2)
        total += x.sum(axis=1)
        total_sq += (x * x).sum(axis=1)
        n_done += n
        chunk_idx += 1
    mean = total / cfg.n_blocks
    stderr = np.sqrt(np.maximum(total_sq / cfg.n_blocks - mean * mean, 0.0) / cfg.n_blocks)
    return [McEstimate(float(m), float(se), cfg.n_blocks) for m, se in zip(mean, stderr)]


def simulate_ergodic_rate(cfg: SimConfig) -> McEstimate:
    """Mean per-block rate (nats) under the ergodic convention P1 = P, P0 = 0."""

    def per_block(rng, n):
        _, v_tau, n_above = _draw_blocks(rng, cfg.corr.rho, n, cfg.num_users, cfg.threshold)
        return np.where(n_above > 0, np.log1p(v_tau**2 * cfg.power), 0.0)  # 0: silent block

    return _aggregate(cfg, per_block)[0]


def _outage_and_power(cfg: SimConfig) -> tuple[McEstimate | None, McEstimate]:
    """Outage frequency (None without ``rate_nats``) and mean transmit power, in one pass."""
    mode = cfg.mode or PowerMode.short_term()
    p1, p0 = mode.resolve(cfg.power, cfg.threshold, cfg.num_users)
    # Sum the powers times 2^-e, which scales each rounding exactly, without overflow.
    e = math.frexp(max(p1, p0, 1.0))[1]
    q1, q0 = math.ldexp(p1, -e), math.ldexp(p0, -e)

    def per_block(rng, n):
        _, v_tau, n_above = _draw_blocks(rng, cfg.corr.rho, n, cfg.num_users, cfg.threshold)
        tx = n_above > 0
        rows = [np.where(tx, q1, q0)]
        if cfg.rate_nats is not None:
            with np.errstate(over="ignore"):  # a gain times P past 1.8e308 is no outage
                achieved = np.log1p(v_tau**2 * np.where(tx, p1, p0))
            rows.append(achieved < cfg.rate_nats)
        return rows

    power, *outage = _aggregate(cfg, per_block)
    power = McEstimate(math.ldexp(power.mean, e), math.ldexp(power.stderr, e), power.n)
    if not outage:
        return None, power
    p_hat = outage[0].mean
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / cfg.n_blocks)  # binomial
    return McEstimate(p_hat, stderr, cfg.n_blocks), power


def simulate_outage(cfg: SimConfig) -> McEstimate:
    """Empirical outage frequency, with binomial standard error."""
    if cfg.rate_nats is None:
        raise ValueError("outage simulation needs rate_nats > 0")
    return _outage_and_power(cfg)[0]


def simulate_avg_power(cfg: SimConfig) -> McEstimate:
    """Empirical mean transmit power over blocks."""
    return _outage_and_power(cfg)[1]
