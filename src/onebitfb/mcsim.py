"""Monte-Carlo simulator of the threshold-feedback scheduling protocol.

Per fading block: each of K users compares its estimation-time channel power
with the threshold and feeds back one bit; the base station picks uniformly
among the "1" users (or among all users when none qualify), assigns the
mode-dependent power, and the achieved log-rate / outage flag is recorded
against the transmission-time envelope.

This simulator is the independent oracle for every closed form in the
package.  Blocks are i.i.d.; trials are partitioned into fixed-size chunks,
each driven by a generator seeded from (seed, chunk index), so results are
bit-identical for a given config regardless of execution order.
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
    "reference_full_csi_rate",
    "reference_no_csi_rate",
]

_CHUNK = 1 << 16


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

    def within(self, value: float, n_sigma: float = 3.0) -> bool:
        return abs(self.mean - value) <= n_sigma * max(self.stderr, 1e-300)


def _chunk_rng(seed: int, chunk_idx: int) -> np.random.Generator:
    return np.random.default_rng([seed, chunk_idx])


def _draw_block_arrays(rng, rho: float, n: int, k: int):
    """Envelope pairs (n, k) plus the uniform keys used for random selection."""
    g = rng.standard_normal((4, n, k)) * math.sqrt(0.5)
    h = g[0] + 1j * g[1]
    h_tau = rho * h + math.sqrt(max(0.0, 1.0 - rho * rho)) * (g[2] + 1j * g[3])
    u = rng.random((n, k))
    return np.abs(h), np.abs(h_tau), u

def _select(v: np.ndarray, u: np.ndarray, alpha: float):
    """Uniform random pick among qualified users (or among all when none).

    Returns (column index per block, N per block).  Keys from ``u`` make the
    choice uniform: the argmax of u restricted to qualified users.
    """
    qualified = v * v >= alpha
    n_above = qualified.sum(axis=1)
    any_above = n_above > 0
    keys = np.where(qualified, u, -1.0)
    pick_qualified = np.argmax(keys, axis=1)
    pick_any = np.argmax(u, axis=1)
    return np.where(any_above, pick_qualified, pick_any), n_above


def _aggregate(cfg: SimConfig, per_block):
    """Stream chunks through ``per_block`` and reduce to an McEstimate."""
    total = 0.0
    total_sq = 0.0
    n_done = 0
    chunk_idx = 0
    while n_done < cfg.n_blocks:
        n = min(_CHUNK, cfg.n_blocks - n_done)
        rng = _chunk_rng(cfg.seed, chunk_idx)
        x = per_block(rng, n)
        total += float(x.sum())
        total_sq += float((x * x).sum())
        n_done += n
        chunk_idx += 1
    mean = total / cfg.n_blocks
    var = max(total_sq / cfg.n_blocks - mean * mean, 0.0)
    stderr = math.sqrt(var / cfg.n_blocks)
    return McEstimate(mean=mean, stderr=stderr, n=cfg.n_blocks)


def simulate_ergodic_rate(cfg: SimConfig) -> McEstimate:
    """Mean per-block rate (nats) under the ergodic convention P1 = P, P0 = 0."""

    def per_block(rng, n):
        v, v_tau, u = _draw_block_arrays(rng, cfg.corr.rho, n, cfg.num_users)
        pick, n_above = _select(v, u, cfg.threshold)
        rows = np.arange(n)
        rate = np.log1p(v_tau[rows, pick] ** 2 * cfg.power)
        rate[n_above == 0] = 0.0  # silent block
        return rate

    return _aggregate(cfg, per_block)


def _resolve_powers(cfg: SimConfig) -> tuple[float, float]:
    mode = cfg.mode or PowerMode.short_term()
    return mode.resolve(cfg.power, cfg.threshold, cfg.num_users)


def simulate_outage(cfg: SimConfig) -> McEstimate:
    """Empirical outage frequency, with binomial standard error."""
    if cfg.rate_nats is None or cfg.rate_nats <= 0:
        raise ValueError("outage simulation needs rate_nats > 0")
    p1, p0 = _resolve_powers(cfg)

    def per_block(rng, n):
        v, v_tau, u = _draw_block_arrays(rng, cfg.corr.rho, n, cfg.num_users)
        pick, n_above = _select(v, u, cfg.threshold)
        rows = np.arange(n)
        tx = np.where(n_above > 0, p1, p0)
        with np.errstate(over="ignore"):  # a gain times P past 1.8e308 is no outage
            achieved = np.log1p(v_tau[rows, pick] ** 2 * tx)
        return (achieved < cfg.rate_nats).astype(float)

    est = _aggregate(cfg, per_block)
    p_hat = est.mean
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / cfg.n_blocks)
    return McEstimate(mean=p_hat, stderr=stderr, n=cfg.n_blocks)


def simulate_avg_power(cfg: SimConfig) -> McEstimate:
    """Empirical mean transmit power over blocks."""
    p1, p0 = _resolve_powers(cfg)
    # Sum the powers times 2^-e, which scales each rounding exactly, without overflow.
    e = math.frexp(max(p1, p0, 1.0))[1]
    q1, q0 = math.ldexp(p1, -e), math.ldexp(p0, -e)

    def per_block(rng, n):
        v, _, u = _draw_block_arrays(rng, cfg.corr.rho, n, cfg.num_users)
        _, n_above = _select(v, u, cfg.threshold)
        return np.where(n_above > 0, q1, q0).astype(float)

    est = _aggregate(cfg, per_block)
    return McEstimate(mean=math.ldexp(est.mean, e), stderr=math.ldexp(est.stderr, e), n=est.n)


def reference_full_csi_rate(num_users: int, power: float, n_blocks: int, seed: int) -> McEstimate:
    """MC mean of log(1 + P max_k v_k^2): the non-delayed full-CSI benchmark."""
    cfg = SimConfig(num_users, power, CorrelationParams(1.0), 0.0, n_blocks, seed)

    def per_block(rng, n):
        gains = rng.exponential(size=(n, cfg.num_users))
        return np.log1p(cfg.power * gains.max(axis=1))

    return _aggregate(cfg, per_block)


def reference_no_csi_rate(power: float, n_blocks: int, seed: int) -> McEstimate:
    """MC mean of log(1 + P v^2) for a single unconditioned user."""
    cfg = SimConfig(1, power, CorrelationParams(0.0), 0.0, n_blocks, seed)

    def per_block(rng, n):
        return np.log1p(cfg.power * rng.exponential(size=n))

    return _aggregate(cfg, per_block)
