import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from onebitfb.channel import CorrelationParams
from onebitfb.ergodic import ErgodicConfig, full_csi_rate, no_csi_rate, sum_rate
from onebitfb.mcsim import (
    _CHUNK,
    _GRID,
    _PANEL,
    SimConfig,
    _aggregate,
    _chunk_rng,
    _cut,
    _draw_blocks,
    _outage_and_power,
    simulate_avg_power,
    simulate_ergodic_rate,
    simulate_outage,
)
from onebitfb.outage import (
    OutageConfig,
    PowerMode,
    default_threshold,
    outage_instant,
    outage_outdated,
)

N = 200_000


def within(est, value: float, n_sigma: float) -> bool:
    """Whether an estimate lies within ``n_sigma`` standard errors of ``value``."""
    return abs(est.mean - value) <= n_sigma * max(est.stderr, 1e-300)


def _cfg(**kw):
    base = dict(
        num_users=4,
        power=10.0,
        corr=CorrelationParams(0.9),
        threshold=1.0,
        n_blocks=N,
        seed=42,
    )
    base.update(kw)
    return SimConfig(**base)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = simulate_ergodic_rate(_cfg())
        b = simulate_ergodic_rate(_cfg())
        assert a == b

    def test_seed_changes_stream(self):
        a = simulate_ergodic_rate(_cfg())
        b = simulate_ergodic_rate(_cfg(seed=43))
        assert a.mean != b.mean

    def test_prefix_property_across_chunks(self):
        # the estimator consumes one stream per chunk, seeded by (seed, chunk index)
        cfg = _cfg(n_blocks=70_000)  # spans two chunks
        rates = []
        for idx, n in enumerate((_CHUNK, cfg.n_blocks - _CHUNK)):
            rng = _chunk_rng(cfg.seed, idx)
            _, g_tau, n_above = _draw(rng, cfg.corr.rho, n, cfg.num_users, cfg.threshold)
            rate = np.log1p(g_tau * cfg.power)
            rates.append(np.where(n_above > 0, rate, 0.0))
        mean = float(np.concatenate(rates).mean())
        assert mean == pytest.approx(simulate_ergodic_rate(cfg).mean, rel=1e-12)


def _draw(rng, rho, n, k, alpha):
    """_draw_blocks' panels joined into one (g, g_tau, N) over the n blocks."""
    return [np.concatenate(x) for x in zip(*_draw_blocks(rng, rho, n, k, alpha))]


def _one_shot(rng, rho, n, k, alpha):
    """One panel of n blocks drawn as whole arrays: n picks, then n x K users, then 2n normals.

    Returns (g, g_tau, N) and every user's gain.
    """
    pick = rng.random(n)
    gains = -np.log(1.0 - rng.random((n, k)))
    qualified = gains >= alpha
    n_above = qualified.sum(axis=1)
    m = np.where(n_above > 0, n_above, k)
    target = np.minimum((pick * m).astype(np.int64), m - 1)
    candidates = np.flatnonzero(qualified | (n_above == 0)[:, None])
    g = gains.ravel()[candidates[np.cumsum(m) - m + target]]
    if abs(rho) == 1.0:
        return (g, g, n_above), gains
    s = math.sqrt(0.5 * (1.0 - rho * rho))
    w = rng.standard_normal((2, n))
    return (g, (abs(rho) * np.sqrt(g) + s * w[0]) ** 2 + (s * w[1]) ** 2, n_above), gains


def _one_shot_panels(rng, rho, n, k, alpha):
    """_one_shot over the panels of max(1, _PANEL // K) blocks that make up n."""
    rows = max(1, _PANEL // k)
    return [_one_shot(rng, rho, min(rows, n - start), k, alpha) for start in range(0, n, rows)]


def _all_gains(rng, rho, n, k):
    """Every user's gain over n blocks, read off the stream the sampler consumes."""
    return np.concatenate([gains for _, gains in _one_shot_panels(rng, rho, n, k, 0.0)])


class TestPanels:
    # n is no multiple of a panel's rows; K = 200000 is one block per panel.
    @pytest.mark.parametrize("k,n", [(1, 70_001), (4, 50_000), (64, 3_000), (1000, 777),
                                     (200_000, 3)])
    @pytest.mark.parametrize("rho", [0.5, 1.0, -1.0])
    def test_bit_identical_to_one_shot(self, k, n, rho):
        # A chunk is its panels, each drawn and resolved in one shot.  alpha = log K + 1
        # leaves most blocks silent, alpha = 50 all of them.
        for alpha in (0.0, 1.0, math.log(k) + 1.0, 50.0):
            got = list(_draw_blocks(np.random.default_rng([9, k]), rho, n, k, alpha))
            want = _one_shot_panels(np.random.default_rng([9, k]), rho, n, k, alpha)
            assert len(got) == len(want)
            for panel, (reference, _) in zip(got, want):
                for x, y in zip(panel, reference, strict=True):
                    assert x.dtype == y.dtype
                    np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("alpha", [0.0, 1e-300, 1.0, 3.5, 36.0, 36.7, 37.0, 50.0])
    def test_cut_is_the_gains_own_bit(self, alpha):
        # Over 2e4 grid points of U around the cut, U >= cut is the bit of the gain
        # -log(1 - U) itself; past 53 log 2 = 36.74 no grid point qualifies.
        cut = _cut(alpha)
        j = round(cut / _GRID)
        u = np.arange(max(0, j - 10**4), min(2**53, j + 10**4 + 1)) * _GRID
        np.testing.assert_array_equal(u >= cut, -np.log(1.0 - u) >= alpha)
        assert (cut == 1.0) == (alpha > 53 * math.log(2.0))

    @staticmethod
    def _peak_of_one_chunk(k, alpha):
        tracemalloc.start()
        try:
            simulate_ergodic_rate(_cfg(num_users=k, threshold=alpha, n_blocks=_CHUNK))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_chunk_memory_is_bounded(self):
        # The (2^16, 256) gains of one chunk alone take 128 MiB, a panel of them 0.5 MiB.
        assert self._peak_of_one_chunk(256, 3.5) < 2 * 2**20

    def test_silent_chunk_memory_is_bounded(self):
        # At alpha = log K + 1, Pr(N = 0) = 0.69: the pick of most blocks reads all K users.
        assert self._peak_of_one_chunk(256, math.log(256) + 1.0) < 2 * 2**20


class TestErgodicAgainstClosedForm:
    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    def test_three_sigma(self, rho):
        cfg = _cfg(corr=CorrelationParams(rho))
        est = simulate_ergodic_rate(cfg)
        closed = sum_rate(ErgodicConfig(4, 10.0, CorrelationParams(rho), 1.0))
        assert within(est, closed, n_sigma=4)

    def test_silent_blocks_count_zero(self):
        # huge threshold: nothing transmits, mean rate is exactly 0
        est = simulate_ergodic_rate(_cfg(threshold=50.0, n_blocks=10_000))
        assert est.mean == 0.0


class TestOutageAgainstClosedForm:
    def test_instantaneous_short_term(self):
        r = 3 * math.log(2)
        cfg = _cfg(
            num_users=8,
            power=10.0,
            corr=CorrelationParams(1.0),
            threshold=0.7,
            rate_nats=r,
            mode=PowerMode.short_term(),
        )
        est = simulate_outage(cfg)
        closed = outage_instant(
            OutageConfig(8, 10.0, CorrelationParams(1.0), r, 0.7, PowerMode.short_term())
        ).eps
        assert within(est, closed, n_sigma=4)

    def test_outdated_long_term(self):
        r = 2.0
        mode = PowerMode.long_term()
        cfg = _cfg(
            num_users=8,
            power=31.6,
            corr=CorrelationParams(0.5),
            threshold=2 * math.expm1(r) / 31.6,
            rate_nats=r,
            mode=mode,
        )
        est = simulate_outage(cfg)
        closed = outage_outdated(
            OutageConfig(8, 31.6, CorrelationParams(0.5), r, cfg.threshold, mode)
        ).eps
        assert within(est, closed, n_sigma=4)

    def test_requires_rate(self):
        with pytest.raises(ValueError):
            simulate_outage(_cfg())


class TestPowerAccounting:
    def test_long_term_average_below_cap(self):
        mode = PowerMode.long_term()
        cfg = _cfg(num_users=2, threshold=2.0, mode=mode)
        est = simulate_avg_power(cfg)
        p1, p0 = mode.resolve(10.0, 2.0, 2)
        pr1 = 1 - (1 - math.exp(-2.0)) ** 2
        expected = p1 * pr1 + p0 * (1 - pr1)
        assert within(est, expected, n_sigma=4)
        assert est.mean <= 10.0 + 4 * est.stderr

    def test_short_term_constant(self):
        est = simulate_avg_power(_cfg(mode=PowerMode.short_term(), n_blocks=1000))
        assert est.mean == 10.0 and est.stderr == 0.0

    def test_powers_near_float_max(self):
        # 1000 blocks of 1e308 overflow a plain sum; a block is in outage only
        # where its gain is below (e - 1)/1e308.
        cfg = _cfg(mode=PowerMode.explicit(1e308, 1e308), rate_nats=1.0, n_blocks=1000)
        assert simulate_avg_power(cfg).mean == pytest.approx(1e308, rel=1e-15)
        assert simulate_outage(cfg).mean < 0.01
        # P1 near the float limit and P0 = 0: the mean is P1 times the transmitting fraction.
        cfg = _cfg(mode=PowerMode.explicit(1.7e308, 0.0), n_blocks=1000)
        _, _, n_above = _draw(_chunk_rng(cfg.seed, 0), cfg.corr.rho, 1000, 4, 1.0)
        mean = simulate_avg_power(cfg).mean
        assert math.isfinite(mean)
        assert mean == pytest.approx(1.7e308 * (n_above > 0).mean(), rel=1e-15)

    def test_rate_past_the_float_range_is_certain_outage(self):
        # e^800 - 1 overflows; log(1 + g 1e308) stays below 800 unless g passes 1e39.
        cfg = _cfg(mode=PowerMode.explicit(1e308, 1e308), rate_nats=800.0, n_blocks=1000)
        assert simulate_outage(cfg).mean == 1.0

    def test_long_term_p0_far_above_p1(self):
        # K = 16 at 13 dB: Pr(N = 0) ~ 5e-17 puts P0 near 2e17 against P1 near 10, and no
        # block of 1000 is silent, so the mean is P1 itself, not P1 lost against P0.
        mode = PowerMode.long_term()
        power, rate = 10 ** 1.3, math.log(2.0)
        alpha = default_threshold(mode, power, rate)
        cfg = _cfg(num_users=16, power=power, threshold=alpha, mode=mode, n_blocks=1000)
        p1, p0 = mode.resolve(power, alpha, 16)
        _, _, n_above = _draw(_chunk_rng(cfg.seed, 0), cfg.corr.rho, 1000, 16, alpha)
        assert p0 > 1e16 * p1 and (n_above > 0).all()
        mean = simulate_avg_power(cfg).mean
        assert min(p1, p0) <= mean <= max(p1, p0)
        assert mean == p1

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match="seed"):
            _cfg(seed=-1)


class TestBlockRecords:
    """Per-block accounting, rebuilt by hand from the stream the estimators consume."""

    def test_fields_consistent(self):
        cfg = _cfg(
            n_blocks=500, rate_nats=1.5, mode=PowerMode.explicit(8.0, 2.0)
        )
        _, g_tau, n_above = _draw(_chunk_rng(cfg.seed, 0), cfg.corr.rho, 500, 4, cfg.threshold)
        assert np.all((n_above >= 0) & (n_above <= 4))
        tx_power = np.where(n_above > 0, 8.0, 2.0)
        achieved = np.log1p(g_tau * tx_power)
        outage = (achieved < 1.5).astype(float)
        assert simulate_outage(cfg).mean == pytest.approx(outage.mean(), rel=1e-12)
        assert simulate_avg_power(cfg).mean == pytest.approx(tx_power.mean(), rel=1e-12)

    def test_one_pass_matches_separate_calls(self):
        # outage-mode `simulate` reads both estimates from one pass over the stream
        mode = PowerMode.long_term()
        eps, power = _outage_and_power(_cfg(n_blocks=70_000, rate_nats=1.5, mode=mode))
        assert eps == simulate_outage(_cfg(n_blocks=70_000, rate_nats=1.5, mode=mode))
        assert power == simulate_avg_power(_cfg(n_blocks=70_000, mode=mode))

    def test_qualified_selection(self):
        # 70,000 blocks at K = 4 span five panels.
        g, _, n_above = _draw(np.random.default_rng(3), 0.9, 70_000, 4, 1.0)
        gains = _all_gains(np.random.default_rng(3), 0.9, 70_000, 4)
        np.testing.assert_array_equal(n_above, (gains >= 1.0).sum(axis=1))
        assert np.all(g[n_above > 0] >= 1.0)
        # the scheduled gain is that of one of the block's own candidates
        qualified = (gains >= 1.0) | (n_above == 0)[:, None]
        assert np.all(np.any((gains == g[:, None]) & qualified, axis=1))


class _CountingGenerator:
    """A numpy Generator that counts the variates each method returns, by name."""

    def __init__(self, gen):
        self._gen = gen
        self.counts = Counter()

    def __getattr__(self, name):
        fn = getattr(self._gen, name)

        def draw(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.counts[name] += np.size(out)
            return out

        return draw


class TestSchedulingLaw:
    """Law of N and of the scheduled gain, read off the sampler at alpha = 1."""

    ALPHA = 1.0
    BLOCKS = 200_000

    def _draw(self, k, seed):
        return _draw(np.random.default_rng(seed), 0.9, self.BLOCKS, k, self.ALPHA)

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_mean_count_of_one_bits(self, k):
        _, _, n_above = self._draw(k, seed=k)
        p = math.exp(-self.ALPHA)
        assert abs(n_above.mean() - k * p) <= 4 * math.sqrt(k * p * (1 - p) / self.BLOCKS)

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_scheduled_excess_is_unit_exponential(self, k):
        # A qualified user's g - alpha is Exp(1); a pick leaning toward the
        # strongest user raises its mean and variance.
        g, _, n_above = self._draw(k, seed=100 + k)
        excess = g[n_above > 0] - self.ALPHA
        m = excess.size
        assert abs(excess.mean() - 1.0) <= 4 * math.sqrt(1.0 / m)
        # the sample variance of Exp(1) has variance (mu4 - 1) / m = 8 / m
        assert abs(excess.var() - 1.0) <= 4 * math.sqrt(8.0 / m)

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_no_one_bits_schedules_a_user_below_threshold(self, k):
        g, _, n_above = self._draw(k, seed=200 + k)
        assert np.any(n_above == 0)
        assert np.all(g[n_above == 0] < self.ALPHA)

    @pytest.mark.parametrize("k", [4, 16])
    def test_pick_is_uniform_over_users(self, k):
        # By symmetry each user is scheduled in 1/K of the blocks; picking the
        # first or the strongest candidate would not be.
        g, _, _ = self._draw(k, seed=300 + k)
        gains = _all_gains(np.random.default_rng(300 + k), 0.9, self.BLOCKS, k)
        users = np.argmax(gains == g[:, None], axis=1)
        share = np.bincount(users, minlength=k) / self.BLOCKS
        se = math.sqrt((1 / k) * (1 - 1 / k) / self.BLOCKS)
        assert np.all(np.abs(share - 1 / k) <= 4 * se)

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_draws_per_block(self, k):
        # 1000 blocks fit one panel, 70,001 span two (K = 1) to 18 (K = 16).
        for n in (1000, 70_001):
            rng = _CountingGenerator(np.random.default_rng(0))
            _draw(rng, 0.9, n, k, self.ALPHA)
            assert rng.counts == {"random": n * (k + 1), "standard_normal": 2 * n}
            # At rho = 1, g_tau is g: no normals.
            rng = _CountingGenerator(np.random.default_rng(0))
            _draw(rng, 1.0, n, k, self.ALPHA)
            assert rng.counts == {"random": n * (k + 1)}


def reference_full_csi_rate(num_users: int, power: float, n_blocks: int, seed: int):
    """MC mean of log(1 + P max_k v_k^2): the non-delayed full-CSI benchmark."""
    cfg = SimConfig(num_users, power, CorrelationParams(1.0), 0.0, n_blocks, seed)

    def per_chunk(rng, n):  # one panel: the whole chunk
        yield np.log1p(power * rng.exponential(size=(n, num_users)).max(axis=1))

    return _aggregate(cfg, per_chunk)[0]


def reference_no_csi_rate(power: float, n_blocks: int, seed: int):
    """MC mean of log(1 + P v^2) for a single unconditioned user."""
    cfg = SimConfig(1, power, CorrelationParams(0.0), 0.0, n_blocks, seed)
    return _aggregate(cfg, lambda rng, n: [np.log1p(power * rng.exponential(size=n))])[0]


class TestReferences:
    def test_full_csi(self):
        est = reference_full_csi_rate(4, 10.0, N, 7)
        assert within(est, full_csi_rate(4, 10.0), n_sigma=4)

    def test_no_csi(self):
        est = reference_no_csi_rate(10.0, N, 7)
        assert within(est, no_csi_rate(10.0), n_sigma=4)


class TestValidation:
    def test_config_checks(self):
        with pytest.raises(ValueError):
            _cfg(num_users=0)
        with pytest.raises(ValueError):
            _cfg(n_blocks=0)
        with pytest.raises(ValueError):
            _cfg(threshold=-1.0)
        with pytest.raises(ValueError):
            _cfg(power=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="threshold"):
                _cfg(threshold=bad)
            with pytest.raises(ValueError, match="power"):
                _cfg(power=bad)
            with pytest.raises(ValueError, match="rate_nats"):
                _cfg(rate_nats=bad)

    def test_seed_is_an_integer(self):
        for bad in (1.5, math.nan, "3", None, -1, np.int64(-1)):
            with pytest.raises(ValueError, match="seed must be an integer >= 0"):
                _cfg(seed=bad)
        for good in (0, np.int64(3), np.uint8(7), 2**70):
            assert _cfg(seed=good).seed == good
