"""Property tests: Marcum-Q identities, outage probabilities in range, the
sum-rate between its bounds, and every library input checked by name."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import special

from onebitfb import ergodic, mcsim, outage
from onebitfb.channel import CorrelationParams
from onebitfb.ergodic import ErgodicConfig, sum_rate, sum_rate_lower, sum_rate_upper
from onebitfb.outage import OutageConfig, PowerMode, outage_outdated
from onebitfb.specfun import marcum_q1, marcum_q1_bounds

ARG = st.floats(0.0, 40.0)
STEP = st.floats(0.0, 5.0)
# Monotonicity holds to roundoff only: where Q1 is close to 1 two neighbours
# may come out one ulp apart in the wrong order.
ROUNDOFF = 1e-15


@given(ARG, ARG)
def test_marcum_in_unit_interval(a, b):
    q = marcum_q1(a, b)
    assert 0.0 <= q <= 1.0


@given(ARG, ARG)
def test_marcum_complement_identity(a, b):
    # Q1(a,b) + Q1(b,a) = 1 + exp(-(a^2+b^2)/2) I0(ab)
    rhs = 1.0 + math.exp(-0.5 * (a - b) ** 2) * special.i0e(a * b)
    assert abs(marcum_q1(a, b) + marcum_q1(b, a) - rhs) <= 1e-14


@given(ARG, ARG, STEP)
def test_marcum_nonincreasing_in_b(a, b, step):
    assert marcum_q1(a, b + step) <= marcum_q1(a, b) + ROUNDOFF


@given(ARG, ARG, STEP)
def test_marcum_nondecreasing_in_a(a, b, step):
    assert marcum_q1(a + step, b) >= marcum_q1(a, b) - ROUNDOFF


@given(ARG, ARG)
def test_marcum_within_bounds(a, b):
    lo, hi = marcum_q1_bounds(a, b)
    q = marcum_q1(a, b)
    assert lo * (1.0 - 1e-12) <= q <= hi * (1.0 + 1e-12)


def two_branch_q1(a, b):
    """Q1 as two chndtr branches picked by np.where: each element evaluates both."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = np.where(b < a, 1.0 - special.chndtr(b * b, 2.0, a * a),
                   np.exp(-0.5 * (a - b) ** 2) * special.i0e(a * b)
                   + special.chndtr(a * a, 2.0, b * b))
    out = np.where(np.abs(a - b) > 40.0, (b < a).astype(float), out)
    return np.clip(out, 0.0, 1.0)


SCALED_ARGS = st.lists(st.sampled_from([1e-3, 1.0, 30.0, 1e3, 1e5]).flatmap(
    lambda scale: st.tuples(st.floats(0.0, scale), st.floats(0.0, scale))), min_size=1, max_size=8)


@given(SCALED_ARGS)
@example([(0.0, 0.0), (0.0, 3.0), (3.0, 0.0)])
@example([(7.5, 7.5), (1500.0, 1500.0), (1e-300, 1e-300)])
@example([(50.0, 9.0), (9.0, 50.0), (0.0, 40.5), (1e10, 3.0), (3.0, 1e10)])
def test_marcum_one_chndtr_matches_two_branches(pairs):
    # One chndtr(min^2, 2, max^2) per element gives the two-branch values bit for bit,
    # batched and one pair at a time.
    a, b = np.array(pairs).T
    assert marcum_q1(a, b).tobytes() == two_branch_q1(a, b).tobytes()
    for x, y in pairs:
        assert marcum_q1(x, y) == float(two_branch_q1(x, y))


@st.composite
def outage_configs(draw):
    mode = draw(st.sampled_from(["short", "long", "explicit"]))
    if mode == "short":
        power_mode = PowerMode.short_term()
    elif mode == "long":
        power_mode = PowerMode.long_term()
    else:
        power_mode = PowerMode.explicit(draw(st.floats(0.0, 1e4)), draw(st.floats(0.0, 1e4)))
    # The long-term split needs Pr(N = 0) > 0, so alpha > 0 there.
    alpha_min = 1e-3 if mode == "long" else 0.0
    return OutageConfig(
        num_users=draw(st.integers(1, 64)),
        power=10.0 ** (draw(st.floats(-10.0, 40.0)) / 10.0),
        corr=CorrelationParams(draw(st.floats(-1.0, 1.0))),
        rate_nats=draw(st.floats(1e-3, 6.0)),
        threshold=draw(st.floats(alpha_min, 10.0)),
        mode=power_mode,
    )


@given(outage_configs())
def test_outdated_outage_in_unit_interval(cfg):
    rep = outage_outdated(cfg)
    values = np.array([rep.eps, rep.eps1, rep.eps0])
    assert np.all((values >= 0.0) & (values <= 1.0)), (cfg, rep)


@st.composite
def ergodic_configs(draw):
    rho = draw(st.one_of(st.floats(-1.0, 1.0),
                         st.sampled_from([-1.0, 1.0, 1.0 - 1e-9, -1.0 + 1e-9])))
    return ErgodicConfig(
        num_users=draw(st.integers(1, 1024)),
        power=10.0 ** draw(st.floats(-10.0, 15.0)),
        corr=CorrelationParams(rho),
        threshold=draw(st.floats(0.0, 1e3)),
    )


@given(ergodic_configs())
@example(ErgodicConfig(494, 10.0 ** -1.66, CorrelationParams(0.9999999), 762.84))
@example(ErgodicConfig(48, 10.0 ** -9.91, CorrelationParams(0.999999999), 2.3525))
def test_sum_rate_within_bounds(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rate = sum_rate(cfg)
        lower, upper = sum_rate_lower(cfg), sum_rate_upper(cfg)
    assert math.isfinite(rate)
    assert lower * (1.0 - 1e-13) <= rate <= upper * (1.0 + 1e-13), (cfg, lower, rate, upper)


# The values each input rule rejects: K is an integer >= 1, P, R and a
# long-term or all-zero alpha are finite and > 0, alpha, P1 and P0 finite and >= 0.
BAD = {
    "count": [math.nan, math.inf, -math.inf, -1, 0, 4.5],
    "positive": [math.nan, math.inf, -math.inf, -1.0, 0.0],
    "nonnegative": [math.nan, math.inf, -math.inf, -1.0],
}
CORR = CorrelationParams(0.5)
# (callable, valid arguments, the rule of each argument it checks)
INPUTS = [
    (ErgodicConfig, dict(num_users=4, power=10.0, corr=CORR, threshold=1.0),
     dict(num_users="count", power="positive", threshold="nonnegative")),
    (ergodic.prob_some_above, dict(alpha=1.0, num_users=4),
     dict(alpha="nonnegative", num_users="count")),
    (ergodic.rate_bracket, dict(alpha=1.0, corr=CORR), dict(alpha="nonnegative")),
    (ergodic.suboptimal_threshold, dict(num_users=100, delta=1.0), dict(num_users="count")),
    (ergodic.optimal_threshold, dict(num_users=4, power=10.0, corr=CORR),
     dict(num_users="count", power="positive")),
    (ergodic.wideband_metrics, dict(alpha=1.0, num_users=4, corr=CORR),
     dict(alpha="nonnegative", num_users="count")),
    (ergodic.ebn0_db_from_power, dict(rate_nats=1.0, power=10.0),
     dict(rate_nats="positive", power="positive")),
    (ergodic.rate_at_ebn0, dict(ebn0_db=3.0, num_users=4, corr=CORR, alpha=1.0),
     dict(num_users="count", alpha="nonnegative")),
    (ergodic.full_csi_rate, dict(num_users=4, power=10.0),
     dict(num_users="count", power="positive")),
    (ergodic.no_csi_rate, dict(power=10.0), dict(power="positive")),
    (OutageConfig, dict(num_users=4, power=10.0, corr=CORR, rate_nats=1.0, threshold=1.0,
                        mode=PowerMode.short_term()),
     dict(num_users="count", power="positive", rate_nats="positive", threshold="nonnegative")),
    (outage.zero_outage_threshold, dict(power=10.0, rate_nats=1.0),
     dict(power="positive", rate_nats="positive")),
    (outage.power_split_longterm, dict(power=10.0, alpha=1.0, num_users=4),
     dict(power="positive", alpha="positive", num_users="count")),
    (outage.outage_longterm_closed, dict(power=10.0, num_users=4, rate_nats=1.0),
     dict(power="positive", num_users="count", rate_nats="positive")),
    (outage.eps1_outdated, dict(rate_nats=1.0, p1=10.0, alpha=1.0, corr=CORR),
     dict(rate_nats="positive", p1="nonnegative", alpha="nonnegative")),
    (outage.eps0_outdated, dict(rate_nats=1.0, p0=10.0, alpha=1.0, corr=CORR),
     dict(rate_nats="positive", p0="nonnegative", alpha="positive")),
    (outage.dmt_analytic, dict(scheme="no_csi", num_users=4), dict(num_users="count")),
    (outage.default_threshold, dict(mode=PowerMode.short_term(), power=10.0, rate_nats=1.0),
     dict(power="positive", rate_nats="positive")),
    (PowerMode.short_term().resolve, dict(power=10.0, alpha=1.0, num_users=4),
     dict(power="positive", alpha="nonnegative", num_users="count")),
    (PowerMode.explicit(1.0, 2.0).resolve, dict(power=10.0, alpha=1.0, num_users=4),
     dict(power="positive", alpha="nonnegative", num_users="count")),
    (mcsim.SimConfig, dict(num_users=4, power=10.0, corr=CORR, threshold=1.0, n_blocks=10, seed=1,
                           rate_nats=1.0),
     dict(num_users="count", power="positive", threshold="nonnegative", n_blocks="count",
          rate_nats="positive")),
]


@pytest.mark.parametrize("form,args,name,bad", [
    pytest.param(form, args, name, bad, id=f"{form.__name__}-{name}-{bad}")
    for form, args, rules in INPUTS for name, rule in rules.items() for bad in BAD[rule]
])
def test_bad_input_is_rejected_by_name(form, args, name, bad):
    form(**args)
    with pytest.raises(ValueError, match=f"^{name} must"):
        form(**{**args, name: bad})
