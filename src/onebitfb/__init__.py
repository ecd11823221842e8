"""Ergodic-rate and outage analysis of K-user Rayleigh broadcast channels
with 1-bit, possibly delay-outdated, channel feedback."""

from .channel import (
    CorrelationParams,
    rho_from_jakes,
)
from .ergodic import (
    ErgodicConfig,
    WidebandReport,
    optimal_threshold,
    prob_some_above,
    sum_rate,
    sum_rate_lower,
    sum_rate_upper,
    wideband_metrics,
)
from .mcsim import McEstimate, SimConfig, simulate_ergodic_rate, simulate_outage
from .outage import (
    OutageConfig,
    OutageReport,
    PowerMode,
    dmt_analytic,
    outage_instant,
    outage_longterm_closed,
    outage_outdated,
)
from .specfun import QuadratureSpec, marcum_q1

__version__ = "0.1.0"
