"""Correlated block-Rayleigh fading model.

The channel envelope is observed at estimation time (v) and again, after the
feedback delay, at transmission time (v_tau).  Both are unit-power Rayleigh;
their joint law is controlled by the temporal correlation coefficient rho,
which Jakes' model ties to the Doppler spread and the delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

__all__ = [
    "CorrelationParams",
    "check_count",
    "check_positive",
    "check_nonnegative",
    "rho_from_jakes",
]

# Treat |rho| this close to 1 as exact instantaneous feedback; the outdated
# closed forms divide by 1 - rho^2 and lose all precision before this point.
RHO_ONE_TOL = 1e-9


@dataclass(frozen=True)
class CorrelationParams:
    """Temporal correlation coefficient between estimation and transmission."""

    rho: float

    def __post_init__(self):
        if not math.isfinite(self.rho) or abs(self.rho) > 1.0:
            raise ValueError("rho must be finite with |rho| <= 1")

    @property
    def abs_rho(self) -> float:
        # All densities depend on |rho| only.
        return abs(self.rho)

    @property
    def is_instantaneous(self) -> bool:
        return 1.0 - self.abs_rho < RHO_ONE_TOL


# The rules for the other inputs of every closed form and config: a count
# (K users, blocks), a positive value (P, R) and a nonnegative one (alpha,
# P1, P0).  Each names the argument it rejects; NaN fails every test.
def check_count(name: str, value) -> None:
    """Reject ``value`` unless it is an int or numpy integer >= 1."""
    if not (isinstance(value, (int, np.integer)) and value >= 1):
        raise ValueError(f"{name} must be an integer >= 1")


def check_positive(name: str, value) -> None:
    """Reject ``value`` unless 0 < value < inf."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")


def check_nonnegative(name: str, value) -> None:
    """Reject ``value`` unless 0 <= value < inf."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite")


def rho_from_jakes(doppler_hz: float, delay_s: float) -> CorrelationParams:
    """Map Doppler spread (Hz) and feedback delay (s) to the correlation J0(2 pi f_D tau)."""
    if doppler_hz < 0 or delay_s < 0:
        raise ValueError("doppler_hz and delay_s must be nonnegative")
    return CorrelationParams(float(sc.j0(2.0 * math.pi * doppler_hz * delay_s)))
