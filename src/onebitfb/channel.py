"""Correlated block-Rayleigh fading model.

The channel envelope is observed at estimation time (v) and again, after the
feedback delay, at transmission time (v_tau).  Both are unit-power Rayleigh;
their joint law is controlled by the temporal correlation coefficient rho,
which Jakes' model ties to the Doppler spread and the delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special as sc

__all__ = [
    "CorrelationParams",
    "JakesParams",
    "DegenerateCorrelationError",
    "rho_from_jakes",
]

# Treat |rho| this close to 1 as exact instantaneous feedback; the outdated
# closed forms divide by 1 - rho^2 and lose all precision before this point.
RHO_ONE_TOL = 1e-9


class DegenerateCorrelationError(ValueError):
    """|rho| = 1: the joint density degenerates, use the instantaneous forms."""


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


@dataclass(frozen=True)
class JakesParams:
    """Doppler spread (Hz) and feedback delay (s) for Jakes' correlation map."""

    doppler_hz: float
    delay_s: float

    def __post_init__(self):
        if self.doppler_hz < 0 or self.delay_s < 0:
            raise ValueError("doppler_hz and delay_s must be nonnegative")


def rho_from_jakes(params: JakesParams) -> CorrelationParams:
    """Map (Doppler, delay) to the correlation coefficient J0(2 pi f_D tau)."""
    return CorrelationParams(float(sc.j0(2.0 * math.pi * params.doppler_hz * params.delay_s)))
