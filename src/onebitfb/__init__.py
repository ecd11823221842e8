"""Ergodic-rate and outage analysis of K-user Rayleigh broadcast channels
with 1-bit, possibly delay-outdated, channel feedback."""

__version__ = "0.1.0"
