"""Hypothesis settings shared by the property tests.

The profile is derandomized and keeps no example database, so every run of
the suite draws the same examples in the same order.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, max_examples=200,
                          deadline=None, database=None)
settings.load_profile("deterministic")
