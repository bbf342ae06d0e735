"""Shared test set-up: a fixed hypothesis profile and an engine cache reset."""

import pytest
from hypothesis import settings

from dgcalc import engine

# Derandomized with no example database, so every run draws the same
# examples; few examples, so the property tests stay within seconds.
settings.register_profile(
    "dgcalc", derandomize=True, database=None, deadline=None, max_examples=60
)
# The same draws a thousand at a time, for a deeper run of chosen property
# files: pytest --hypothesis-profile=dgcalc-deep, which overrides the
# profile loaded here.
settings.register_profile("dgcalc-deep", parent=settings.get_profile("dgcalc"),
                          max_examples=1000)
settings.load_profile("dgcalc")


@pytest.fixture
def clear_engine_caches():
    """A function that empties every registered memo (the engine's, and the
    report's when loaded), so the next call recomputes instead of
    returning a stored result."""
    return engine.clear_caches
