"""Shared test set-up: a fixed hypothesis profile and an engine cache reset."""

import pytest
from hypothesis import settings

from dgcalc import engine

# Derandomized with no example database, so every run draws the same
# examples; few examples, so the property tests stay within seconds.
settings.register_profile(
    "dgcalc", derandomize=True, database=None, deadline=None, max_examples=60
)
settings.load_profile("dgcalc")


@pytest.fixture
def clear_engine_caches():
    """A function that empties every registered memo (the engine's, and the
    report's when loaded), so the next call recomputes instead of
    returning a stored result."""
    return engine.clear_caches
