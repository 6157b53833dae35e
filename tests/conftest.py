"""Hypothesis settings and small fixtures for the test suite.

The session-wide ``panda_model`` and ``tiny_policies`` fixtures live in the
root ``conftest.py``, shared with ``benchmarks/``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Keep property-based tests fast on the single-core CI budget while still
# exploring a meaningful slice of the input space.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def planar_model():
    from repro.robot import two_link_planar

    return two_link_planar()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
