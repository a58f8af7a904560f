"""Test-session settings: property tests draw the same examples every run."""

import pytest
from hypothesis import settings

from bsretract import kempfness

settings.register_profile(
    "bsretract", derandomize=True, max_examples=200, deadline=None, database=None
)
# A deeper run of the same kind, for the snap properties in CI:
# pytest --hypothesis-profile bsretract-deep
settings.register_profile(
    "bsretract-deep", derandomize=True, max_examples=5000, deadline=None, database=None
)
settings.load_profile("bsretract")


@pytest.fixture
def cold_start(monkeypatch):
    """Flows in the test skip the warm step and start the Newton-CG loop
    at the input, as for an input whose B has an ill-conditioned
    eigenbasis: for the tests of that loop's budget, stall, rate and
    counters."""
    monkeypatch.setattr(kempfness, "_WARM_COND", 0.0)
