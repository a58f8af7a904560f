"""Test-session settings: property tests draw the same examples every run."""

from hypothesis import settings

settings.register_profile(
    "bsretract", derandomize=True, max_examples=200, deadline=None, database=None
)
settings.load_profile("bsretract")
