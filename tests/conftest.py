"""Hypothesis draws the same examples on every run, so a Tier-1 result
does not depend on the run's random seed or on an example database."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
