"""Hypothesis profiles.

The default profile makes tier-1 reproducible: every run draws the same
examples. The `deep` profile explores with fresh random seeds and 20x the
examples. CI runs it as its own step over the tests marked `deep`
(registered in pyproject.toml), whose example counts the profile sets:

    pytest --hypothesis-profile=deep -m deep tests
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, max_examples=200)
settings.register_profile("deep", max_examples=4000)
settings.load_profile("tier1")
