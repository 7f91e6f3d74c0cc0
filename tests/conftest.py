"""Shared test settings.

Property tests run under a derandomized hypothesis profile: each run draws the
same examples and keeps no example database, so the suite is deterministic.
"""

from hypothesis import settings

settings.register_profile("dualgn", derandomize=True, database=None, deadline=None, max_examples=25)
settings.load_profile("dualgn")
