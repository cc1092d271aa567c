"""One hypothesis profile for every test: the same examples on every run,
and no example database written to disk."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
