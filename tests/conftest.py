"""One hypothesis profile for the whole suite: examples are derived from
each test's name instead of a random seed, and nothing is read from or
written to an example database, so every run tries the same examples."""

from hypothesis import settings

settings.register_profile("dp4", derandomize=True, database=None, deadline=None)
settings.load_profile("dp4")
