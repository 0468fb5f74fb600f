"""One hypothesis profile for the whole suite: examples are derived from
each test's name instead of a random seed, and nothing is read from or
written to an example database, so every run tries the same examples.

The family steps are memoized per spec, and the model builds per (name,
seed); every test starts with empty caches,
so a spy or an oracle context sees the computation rather than a cached
result left by an earlier test.  BIG_PRIMES are shared by the kernel tests."""

import pytest
from hypothesis import settings

from dp4 import families, models

settings.register_profile("dp4", derandomize=True, database=None, deadline=None)
settings.load_profile("dp4")

# two primes above quintic.KERNEL_TRIAL_BOUND
BIG_PRIMES = (1000003, 10000019)

FAMILY_CACHES = (
    families.spectral_form,
    families._discriminant_or_none,
    families.genericity_check,
    models.build_example,
)


def clear_family_caches():
    for step in FAMILY_CACHES:
        step.cache_clear()


@pytest.fixture(autouse=True)
def fresh_family_caches():
    clear_family_caches()
