"""One hypothesis profile for the whole suite: examples are derived from
each test's name instead of a random seed, and nothing is read from or
written to an example database, so every run tries the same examples.

The family steps are memoized per spec, and the model builds per (name,
seed); every test starts with empty caches,
so a spy or an oracle context sees the computation rather than a cached
result left by an earlier test.  BIG_PRIMES are shared by the kernel tests;
widened specs and the recover_widths spy by the tests that take
binforms.zrecover to both of its sides."""

import pytest
from hypothesis import settings

from dp4 import binforms, families, models

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


# a scale that puts every zrecover of a model family past PACK_BITS
WIDE = 10**45


def widened(spec):
    """spec with A1 scaled by WIDE and A2 by WIDE + 1: entries of about 150
    bits, so its spectral form, their fibers' pencil determinants and its
    Delta are all interpolated from values at integer nodes."""

    def scale(a, r):
        return tuple(tuple(x.scale(r) for x in row) for row in a)

    return families.FamilySpec(spec.d, spec.e, scale(spec.A1, WIDE), scale(spec.A2, WIDE + 1))


@pytest.fixture
def recover_widths(monkeypatch):
    """The digit width b = bound.bit_length() + 1 of every zrecover call, in
    call order: spectral forms, the pencil determinants of their fibers and
    Deltas."""
    widths = []
    recover = binforms.zrecover

    def spy(at, bound, degree):
        widths.append(bound.bit_length() + 1)
        return recover(at, bound, degree)

    monkeypatch.setattr(binforms, "zrecover", spy)
    monkeypatch.setattr(families, "zrecover", spy)
    return widths
