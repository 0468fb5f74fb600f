"""One hypothesis profile for the whole suite: examples are derived from
each test's name instead of a random seed, and nothing is read from or
written to an example database, so every run tries the same examples.

The family steps are memoized per spec, and the model builds per (name,
seed); every test starts with empty caches,
so a spy or an oracle context sees the computation rather than a cached
result left by an earlier test.  Every test runs under a SIGALRM time
limit (TEST_TIME_LIMIT_S), so code that hangs fails its test instead of
stalling the suite.  BIG_PRIMES are shared by the kernel tests;
widened specs and the recover_widths spy by the tests that take
binforms.zrecover to both of its sides, block pencils by the tests of
coranks on large conjugated pencils, and power and x_poly by the tests that
build forms as products or read them as univariate polynomials, and
grid_biform by the tests that write biforms as grids."""

import signal
from fractions import Fraction

import pytest
from hypothesis import settings

from dp4 import binforms, families, models
from dp4.binforms import BiForm, BinaryForm, pnorm
from dp4.linalg import mat_mul, transpose
from dp4.pencils import SymmetricPencil

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


# Wall seconds after which a test fails: about 25 times the slowest test,
# which takes 4-5 s on 2 cores (pytest --durations=5)
TEST_TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def time_limit():
    def expire(signum, frame):
        raise TimeoutError(f"test ran past {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def power(f, k):
    """f^k for a BinaryForm f, by repeated multiplication."""
    out = BinaryForm.constant(1)
    for _ in range(k):
        out = out * f
    return out


def x_poly(f):
    """f(x, 1) for a BinaryForm f, as a dense list of Fractions with the x^i
    coefficient at index i."""
    return pnorm([f.coeffs[f.degree - k] for k in range(f.degree + 1)])


def grid_biform(rows):
    """The biform whose s^(m-a) t^a u^(n-b) v^b coefficient is rows[a][b]:
    coefficient b of the result is column b of the grid."""
    m = len(rows) - 1
    return BiForm(tuple(BinaryForm(m, tuple(r[b] for r in rows)) for b in range(len(rows[0]))))


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


# (P, Q) blocks of a pencil, each named by what it puts on det(wP + Q): a
# simple root r; a root r of multiplicity 2 where the block keeps rank 1;
# the irreducible quadratic w^2 + w - 1, at whose roots the block keeps
# rank 1; and the root (1:0), where P loses rank
def simple_block(r):
    return [[1]], [[-r]]


def jordan_block(r):
    return [[0, 1], [1, 0]], [[0, -r], [-r, 1]]


QUADRATIC_BLOCK = ([[1, 0], [0, 1]], [[0, 1], [1, 1]])
INFINITY_BLOCK = ([[0]], [[1]])


def unimodular(rng, digits):
    """A 5x5 integer matrix of determinant 1: a lower times an upper
    unitriangular matrix, with random entries below 10**digits."""
    bound = 10**digits

    def entry():
        return rng.randrange(-bound, bound)

    low = [[1 if i == j else entry() if j < i else 0 for j in range(5)] for i in range(5)]
    up = [[1 if i == j else entry() if j > i else 0 for j in range(5)] for i in range(5)]
    return mat_mul(low, up)


def block_pencil(blocks, rng, digits):
    """The block-diagonal pencil of (P, Q) blocks of total size 5, with P
    and Q both conjugated to M^T P M, M^T Q M by one unimodular M with
    entries of about `digits` digits: the spectral quintic and every corank
    stay those of the blocks, behind entries of about 4 * digits digits."""
    pq = [[[0] * 5 for _ in range(5)] for _ in range(2)]
    at = 0
    for block in blocks:
        size = len(block[0])
        for m, b in zip(pq, block):
            for i in range(size):
                m[at + i][at : at + size] = b[i]
        at += size
    if at != 5:
        raise ValueError("blocks must fill a 5x5 pencil")
    m = unimodular(rng, digits)
    mt = transpose(m)
    return SymmetricPencil(*(mat_mul(mat_mul(mt, a), m) for a in pq))


def simple_blocks(*roots):
    return [simple_block(r) for r in roots]


# block lists, and the sorted (multiplicity, corank) pairs of their profiles
STRUCTURED_PENCILS = {
    "corank 2 at a rational root": (simple_blocks(1, 1, 0, -2, 3), [(1, 1)] * 3 + [(2, 2)]),
    "corank 3 at a rational root": (simple_blocks(1, 1, 1, 0, Fraction(1, 3)), [(1, 1), (1, 1), (3, 3)]),
    "corank 4 at a rational root": (simple_blocks(1, 1, 1, 1, 0), [(1, 1), (4, 4)]),
    "corank 5 at a rational root": (simple_blocks(1, 1, 1, 1, 1), [(5, 5)]),
    "corank 2 at (1:0)": ([INFINITY_BLOCK, INFINITY_BLOCK, *simple_blocks(0, 1, 2)], [(1, 1)] * 3 + [(2, 2)]),
    "corank 2 at quadratic roots": ([QUADRATIC_BLOCK, QUADRATIC_BLOCK, simple_block(0)], [(1, 1), (2, 2)]),
    "corank 1 at a double root": ([jordan_block(1), *simple_blocks(0, 2, 3)], [(1, 1)] * 3 + [(2, 1)]),
    "corank 3 at a quadruple root": ([jordan_block(1), *simple_blocks(1, 1, 0)], [(1, 1), (4, 3)]),
    "corank 2 at a quadruple root": ([jordan_block(1), jordan_block(1), simple_block(0)], [(1, 1), (4, 2)]),
    "corank 2 at a triple root": (
        [jordan_block(Fraction(-1, 2)), simple_block(Fraction(-1, 2)), QUADRATIC_BLOCK],
        [(1, 1), (3, 2)],
    ),
}
