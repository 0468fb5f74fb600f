"""Invariants of binary quintics and the weighted moduli point.

The four integral invariants J4, J8, J12, J18 are realized as transvectant
expressions scaled to primitive integer coefficient vectors (the _CONTENT_J*
factors are the contents of the raw expressions as polynomials in the
quintic coefficients; a test re-derives those of J4, J8 and J12, and the
oracle fits and the benchmark digests pin J18's).  Each transvectant is one
sum of integer convolutions, by the coefficient formula (Olver, Classical
Invariant Theory, ch. 5).  The square of the odd invariant J18 is a weighted
form of degree 36 in (J4, J8, J12), and the discriminant is a linear
combination of J4^2 and J8.  The coefficients of both identities are frozen
literals, re-derived by a test oracle (an exact fit on sampled quintics);
the J18^2 relation is checked on integers on every InvariantVector.

Points of the moduli space carry weights (1, 2, 3) on (J4, J8, J12).  The
canonical representative is exact over Q: scale J4 to 1 when possible, else
J8 to its signed squarefree integer kernel, else J12 to its positive
cubefree kernel (both by trial division up to KERNEL_TRIAL_BOUND).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .binforms import BinaryForm, padd, pmul, resultant, squarefree_profile

# contents of the raw transvectant expressions on the generic integer quintic
_CONTENT_J4 = Fraction(2, 625)
_CONTENT_J8 = Fraction(1, 1562500)
_CONTENT_J12 = Fraction(3, 7812500000)
_CONTENT_J18 = Fraction(243, 31250000000000)


def transvectant(f: BinaryForm, g: BinaryForm, r: int) -> BinaryForm:
    """The r-th transvectant with the classical normalization.

    (f,g)_r = (m-r)!(n-r)!/(m!n!) * sum_k (-1)^k C(r,k)
              d^r f/dx^(r-k)dy^k * d^r g/dx^k dy^(r-k);
    bilinear, of degree m+n-2r, and (g,f)_r = (-1)^r (f,g)_r.  The mixed
    partial d^r/dx^(r-k)dy^k sends x^(m-i) y^i to
    perm(m-i, r-k) perm(i, k) x^(m-i-r+k) y^(i-k), so each term of the sum
    is one convolution of the integer numerators.
    """
    m, n = f.degree, g.degree
    if r < 0 or r > min(m, n):
        raise ValueError(f"transvectant index {r} out of range for degrees {m}, {n}")
    out: list[int] = []
    for k in range(r + 1):
        sign = (-1) ** k * math.comb(r, k)
        fs, gs = enumerate(f.nums[k : m - r + k + 1], k), enumerate(g.nums[r - k : n - k + 1], r - k)
        df = [sign * math.perm(m - i, r - k) * math.perm(i, k) * c for i, c in fs]
        dg = [math.perm(n - i, k) * math.perm(i, r - k) * c for i, c in gs]
        out = padd(out, pmul(df, dg))
    d = m + n - 2 * r
    scale = Fraction(math.factorial(m - r) * math.factorial(n - r), math.factorial(m) * math.factorial(n))
    return BinaryForm(d, tuple(out) + (0,) * (d + 1 - len(out)), f.den * g.den).scale(scale)


def _raw_invariants(f: BinaryForm):
    i2 = transvectant(f, f, 4)
    j3 = transvectant(f, i2, 2)
    a6 = transvectant(j3, j3, 2)
    j4 = transvectant(i2, i2, 2).coeffs[0] / _CONTENT_J4
    j8 = transvectant(a6, i2, 2).coeffs[0] / _CONTENT_J8
    j12 = transvectant(a6, a6, 2).coeffs[0] / _CONTENT_J12
    j18 = resultant(f, j3) / _CONTENT_J18
    return j4, j8, j12, j18


def syzygy_monomials() -> tuple[tuple[int, int, int], ...]:
    """Exponent triples (a,b,c) with a + 2b + 3c = 9: the weighted degree-36
    monomials J4^a J8^b J12^c that can appear in J18^2."""
    out = []
    for c in range(4):
        for b in range(5):
            a = 9 - 2 * b - 3 * c
            if a >= 0:
                out.append((a, b, c))
    return tuple(out)


# J18^2 in the syzygy_monomials() basis, and (c1, c2) with
# disc = c1*J4^2 + c2*J8; tests/test_oracles.py re-derives both by exact fits
_SYZYGY_COEFFICIENTS = tuple(
    Fraction(n, 15625) for n in (0, 0, 0, 0, -64, 0, 0, -128, 16, -64, 144, -27)
)
_DISC_AS_INVARIANT = (Fraction(1, 125), Fraction(-4, 125))


def syzygy_coefficients() -> tuple[Fraction, ...]:
    """Coefficients expressing J18^2 in the weighted monomials, in
    syzygy_monomials() order."""
    return _SYZYGY_COEFFICIENTS


def disc_as_invariant() -> tuple[Fraction, Fraction]:
    """Constants (c1, c2) with disc = c1*J4^2 + c2*J8 identically."""
    return _DISC_AS_INVARIANT


@dataclass(frozen=True)
class InvariantVector:
    """Values of the integral invariants on one quintic; the degree-36
    relation on J18^2 is checked at construction."""

    J4: Fraction
    J8: Fraction
    J12: Fraction
    J18: Fraction

    def __post_init__(self):
        # The relation is weighted homogeneous of degree 36, so with D the lcm
        # of the denominators the integers D^2 J4, D^4 J8, D^6 J12, D^9 J18
        # satisfy it too; 15625 clears the denominators of its coefficients.
        values = (self.J4, self.J8, self.J12, self.J18)
        d = math.lcm(*(x.denominator for x in values))
        j4, j8, j12, j18 = (
            x.numerator * (d**e // x.denominator) for x, e in zip(values, (2, 4, 6, 9))
        )
        total = sum(
            15625 * w.numerator // w.denominator * j4**a * j8**b * j12**c
            for (a, b, c), w in zip(syzygy_monomials(), syzygy_coefficients())
            if w
        )
        if total != 15625 * j18 * j18:
            raise ValueError("invariant values violate the J18^2 relation")

    def as_tuple(self):
        return (self.J4, self.J8, self.J12, self.J18)


def invariants(f: BinaryForm) -> InvariantVector:
    """The four integral invariants; homogeneous of degrees 4, 8, 12, 18 in
    the coefficients, and invariant under unimodular substitution."""
    if f.degree != 5:
        raise ValueError(f"invariants need a quintic, got degree {f.degree}")
    j4, j8, j12, j18 = _raw_invariants(f)
    return InvariantVector(j4, j8, j12, j18)


def stability_classify(f: BinaryForm) -> str:
    """One of all-simple / one-double / two-doubles / unstable, read off the
    squarefree profile (a quintic admits at most two double roots)."""
    if f.degree != 5:
        raise ValueError(f"stability needs a quintic, got degree {f.degree}")
    if f.is_zero:
        raise ValueError("stability of the zero form")
    doubles = 0
    for factor, mult in squarefree_profile(f):
        if mult >= 3:
            return "unstable"
        if mult == 2:
            doubles += factor.degree
    return ("all-simple", "one-double", "two-doubles")[doubles]


@dataclass(frozen=True)
class ModuliPoint:
    """Canonical representative of (J4 : J8 : J12) under the weight-(1,2,3)
    scaling, exact over Q; `normalized` records which coordinate anchors the
    canonical form."""

    coords: tuple[Fraction, Fraction, Fraction]
    normalized: str


# The square and cube kernels of J8 and J12 come from trial division by the
# primes up to this bound.  The primes go in blocks of 256, and one gcd of the
# cofactor with the product of a block (about 5000 bits) tells whether any
# prime of the block divides it.  So the time grows with the cofactor's size
# times the 1.44 million bits of all the primes.  Measured with CPython 3.11
# on one core of a 2-core x86-64 VM, refusing a cofactor with no prime
# factor up to the bound takes about 0.05 s at 500 bits, 0.09 s at 8300
# bits (J8 of x^5 + a*x*y^4 with a = 10^500 + 961), 0.17 s at 25 000 bits
# and 0.43 s at 71 000 bits (a of 4300 digits, the most the parser accepts
# in one coefficient); trial division by every odd number up to the bound
# took 0.2, 1.4, 4 and 13 s.  A cofactor left below its square is 1 or a
# prime, and so is the root r of a larger cofactor r^e with r below the
# square; any other cofactor, which has two or more distinct prime factors
# above the bound, is refused with ValueError.
KERNEL_TRIAL_BOUND = 10**6


def _primes_up_to(m: int) -> list[int]:
    """The primes up to m >= 1, by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (m - 1)
    for i in range(2, math.isqrt(m) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, m + 1, i)))
    return list(compress(range(m + 1), sieve))


def _prime_powers(n: int, what: str) -> dict[int, int]:
    """{prime: exponent} of a positive integer by trial division up to
    KERNEL_TRIAL_BOUND, one block of primes per gcd, then a perfect-power
    test on the cofactor."""
    out: dict[int, int] = {}
    primes = _primes_up_to(min(KERNEL_TRIAL_BOUND, math.isqrt(n)))
    for i in range(0, len(primes), 256):
        block = primes[i : i + 256]
        g = math.gcd(n, math.prod(block))
        for q in block if g > 1 else ():
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
    cofactor, top, e = n, KERNEL_TRIAL_BOUND**2, 1
    while n >= top and math.isqrt(n) ** 2 == n:
        n, e = math.isqrt(n), 2 * e
    if n >= top:
        # n is odd and no square, so n = r^f with r < top needs f odd; then r
        # is the one f-th root of n modulo m = 2^40 > r, f being prime to the
        # exponent m/4 of (Z/m)^*.  r > KERNEL_TRIAL_BOUND >= 2^b bounds f,
        # and r^f = n forces r to have ceil(bits(n)/f) bits.
        m, b = 1 << top.bit_length(), KERNEL_TRIAL_BOUND.bit_length() - 1
        for f in range(3, n.bit_length() // b + 1, 2):
            r = pow(n, pow(f, -1, m >> 2), m)
            if r < top and r.bit_length() == -(-n.bit_length() // f) and r**f == n:
                n, e = r, e * f
                break
        else:
            raise ValueError(
                f"cannot compute the {what} kernel: a cofactor of {cofactor.bit_length()} "
                f"bits has no prime factor up to {KERNEL_TRIAL_BOUND}"
            )
    if n > 1:
        out[n] = e
    return out


def _factor_kernel(x: Fraction, power: int) -> tuple[int, int]:
    """(kernel, k) with |n*d^(power-1)| = kernel * k^power and kernel free of
    power-th prime powers, for x = n/d in lowest terms."""
    what = {2: "square", 3: "cube"}[power]
    exponents = _prime_powers(abs(x.numerator), what)
    for p, e in _prime_powers(x.denominator, what).items():
        exponents[p] = e * (power - 1)  # n and d are coprime
    kernel, k = 1, 1
    for p, e in exponents.items():
        kernel *= p ** (e % power)
        k *= p ** (e // power)
    return kernel, k


def normalize_weighted(triple) -> ModuliPoint:
    """Canonical form of a nonzero triple under (j4, j8, j12) ->
    (lam*j4, lam^2*j8, lam^3*j12), lam rational and nonzero."""
    j4, j8, j12 = (Fraction(x) for x in triple)
    if j4 != 0:
        lam = 1 / j4
        return ModuliPoint((Fraction(1), j8 * lam**2, j12 * lam**3), "J4")
    if j8 != 0:
        sf, k = _factor_kernel(j8, 2)
        sign = 1 if j8 > 0 else -1
        p2 = Fraction(sign * sf)
        lam = Fraction(j8.denominator, k)  # lam^2 = p2 / j8
        assert lam * lam * j8 == p2
        p3 = j12 * lam**3
        return ModuliPoint((Fraction(0), p2, abs(p3)), "J8")
    if j12 != 0:
        cf, _ = _factor_kernel(j12, 3)
        return ModuliPoint((Fraction(0), Fraction(0), Fraction(cf)), "J12")
    raise ValueError("degenerate invariant triple")


def moduli_point(f: BinaryForm) -> ModuliPoint:
    """The weighted moduli point of a quintic with at most double roots."""
    if stability_classify(f) == "unstable":
        raise ValueError("not in U")
    j4, j8, j12, _ = invariants(f).as_tuple()
    return normalize_weighted((j4, j8, j12))
