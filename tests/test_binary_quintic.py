"""Integral invariants of binary quintics, the weighted moduli point, and
stability classification."""

import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import BIG_PRIMES
from dp4.binforms import BinaryForm, discriminant, mobius_substitute
from dp4.quintic import (
    KERNEL_TRIAL_BOUND,
    InvariantVector,
    disc_as_invariant,
    invariants,
    moduli_point,
    normalize_weighted,
    stability_classify,
    syzygy_coefficients,
    syzygy_monomials,
    transvectant,
)

F = Fraction


def _is_rational_square(x: Fraction) -> bool:
    if x < 0:
        return False
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    return rn * rn == x.numerator and rd * rd == x.denominator


def _icbrt(n: int) -> int:
    """Floor of the cube root of an integer n >= 0, by integer Newton
    iteration from a power of two above it."""
    if n < 2:
        return n
    r = 1 << -(-n.bit_length() // 3)
    while True:
        s = (2 * r + n // (r * r)) // 3
        if s >= r:
            return r
        r = s


def _is_rational_cube(x: Fraction) -> bool:
    n, d = abs(x.numerator), x.denominator
    return _icbrt(n) ** 3 == n and _icbrt(d) ** 3 == d


def same_point(f: BinaryForm, g: BinaryForm) -> bool:
    """Whether two quintics in U have equal weighted moduli points; decided
    by cross-ratios and rational square/cube tests, no factorization.  The
    equivalence oracle for moduli_point."""
    x, y, z, _ = invariants(f).as_tuple()
    x2, y2, z2, _ = invariants(g).as_tuple()
    if (x, y, z) == (0, 0, 0) or (x2, y2, z2) == (0, 0, 0):
        raise ValueError("degenerate invariant triple")
    if (x == 0) != (x2 == 0) or (y == 0) != (y2 == 0) or (z == 0) != (z2 == 0):
        return False
    if x != 0:
        lam = x2 / x
        return y2 == y * lam**2 and z2 == z * lam**3
    if y != 0:
        if not _is_rational_square(y2 / y):
            return False
        if z == 0:
            return True
        return (z2 / z) ** 2 == (y2 / y) ** 3
    return _is_rational_cube(z2 / z)


def random_quintic(rng):
    while True:
        f = BinaryForm(5, tuple(F(rng.randint(-9, 9)) for _ in range(6)))
        if not f.is_zero:
            return f


def random_unimodular(rng):
    a, b, c = (rng.randint(-3, 3) for _ in range(3))
    return ((1 + a * b, (1 + a * b) * c + a), (b, b * c + 1))


def test_transvectant_zeroth_is_product():
    rng = random.Random(201)
    f = BinaryForm(3, tuple(F(rng.randint(-5, 5)) for _ in range(4)))
    g = BinaryForm(2, tuple(F(rng.randint(-5, 5)) for _ in range(3)))
    assert transvectant(f, g, 0) == f * g


def test_transvectant_odd_self_vanishes():
    rng = random.Random(202)
    f = BinaryForm(5, tuple(F(rng.randint(-5, 5)) for _ in range(6)))
    assert transvectant(f, f, 1).is_zero
    assert transvectant(f, f, 3).is_zero


def test_transvectant_x2_y2_full():
    # (x^2, y^2)_2 by the direct Cayley-operator sum:
    # (1/2!)^2 * [f_xx g_yy - 2 f_xy g_xy + f_yy g_xx] / C(2,?) normalization
    f = BinaryForm(2, (F(1), F(0), F(0)))
    g = BinaryForm(2, (F(0), F(0), F(1)))
    t = transvectant(f, g, 2)
    assert t.degree == 0
    # direct formula: scale 0!0!/(2!2!) = 1/4; sum over k of
    # (-1)^k C(2,k) d^2f/dx^(2-k)dy^k * d^2g/dx^k dy^(2-k) = 2*2 = 4 at k=0
    assert t.coeffs[0] == F(1)


def test_transvectant_symmetry_sign():
    rng = random.Random(203)
    f = BinaryForm(4, tuple(F(rng.randint(-5, 5)) for _ in range(5)))
    g = BinaryForm(3, tuple(F(rng.randint(-5, 5)) for _ in range(4)))
    for r in range(4):
        lhs = transvectant(g, f, r)
        rhs = transvectant(f, g, r).scale((-1) ** r)
        assert lhs == rhs


def test_transvectant_index_out_of_range():
    f = BinaryForm(2, (F(1), F(0), F(1)))
    with pytest.raises(ValueError):
        transvectant(f, f, 3)


def test_invariants_unimodular_invariance():
    rng = random.Random(204)
    for _ in range(20):
        f = random_quintic(rng)
        g = random_unimodular(rng)
        assert invariants(mobius_substitute(f, g)).as_tuple() == invariants(f).as_tuple()


def test_invariants_homogeneity():
    rng = random.Random(205)
    f = random_quintic(rng)
    j4, j8, j12, j18 = invariants(f).as_tuple()
    for c in (F(2), F(-3), F(1, 2)):
        s4, s8, s12, s18 = invariants(f.scale(c)).as_tuple()
        assert (s4, s8, s12, s18) == (c**4 * j4, c**8 * j8, c**12 * j12, c**18 * j18)


def test_invariants_reject_wrong_degree():
    with pytest.raises(ValueError):
        invariants(BinaryForm(4, (F(1), 0, 0, 0, 0)))


def test_syzygy_holds_on_samples():
    rng = random.Random(206)
    monos = syzygy_monomials()
    coeffs = syzygy_coefficients()
    assert all(4 * a + 8 * b + 12 * c == 36 for a, b, c in monos)
    for _ in range(25):
        j4, j8, j12, j18 = invariants(random_quintic(rng)).as_tuple()
        total = sum(
            coeff * j4**a * j8**b * j12**c
            for (a, b, c), coeff in zip(monos, coeffs)
        )
        assert total == j18 * j18


def test_invariant_vector_checks_j18_relation():
    j4, j8, j12, j18 = invariants(random_quintic(random.Random(208))).as_tuple()
    assert InvariantVector(j4, j8, j12, -j18).J18 == -j18
    assert j18 != 0
    for bad in (j18 + 1, 2 * j18):
        with pytest.raises(ValueError, match="J18"):
            InvariantVector(j4, j8, j12, bad)


def test_disc_as_invariant_fit():
    c1, c2 = disc_as_invariant()
    rng = random.Random(207)
    for _ in range(50):
        f = random_quintic(rng)
        j4, j8, _, _ = invariants(f).as_tuple()
        assert discriminant(f) == c1 * j4 * j4 + c2 * j8


def test_disc_as_invariant_vanishes_on_double_root():
    c1, c2 = disc_as_invariant()
    f = BinaryForm.from_roots([0, 0, 1, 2, 3])
    j4, j8, _, _ = invariants(f).as_tuple()
    assert c1 * j4 * j4 + c2 * j8 == 0


def test_disc_as_invariant_split_quintic():
    c1, c2 = disc_as_invariant()
    f = BinaryForm.from_roots([0, -1, -2, -3, -4])
    j4, j8, _, _ = invariants(f).as_tuple()
    expect = F(1)
    roots = [F(0), F(-1), F(-2), F(-3), F(-4)]
    for i in range(5):
        for j in range(i + 1, 5):
            expect *= (roots[i] - roots[j]) ** 2
    assert c1 * j4 * j4 + c2 * j8 == expect


def test_stability_labels():
    assert stability_classify(BinaryForm.from_roots([0, 1, 2, 3, 4])) == "all-simple"
    assert stability_classify(BinaryForm.from_roots([0, 0, 1, 2, 3])) == "one-double"
    assert stability_classify(BinaryForm.from_roots([0, 0, 1, 1, 2])) == "two-doubles"
    x3y2 = BinaryForm(5, (0, 0, 0, F(1), 0, 0))
    assert stability_classify(x3y2) == "unstable"


def test_stability_invariance():
    rng = random.Random(208)
    samples = [
        BinaryForm.from_roots([0, 1, 2, 3, 4]),
        BinaryForm.from_roots([0, 0, 1, 2, 3]),
        BinaryForm.from_roots([0, 0, 1, 1, 2]),
    ]
    for f in samples:
        for _ in range(5):
            g = random_unimodular(rng)
            assert stability_classify(mobius_substitute(f, g)) == stability_classify(f)


def test_stability_zero_form_rejected():
    with pytest.raises(ValueError):
        stability_classify(BinaryForm.zero(5))


def test_normalize_weighted_example():
    pt = normalize_weighted((F(2), F(12), F(40)))
    assert pt.coords == (F(1), F(3), F(5))
    assert pt.normalized == "J4"


def test_normalize_weighted_j4_zero():
    # lam^2 * 8 must be a squarefree integer: 8 = 2 * 2^2 -> 2
    pt = normalize_weighted((F(0), F(8), F(16)))
    assert pt.coords[0] == 0
    assert pt.normalized == "J8"
    assert pt.coords[1] == F(2)


@pytest.mark.parametrize(
    "triple, coords, anchor",
    [
        # -72/5: 72*5 = 10 * 6^2, so lam = 5/6 and J12 -> 7/3 * (5/6)^3
        ((F(0), F(-72, 5), F(7, 3)), (F(0), F(-10), F(875, 648)), "J8"),
        ((F(0), F(792, 343), F(-5, 2)), (F(0), F(154), F(588245, 432)), "J8"),
        ((F(0), F(0), F(-2592, 25)), (F(0), F(0), F(60)), "J12"),
    ],
)
def test_normalize_weighted_factor_kernel(triple, coords, anchor):
    # the J8 and J12 anchors factor integers by trial division
    pt = normalize_weighted(triple)
    assert pt.coords == coords
    assert pt.normalized == anchor


def test_invariants_cold_start_does_not_import_sympy():
    script = """
import sys
from fractions import Fraction
import dp4.cli
from dp4.binforms import BinaryForm
from dp4.quintic import InvariantVector, invariants, moduli_point
f = BinaryForm(5, tuple(Fraction(c) for c in (1, 2, 3, 4, 5, 7)))
v = invariants(f)
assert v.J4 != 0
assert moduli_point(f).normalized == "J4"
InvariantVector(*v.as_tuple())
from dp4 import lines
assert lines.report() == lines.load_golden()
print("sympy" in sys.modules)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_normalize_weighted_refuses_kernel_beyond_bound():
    assert min(BIG_PRIMES) > KERNEL_TRIAL_BOUND
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cannot compute the square kernel"):
        normalize_weighted((F(0), F(BIG_PRIMES[0] * BIG_PRIMES[1]), F(1)))
    with pytest.raises(ValueError, match="cannot compute the cube kernel"):
        normalize_weighted((F(0), F(0), F(1, BIG_PRIMES[0] * BIG_PRIMES[1])))
    assert time.perf_counter() - start < 5
    # one prime above the bound is below its square, so it is accepted
    pt = normalize_weighted((F(0), F(4 * BIG_PRIMES[0]), F(0)))
    assert pt.coords == (F(0), F(BIG_PRIMES[0]), F(0))


@pytest.mark.parametrize("e1, e2", [(1, 1), (2, 1), (2, 2), (3, 3), (5, 5)])
@pytest.mark.parametrize("q", [BIG_PRIMES[1], 1000033])
def test_normalize_weighted_refuses_two_primes_beyond_bound(q, e1, e2):
    # a power of one prime above the bound is accepted, a product of powers
    # of two such primes is not, even when their product lies between 10^12
    # and 2^40 (1000003 * 1000033)
    n = BIG_PRIMES[0] ** e1 * q**e2
    with pytest.raises(ValueError, match="cannot compute the square kernel"):
        normalize_weighted((F(0), F(n), F(1)))
    pt = normalize_weighted((F(0), F(-(q ** (e1 + e2))), F(0)))
    assert pt.coords == (F(0), F(-(q ** ((e1 + e2) % 2))), F(0))


def test_normalize_weighted_rejects_zero_triple():
    with pytest.raises(ValueError):
        normalize_weighted((F(0), F(0), F(0)))


def test_moduli_point_mobius_invariant():
    rng = random.Random(209)
    for _ in range(10):
        f = random_quintic(rng)
        if stability_classify(f) == "unstable":
            continue
        g = random_unimodular(rng)
        assert moduli_point(mobius_substitute(f, g)) == moduli_point(f)


def test_moduli_point_unstable_rejected():
    x3y2 = BinaryForm(5, (0, 0, 0, F(1), 0, 0))
    with pytest.raises(ValueError, match="not in U"):
        moduli_point(x3y2)


def test_moduli_point_separates_random_orbits():
    rng = random.Random(210)
    seen = []
    for _ in range(10):
        roots = rng.sample(range(-12, 13), 5)
        f = BinaryForm.from_roots(roots)
        pt = moduli_point(f)
        for g, other in seen:
            if pt == other:
                # collision: confirm with the equivalence oracle
                assert same_point(f, g)
        seen.append((f, pt))


def test_same_point_on_scaled_forms():
    f = BinaryForm.from_roots([0, 1, 2, 3, 4])
    assert same_point(f, f.scale(F(7, 3)))
    g = mobius_substitute(f, ((2, 1), (1, 1)))
    assert same_point(f, g)


@pytest.mark.parametrize(
    "value, expected",
    [
        (F(10**399), True),
        (F((3**70 + 1) ** 3), True),
        (F(-(3**70 + 1) ** 3, 8), True),
        (F(10**400), False),
        (F((3**70 + 1) ** 3 + 1), False),
        (F(1, (3**70 + 1) ** 3 + 1), False),
    ],
)
def test_is_rational_cube_huge(value, expected):
    # exact integer cube roots: no float overflow, no linear correction loop
    start = time.perf_counter()
    assert _is_rational_cube(value) == expected
    assert time.perf_counter() - start < 1.0
