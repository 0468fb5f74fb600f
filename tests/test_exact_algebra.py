"""Exact rational arithmetic on binary forms: substitution, resultants,
discriminants, squarefree structure, bounded factor search, kernels."""

import random
from fractions import Fraction
from unittest import mock

import pytest

from conftest import power, x_poly
from dp4.binforms import (
    BinaryForm,
    discriminant,
    form_gcd,
    mobius_substitute,
    resultant,
    squarefree_profile,
)
from dp4.biforms import BiForm
from dp4.factor_search import WFactor, twisted_factor_search
from dp4 import factor_search, linalg

F = Fraction

SWAP = ((0, 1), (1, 0))
IDENT = ((1, 0), (0, 1))

X = BinaryForm(1, (F(1), F(0)))
Y = BinaryForm(1, (F(0), F(1)))


def lin(a, b):
    # a*x + b*y
    return BinaryForm(1, (F(a), F(b)))


def test_binary_form_keeps_exact_coefficients():
    # Fractions and ints, in any sequence, come back as a tuple of Fractions
    coeffs = (F(1, 2), F(-3))

    class Sub(Fraction):
        pass

    for given in (coeffs, [F(1, 2), F(-3)], (F(1, 2), -3), (Sub(1, 2), F(-3))):
        got = BinaryForm(1, given).coeffs
        assert type(got) is tuple and got == coeffs
        assert all(type(c) is Fraction for c in got)
    assert BinaryForm(0, (True,)).coeffs == (F(1),)


def test_substitute_swap_on_x5():
    f = BinaryForm(5, (F(1), 0, 0, 0, 0, 0))
    g = mobius_substitute(f, SWAP)
    assert g == BinaryForm(5, (0, 0, 0, 0, 0, F(1)))


def test_substitute_identity():
    rng = random.Random(101)
    for _ in range(10):
        f = BinaryForm(5, tuple(F(rng.randint(-9, 9)) for _ in range(6)))
        assert mobius_substitute(f, IDENT) == f


def test_substitute_matches_pointwise_evaluation():
    rng = random.Random(102)
    for _ in range(5):
        f = BinaryForm(4, tuple(F(rng.randint(-9, 9)) for _ in range(5)))
        a, b, c, d = 2, 1, 1, 1
        g = mobius_substitute(f, ((a, b), (c, d)))
        for _ in range(20):
            x0, y0 = F(rng.randint(-10, 10)), F(rng.randint(-10, 10))
            assert g.evaluate(x0, y0) == f.evaluate(a * x0 + b * y0, c * x0 + d * y0)


def test_substitute_right_action():
    rng = random.Random(103)
    m1 = ((1, 2), (1, 3))
    m2 = ((2, -1), (3, -1))
    prod = tuple(
        tuple(sum(m1[i][k] * m2[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )
    for _ in range(5):
        f = BinaryForm(5, tuple(F(rng.randint(-9, 9)) for _ in range(6)))
        assert mobius_substitute(mobius_substitute(f, m1), m2) == mobius_substitute(f, prod)


def test_substitute_singular_matrix_rejected():
    f = BinaryForm(2, (F(1), F(0), F(1)))
    with pytest.raises(ValueError):
        mobius_substitute(f, ((1, 2), (2, 4)))


def test_discriminant_x5_is_zero():
    f = BinaryForm(5, (F(1), 0, 0, 0, 0, 0))
    assert discriminant(f) == 0


def test_discriminant_root_difference_oracle():
    roots = [F(0), F(-1), F(-2), F(-3), F(-4)]
    f = BinaryForm.from_roots(roots)
    expect = F(1)
    for i in range(5):
        for j in range(i + 1, 5):
            expect *= (roots[i] - roots[j]) ** 2
    assert discriminant(f) == expect


def test_discriminant_covariance_det_power():
    # disc(f o g) = det(g)^(d(d-1)) disc(f); for quintics det^20
    rng = random.Random(104)
    g = ((2, 1), (1, 1))
    det = 1
    for _ in range(5):
        f = BinaryForm(5, tuple(F(rng.randint(-9, 9)) for _ in range(6)))
        assert discriminant(mobius_substitute(f, g)) == F(det) ** 20 * discriminant(f)
    g2 = ((3, 1), (1, 1))
    f = BinaryForm.from_roots([0, 1, 2, 3, 4])
    assert discriminant(mobius_substitute(f, g2)) == F(2) ** 20 * discriminant(f)


def test_discriminant_zero_iff_multiple_root():
    rng = random.Random(105)
    for _ in range(10):
        roots = rng.sample(range(-8, 9), 5)
        f = BinaryForm.from_roots(roots)
        assert discriminant(f) != 0
        g = BinaryForm.from_roots([roots[0]] + roots[:4])
        assert discriminant(g) == 0


def test_resultant_multiplicative():
    rng = random.Random(106)
    for _ in range(8):
        f = BinaryForm(2, tuple(F(rng.randint(-5, 5)) for _ in range(3)))
        g = BinaryForm(3, tuple(F(rng.randint(-5, 5)) for _ in range(4)))
        h = BinaryForm(2, tuple(F(rng.randint(-5, 5)) for _ in range(3)))
        if f.is_zero or g.is_zero or h.is_zero:
            continue
        assert resultant(f * h, g) == resultant(f, g) * resultant(h, g)


def test_resultant_vanishes_on_shared_root():
    f = BinaryForm.from_roots([1, 2])
    g = BinaryForm.from_roots([2, 5, 7])
    assert resultant(f, g) == 0
    # root at infinity shared: both pure in y
    assert resultant(Y * X, Y * Y) == 0


def test_squarefree_profile_structure():
    f = BinaryForm.from_roots([0, 0, -1, -1, -1])
    prof = squarefree_profile(f)
    assert [(p.degree, m) for p, m in prof] == [(1, 2), (1, 3)]
    rebuilt = BinaryForm.constant(1)
    for p, m in prof:
        rebuilt = rebuilt * power(p, m)
    # equality up to a nonzero constant
    assert rebuilt.scale(f.coeffs[f.y_valuation()] / rebuilt.coeffs[rebuilt.y_valuation()]) == f


def test_squarefree_profile_squarefree_input():
    f = BinaryForm.from_roots([1, 2, 3])
    assert all(m == 1 for _, m in squarefree_profile(f))


def test_squarefree_profile_detects_y_factor():
    # x^2 y^3: the root at infinity carried by y
    f = X * X * Y * Y * Y
    prof = squarefree_profile(f)
    mults = sorted(m for _, m in prof)
    assert mults == [2, 3]
    assert any(p == Y and m == 3 for p, m in prof)


def test_squarefree_profile_random_roundtrip():
    rng = random.Random(107)
    for _ in range(10):
        roots = rng.sample(range(-6, 7), 3)
        mults = [1, 2, 2]
        f = BinaryForm.constant(F(rng.choice((1, 2, -3))))
        for r, m in zip(roots, mults):
            f = f * BinaryForm.from_roots([r] * m)
        prof = squarefree_profile(f)
        # squarefree factors group by multiplicity: one simple root, one
        # quadratic factor carrying both double roots
        by_mult = {m: p.degree for p, m in prof}
        assert by_mult == {1: 1, 2: 2}


def test_form_gcd_basic():
    f = BinaryForm.from_roots([1, 2, 3])
    g = BinaryForm.from_roots([2, 3, 4])
    d = form_gcd(f, g)
    assert d.degree == 2
    assert resultant(d, BinaryForm.from_roots([2, 3])) == 0


def uv_coefficients(f):
    return [f.uv_coefficient(j) for j in range(f.n + 1)]


def assert_result_divides(coeffs, found, bound):
    # the reported factor divides f = sum coeffs[j] u^(n-j) v^j exactly
    assert found is not None
    tag, factor = found
    if tag == "content":
        assert factor.degree >= 1
        assert all(form_gcd(factor, c).degree == factor.degree for c in coeffs)
    elif tag == "u":
        assert coeffs[-1].is_zero
    elif tag == "v":
        assert coeffs[0].is_zero
    else:
        # a WFactor of w-degree in [1, bound] with zero pseudo-remainder on
        # f(sigma, w) = sum coeffs[n - k] w^k, by the Fraction oracle
        from test_oracles import fraction_wpseudo_divmod

        assert tag == "factor"
        assert 1 <= len(factor.w_coeffs) - 1 <= bound
        n = len(coeffs) - 1
        f_w = [x_poly(coeffs[n - k]) for k in range(n + 1)]
        _, rem, _ = fraction_wpseudo_divmod(f_w, [list(c) for c in factor.w_coeffs])
        assert rem == []


def random_biform(rng, m, n, size):
    return BiForm(
        m, n, tuple(tuple(F(rng.randint(-size, size)) for _ in range(n + 1)) for _ in range(m + 1))
    )


L = BiForm(1, 1, ((F(1), F(0)), (F(0), F(-1))))  # s u - t v
M = BiForm(1, 1, ((F(2), F(1)), (F(1), F(3))))  # 2 s u + s v + t u + 3 t v
U = BiForm(0, 1, ((F(1), F(0)),))


def planted_linear_cases():
    # L * G has a bidegree-(1,1) factor
    rng = random.Random(108)
    for _ in range(3):
        g = random_biform(rng, 2, 4, 4)
        if not g.is_zero:
            yield uv_coefficients(L * g)


def irreducible_case():
    # s u^5 - t v^5 has no factor of (u,v)-degree <= 2
    grid_rows = []
    for a in range(2):
        row = [F(0)] * 6
        grid_rows.append(row)
    grid_rows[0][0] = F(1)
    grid_rows[1][5] = F(-1)
    return uv_coefficients(BiForm(1, 5, tuple(tuple(r) for r in grid_rows)))


def product_cases():
    # products of a (1,1) and a (1,2) biform
    rng = random.Random(109)
    for _ in range(4):
        f1, f2 = random_biform(rng, 1, 1, 3), random_biform(rng, 1, 2, 3)
        if not (f1.is_zero or f2.is_zero):
            yield uv_coefficients(f1 * f2)


EARLY_RETURNS = [
    # (s + 2t) * (s u^2 + t u v + (s + t) v^2)
    ([lin(1, 2) * X, lin(1, 2) * Y, lin(1, 2) * lin(1, 1)], ("content", lin(1, 2))),
    # u * (s u + t v): no v^2 term
    ([X, Y, BinaryForm.zero(1)], ("u", None)),
    # v * (s u + t v): no u^2 term
    ([BinaryForm.zero(1), X, Y], ("v", None)),
]


def test_factor_search_planted_linear():
    for coeffs in planted_linear_cases():
        found = twisted_factor_search(coeffs, 1)
        assert found is not None and found[0] == "factor"
        assert_result_divides(coeffs, found, 1)


def test_factor_search_none_for_irreducible():
    assert twisted_factor_search(irreducible_case(), 1) is None
    assert twisted_factor_search(irreducible_case(), 2) is None


def test_factor_search_result_divides():
    # whenever a factor is reported it must divide exactly
    for coeffs in product_cases():
        assert_result_divides(coeffs, twisted_factor_search(coeffs, 2), 2)


@pytest.mark.parametrize("coeffs, expected", EARLY_RETURNS)
def test_factor_search_early_returns(coeffs, expected):
    assert twisted_factor_search(coeffs, 2) == expected


def wfactor(*w_coeffs):
    return ("factor", WFactor(tuple(tuple(F(x) for x in c) for c in w_coeffs)))


# Non-reduced forms, which have no squarefree fiber, so the search takes the
# radical; G is a random (2,3) biform.  The expected results are those of the
# gcd-first search that ran before the Hensel lift was unified.
G = random_biform(random.Random(7), 2, 3, 4)
NON_REDUCED = [
    pytest.param(L * L * G, 1, wfactor([-1], [0, 1]), id="L2G-1"),
    pytest.param(L * L * G, 2, wfactor([-1], [0, 1]), id="L2G-2"),
    pytest.param(L * L * L * M * M, 1, wfactor([3, 1], [1, 2]), id="L3M2-1"),
    pytest.param(L * L * L * M * M, 2, wfactor([-3, -1], [-1, 1, 1], [0, 1, 2]), id="L3M2-2"),
    pytest.param(L * L * M * M * U, 1, ("u", None), id="L2M2u-1"),
    pytest.param(L * L * M * M * U, 2, ("u", None), id="L2M2u-2"),
]


@pytest.mark.parametrize("f, bound, expected", NON_REDUCED)
def test_factor_search_non_reduced(f, bound, expected):
    coeffs = uv_coefficients(f)
    with mock.patch.object(factor_search, "wgcd", wraps=factor_search.wgcd) as spy:
        found = twisted_factor_search(coeffs, bound)
    assert_result_divides(coeffs, found, bound)
    assert repr(found) == repr(expected)
    # every case but the early return reaches the radical
    assert spy.called == (found[0] == "factor")


def biform(*rows):
    return BiForm(len(rows) - 1, len(rows[0]) - 1, tuple(tuple(F(x) for x in r) for r in rows))


# Planted factors G that the leading-coefficient trick must recover whole,
# each the only factor of (u,v)-degree <= bound.  In the top-degree cases a
# non-leading coefficient of G has the full sigma-degree dmax and the cofactor
# is constant in sigma, so a lift one order short of dmax + 1 loses G's top
# term; in the lead cases G and its cofactor both have a leading coefficient
# of positive degree in sigma.
H_CONST = biform([1, 0, 0, -2])  # u^3 - 2 v^3
H_LEAD = biform([1, 0, 1, 0], [2, 0, -1, 3])  # (s + 2t) u^3 + (s - t) u v^2 + 3t v^3
G_LIN = biform([1, 1], [1, -2])  # (s + t) u + (s - 2t) v
PLANTED_LC = [
    # t^3 u + (s^3 + 2 s t^2 - t^3) v
    pytest.param(
        biform([0, 1], [0, 0], [0, 2], [1, -1]) * H_CONST,
        1,
        wfactor([-1, 2, 0, 1], [1]),
        id="top-degree-1",
    ),
    # t^2 u^2 + s^2 u v + (s^2 + t^2) v^2
    pytest.param(
        biform([0, 1, 1], [0, 0, 0], [1, 0, 1]) * H_CONST,
        2,
        wfactor([1, 0, 1], [0, 0, 1], [1]),
        id="top-degree-2",
    ),
    pytest.param(G_LIN * H_LEAD, 1, wfactor([-2, 1], [1, 1]), id="lead-1"),
    # s u^2 + t u v + (s + t) v^2
    pytest.param(
        biform([1, 0, 1], [0, 1, 1]) * H_LEAD, 2, wfactor([1, 1], [1], [0, 1]), id="lead-2"
    ),
    pytest.param(biform([1], [3]) * G_LIN * H_LEAD, 2, ("content", lin(1, 3)), id="content"),
]


@pytest.mark.parametrize("f, bound, expected", PLANTED_LC)
def test_factor_search_planted_lc(f, bound, expected):
    found = twisted_factor_search(uv_coefficients(f), bound)
    assert repr(found) == repr(expected)


def test_factor_search_lc_with_content():
    # the search proper on a form with an (s,t)-content: lc(f) carries the
    # content too, and the primitive part of the truncated product drops it
    coeffs = uv_coefficients(biform([1], [3]) * G_LIN * H_LEAD)
    n = len(coeffs) - 1
    found = factor_search.search_w_factor([coeffs[n - k].zx_poly() for k in range(n + 1)], 2)
    assert repr(("factor", found)) == repr(wfactor([-2, 1], [1, 1]))


def test_factor_search_zero_form_rejected():
    with pytest.raises(ValueError):
        twisted_factor_search([BinaryForm.zero(1)] * 3, 2)


def test_kernel_basis_identity():
    assert linalg.kernel_basis([[F(int(i == j)) for j in range(4)] for i in range(4)]) == (1, [])


def test_kernel_basis_one_relation():
    d, k = linalg.kernel_basis([[F(1), F(1)]])
    assert d == 1 and len(k) == 1
    v = k[0]
    assert v[0] + v[1] == 0 and (v[0], v[1]) != (0, 0)


def test_kernel_basis_planted_rank():
    rng = random.Random(110)
    # 3x5 matrix with rows spanning rank 2: kernel dimension 3
    r1 = [F(rng.randint(-5, 5)) for _ in range(5)]
    r2 = [F(rng.randint(-5, 5)) for _ in range(5)]
    r3 = [a + 2 * b for a, b in zip(r1, r2)]
    m = [r1, r2, r3]
    assert linalg.rank([row[:] for row in m]) == 2
    d, kern = linalg.kernel_basis([row[:] for row in m])
    assert d > 0 and len(kern) == 3
    assert all(type(x) is int for v in kern for x in v)
    for v in kern:
        assert all(sum(row[j] * v[j] for j in range(5)) == 0 for row in m)


def test_det_and_charpoly_agree():
    rng = random.Random(111)
    m = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
    cp = linalg.charpoly([row[:] for row in m])
    # charpoly of m evaluated at 0 gives det(-m) = (-1)^n det(m)
    assert cp[0] == linalg.det([[-x for x in row] for row in m])


def test_biform_coefficient_convention():
    # grid[a][b] multiplies s^(m-a) t^a u^(n-b) v^b
    f = BiForm(1, 1, ((F(2), F(0)), (F(0), F(3))))
    # f = 2 s u + 3 t v
    assert f.uv_coefficient(0) == BinaryForm(1, (F(2), F(0)))
    assert f.uv_coefficient(1) == BinaryForm(1, (F(0), F(3)))


def test_biform_product_degrees():
    rng = random.Random(112)
    f = BiForm(1, 2, tuple(tuple(F(rng.randint(-3, 3)) for _ in range(3)) for _ in range(2)))
    g = BiForm(2, 1, tuple(tuple(F(rng.randint(-3, 3)) for _ in range(2)) for _ in range(3)))
    h = f * g
    assert (h.m, h.n) == (3, 3)
    # the u^(3-k) v^k part of a product collects the products of the parts
    for k in range(4):
        parts = [
            f.uv_coefficient(i) * g.uv_coefficient(k - i)
            for i in range(max(0, k - 1), min(2, k) + 1)
        ]
        assert h.uv_coefficient(k) == sum(parts[1:], parts[0])
