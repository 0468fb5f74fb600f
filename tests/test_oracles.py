"""The fast exact paths against the slow exact paths they replace.

The spectral quintic of a pencil, the spectral form of a family and the
discriminant of a family are interpolated from determinants at integer
nodes, determinants and characteristic polynomials run fraction-free over
Z, polynomial gcds run as primitive pseudo-remainder sequences over Z[x]
and Z[sigma][w], the bounded factor search lifts every candidate fiber
factor by one linear Hensel lift and takes a gcd only on non-reduced forms,
and the constants of the J18^2 relation and of disc in
J4^2, J8 are frozen literals.  The previous implementations live on here as
oracles, unchanged: both spectral forms as the column-mixing expansion
(Fraction determinants for a pencil, determinants over binary forms for a
family), Delta as the 8x8 Sylvester determinant over binary forms, the
determinant as Gaussian elimination over Fraction, the characteristic
polynomial as Faddeev-LeVerrier over Fraction, the gcd over Q as the
Euclidean algorithm over Fraction, the gcd over Q(sigma) as the pseudo-
remainder sequence on Fraction coefficients, the bounded factor search as
the gcd-first search with Newton iteration for roots and a quadratic Hensel
lift, both invariant constants as exact fits on sampled quintics, and the
subgroup closure of the 16-line symmetry group as composition of signed
permutations of the five partition indices (it now composes permutations of
the 16 lines), factorization over Q as sympy's factor_list (it is now
Zassenhaus's method over Z), the square and cube kernels of the moduli
point as sympy's factorint (they now come from bounded trial division and
an integer root for a prime power), smoothness of a plane quintic as a
sympy Groebner basis of the Jacobian ideal (it is now a resultant
certificate), the Chern and dimension identities on sympy symbols (they
now run on families.Poly), the discriminant of a binary form as the Sylvester
determinant over Fraction (it now runs on the integer-scaled form), the
simple-branching flag of Delta as Yun's algorithm alone (Delta is now first
proved squarefree modulo a prime), Yun's algorithm itself over Fraction (it
now runs over Z), the h8_ci congruence C^T Q C as sums of BinaryForm
products (it now runs on integer coefficient lists), and the spectral form
and Delta of a family interpolated from Fraction fibers, BinaryForm.evaluate
into pencil_determinant and SpectralForm.fiber into discriminant (both now
run on integer-scaled entries at integer nodes and divide once).
"""

import math
import operator
import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import BIG_PRIMES

from dp4 import binforms, factor_search, families, linalg, lines, models, quintic
from dp4.binforms import (
    BinaryForm,
    discriminant,
    pdeg,
    pderiv,
    pdivexact,
    pdivmod,
    peval,
    pencil_determinant,
    pgcd,
    pinterpolate,
    pmul,
    pnorm,
    pscale,
    pshift,
    psquarefree_decomposition,
    psub,
    squarefree_profile,
)
from dp4.factor_search import (
    WFactor,
    _divides,
    _over_z,
    _wfactor,
    pade,
    twisted_factor_search,
    uni_irreducible_factors,
    wadd,
    wdeg,
    wderiv,
    wdivexact,
    wevaluate,
    wgcd,
    wmul,
    wmul_poly,
    wnorm,
    wprimitive,
    wsub,
)
from dp4.families import (
    FamilySpec,
    Poly,
    SpectralForm,
    discriminant_family,
    expected_coefficient_degree,
    height,
    spectral_form,
)
from dp4.lines import SignedPermutation
from dp4.models import build_example, split_diagonal_example, squared_discriminant_example
from dp4.pencils import SymmetricPencil, spectral_quintic
from dp4.plane_quintic import (
    PlaneQuintic,
    monomials,
    pencil_fixture,
    quadrilateral_fixture,
    sadd,
    sinv,
    smul,
    ssub,
    strunc,
)
from dp4.quintic import _raw_invariants, disc_as_invariant, syzygy_coefficients, syzygy_monomials

F = Fraction

# ---------------------------------------------------------------------------
# oracles


def column_mixtures(a, b):
    """For k = 0..n, the list of matrices taking a k-subset of columns from b
    and the rest from a.  Summing det over the k-th list gives the u^(n-k) v^k
    coefficient of det(u*a + v*b), since det is linear in each column."""
    n = len(a)
    for k in range(n + 1):
        mixes = []
        for cols in combinations(range(n), k):
            chosen = set(cols)
            mixes.append(
                [[(b[i][j] if j in chosen else a[i][j]) for j in range(n)] for i in range(n)]
            )
        yield mixes


def _det_forms(matrix) -> BinaryForm:
    return linalg.det_minors(
        matrix,
        add=operator.add,
        mul=operator.mul,
        neg=operator.neg,
        zero=BinaryForm.zero(0),
        is_zero=lambda a: a.is_zero,
    )


def column_mixing_spectral_quintic(pencil: SymmetricPencil) -> BinaryForm:
    """det(uP + vQ) as a binary quintic, by column-mixing expansion: the
    u^(5-k) v^k coefficient sums det over all ways to take k columns from Q."""
    coeffs = [
        sum((linalg.det(m) for m in mixes), Fraction(0))
        for mixes in column_mixtures(pencil.P, pencil.Q)
    ]
    f = BinaryForm(5, tuple(coeffs))
    if f.is_zero:
        raise ValueError("degenerate pencil")
    return f


def column_mixing_spectral_form(spec) -> SpectralForm:
    """Column-mixing expansion: the u^(5-k) v^k coefficient sums, over all
    k-subsets T of columns, the determinant taking columns T from A2 and the
    rest from A1; every summand has the same (s,t)-degree."""
    coeffs = []
    for k, mixes in enumerate(column_mixtures(spec.A1, spec.A2)):
        expected = expected_coefficient_degree(spec, k)
        total = sum((_det_forms(m) for m in mixes), BinaryForm.zero(max(expected, 0)))
        if not total.is_zero and total.degree != expected:
            raise RuntimeError("spectral coefficient degree violates bookkeeping")
        coeffs.append(total)
    form = SpectralForm(tuple(coeffs))
    if form.is_zero:
        raise ValueError("generically degenerate family")
    return form


def sylvester_delta(sf) -> BinaryForm:
    """Res(f_u, f_v)/125 of the spectral form, as the determinant of the
    Sylvester matrix whose entries are (s,t)-forms."""
    c = sf.coefficients
    fu = [c[j].scale(5 - j) for j in range(5)]
    fv = [c[j + 1].scale(j + 1) for j in range(5)]
    size = 8
    zero = BinaryForm.zero(0)
    syl = [[zero] * size for _ in range(size)]
    for r in range(4):
        for j in range(5):
            syl[r][r + j] = fu[j]
            syl[4 + r][r + j] = fv[j]
    return _det_forms(syl).scale(Fraction(1, 125))


def fraction_spectral_form(spec) -> SpectralForm:
    """det(u*A1 + v*A2) interpolated from Fraction fibers: every entry
    evaluated at (k, 1) by BinaryForm.evaluate, each fiber quintic the
    pencil_determinant of the two Fraction matrices."""
    expected = [expected_coefficient_degree(spec, j) for j in range(6)]
    nodes = max(max(expected), 0) + 2

    def at(a, k):
        return [[x.evaluate(k, 1) for x in row] for row in a]

    fibers = [pencil_determinant(at(spec.A1, k), at(spec.A2, k)) for k in range(nodes)]
    coeffs = []
    for j, deg in enumerate(expected):
        p = pinterpolate([f.coeffs[j] for f in fibers])
        if p and pdeg(p) > deg:
            raise RuntimeError("spectral coefficient degree violates bookkeeping")
        coeffs.append(BinaryForm.from_x_poly(p, max(deg, 0)))
    form = SpectralForm(tuple(coeffs))
    if form.is_zero:
        raise ValueError("generically degenerate family")
    return form


def fraction_delta(spec) -> BinaryForm | None:
    """Delta interpolated from the discriminants of the Fraction fibers
    SpectralForm.fiber(k, 1) of fraction_spectral_form; None where Delta = 0
    (h < 0 included)."""
    sf = fraction_spectral_form(spec)
    h = height(spec)
    if h < 0:
        return None  # no nonzero form of degree 2h
    values = [discriminant(sf.fiber(k, 1)) for k in range(2 * h + 2)]
    poly = pinterpolate(values)
    if pdeg(poly) > 2 * h:
        raise RuntimeError("discriminant degree violates bookkeeping")
    if not poly:
        return None
    return BinaryForm.from_x_poly(poly, 2 * h)


def fraction_pgcd(p, q):
    """Monic gcd over Q."""
    a, b = list(p), list(q)
    while b:
        a, b = b, pdivmod(a, b)[1]
    if not a:
        return []
    return pscale(a, 1 / a[-1])


def fraction_squarefree_decomposition(p):
    """Yun's algorithm over Q: [(g, k)] with p = c * prod g^k, g squarefree
    monic, pairwise coprime, k ascending."""
    p = [F(c) for c in p]
    if pdeg(p) < 1:
        return []
    a = fraction_pgcd(p, pderiv(p))
    b = pdivexact(p, a)
    c = pdivexact(pderiv(p), a)
    out = []
    k = 1
    while pdeg(b) > 0:
        d = psub(c, pderiv(b))
        g = fraction_pgcd(b, d)
        if pdeg(g) > 0:
            out.append((g, k))
        b = pdivexact(b, g)
        c = pdivexact(d, g)
        k += 1
    return out


def fraction_det(m) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination."""
    n = len(m)
    a = [row[:] for row in m]
    sign = 1
    res = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        res *= a[col][col]
        inv = 1 / a[col][col]
        for i in range(col + 1, n):
            if a[i][col] != 0:
                c = a[i][col] * inv
                a[i] = [x - c * y for x, y in zip(a[i], a[col])]
    return sign * res


def fraction_discriminant(f: BinaryForm) -> Fraction:
    """(-1)^(d(d-1)/2) Res(f_x, f_y) / d^(d-2) with the resultant the
    determinant of the Sylvester matrix over Fraction."""
    d = f.degree
    if d <= 1:
        return F(1)
    size = 2 * d - 2
    rows = [
        [F(0)] * i + list(part.coeffs) + [F(0)] * (size - i - d)
        for part in (f.derivative_x(), f.derivative_y())
        for i in range(d - 1)
    ]
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * fraction_det(rows) / F(d) ** (d - 2)


def yun_branching(delta: BinaryForm) -> tuple[bool, int]:
    """(squarefree, number of distinct roots) of a nonconstant Delta from its
    squarefree profile by Yun's algorithm."""
    profile = squarefree_profile(delta)
    return all(mult == 1 for _, mult in profile), sum(f.degree for f, _ in profile)


def binaryform_family_from_linear_plus_quadrics(alpha, beta, q1, q2):
    """families.family_from_linear_plus_quadrics with the congruence C^T Q C
    summed from BinaryForm products over Fraction."""
    alpha = [Fraction(x) for x in alpha]
    beta = [Fraction(x) for x in beta]
    if len(alpha) != 6 or len(beta) != 6:
        raise ValueError("need 6 coefficients in each of alpha, beta")
    m = [alpha, beta]
    if linalg.rank([row[:] for row in m]) < 2:
        raise ValueError("elimination impossible: bilinear form has rank < 2")
    kern = linalg.kernel_basis([row[:] for row in m])
    p = linalg.solve([row[:] for row in m], [Fraction(1), Fraction(0)])
    q = linalg.solve([row[:] for row in m], [Fraction(0), Fraction(1)])
    joint = binforms._primitive_ints([*p, *q])
    p, q = joint[:6], joint[6:]
    columns = [[BinaryForm(1, (-q[i], p[i])) for i in range(6)]]
    for v in kern:
        v = binforms._primitive_ints(v)
        columns.append([BinaryForm(0, (x,)) for x in v])

    def restrict(quad):
        quad = [[Fraction(x) for x in row] for row in quad]
        a = [[None] * 5 for _ in range(5)]
        for i in range(5):
            for j in range(5):
                acc = BinaryForm.zero(0)
                for r in range(6):
                    if columns[i][r].is_zero:
                        continue
                    for c in range(6):
                        if quad[r][c] == 0 or columns[j][c].is_zero:
                            continue
                        acc = acc + (columns[i][r] * columns[j][c]).scale(quad[r][c])
                a[i][j] = acc
        return tuple(tuple(row) for row in a)

    return FamilySpec((0, -1, -1, -1, -1), (-2, -2), restrict(q1), restrict(q2))


def fraction_charpoly(m) -> list[Fraction]:
    """Characteristic polynomial det(x I - m) by Faddeev-LeVerrier.

    Returns coefficients [c_0, ..., c_n] with c_n = 1, index = power of x.
    """
    n = len(m)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mk = linalg.mat_mul(m, mk)
        trace = sum(mk[i][i] for i in range(n))
        c = -trace / k
        coeffs[n - k] = c
        for i in range(n):
            mk[i][i] += c
    return coeffs


def fraction_wpseudo_divmod(f, g):
    """(q, r, k) with lc(g)^k * f = q*g + r and deg_w r < deg_w g."""
    if not g:
        raise ZeroDivisionError("pseudo-division by zero")
    lead = g[-1]
    r = [list(c) for c in f]
    wnorm(r)
    q: list[list[Fraction]] = []
    k = 0
    dg = wdeg(g)
    while wdeg(r) >= dg and r:
        k += 1
        shift = wdeg(r) - dg
        top = r[-1]
        r = wmul_poly(r, lead)
        q = wmul_poly(q, lead)
        term = [[] for _ in range(shift)] + [top]
        q = wadd(q, term)
        r = wsub(r, wmul(term, g))
    return q, r, k


def fraction_wprimitive(f):
    """Divide out the gcd of the coefficients over Q[sigma] and normalize to
    coprime integer coefficients with a positive leading leading-coefficient."""
    if not f:
        return f
    g: list[Fraction] = []
    for c in f:
        g = fraction_pgcd(g, c)
    if pdeg(g) > 0:
        f = [pdivexact(c, g) for c in f]
    nums = [x for c in f for x in c]
    den = math.lcm(*(x.denominator for x in nums))
    gg = math.gcd(*(int(x * den) for x in nums))
    lead = f[-1][-1]
    sign = 1 if lead > 0 else -1
    scale = Fraction(den, sign * gg)
    return [pscale(c, scale) for c in f]


def fraction_wgcd(f, g):
    """gcd over Q(sigma), returned primitive over Q[sigma]."""
    a = [list(c) for c in f]
    b = [list(c) for c in g]
    wnorm(a), wnorm(b)
    while b:
        _, r, _ = fraction_wpseudo_divmod(a, b)
        a, b = b, fraction_wprimitive(r) if r else []
    return fraction_wprimitive(a)


def fraction_wdivexact(f, g):
    """Exact quotient in Q[sigma][w]; raises if not divisible."""
    q, r, k = fraction_wpseudo_divmod(f, g)
    if r:
        raise ValueError("inexact division in w")
    lead_power: list[Fraction] = [Fraction(1)]
    for _ in range(k):
        lead_power = pmul(lead_power, g[-1])
    return [pdivexact(c, lead_power) for c in q]


def _shift_coeffs(f, s0):
    """The sigma-coefficients of f moved to s0 = 0, as Q-polynomials for the
    series arithmetic."""
    return [pshift(list(map(Fraction, c)), s0) for c in f]


def _lift_simple_root(fw, dfw, w0: Fraction, n: int):
    """Power-series root of f(eps, w) near a simple fiber root w0, mod eps^n."""
    w = [Fraction(w0)]
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        w = strunc(w, prec)
        val = _eval_series_poly(fw, w, prec)
        der = _eval_series_poly(dfw, w, prec)
        w = ssub(w, smul(val, sinv(der, prec), prec))
    return strunc(w, n)


def _eval_series_poly(fw, w, prec):
    """Evaluate a w-polynomial with series coefficients at a series w."""
    acc = strunc(fw[-1], prec)
    for k in range(len(fw) - 2, -1, -1):
        acc = sadd(smul(acc, w, prec), strunc(fw[k], prec))
    return acc


def _hensel_quadratic(fser, g0, h0, n_prec):
    """Lift f = g*h from eps-order 1 to n_prec, g monic quadratic over Q at
    order 0.  fser: list over w-power of series.  Returns (g, h) as lists over
    w-power of series."""
    # Bezout cofactors over Q[w] for the coprime fiber factors
    gcd, s0, t0 = _wq_xgcd(g0, h0)
    inv = 1 / gcd[0]
    s0, t0 = pscale(s0, inv), pscale(t0, inv)
    nw = len(fser) - 1
    g = [strunc([c], n_prec) for c in g0]
    h = [strunc([c], n_prec) for c in h0] + [
        [Fraction(0)] * n_prec for _ in range(nw - 2 - pdeg(h0))
    ]
    for k in range(1, n_prec):
        # defect at order k
        prod = _bv_mul(g, h, n_prec)
        delta = pnorm([fser[i][k] - prod[i][k] if i < len(prod) else fser[i][k] for i in range(len(fser))])
        if not delta:
            continue
        u = pdivmod(pmul(t0, delta), g0)[1]
        v = pdivexact(psub(delta, pmul(u, h0)), g0)
        for i, c in enumerate(u):
            g[i][k] += c
        for i, c in enumerate(v):
            h[i][k] += c
    return g, h


def _bv_mul(a, b, prec):
    out = [[Fraction(0)] * prec for _ in range(len(a) + len(b) - 1)]
    for i, sa in enumerate(a):
        for j, sb in enumerate(b):
            prod = smul(sa, sb, prec)
            tgt = out[i + j]
            for k, c in enumerate(prod):
                tgt[k] += c
    return out


_wq_xgcd = binforms.pxgcd


def gcd_first_search_w_factor(coeff_polys, bound: int) -> WFactor | None:
    """Core search on f(sigma, w) = sum coeff_polys[k] w^k (top coefficient
    nonzero).  Returns a primitive factor with 1 <= w-degree <= bound, or None.
    Completeness needs one specialization with nonzero leading coefficient and
    squarefree fiber; non-reduced inputs are peeled via the radical."""
    f = wnorm(_over_z([list(map(Fraction, c)) for c in coeff_polys]))
    nw = wdeg(f)
    if nw < 2:
        return None
    bound = min(bound, nw - 1)
    if bound < 1:
        return None

    df = wderiv(f)
    g = wgcd(f, df)
    if wdeg(g) >= 1:
        # non-reduced: every irreducible factor divides the radical, which is
        # a proper factor here and squarefree, so recursion hits the main path
        rad = wprimitive(wdivexact(f, g))
        if 1 <= wdeg(rad) <= bound:
            return _wfactor(rad)
        return gcd_first_search_w_factor(rad, bound) if wdeg(rad) >= 2 else None

    dmax = max(max(pdeg(c) for c in f), 0)
    prec = 2 * dmax + 2

    # one good specialization suffices: the leading coefficient and the fiber
    # discriminant vanish at finitely many points only
    s0 = None
    for k in range(10 * (dmax + 2) + 20):
        cand = Fraction((-1) ** k * ((k + 1) // 2))
        if peval(f[-1], cand) == 0:
            continue
        fib = wevaluate(f, cand)
        dfib = pnorm([fib[i] * i for i in range(1, len(fib))])
        if pdeg(pgcd(fib, dfib)) > 0:
            continue
        s0 = cand
        break
    if s0 is None:
        raise RuntimeError("no squarefree specialization found")

    fib = wevaluate(f, s0)
    fib_factors = [fac for fac, _ in uni_irreducible_factors(fib)]
    fser = [strunc(c, prec) for c in _shift_coeffs(f, s0)]
    dser = [strunc(c, prec) for c in _shift_coeffs(df, s0)]

    # degree-1 candidates: rational fiber roots
    for fac in fib_factors:
        if pdeg(fac) != 1:
            continue
        w0 = -fac[0]
        series = _lift_simple_root(fser, dser, w0, prec)
        cand = pade(series, dmax, prec)
        if cand is None:
            continue
        a, b = cand
        g_cand = wprimitive([pscale(pshift(a, -s0), -1), pshift(b, -s0)])
        if _divides(f, g_cand):
            return _wfactor(g_cand)

    # degree-2 candidates: irreducible fiber quadratics and products of two
    # distinct rational fiber roots
    if bound >= 2:
        quads = [fac for fac in fib_factors if pdeg(fac) == 2]
        lins = [fac for fac in fib_factors if pdeg(fac) == 1]
        for i in range(len(lins)):
            for j in range(i + 1, len(lins)):
                quads.append(pmul(lins[i], lins[j]))
        for g0 in quads:
            h0 = pdivexact(fib, g0)
            gser, _ = _hensel_quadratic(fser, g0, h0, prec)
            rats = []
            ok = True
            for idx in range(2):
                cand = pade(gser[idx], dmax, prec)
                if cand is None:
                    ok = False
                    break
                rats.append(cand)
            if not ok:
                continue
            (a0, b0), (a1, b1) = rats
            den = pmul(b0, pdivexact(b1, pgcd(b0, b1)))
            g_cand = [
                pdivexact(pmul(a0, den), b0),
                pdivexact(pmul(a1, den), b1),
                den,
            ]
            g_cand = wprimitive([pshift(c, -s0) for c in g_cand])
            if _divides(f, g_cand):
                return _wfactor(g_cand)
    return None


def fit_syzygy_coefficients() -> tuple[Fraction, ...]:
    """Coefficients expressing J18^2 in the weighted monomials, fitted once
    by exact linear algebra on 300 sampled quintics."""
    monos = syzygy_monomials()
    rng = random.Random(36936)
    rows, rhs = [], []
    for _ in range(300):
        f = BinaryForm(5, tuple(Fraction(rng.randint(-9, 9)) for _ in range(6)))
        j4, j8, j12, j18 = _raw_invariants(f)
        rows.append([j4**a * j8**b * j12**c for a, b, c in monos])
        rhs.append(j18 * j18)
    if linalg.rank([row[:] for row in rows[: len(monos) + 8]]) < len(monos):
        raise RuntimeError("syzygy fit underdetermined")
    sol = linalg.solve(rows, rhs)
    if sol is None:
        raise RuntimeError("syzygy fit inconsistent")
    return tuple(sol)


def fit_disc_as_invariant() -> tuple[Fraction, Fraction]:
    """Constants (c1, c2) with disc = c1*J4^2 + c2*J8 identically, fitted by
    exact solve and re-verified on 100 fresh samples."""
    rng = random.Random(80808)

    def sample():
        f = BinaryForm(5, tuple(Fraction(rng.randint(-9, 9)) for _ in range(6)))
        j4, j8, _, _ = _raw_invariants(f)
        return [j4 * j4, j8], discriminant(f)

    rows, rhs = [], []
    for _ in range(6):
        row, d = sample()
        rows.append(row)
        rhs.append(d)
    sol = linalg.solve(rows, rhs)
    if sol is None:
        raise RuntimeError("discriminant fit inconsistent")
    c1, c2 = sol
    for _ in range(100):
        row, d = sample()
        if c1 * row[0] + c2 * row[1] != d:
            raise RuntimeError("discriminant fit failed re-verification")
    return c1, c2


def uncached_delta(spec):
    """Delta computed afresh, not looked up in the per-spec memo."""
    return families._discriminant_or_none.__wrapped__(spec)


@contextmanager
def oracle_gcd():
    """Route every binforms gcd through the Fraction Euclidean oracle, and
    squarefree parts through Yun's algorithm over Q on it."""
    with mock.patch.object(binforms, "pgcd", fraction_pgcd), mock.patch.object(
        binforms, "psquarefree_decomposition", fraction_squarefree_decomposition
    ):
        yield


S5_SWAP = SignedPermutation((1, 0, 2, 3, 4), (1, 1, 1, 1, 1))
S5_CYCLE = SignedPermutation((1, 2, 3, 4, 0), (1, 1, 1, 1, 1))


def signed_compose(a, b) -> SignedPermutation:
    """a after b."""
    perm = tuple(a.perm[b.perm[i]] for i in range(5))
    signs = tuple(b.signs[i] * a.signs[b.perm[i]] for i in range(5))
    return SignedPermutation(perm, signs)


def signed_inverse(sp) -> SignedPermutation:
    perm = [0] * 5
    signs = [0] * 5
    for i in range(5):
        perm[sp.perm[i]] = i
        signs[sp.perm[i]] = sp.signs[i]
    return SignedPermutation(tuple(perm), tuple(signs))


def signed_closure_is_full(generators) -> bool:
    identity = SignedPermutation((0, 1, 2, 3, 4), (1, 1, 1, 1, 1))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for h in frontier:
            for g in generators:
                p = signed_compose(g, h)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        if len(seen) > 960:
            return True
        frontier = nxt
    return len(seen) == 1920


def signed_no_intermediate_subgroup() -> tuple[bool, list[SignedPermutation]]:
    """The verdict of the signed-permutation closure and its representatives,
    one per S5-conjugacy class of outside elements in group order; every
    class is closed, where the library stops at the first failure."""
    group = lines.weyl_group()
    s5 = {e.signed for e in group.index_copy()}
    outside = [e.signed for e in group.elements if e.signed not in s5]
    seen = set()
    reps = []
    for g in outside:
        if g in seen:
            continue
        for s in s5:
            seen.add(signed_compose(signed_compose(s, g), signed_inverse(s)))
        reps.append(g)
    verdict = all(signed_closure_is_full([S5_SWAP, S5_CYCLE, g]) for g in reps)
    return verdict, reps


# ---------------------------------------------------------------------------
# frozen invariant constants


def test_syzygy_coefficients_match_fit():
    frozen = syzygy_coefficients()
    assert all(type(c) is Fraction for c in frozen)
    assert fit_syzygy_coefficients() == frozen


def test_disc_as_invariant_matches_fit():
    frozen = disc_as_invariant()
    assert all(type(c) is Fraction for c in frozen)
    assert fit_disc_as_invariant() == frozen


# ---------------------------------------------------------------------------
# spectral forms by interpolation


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def pencil_pairs(draw):
    """Symmetric rational pairs; with a shared zero row and column (so
    det(uP + vQ) vanishes identically) when the drawn index is below 5."""
    shared_kernel = draw(st.integers(0, 9))

    def symmetric():
        m = [[F(0)] * 5 for _ in range(5)]
        for i in range(5):
            for j in range(i, 5):
                if shared_kernel not in (i, j):
                    m[i][j] = m[j][i] = draw(rationals)
        return m

    return SymmetricPencil(symmetric(), symmetric())


@settings(max_examples=150)
@given(pencil_pairs())
def test_spectral_quintic_matches_column_mixing(pencil):
    try:
        expected = column_mixing_spectral_quintic(pencil)
    except ValueError:
        with pytest.raises(ValueError, match="degenerate pencil"):
            spectral_quintic(pencil)
        return
    assert repr(spectral_quintic(pencil)) == repr(expected)


def test_spectral_quintic_rank_deficient_pencil():
    # P = E^T G E and Q = E^T H E with E merging coordinates 0 and 1: both
    # kill (1, -1, 0, 0, 0), which is no coordinate vector
    rng = random.Random(412)
    e = [[F(1), F(1), F(0), F(0), F(0)]] + [[F(int(c == r + 2)) for c in range(5)] for r in range(3)]

    def pulled_back():
        g = [[F(0)] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                g[i][j] = g[j][i] = F(rng.randint(-9, 9), rng.randint(1, 4))
        return linalg.mat_mul(linalg.transpose(e), linalg.mat_mul(g, e))

    pencil = SymmetricPencil(pulled_back(), pulled_back())
    with pytest.raises(ValueError, match="degenerate pencil"):
        column_mixing_spectral_quintic(pencil)
    with pytest.raises(ValueError, match="degenerate pencil"):
        spectral_quintic(pencil)


def model_and_engineered_specs():
    for name in ("h8_ci", "h10_ci", "h10_bundle"):
        for seed in (1, 2, 3):
            yield pytest.param(lambda n=name, s=seed: build_example(n, s), id=f"{name}-{seed}")
    yield pytest.param(lambda: squared_discriminant_example(1), id="squared")
    yield pytest.param(lambda: split_diagonal_example(1), id="diagonal")


def rescaled(spec, r1, r2) -> FamilySpec:
    """spec with A1 scaled by r1 and A2 by r2: still symmetric, with the
    same entry degrees."""

    def scale(a, r):
        return tuple(tuple(x.scale(r) for x in row) for row in a)

    return FamilySpec(spec.d, spec.e, scale(spec.A1, r1), scale(spec.A2, r2))


def non_integral_specs():
    """The seed-1 models and the engineered specs with A1 scaled by 1/3 and
    A2 by 7/2, so the entries and the spectral coefficients have
    denominators."""
    makes = {f"{n}-1": lambda n=n: build_example(n, 1) for n in ("h8_ci", "h10_ci", "h10_bundle")}
    makes["squared"] = lambda: squared_discriminant_example(1)
    makes["diagonal"] = lambda: split_diagonal_example(1)
    for name, make in makes.items():
        yield pytest.param(lambda m=make: rescaled(m(), F(1, 3), F(7, 2)), id=f"{name}-rescaled")


def equal_matrices_spec():
    """A2 = A1 = A1 of h8_ci scaled by 1/3 (e1 = e2): the spectral form is
    (u + v)^5 det(A1), so every fiber has a fivefold root and Delta = 0."""
    spec = rescaled(build_example("h8_ci", 1), F(1, 3), 1)
    return FamilySpec(spec.d, spec.e, spec.A1, spec.A1)


def negative_height():
    from test_family import negative_height_spec

    return negative_height_spec(random.Random(411))


def all_specs():
    yield from model_and_engineered_specs()
    yield from non_integral_specs()
    yield pytest.param(equal_matrices_spec, id="equal-matrices")
    yield pytest.param(negative_height, id="negative-height")


rescalings = st.fractions(min_value=-9, max_value=9, max_denominator=10).filter(bool)


@pytest.mark.parametrize("make", [*model_and_engineered_specs(), *non_integral_specs()])
def test_spectral_form_matches_column_mixing(make):
    spec = make()
    assert repr(spectral_form.__wrapped__(spec)) == repr(column_mixing_spectral_form(spec))


@pytest.mark.parametrize("make", all_specs())
def test_integer_path_matches_fraction_path(make):
    spec = make()
    assert repr(spectral_form.__wrapped__(spec)) == repr(fraction_spectral_form(spec))
    rep = uncached_delta(spec)
    assert repr(None if rep is None else rep.delta) == repr(fraction_delta(spec))


@settings(max_examples=25, deadline=None)
@given(rescalings, rescalings)
def test_integer_path_matches_fraction_path_rescaled(r1, r2):
    spec = rescaled(build_example("h8_ci", 1), r1, r2)
    sf = spectral_form.__wrapped__(spec)
    assert repr(sf) == repr(fraction_spectral_form(spec))
    assert repr(uncached_delta(spec).delta) == repr(fraction_delta(spec))
    # det(u*r1*A1 + v*r2*A2) scales the u^(5-j) v^j coefficient by r1^(5-j) r2^j
    base = spectral_form(build_example("h8_ci", 1))
    for j, (c, b) in enumerate(zip(sf.coefficients, base.coefficients)):
        assert c == b.scale(r1 ** (5 - j) * r2**j)


def test_integer_path_builds_nothing_per_fiber(monkeypatch):
    # the spectral form and Delta run on int from the entries to the output
    # coefficients: no BinaryForm.evaluate, no SpectralForm.fiber, and at
    # most three Fractions per output coefficient (the Fraction path builds
    # more than fifty per fiber)
    calls = []
    built = [0]
    specs = [build_example("h10_ci", 1), squared_discriminant_example(1)]
    sfs = [spectral_form(spec) for spec in specs]
    evaluate, fiber, new = BinaryForm.evaluate, SpectralForm.fiber, Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(BinaryForm, "evaluate", lambda *a: calls.append("evaluate") or evaluate(*a))
    monkeypatch.setattr(SpectralForm, "fiber", lambda *a: calls.append("fiber") or fiber(*a))
    # Delta's squarefree test is not part of the interpolation
    monkeypatch.setattr(families, "_branching", lambda delta: (True, delta.degree))
    for spec, sf in zip(specs, sfs):
        monkeypatch.setattr(Fraction, "__new__", counted_new)
        built[0] = 0
        assert spectral_form.__wrapped__(spec) == sf
        assert built[0] <= 3 * sum(c.degree + 1 for c in sf.coefficients)
        built[0] = 0
        assert uncached_delta(spec).degree == 2 * height(spec)
        assert built[0] <= 3 * (2 * height(spec) + 1)
        monkeypatch.setattr(Fraction, "__new__", new)
    assert calls == []
    # the genericity witness still evaluates fibers
    families.genericity_check.__wrapped__(specs[0])
    assert "fiber" in calls


def test_spectral_form_zero_coefficients_take_expected_degree():
    from test_family import negative_height_spec

    spec = negative_height_spec(random.Random(411))
    fast = spectral_form.__wrapped__(spec)
    slow = column_mixing_spectral_form(spec)
    for j, (c, o) in enumerate(zip(fast.coefficients, slow.coefficients)):
        if o.is_zero:
            assert c.is_zero
            assert c.degree == max(expected_coefficient_degree(spec, j), 0)
        else:
            assert c == o
    # the expansion's zero sums kept nominal degrees of its summands
    assert slow.degrees() == (0, 2, 4, 5, 7, 9)
    assert fast.degrees() == (0, 0, 0, 1, 5, 9)


def bump_entry(spec):
    # entry (0,0) of A1 one degree too high, symmetric, past validation
    f = spec.A1[0][0]
    bumped = f * BinaryForm(1, (F(0), F(1))) + BinaryForm.from_roots([0] * (f.degree + 1))
    assert pdeg(bumped.x_poly()) == f.degree + 1
    rows = [list(row) for row in spec.A1]
    rows[0][0] = bumped
    object.__setattr__(spec, "A1", tuple(tuple(row) for row in rows))


def shift_twists(spec):
    # e moved by (+1, -1): sum(d) = e1 + e2 still holds, entry degrees do not
    object.__setattr__(spec, "e", (spec.e[0] + 1, spec.e[1] - 1))


@pytest.mark.parametrize("corrupt", [bump_entry, shift_twists])
def test_spectral_form_bookkeeping_is_checked(corrupt):
    spec = build_example("h8_ci", 1)
    corrupt(spec)
    with pytest.raises(RuntimeError, match="violates bookkeeping"):
        spectral_form.__wrapped__(spec)


# ---------------------------------------------------------------------------
# Delta by interpolation


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["h8_ci", "h10_ci", "h10_bundle"])
def test_delta_matches_sylvester_on_models(name, seed):
    spec = build_example(name, seed)
    rep = uncached_delta(spec)
    assert rep.delta == sylvester_delta(spectral_form(spec))
    assert rep.degree == rep.delta.degree


@pytest.mark.parametrize(
    "make, degree",
    [(squared_discriminant_example, 40), (split_diagonal_example, 20)],
)
def test_delta_matches_sylvester_on_engineered(make, degree):
    spec = make(1)
    rep = uncached_delta(spec)
    assert rep.delta == sylvester_delta(spectral_form(spec))
    assert rep.degree == degree
    with oracle_gcd():
        assert uncached_delta(spec) == rep


@pytest.mark.parametrize(
    "make",
    [*non_integral_specs(), pytest.param(equal_matrices_spec, id="equal-matrices"),
     pytest.param(negative_height, id="negative-height")],
)
def test_delta_matches_sylvester_on_rational_and_zero_delta_specs(make):
    spec = make()
    rep = uncached_delta(spec)
    expected = sylvester_delta(spectral_form(spec))
    if rep is None:  # Delta = 0: the equal matrices and h < 0
        assert expected.is_zero
        assert make in (equal_matrices_spec, negative_height)
    else:
        assert rep.delta == expected
        assert rep.degree == 2 * height(spec)


@pytest.mark.parametrize("make", model_and_engineered_specs())
def test_delta_branching_matches_yun(make):
    rep = uncached_delta(make())
    assert (rep.g1_prime, rep.singular_fiber_count) == yun_branching(rep.delta)


def lin(a, b) -> BinaryForm:
    return BinaryForm(1, (F(a), F(b)))


Y = lin(0, 1)
P0 = families.DELTA_PRIMES[0]


@pytest.mark.parametrize(
    "delta, squarefree",
    [
        (lin(1, -2).power(2) * lin(3, 1) * lin(2, 5), False),  # a repeated factor
        (Y.power(2) * lin(1, -1) * lin(1, 1), False),  # y^2
        (Y * lin(F(1, 2), -3) * lin(1, 4), True),  # a simple root at y = 0
        (lin(P0, -1) * lin(1, -2) * lin(1, 3), True),  # P0 divides the lead
        (lin(1, 0) * lin(1, -P0) * lin(1, 1), True),  # not squarefree mod P0
        (lin(P0, 1).power(2) * lin(1, 1), False),
    ],
)
def test_branching_planted_deltas(monkeypatch, delta, squarefree):
    profiled = []

    def spy(f):
        profiled.append(f)
        return squarefree_profile(f)

    monkeypatch.setattr(families, "squarefree_profile", spy)
    assert families._branching(delta) == yun_branching(delta)
    assert families._branching(delta)[0] is squarefree
    # the test modulo a prime decides nothing, so Yun's algorithm decides
    assert bool(profiled) is not binforms.squarefree_mod(delta, families.DELTA_PRIMES)


def test_branching_takes_the_next_prime_past_the_lead():
    delta = lin(P0, -1) * lin(1, -2) * lin(1, 3)
    assert binforms.squarefree_mod(delta, families.DELTA_PRIMES)
    assert not binforms.squarefree_mod(delta, families.DELTA_PRIMES[:1])
    # an unlucky prime: x (x - P0) is not squarefree mod P0
    unlucky = lin(1, 0) * lin(1, -P0) * lin(1, 1)
    assert not binforms.squarefree_mod(unlucky, families.DELTA_PRIMES)
    assert binforms.squarefree_mod(unlucky, families.DELTA_PRIMES[1:])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.lists(st.integers(-9, 9), min_size=2, max_size=4).filter(any),
                       st.integers(1, 3)), min_size=1, max_size=4),
    st.integers(0, 3),
    st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(lambda c: c != 0),
)
def test_branching_matches_yun(factors, y_power, scale):
    f = BinaryForm.constant(scale) * Y.power(y_power)
    for coeffs, mult in factors:
        f = f * BinaryForm(len(coeffs) - 1, tuple(F(c) for c in coeffs)).power(mult)
    assume(f.degree > 0)
    assert families._branching(f) == yun_branching(f)


# ---------------------------------------------------------------------------
# integer gcd


def test_pgcd_zero_and_constant_cases():
    p = [F(2), F(-3), F(1)]  # (x - 1)(x - 2)
    for a, b in [([], []), (p, []), ([], p), ([F(3)], p), (p, [F(-1, 2)]),
                 ([F(0), F(0)], p), ([F(5)], [F(7)])]:
        assert binforms.pgcd(a, b) == fraction_pgcd(pnorm(list(a)), pnorm(list(b)))
    assert binforms.pgcd([], []) == []
    assert binforms.pgcd(p, []) == p
    assert binforms.pgcd([F(3)], p) == [F(1)]


def test_pgcd_rational_coefficients():
    # (x/2 - 1/3)(3x/7 + 5) and (x/2 - 1/3)(x^2 - 1/9): gcd x - 2/3
    g = [F(-1, 3), F(1, 2)]
    p = pmul(g, [F(5), F(3, 7)])
    q = pmul(g, [F(-1, 9), F(0), F(1)])
    assert binforms.pgcd(p, q) == [F(-2, 3), F(1)]
    assert binforms.pgcd(p, q) == fraction_pgcd(p, q)


polys = st.lists(rationals, max_size=6).map(lambda c: pnorm(list(c)))


@settings(max_examples=200, deadline=None)
@given(polys, polys, polys)
def test_pgcd_matches_oracle(a, b, g):
    p, q = pmul(a, g), pmul(b, g)
    assert binforms.pgcd(p, q) == fraction_pgcd(p, q)
    assert binforms.pgcd(q, p) == fraction_pgcd(p, q)


@settings(max_examples=200, deadline=None)
@given(polys, polys)
def test_pgcd_with_derivative_matches_oracle(a, b):
    # repeated roots: p = a^2 b shares a with p'
    p = pmul(pmul(a, a), b)
    assert binforms.pgcd(p, pderiv(p)) == fraction_pgcd(p, pderiv(p))


# ---------------------------------------------------------------------------
# squarefree profiles


def profile_oracle(f):
    with oracle_gcd():
        return squarefree_profile(f)


def monic_parts(decomposition):
    return [([F(c, g[-1]) for c in g], k) for g, k in decomposition]


def assert_yun_over_z_matches_oracle(p):
    parts = psquarefree_decomposition(binforms._primitive_ints(p))
    for g, _ in parts:
        assert all(type(c) is int for c in g) and math.gcd(*g) == 1 and g[-1] > 0
    assert monic_parts(parts) == fraction_squarefree_decomposition(p)


rational_factor = st.lists(rationals, min_size=2, max_size=4).map(pnorm).filter(lambda g: g[1:])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(rational_factor, st.integers(1, 4)), max_size=3),
    st.integers(0, 3),
    rationals.filter(lambda c: c != 0),
)
def test_yun_over_z_matches_fraction_yun(factors, x_power, scale):
    # non-integral rational factors with multiplicities up to 4, a zero
    # constant term (x^x_power) and a rational constant
    p = pmul([scale], [F(0)] * x_power + [F(1)])
    for g, mult in factors:
        for _ in range(mult):
            p = pmul(p, g)
    assert_yun_over_z_matches_oracle(p)


def test_yun_over_z_on_the_squared_delta():
    delta = uncached_delta(squared_discriminant_example(1)).delta
    assert delta.degree == 40
    assert_yun_over_z_matches_oracle(delta.x_poly())
    # the oracle context reaches the Yun that squarefree_profile calls
    calls = []

    def spy(p):
        calls.append(p)
        return fraction_squarefree_decomposition(p)

    with mock.patch.object(binforms, "psquarefree_decomposition", spy):
        oracle = squarefree_profile(delta)
    assert calls and squarefree_profile(delta) == oracle


factor_st = st.lists(st.integers(-9, 9), min_size=2, max_size=4).filter(any)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(factor_st, st.integers(1, 3)), max_size=4),
    st.integers(0, 3),
    rationals.filter(lambda c: c != 0),
)
def test_squarefree_profile_matches_oracle(factors, y_power, scale):
    # products of small factors with multiplicities, a pure-y factor and a
    # non-integral rational constant
    f = BinaryForm.constant(scale)
    for coeffs, mult in factors:
        factor = BinaryForm(len(coeffs) - 1, tuple(F(c) for c in coeffs))
        f = f * factor.power(mult)
    f = f * BinaryForm(1, (F(0), F(1))).power(y_power)
    assert squarefree_profile(f) == profile_oracle(f)


def test_squarefree_profile_pure_y_and_constant():
    y = BinaryForm(1, (F(0), F(1)))
    x_minus_half = BinaryForm(1, (F(1), F(-1, 2)))
    f = y.power(3) * x_minus_half.power(2)
    prof = squarefree_profile(f)
    assert prof == profile_oracle(f)
    assert (y, 3) in prof
    assert squarefree_profile(BinaryForm.constant(F(-2, 3))) == []
    with pytest.raises(ValueError):
        squarefree_profile(BinaryForm.zero(4))


def test_squarefree_profile_of_delta_matches_oracle():
    spec = build_example("h10_ci", seed=1)
    delta = discriminant_family(spec).delta
    assert squarefree_profile(delta) == profile_oracle(delta)


# ---------------------------------------------------------------------------
# fraction-free determinant and characteristic polynomial


@st.composite
def rational_matrices(draw, max_size=8):
    """Square matrices of size 0..max_size with non-integral rational
    entries; some made singular by a zero row or a row that combines two
    others."""
    n = draw(st.integers(0, max_size))
    flat = draw(st.lists(rationals, min_size=n * n, max_size=n * n))
    m = [flat[i * n : (i + 1) * n] for i in range(n)]
    kind = draw(st.sampled_from(["generic", "zero row", "dependent row"]))
    if n and kind == "zero row":
        m[draw(st.integers(0, n - 1))] = [F(0)] * n
    elif n >= 3 and kind == "dependent row":
        i, j, k = draw(st.permutations(range(n)))[:3]
        a, b = draw(rationals), draw(rationals)
        m[k] = [a * x + b * y for x, y in zip(m[i], m[j])]
    return m


@settings(max_examples=100)
@given(rational_matrices())
def test_det_matches_oracle(m):
    fast = linalg.det([row[:] for row in m])
    assert type(fast) is Fraction
    assert fast == fraction_det([row[:] for row in m])


def test_det_small_cases():
    assert linalg.det([]) == 1
    assert linalg.det([[F(3, 4)]]) == F(3, 4)
    assert linalg.det([[F(0), F(1)], [F(1), F(0)]]) == -1  # one row swap
    assert linalg.det([[1, 2], [2, 4]]) == 0  # int entries, singular
    assert linalg.det([[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]]) == F(1, 14) - F(1, 15)


@settings(max_examples=60)
@given(rational_matrices())
def test_charpoly_matches_oracle(m):
    fast = linalg.charpoly([row[:] for row in m])
    assert all(type(c) is Fraction for c in fast)
    assert fast == fraction_charpoly([row[:] for row in m])


# ---------------------------------------------------------------------------
# the discriminant over Z against the Sylvester determinant over Fraction


@st.composite
def forms_up_to_degree_8(draw):
    """Binary forms of degree 0..8 with non-integral rational coefficients,
    the first or last sometimes zero (a root at y = 0 or at x = 0)."""
    d = draw(st.integers(0, 8))
    coeffs = draw(st.lists(rationals, min_size=d + 1, max_size=d + 1))
    if draw(st.booleans()):
        coeffs[0] = F(0)
    if draw(st.booleans()):
        coeffs[-1] = F(0)
    return BinaryForm(d, tuple(coeffs))


@settings(max_examples=200)
@given(forms_up_to_degree_8())
def test_discriminant_matches_sylvester_over_fraction(f):
    fast = discriminant(f)
    assert type(fast) is Fraction
    assert fast == fraction_discriminant(f)


def test_discriminant_small_cases():
    x2_y2 = lin(1, -1) * lin(1, 1)
    assert discriminant(x2_y2) == fraction_discriminant(x2_y2) == 4
    assert discriminant(BinaryForm.zero(5)) == 0
    assert discriminant(lin(F(1, 2), F(3, 7))) == 1
    f = BinaryForm.from_roots([F(1, 2), F(-3, 5), 4, 0], scale=F(7, 9))
    assert discriminant(f) == fraction_discriminant(f) != 0


def test_integer_kernels_check_their_exact_divisions():
    # each Fraction entry point clears denominators and calls an int kernel;
    # a division the kernel takes as exact raises rather than floors
    assert binforms.zinterpolate([1, 3, 7]) == [1, 1, 1]
    with pytest.raises(RuntimeError, match="inexact integer division by 2"):
        binforms.zinterpolate([0, 0, 1])  # x(x - 1)/2
    assert binforms.pinterpolate([0, 0, 1]) == [0, F(-1, 2), F(1, 2)]
    with pytest.raises(RuntimeError, match="inexact integer division by 125"):
        binforms._zexact(124, 125)
    assert linalg.zdet([[0, 1], [1, 0]]) == -1 and linalg.zdet([]) == 1
    assert binforms.zdiscriminant([1, 0, -1]) == 4  # x^2 - y^2
    # det([[u, v], [v, u]]) = u^2 - v^2
    assert binforms.zpencil_determinant([[1, 0], [0, 1]], [[0, 1], [1, 0]]) == [1, 0, -1]


# ---------------------------------------------------------------------------
# the h8_ci congruence over Z against BinaryForm products


@pytest.mark.parametrize("seed", range(1, 21))
def test_integer_congruence_matches_binary_forms(monkeypatch, seed):
    fast = models._make_h8_ci(models._seeded("h8_ci", seed, 0))
    monkeypatch.setattr(
        models, "family_from_linear_plus_quadrics", binaryform_family_from_linear_plus_quadrics
    )
    slow = models._make_h8_ci(models._seeded("h8_ci", seed, 0))
    assert fast == slow
    assert repr(fast) == repr(slow)


def test_integer_congruence_keeps_degree_tags():
    # alpha = e4 and beta = e5: C has the columns t*e4 - s*e5, e0, .., e3.
    # Entry (0,0) sums s*t - s*t from the antisymmetric part of quad, so it
    # is a zero of degree 2; (0,1) is t*e4.quad.e0; entries that no term
    # reaches are zeros of degree 0.
    alpha = [0, 0, 0, 0, 1, 0]
    beta = [0, 0, 0, 0, 0, 1]
    quad = [[F(0)] * 6 for _ in range(6)]
    quad[5][4], quad[4][5] = F(1, 3), F(-1, 3)
    quad[4][0] = quad[0][4] = F(2, 5)
    quad[1][1] = F(-7)
    ident = [[F(int(i == j)) for j in range(6)] for i in range(6)]
    fast = families.family_from_linear_plus_quadrics(alpha, beta, quad, ident)
    slow = binaryform_family_from_linear_plus_quadrics(alpha, beta, quad, ident)
    assert repr(fast) == repr(slow)
    assert fast.A1[0][0] == BinaryForm.zero(2)
    assert fast.A1[0][1] == BinaryForm(1, (F(0), F(2, 5)))
    assert fast.A1[0][2] == BinaryForm.zero(0)
    assert fast.A1[1][2] == BinaryForm.zero(0)


# ---------------------------------------------------------------------------
# primitive PRS over Z[sigma][w]

sigma_polys = st.lists(st.integers(-6, 6), max_size=3).map(lambda c: pnorm(list(c)))
w_polys = st.lists(sigma_polys, max_size=4).map(lambda f: wnorm(list(f)))


def to_fractions(f):
    return [[F(x) for x in c] for c in f]


@st.composite
def w_gcd_inputs(draw):
    """f = a*g and h = b*g over Z[sigma][w]; the common factor g has
    sigma-content c(sigma) and any of a, b, g may be zero or constant in w."""
    a, b, g = draw(w_polys), draw(w_polys), draw(w_polys)
    content = draw(sigma_polys.filter(bool))
    g = wmul_poly(g, content)
    return wmul(a, g), wmul(b, g)


@settings(max_examples=200)
@given(w_gcd_inputs())
def test_wgcd_matches_oracle(pair):
    f, h = pair
    for x, y in ((f, h), (h, f)):
        fast = factor_search.wgcd(x, y)
        assert all(type(v) is int for c in fast for v in c)
        assert fast == fraction_wgcd(to_fractions(x), to_fractions(y))


@settings(max_examples=200)
@given(w_polys, w_polys.filter(bool))
def test_wpseudo_divmod_matches_oracle(f, g):
    q, r, k = factor_search.wpseudo_divmod(f, g)
    assert all(type(v) is int for p in (q, r) for c in p for v in c)
    assert (q, r, k) == fraction_wpseudo_divmod(to_fractions(f), to_fractions(g))


@settings(max_examples=200)
@given(w_polys.filter(bool), st.integers(1, 12), sigma_polys.filter(bool))
def test_wprimitive_matches_oracle(f, den, content):
    # non-integral rational input with a sigma-content
    f = [[F(x, den) for x in c] for c in wmul_poly(f, content)]
    assert factor_search.wprimitive(f) == fraction_wprimitive(f)


@settings(max_examples=200)
@given(w_polys, w_polys.filter(bool))
def test_wdivexact_matches_oracle(a, g):
    g = factor_search.wprimitive(g)
    f = wmul(a, g)
    fast = factor_search.wdivexact(f, g)
    assert fast == fraction_wdivexact(to_fractions(f), to_fractions(g))
    assert wmul(fast, g) == f


def test_wgcd_zero_and_constant_cases():
    f = [[1, 2], [0, 0, 3], [5]]
    assert factor_search.wgcd([], []) == []
    assert factor_search.wgcd(f, []) == fraction_wgcd(to_fractions(f), [])
    assert factor_search.wgcd([[7]], f) == [[1]]
    # a common sigma-content is a unit over Q(sigma)
    assert factor_search.wgcd([[0, 2]], [[0, -4], [0, 6]]) == [[1]]
    g = [[0, 1], [0, 2]]  # sigma * (1 + 2w)
    assert factor_search.wgcd(wmul(g, [[1], [3]]), wmul(g, [[2, 1]])) == [[1], [2]]


@contextmanager
def oracle_w_gcd():
    """Route the factor search's gcd, pseudo-division, primitive part and
    exact division through the Fraction oracles."""
    with mock.patch.multiple(
        factor_search,
        wgcd=fraction_wgcd,
        wpseudo_divmod=fraction_wpseudo_divmod,
        wprimitive=fraction_wprimitive,
        wdivexact=fraction_wdivexact,
    ):
        yield


@pytest.mark.parametrize("make", model_and_engineered_specs())
def test_factor_search_matches_fraction_oracle(make):
    sf = spectral_form(make())
    fast = twisted_factor_search(list(sf.coefficients), 2)
    with oracle_w_gcd():
        slow = twisted_factor_search(list(sf.coefficients), 2)
    assert repr(fast) == repr(slow)


# ---------------------------------------------------------------------------
# one Hensel lift and one candidate loop


@contextmanager
def gcd_first_search():
    """Route the factor search through the search it replaces: a gcd over
    Z[sigma][w] first, Newton iteration on a series root for degree-1
    candidates and a quadratic Hensel lift for degree-2 ones."""
    with mock.patch.object(factor_search, "search_w_factor", gcd_first_search_w_factor):
        yield


def factor_search_inputs():
    from test_exact_algebra import (
        EARLY_RETURNS,
        NON_REDUCED,
        irreducible_case,
        planted_linear_cases,
        product_cases,
        uv_coefficients,
    )

    for make in model_and_engineered_specs():
        (mk,) = make.values
        yield pytest.param(lambda mk=mk: list(spectral_form(mk()).coefficients), 2, id=make.id)
    for case in NON_REDUCED:
        f, bound, _ = case.values
        yield pytest.param(lambda f=f: uv_coefficients(f), bound, id=case.id)
    for k, coeffs in enumerate(planted_linear_cases()):
        yield pytest.param(lambda c=coeffs: c, 1, id=f"planted-linear-{k}")
    for bound in (1, 2):
        yield pytest.param(irreducible_case, bound, id=f"irreducible-{bound}")
    for k, coeffs in enumerate(product_cases()):
        yield pytest.param(lambda c=coeffs: c, 2, id=f"product-{k}")
    for k, (coeffs, _) in enumerate(EARLY_RETURNS):
        yield pytest.param(lambda c=coeffs: c, 2, id=f"early-return-{k}")


@pytest.mark.parametrize("make, bound", factor_search_inputs())
def test_factor_search_matches_gcd_first_oracle(make, bound):
    coeffs = make()
    fast = twisted_factor_search(coeffs, bound)
    with gcd_first_search():
        slow = twisted_factor_search(coeffs, bound)
    assert repr(fast) == repr(slow)


@pytest.mark.parametrize("make", model_and_engineered_specs())
def test_factor_search_skips_gcd_on_reduced_spectral_forms(make):
    # a squarefree fiber proves the spectral form squarefree in w
    sf = spectral_form(make())
    with mock.patch.object(factor_search, "wgcd", wraps=factor_search.wgcd) as spy:
        twisted_factor_search(list(sf.coefficients), 2)
    assert spy.call_count == 0


# ---------------------------------------------------------------------------
# factoring over Q: Zassenhaus over Z against sympy's factor_list


def sympy_irreducible_factors(p):
    """The factorizer uni_irreducible_factors replaces: sympy's factor_list
    over QQ, factors made monic, in sympy's order."""
    import sympy

    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p)]
    _, factors = sympy.Poly.from_list(coeffs, sympy.Symbol("x"), domain="QQ").factor_list()
    out = []
    for fac, mult in factors:
        cs = [F(int(c.p), int(c.q)) for c in reversed(fac.all_coeffs())]
        out.append(([c / cs[-1] for c in cs], int(mult)))
    return out


def assert_factors_match(p):
    p = [F(c) for c in p]
    got = uni_irreducible_factors(p)
    assert got == sympy_irreducible_factors(p)
    product = [F(p[-1])]
    for g, mult in got:
        for _ in range(mult):
            product = pmul(product, g)
    assert product == p


small_factors = st.lists(rationals, min_size=2, max_size=4).filter(lambda c: c[-1] != 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(small_factors, st.integers(1, 3)), min_size=1, max_size=4), rationals)
def test_uni_irreducible_factors_matches_sympy(factors, scale):
    # products of rational factors of degree 1-3 with repeats, up to degree 5
    p = [scale or F(1)]
    for coeffs, mult in factors:
        for _ in range(mult):
            if pdeg(p) + len(coeffs) - 1 <= 5:
                p = pmul(p, coeffs)
    assume(pdeg(p) >= 1)
    assert_factors_match(p)


PLANTED_FACTORINGS = {
    # irreducible over Q but split mod every prime: recombination must reject
    "x4+1": [1, 0, 0, 0, 1],
    "x4-10x2+1": [1, 0, -10, 0, 1],
    "(x2+1)(x2+2)(x-3)": pmul(pmul([1, 0, 1], [2, 0, 1]), [-3, 1]),
    # lead 3*5*7 and a discriminant with small prime factors: p is not 3
    "lead105": pmul(pmul([1, 105], [-2, 1]), [3, 1, 7]),
    "disc-small-primes": pmul(pmul([0, 1], [-3, 1]), pmul([-6, 1], [-15, 1])),
    "non-integral": [F(-1, 3), F(5, 2), F(0), F(7, 4)],
    "zero-constant": [0, 0, 2, -1, 3],
    "negative-lead": [4, -1, 0, 0, -2],
    "degree-1": [F(3, 7), F(-2, 5)],
    "(x-1)^5": [-1, 5, -10, 10, -5, 1],
    "(x3+1)(x2+1/2)": pmul([1, 0, 0, 1], [F(1, 2), 0, 1]),
    "quintic-irreducible": [-1, -1, 0, 0, 0, 1],
    "x5-x": [0, -1, 0, 0, 0, 1],
    "(2x2+3)(5x3-x+7)": pmul([3, 0, 2], [7, -1, 0, 5]),
}


@pytest.mark.parametrize("p", PLANTED_FACTORINGS.values(), ids=PLANTED_FACTORINGS.keys())
def test_uni_irreducible_factors_planted(p):
    assert_factors_match(p)


def test_uni_irreducible_factors_prime_choice():
    # 3 divides the lead and 5, 7 divide the discriminant of x(x - 5)(x - 7)
    # (3x - 1): the modular step runs mod 11
    p = pmul(pmul([0, 3], [-5, 1]), pmul([-7, 1], [-1, 3]))
    with mock.patch.object(
        factor_search, "_factor_mod_p", wraps=factor_search._factor_mod_p
    ) as spy:
        assert_factors_match(p)
    assert [call.args[1] for call in spy.call_args_list] == [11]


def test_uni_irreducible_factors_rejects_degree_6():
    with pytest.raises(ValueError):
        uni_irreducible_factors([F(1)] * 7)
    assert uni_irreducible_factors([F(5)]) == []


@pytest.mark.parametrize("make", model_and_engineered_specs())
def test_factor_search_matches_sympy_factorizer(make):
    # the first candidate that lifts wins, so the fiber factors' order counts
    coeffs = list(spectral_form(make()).coefficients)
    fast = twisted_factor_search(coeffs, 2)
    with mock.patch.object(factor_search, "uni_irreducible_factors", sympy_irreducible_factors):
        slow = twisted_factor_search(coeffs, 2)
    assert repr(fast) == repr(slow)


# ---------------------------------------------------------------------------
# square and cube kernels: trial division against sympy's factorint


def factorint_kernel(x, power):
    """The kernel _factor_kernel replaces: sympy's factorint of n*d^(power-1)."""
    import sympy

    kernel, k = 1, 1
    for p, e in sympy.factorint(abs(x.numerator) * x.denominator ** (power - 1)).items():
        kernel *= p ** (e % power)
        k *= p ** (e // power)
    return kernel, k


@pytest.mark.parametrize(
    "x, power", [(F(-72, 5), 2), (F(792, 343), 2), (F(-2592, 25), 3)]
)
def test_factor_kernel_matches_factorint(x, power):
    assert quintic._factor_kernel(x, power) == factorint_kernel(x, power)


# below the limit: every prime factor but at most one is at most the bound,
# and the one left over is below its square
kernel_numbers = st.builds(
    lambda a, b, c: a * b * b * c**3,
    st.integers(1, quintic.KERNEL_TRIAL_BOUND**2 - 1),
    st.integers(1, 10**4),
    st.integers(1, 100),
)


@settings(max_examples=200, deadline=None)
@given(kernel_numbers, st.integers(1, 10**6), st.sampled_from([2, 3]))
def test_factor_kernel_matches_factorint_below_limit(n, d, power):
    x = F(n, d)
    assert quintic._factor_kernel(x, power) == factorint_kernel(x, power)


# ---------------------------------------------------------------------------
# the symmetry-group closure on line permutations


@pytest.fixture(scope="module")
def closure_runs():
    """The verdict of one no_intermediate_subgroup() and the generator list
    of each _closure_is_full run it makes."""
    runs = []
    closure = lines._closure_is_full

    def spy(generators):
        runs.append(list(generators))
        return closure(generators)

    with mock.patch.object(lines, "_closure_is_full", spy):
        verdict = lines.no_intermediate_subgroup()
    return verdict, runs


def signed_actions():
    return {e.line_perm: e.signed for e in lines.weyl_group().elements}


def test_closure_runs_once_per_conjugacy_class(closure_runs):
    _, runs = closure_runs
    assert len(runs) == 30


def test_line_closure_matches_signed_oracle(closure_runs):
    verdict, runs = closure_runs
    signed = signed_actions()
    oracle_verdict, oracle_reps = signed_no_intermediate_subgroup()
    assert verdict is True and oracle_verdict is True
    assert [signed[gens[-1]] for gens in runs] == oracle_reps
    for gens in runs:
        assert sorted(signed[g] for g in gens[:-1]) == sorted([S5_SWAP, S5_CYCLE])


def test_partition_action_is_a_homomorphism(closure_runs):
    # the signed action of a line composition is the signed composition
    _, runs = closure_runs
    signed = signed_actions()
    generators = {g for gens in runs for g in gens}
    assert len(generators) == 32
    for a, sa in signed.items():
        for g in generators:
            assert lines._partition_action(lines._compose(a, g)) == signed_compose(
                sa, signed[g]
            )


def test_closure_of_s5_alone_is_not_full(closure_runs):
    _, runs = closure_runs
    assert lines._closure_is_full(runs[0][:-1]) is False
    assert signed_closure_is_full([S5_SWAP, S5_CYCLE]) is False


# ---------------------------------------------------------------------------
# square and cube kernels of prime powers above the trial-division bound


@pytest.mark.parametrize("e", [2, 3, 4, 5, 12, 21])
@pytest.mark.parametrize("p", BIG_PRIMES + (999999999989,))
def test_prime_power_kernel_matches_factorint(p, e):
    # 12 takes two square roots and a cube root, 21 an odd root of
    # composite degree; 999999999989 is the largest prime below 10^12
    for x in (F(p**e), F(-12 * p**e, 5), F(7, p**e)):
        for power in (2, 3):
            assert quintic._factor_kernel(x, power) == factorint_kernel(x, power)


# ---------------------------------------------------------------------------
# smoothness: the resultant certificate against a Groebner basis


def groebner_is_smooth(curve) -> bool:
    """The PlaneQuintic.is_smooth the certificate replaces: no common zero
    of the three partials away from the origin: the Groebner basis of the
    Jacobian ideal has a pure power of each variable among its leading
    monomials."""
    import sympy

    x, y, z = sympy.symbols("x y z")
    poly = sum(
        sympy.Rational(c) * x**i * y**j * z**k
        for c, (i, j, k) in zip(curve.coeffs, monomials(5))
    )
    basis = sympy.groebner(
        [poly.diff(x), poly.diff(y), poly.diff(z)],
        x,
        y,
        z,
        order="grevlex",
        domain=sympy.QQ,
    )
    lms = [sympy.LT(g, order="grevlex") for g in basis.exprs]
    return all(any(lm.free_symbols == {v} for lm in lms) for v in (x, y, z))


def sympy_curve(make):
    """The PlaneQuintic of a sympy quintic make(x, y, z)."""
    import sympy

    x, y, z = sympy.symbols("x y z")
    poly = sympy.Poly(sympy.expand(make(x, y, z)), x, y, z)
    return PlaneQuintic(
        tuple(F(int(poly.coeff_monomial(x**i * y**j * z**k))) for i, j, k in monomials(5))
    )


def planted_singular(seed):
    """A random quintic singular at a random point Q = (q0, q1, 1): every
    monomial vanishes to order at least 2 at Q."""
    rng = random.Random(seed)
    q0, q1 = rng.randint(-3, 3), rng.randint(-3, 3)

    def make(x, y, z):
        u, v = x - q0 * z, y - q1 * z
        return sum(
            rng.randint(-4, 4) * u**i * v**j * z**k
            for i, j, k in monomials(5)
            if i + j >= 2
        )

    return sympy_curve(make)


def random_curve(seed):
    rng = random.Random(seed)
    return PlaneQuintic(tuple(F(rng.randint(-3, 3)) for _ in range(21)))


PLANE_CURVES = {
    "pencil-fixture": lambda: pencil_fixture().curve,
    "quadrilateral-fixture": lambda: quadrilateral_fixture().curve,
    "fermat": lambda: sympy_curve(lambda x, y, z: x**5 + y**5 + z**5),
    "cone-point": lambda: sympy_curve(lambda x, y, z: x**5 + x**2 * y**3 + y**5),
    "node": lambda: sympy_curve(lambda x, y, z: x * y * z**3 + x**5 + y**5),
    "cusp": lambda: sympy_curve(lambda x, y, z: y**2 * z**3 - x**3 * z**2 + x**5 + y**5),
    "line-times-quartic": lambda: sympy_curve(lambda x, y, z: x * (x**4 + y**4 + z**4)),
    # singular at a point with no zero coordinate
    "node-at-1-2-1": lambda: sympy_curve(
        lambda x, y, z: (x - z) * (y - 2 * z) * z**3 + (x - z) ** 5 + (y - 2 * z) ** 5
    ),
    **{f"planted-{seed}": (lambda seed=seed: planted_singular(seed)) for seed in range(3)},
    **{f"random-{seed}": (lambda seed=seed: random_curve(seed)) for seed in range(2)},
}


CERTIFIED = {"pencil-fixture", "quadrilateral-fixture", "fermat"}


@pytest.mark.parametrize("name", PLANE_CURVES)
def test_smoothness_certificate_matches_groebner(name):
    # the fixtures and the Fermat curve are certified, every planted
    # singular curve is refused; Groebner alone decides the random curves
    curve = PLANE_CURVES[name]()
    assert curve.is_smooth() == groebner_is_smooth(curve)
    if not name.startswith("random"):
        assert curve.is_smooth() == (name in CERTIFIED)


# ---------------------------------------------------------------------------
# the symbolic identities: Poly against sympy


def sympy_dimension_identities_symbolic() -> bool:
    """The sympy version of families.dimension_identities_symbolic."""
    import sympy

    h, a = sympy.symbols("h a")
    rr = sympy.expand(5 * h / 2 - (h - 4) + 1 - (3 * h / 2 + 5))
    alpha = -5 * a - h
    n = -2 * a - h / 2
    genus = sympy.expand((alpha - 1) * (5 - 1) - n * 5 * (5 - 1) / 2 - (h - 4))
    return rr == 0 and genus == 0


def sympy_chow_reduce(cls: dict, c1):
    import sympy

    out = {}
    for (i, j), v in cls.items():
        if j >= 2:
            continue
        if j == 0 and i >= 5:
            if i == 5:
                key = (4, 1)
                out[key] = sympy.expand(out.get(key, 0) + v * c1)
            # i > 5 lands in H^(i-1) F with i-1 >= 5, which dies against F
            continue
        if j == 1 and i >= 5:
            continue
        out[(i, j)] = sympy.expand(out.get((i, j), 0) + v)
    return {k: v for k, v in out.items() if v != 0}


def sympy_chow_mul(x: dict, y: dict, c1):
    import sympy

    out = {}
    for (i1, j1), v1 in x.items():
        for (i2, j2), v2 in y.items():
            key = (i1 + i2, j1 + j2)
            out[key] = sympy.expand(out.get(key, 0) + v1 * v2)
    return sympy_chow_reduce(out, c1)


def sympy_chern_sides(d, e):
    """(integral of c1(omega_rel)^3 over the family, -2*sum(d)); symbolic or
    numeric inputs.  The ambient Chow ring is generated by the relative
    hyperplane H and the fiber F modulo F^2 and H^5 - c1 H^4 F with
    c1 = sum(d); the family class is 4H^2 - 2(e1+e2) HF and omega_rel is
    -H + (sum(d) - e1 - e2) F."""
    import sympy

    d = [sympy.sympify(x) for x in d]
    e = [sympy.sympify(x) for x in e]
    if len(d) != 5 or len(e) != 2:
        raise ValueError("need 5 degrees d and 2 degrees e")
    c1 = sympy.expand(sum(d))
    se = sympy.expand(e[0] + e[1])
    x_class = {(2, 0): sympy.Integer(4), (1, 1): -2 * se}
    omega = {(1, 0): sympy.Integer(-1), (0, 1): sympy.expand(c1 - se)}
    cube = sympy_chow_mul(sympy_chow_mul(omega, omega, c1), omega, c1)
    total = sympy_chow_mul(cube, x_class, c1)
    lhs = total.get((4, 1), sympy.Integer(0)) + c1 * total.get((5, 0), sympy.Integer(0))
    return sympy.expand(lhs), sympy.expand(-2 * c1)


def sympy_chern_verify(d, e) -> bool:
    """Whether c1(omega_rel)^3 integrates to -2*sum(d).  The identity only
    holds modulo sum(d) = e1 + e2; symbolic inputs have one e eliminated
    through the constraint, numeric inputs must satisfy it."""
    import sympy

    d = [sympy.sympify(x) for x in d]
    e = [sympy.sympify(x) for x in e]
    gap = sympy.expand(sum(d) - e[0] - e[1])
    if gap != 0:
        if isinstance(e[1], sympy.Symbol):
            e = [e[0], sympy.expand(sum(d) - e[0])]
        elif isinstance(e[0], sympy.Symbol):
            e = [sympy.expand(sum(d) - e[1]), e[1]]
        else:
            raise ValueError("sum(d) = e1 + e2 violated")
    lhs, rhs = sympy_chern_sides(d, e)
    return bool(sympy.simplify(lhs - rhs) == 0)


def as_sympy(p):
    """A Poly, an int or a Fraction as a sympy expression."""
    import sympy

    terms = p.terms.items() if isinstance(p, Poly) else [((), F(p))]
    return sympy.Add(
        *(sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*map(sympy.Symbol, m))
          for m, c in terms)
    )


def symbolic_degrees(poly_class):
    names = [f"d{i}" for i in range(1, 6)] + ["e1", "e2"]
    return [poly_class(name) for name in names]


def test_dimension_identities_match_sympy():
    assert families.dimension_identities_symbolic() is True
    assert sympy_dimension_identities_symbolic() is True


@pytest.mark.parametrize("constrained", [True, False])
def test_chern_sides_match_sympy_symbolic(constrained):
    import sympy

    *d, e1, e2 = symbolic_degrees(Poly.var)
    *sd, se1, se2 = symbolic_degrees(sympy.Symbol)
    if constrained:
        e2, se2 = sum(d) - e1, sum(sd) - se1
    lhs, rhs = families.chern_sides(d, (e1, e2))
    slhs, srhs = sympy_chern_sides(sd, (se1, se2))
    assert sympy.expand(as_sympy(lhs) - slhs) == 0
    assert sympy.expand(as_sympy(rhs) - srhs) == 0
    # the identity holds exactly on the constraint; an unconstrained e2 is
    # the negative control
    assert (lhs - rhs == 0) is constrained
    assert (sympy.expand(slhs - srhs) == 0) is constrained


def test_chern_verify_matches_sympy_symbolic():
    import sympy

    *d, e1, e2 = symbolic_degrees(Poly.var)
    *sd, se1, se2 = symbolic_degrees(sympy.Symbol)
    assert families.chern_verify(d, [e1, e2]) is sympy_chern_verify(sd, [se1, se2]) is True
    assert families.chern_verify(d, [e1 * 2, e2]) is sympy_chern_verify(sd, [se1 * 2, se2]) is True
    with pytest.raises(ValueError):
        families.chern_verify(d, [e1 * 2, e2 * 2])
    with pytest.raises(ValueError):
        sympy_chern_verify(sd, [se1 * 2, se2 * 2])


def test_chern_sides_match_sympy_numeric():
    rng = random.Random(1201)
    for _ in range(50):
        d = [rng.randint(-6, 2) for _ in range(5)]
        e1 = rng.randint(-8, 2)
        e = (e1, rng.choice([sum(d) - e1, rng.randint(-8, 2)]))
        assert families.chern_sides(d, e) == sympy_chern_sides(d, e)
        if sum(d) == sum(e):
            assert families.chern_verify(d, e) is sympy_chern_verify(d, e) is True
