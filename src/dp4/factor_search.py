"""Bounded-degree factor search for forms in (s,t;u,v), exact over Q.

Finds a nontrivial factor whose (u,v)-degree is at most a small bound (1 or 2
in practice: a degree-5 cover splits only as 1+4 or 2+3 at coarsest).  The
search is not general factorization: candidate fiber factors at one good
rational specialization are lifted by exact power-series arithmetic, the
series coefficients are turned back into rational functions by Pade
approximation (a kernel computation), and every candidate is confirmed by
exact division.  (s,t)-degrees of coefficients may vary with the (u,v)-power,
so twisted spectral forms are searchable too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .binforms import (
    BinaryForm,
    form_gcd,
    padd,
    pdeg,
    pdivexact,
    pdivmod,
    peval,
    pgcd,
    pmul,
    pnorm,
    primitive_prs,
    pscale,
    pshift,
    psub,
    zdivexact,
    zgcd,
)

# ---------------------------------------------------------------------------
# polynomials in w over Z[sigma]: list indexed by w-power, entries integer
# unipolys in sigma (wadd, wmul, wevaluate and _divides take rational
# entries too)


def wnorm(f):
    while f and not f[-1]:
        f.pop()
    return f


def wdeg(f):
    return len(f) - 1


def wadd(f, g):
    n = max(len(f), len(g))
    out = [[] for _ in range(n)]
    for i, c in enumerate(f):
        out[i] = padd(out[i], c)
    for i, c in enumerate(g):
        out[i] = padd(out[i], c)
    return wnorm(out)


def wsub(f, g):
    return wadd(f, [[-x for x in c] for c in g])


def wmul(f, g):
    if not f or not g:
        return []
    out = [[] for _ in range(len(f) + len(g) - 1)]
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = padd(out[i + j], pmul(a, b))
    return wnorm(out)


def wmul_poly(f, p):
    return wnorm([pmul(c, p) for c in f])


def wderiv(f):
    return wnorm([[x * i for x in f[i]] for i in range(1, len(f))])


def wpseudo_divmod(f, g):
    """(q, r, k) with lc(g)^k * f = q*g + r and deg_w r < deg_w g."""
    if not g:
        raise ZeroDivisionError("pseudo-division by zero")
    lead = g[-1]
    r = [list(c) for c in f]
    wnorm(r)
    q: list[list[int]] = []
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


def wprimitive(f):
    """f over Q[sigma] divided by its content: coprime integer coefficients,
    no common factor in sigma (the content over Z[sigma] comes from zgcd),
    and a positive leading leading-coefficient."""
    if not f:
        return f
    f = _over_z(f)
    g: list[int] = []
    for c in f:
        g = zgcd(g, c)
        if len(g) == 1:
            break
    if len(g) > 1:
        f = [zdivexact(c, g) for c in f]
    n = math.gcd(*(x for c in f for x in c))
    if f[-1][-1] < 0:
        n = -n
    return [[x // n for x in c] for c in f]


def _over_z(f):
    """f over Q[sigma] times the lcm of its denominators: the same
    polynomial up to a positive scalar, over Z[sigma]."""
    flat = iter(linalg.clear_denominators(x for c in f for x in c)[1])
    return [[next(flat) for _ in c] for c in f]


def wgcd(f, g):
    """gcd over Q(sigma), returned primitive over Z[sigma]: the primitive
    PRS over Z[sigma][w]."""
    a, b = wnorm([list(c) for c in f]), wnorm([list(c) for c in g])
    if not a or not b:
        return wprimitive(a or b)
    return wprimitive(primitive_prs(wprimitive(a), wprimitive(b), _wprem, wprimitive))


def _wprem(f, g):
    return wpseudo_divmod(f, g)[1]


def wdivexact(f, g):
    """Exact quotient in Z[sigma][w]; raises unless g divides f there (as
    it does when g is primitive and divides f over Q(sigma))."""
    q, r, k = wpseudo_divmod(f, g)
    if r:
        raise ValueError("inexact division in w")
    lead_power = [1]
    for _ in range(k):
        lead_power = pmul(lead_power, g[-1])
    return [zdivexact(c, lead_power) for c in q]


def wevaluate(f, s0: Fraction):
    return pnorm([peval(c, s0) for c in f])  # unipoly in w


# ---------------------------------------------------------------------------
# truncated power series over Q (dense lists of fixed length)


def strunc(a, n):
    out = list(a[:n])
    out += [Fraction(0)] * (n - len(out))
    return out


def sadd(a, b):
    return [x + y for x, y in zip(a, b)]


def ssub(a, b):
    return [x - y for x, y in zip(a, b)]


def smul(a, b, n):
    out = [Fraction(0)] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                if y:
                    out[i + j] += x * y
    return out


def sinv(a, n):
    if a[0] == 0:
        raise ZeroDivisionError("series not invertible")
    out = [Fraction(0)] * n
    out[0] = 1 / a[0]
    for k in range(1, n):
        acc = Fraction(0)
        for i in range(1, k + 1):
            if i < len(a) and a[i]:
                acc += a[i] * out[k - i]
        out[k] = -acc * out[0]
    return out


def pade(series, d, n):
    """A, B with deg <= d, B*series = A mod eps^n, B != 0; None if only B = 0."""
    # unknowns: a_0..a_d, b_0..b_d; equations per eps^k: a_k - sum b_i phi_{k-i} = 0
    rows = []
    for k in range(n):
        row = [Fraction(0)] * (2 * d + 2)
        if k <= d:
            row[k] = Fraction(1)
        for i in range(d + 1):
            if 0 <= k - i < len(series):
                row[d + 1 + i] -= series[k - i]
        rows.append(row)
    for vec in linalg.kernel_basis(rows):
        a = pnorm(list(vec[: d + 1]))
        b = pnorm(list(vec[d + 1 :]))
        if b:
            return a, b
    return None


# ---------------------------------------------------------------------------
# fiber factorization over Q (exact, via sympy)


def uni_irreducible_factors(p) -> list[tuple[list[Fraction], int]]:
    """Monic irreducible factors of a unipoly over Q with multiplicities."""
    import sympy

    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p)]
    _, factors = sympy.Poly.from_list(coeffs, sympy.Symbol("x"), domain="QQ").factor_list()
    out = []
    for fac, mult in factors:
        cs = [Fraction(int(c.p), int(c.q)) for c in reversed(fac.all_coeffs())]
        lead = cs[-1]
        out.append(([c / lead for c in cs], int(mult)))
    return out


# ---------------------------------------------------------------------------
# the search proper


@dataclass(frozen=True)
class WFactor:
    """A factor in dehomogenized coordinates: w_coeffs[k] is the Q[sigma]
    coefficient of w^k."""

    w_coeffs: tuple[tuple[Fraction, ...], ...]

    @property
    def w_degree(self) -> int:
        return len(self.w_coeffs) - 1


def _wfactor(g) -> WFactor:
    return WFactor(tuple(tuple(map(Fraction, c)) for c in g))


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


def _wq_xgcd(a, b):
    """Extended gcd over Q[w] on unipoly representations."""
    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, psub(s0, pmul(q, s1))
        t0, t1 = t1, psub(t0, pmul(q, t1))
    return r0, s0, t0


def search_w_factor(coeff_polys, bound: int) -> WFactor | None:
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
        return search_w_factor(rad, bound) if wdeg(rad) >= 2 else None

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


def _divides(f, g):
    if not g or wdeg(g) < 1:
        return False
    _, r, _ = wpseudo_divmod(f, g)
    return not r


# ---------------------------------------------------------------------------
# entry point for coefficient lists


def twisted_factor_search(coeff_forms, bound: int):
    """Bounded search for twisted forms whose (u,v)-coefficients are
    (s,t)-forms of varying degrees; coeff_forms[j] multiplies u^(n-j) v^j.

    Returns None if no factor of (u,v)-degree <= bound (and no content, no
    pure u or v factor) was found, else a tag pair:
    ("content", BinaryForm), ("u", None), ("v", None), ("factor", WFactor)."""
    if all(c.is_zero for c in coeff_forms):
        raise ValueError("factor search on the zero form")
    n = len(coeff_forms) - 1
    content = BinaryForm.zero(0)
    for c in coeff_forms:
        content = form_gcd(content, c)
    if content.degree >= 1:
        return ("content", content.integer_primitive()[1])
    if coeff_forms[0].is_zero:
        return ("v", None)
    if coeff_forms[-1].is_zero:
        return ("u", None)
    w_coeffs = [coeff_forms[n - k].x_poly() for k in range(n + 1)]
    found = search_w_factor(w_coeffs, bound)
    if found is None:
        return None
    return ("factor", found)
