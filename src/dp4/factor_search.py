"""Bounded-degree factor search for forms in (s,t;u,v), exact over Q.

A caller that knows the (u,v)-discriminant Delta passes its squarefree
profile, and the search first asks whether Delta leaves room for a factor:
a split F = G*H puts Res(G,H)^2 into Delta (disc(G H) = disc(G) disc(H)
Res(G,H)^2), while the grading of F gives Res(G,H) the (s,t)-degree
d*A + b*C + b*d*delta (b, d the (u,v)-degrees of G and H, A + k*delta and
C + k*delta the degrees of their coefficients).  Where every admissible
split needs more degree than Delta's repeated factors hold, the answer is
None with nothing specialized (twisted_factor_search).  Otherwise it
finds a nontrivial factor whose (u,v)-degree is at most a small bound (1 or 2
in practice: a degree-5 cover splits only as 1+4 or 2+3 at coarsest).  The
search is not general factorization.  It picks one rational specialization
sigma = s0 with nonzero leading coefficient and squarefree fiber, which also
proves the form squarefree in w (a form with no such point is replaced by its
radical).  Each candidate fiber factor (a rational root, an irreducible
quadratic, or a product of two rational roots, primitive over Z) is
Hensel-lifted to a factor of f(s0 + eps, w) mod (eps^(dmax+1), p^k), dmax
the sigma-degree of f and p the factorizer's small prime for the fiber.
Multiplied by the leading coefficient of f, the lift truncates to lc(H)*G
for a factor G of f = G*H (the leading-coefficient trick; von zur
Gathen-Gerhard, Modern Computer Algebra, ch. 15-16), whose coefficients are
at most 2^(dmax+b) |f|_2 for b the degree bound (Mahler's measure), so p^k
above twice that reads it off as balanced residues.  The candidate is
confirmed by exact division.  (s,t)-degrees of coefficients may
vary with the (u,v)-power, so twisted spectral forms are searchable too.

The fiber factors come from uni_irreducible_factors, which also serves the
spectral quintics of pencils and the genericity witnesses of families: an
exact factorizer over Q for degree at most 5.  Yun's algorithm
(binforms.psquarefree_decomposition) splits off repeated factors; its
first gcd with the derivative (binforms.zgcd, the heuristic gcd over Z) is
the squarefreeness test, so a squarefree polynomial takes that one gcd, and
a search fiber must pass the same test.  Each squarefree part is factored
modulo its smallest good odd prime p, rational roots first: every root mod
p is Newton-lifted p-adically and read off as a linear factor (Loos 1983).
What is left has no rational root, so it is irreducible up to degree 3, and
only a rootless quartic or quintic goes through Zassenhaus's method (factor
modulo p, Hensel-lift, recombine by trial division).
proves_nonlinear_factor counts the roots modulo the same p with the same
root finder, which proves a factor of degree >= 2 without factoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product

from .binforms import (
    BinaryForm,
    _mbalanced,
    _mdivmod,
    _mgcd,
    _mmod,
    _mmonic,
    _msquarefree,
    _primitive_ints,
    _zprimitive,
    form_gcd,
    padd,
    pdeg,
    pderiv,
    peval,
    pmul,
    pnorm,
    primitive_prs,
    pshift,
    psquarefree_decomposition,
    psub,
    zdivexact,
    zgcd,
    zx_polys,
)

# ---------------------------------------------------------------------------
# polynomials in w over Z[sigma]: list indexed by w-power, entries integer
# unipolys in sigma.  _wprem and wdivexact are binforms._zprem and
# zdivexact with sigma-polynomials for coefficients.


def wnorm(f):
    while f and not f[-1]:
        f.pop()
    return f


def wdeg(f):
    return len(f) - 1


def wderiv(f):
    return wnorm([[x * i for x in f[i]] for i in range(1, len(f))])


def wprimitive(f):
    """f over Z[sigma] divided by its content: coprime integer coefficients,
    no common factor in sigma (the content over Z[sigma] comes from zgcd),
    and a positive leading leading-coefficient."""
    if not f:
        return f
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


def wgcd(f, g):
    """gcd over Q(sigma), returned primitive over Z[sigma]: the primitive
    PRS over Z[sigma][w]."""
    a, b = wnorm([list(c) for c in f]), wnorm([list(c) for c in g])
    if not a or not b:
        return wprimitive(a or b)
    return wprimitive(primitive_prs(wprimitive(a), wprimitive(b), _wprem, wprimitive))


def _wprem(f, g):
    """The pseudo-remainder lc(g)^(deg f - deg g + 1) * f mod g over
    Z[sigma][w] (f itself when deg f < deg g): each quotient term scales
    the remainder by lc(g) instead of dividing."""
    r = list(f)
    dg = wdeg(g)
    lead = g[-1]
    for k in reversed(range(len(f) - dg)):
        c = r[k + dg]
        r = [pmul(x, lead) for x in r[: k + dg]]
        if c:
            for i in range(dg):
                r[k + i] = psub(r[k + i], pmul(c, g[i]))
    return wnorm(r)


def wdivexact(f, g):
    """Exact quotient in Z[sigma][w]; raises ValueError unless g divides f
    there.  For a primitive g that is g dividing f over Q(sigma) (Gauss's
    lemma)."""
    r = list(f)
    dg = wdeg(g)
    quo = [[] for _ in range(max(len(r) - dg, 0))]
    for k in reversed(range(len(quo))):
        c = quo[k] = zdivexact(r[k + dg], g[-1])
        if c:
            for i, y in enumerate(g):
                r[k + i] = psub(r[k + i], pmul(c, y))
    if any(r):
        raise ValueError("inexact division in w")
    return quo


def wevaluate(f, s0):
    return pnorm([peval(c, s0) for c in f])  # unipoly in w


# ---------------------------------------------------------------------------
# fiber factorization over Q (exact, over Z and Z/p^k): rational roots first,
# each root mod p Newton-lifted p-adically (Loos, SIAM J. Comput. 12, 1983),
# then Zassenhaus's method (J. Number Theory 1, 1969) with Cantor-Zassenhaus
# splitting mod p (Math. Comp. 36, 1981) on a rootless cofactor of degree 4
# or 5; von zur Gathen-Gerhard, Modern Computer Algebra, ch. 14-15.
# The m- helpers (binforms) act on int unipolys modulo m.

MAX_FACTOR_DEGREE = 5


def uni_irreducible_factors(p) -> list[tuple[list[Fraction], int]]:
    """Monic irreducible factors of a unipoly over Q with multiplicities, in
    sympy's factor_list order: degree, then multiplicity, then the primitive
    integer coefficients from the top down.  Recombination tries every
    subset of the factors mod p, so a degree above MAX_FACTOR_DEGREE raises
    ValueError."""
    p = _primitive_ints(pnorm(list(p)))
    if pdeg(p) > MAX_FACTOR_DEGREE:
        raise ValueError(f"factoring over Q needs degree <= {MAX_FACTOR_DEGREE}, got {pdeg(p)}")
    found = [(g, mult) for part, mult in psquarefree_decomposition(p) for g in _zfactor_squarefree(part)]
    found.sort(key=lambda gm: (len(gm[0]), gm[1], gm[0][::-1]))
    return [([Fraction(c, g[-1]) for c in g], mult) for g, mult in found]


def _zfactor_squarefree(f: list[int]) -> list[list[int]]:
    """Irreducible factors over Z of a primitive squarefree f with positive
    leading coefficient, rational roots first.  For p = _small_prime(f), a
    rational root a/b has b | lc(f), prime to p, so it reduces to a root of
    f mod p, a simple one since f is squarefree mod p.  Each root mod p is
    lifted to the root r of f modulo m = p^(2^k) above it (_lift_root),
    with m > 2 (|lc(f)| + |f|_inf), past twice the integer lc(f) * a/b
    (Cauchy's bound); so lc(f) * r read as a balanced residue is that
    integer, and the linear factor it gives is confirmed by exact division.
    The cofactor has no rational root: of degree 2 or 3 it is irreducible,
    and from degree 4 Zassenhaus's method factors it modulo the same p (its
    lead divides lc(f))."""
    if len(f) == 2:
        return [f]
    lead, p, df = f[-1], _small_prime(f), pderiv(f)
    m = p
    while m <= 2 * (lead + max(map(abs, f))):
        m *= m
    linear, rest = [], f
    for r in _mroots(f, p):
        c = lead * _lift_root(f, df, r, p, m) % m
        if 2 * c > m:
            c -= m
        g = _zprimitive([-c, lead])
        try:
            rest = zdivexact(rest, g)
        except ValueError:  # r lifts to no rational root
            continue
        linear.append(g)
    if len(rest) <= 4:
        return linear + ([rest] if len(rest) > 1 else [])
    return linear + _zassenhaus(rest, p)


def _mroots(f, p):
    """The roots of f in F_p, by evaluation at 0..p-1."""
    f = _mmod(f, p)
    return [x for x in range(p) if peval(f, x) % p == 0]


def _lift_root(f, df, r, p, m):
    """The root of f modulo m = p^(2^k) above its simple root r mod p, df =
    f': Newton's iteration r <- r - f(r) s mod q^2 from q = p, with s =
    1/f'(r) mod q lifted alongside by s <- s (2 - f'(r) s), so no inverse
    is taken past p (von zur Gathen-Gerhard, Algorithm 9.22)."""
    q, s = p, pow(peval(df, r), -1, p)
    while q < m:
        q *= q
        r = (r - peval(f, r) * s) % q
        if q < m:
            s = s * (2 - peval(df, r) * s) % q
    return r


def _zassenhaus(f: list[int], p: int) -> list[list[int]]:
    """Irreducible factors over Z of a primitive squarefree f with positive
    leading coefficient, p an odd prime not dividing lc(f) with f squarefree
    mod p: factor mod p, lift the factors past twice lc(f) times the
    Mignotte bound 2^n |f|_2 on the coefficients of a factor, and recombine
    them by trial division."""
    lead = f[-1]
    modular = _factor_mod_p(_mmonic(f, p), p)
    if len(modular) == 1:
        return [f]
    bound = 2 * lead * 2 ** (len(f) - 1) * (math.isqrt(sum(c * c for c in f)) + 1)
    m = p
    while m <= bound:
        m *= m
    lifted, cofactor = [], f
    for u in modular[:-1]:  # peel one factor at a time off lc(f) * prod
        cofactor, u = _hensel_lift_mod(cofactor, u, p, m)
        lifted.append(u)
    lifted.append(_mmonic(cofactor, m))
    factors, rest, size = [], list(range(len(lifted))), 1
    while 2 * size <= len(rest):
        for subset in combinations(rest, size):
            g = [f[-1]]
            for i in subset:
                g = _mmod(pmul(g, lifted[i]), m)
            g = _zprimitive(_mbalanced(g, m))
            try:
                f = zdivexact(f, g)
            except ValueError:
                continue
            factors.append(g)
            rest = [i for i in rest if i not in subset]
            break
        else:
            size += 1
    return factors + [f]


def _small_prime(f: list[int]) -> int:
    """The smallest odd prime p with f squarefree mod p and p not dividing
    lc(f), for a squarefree f over Z (which has finitely many bad primes)."""
    p = 3
    while not (all(p % q for q in range(3, math.isqrt(p) + 1, 2)) and _msquarefree(f, p)):
        p += 2
    return p


def proves_nonlinear_factor(f: list[int]) -> bool:
    """Whether counting roots modulo a prime proves that a nonconstant
    squarefree integer f (a part of Yun's decomposition) has an irreducible
    factor of degree >= 2 over Q.  For p its smallest good odd prime, a
    factor of f of degree 1 over Q divides it over Z with a lead prime to p
    (Gauss's lemma) and gives a root mod p, distinct since f is squarefree
    mod p.  So fewer than deg f roots mod p (_mroots, the root finder of the
    factorizer, whose count is deg gcd(f, x^p - x) over F_p) prove a factor
    of degree >= 2.  False proves nothing."""
    return len(_mroots(f, _small_prime(f))) < pdeg(f)


def _factor_mod_p(f, p):
    """Monic irreducible factors of a monic squarefree f over F_p:
    distinct-degree factorization, then an equal-degree split of each part."""
    out = []
    h, d = [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _mpowmod(h, p, f, p)  # x^(p^d) mod f
        g = _mgcd(f, psub(h, [0, 1]), p)
        if len(g) > 1:
            out += _split_equal_degree(g, d, p)
            f = _mdivmod(f, g, p)[0]
            h = _mdivmod(h, f, p)[1]
    if len(f) > 1:
        out.append(f)
    return out


def _split_equal_degree(f, d, p):
    """Cantor-Zassenhaus for a product of irreducibles of degree d mod an
    odd p: gcd(f, a^((p^d - 1)/2) - 1) over the monic a of degree < deg f in
    a fixed order (x + a first).  A split exists among them, so the search
    is deterministic and ends."""
    n = len(f) - 1
    if n == d:
        return [f]
    e = (p**d - 1) // 2
    for k in range(1, n):
        for low in product(range(p), repeat=k):
            g = _mgcd(f, psub(_mpowmod([*low, 1], e, f, p), [1]), p)
            if 1 < len(g) < len(f):
                rest = _mdivmod(f, g, p)[0]
                return _split_equal_degree(g, d, p) + _split_equal_degree(rest, d, p)
    raise AssertionError("no splitting polynomial")


def _hensel_lift_mod(f, u, p, m):
    """(w, u) with f = w*u mod m (a power p^(2^k)) and u monic, lifting the
    factor u mod p, coprime to its cofactor: the quadratic Hensel step on
    s*w + t*u = 1 (von zur Gathen-Gerhard, Algorithm 15.10)."""
    w = _mdivmod(f, u, p)[0]
    s, t = _mxgcd(w, u, p)
    q = p
    while q < m:
        q *= q
        e = _mmod(psub(f, pmul(w, u)), q)
        c, r = _mdivmod(pmul(s, e), u, q)
        w = _mmod(padd(w, padd(pmul(t, e), pmul(c, w))), q)
        u = _mmod(padd(u, r), q)
        if q < m:
            b = _mmod(psub(padd(pmul(s, w), pmul(t, u)), [1]), q)
            c, r = _mdivmod(pmul(s, b), u, q)
            s = _mmod(psub(s, r), q)
            t = _mmod(psub(t, padd(pmul(t, b), pmul(c, w))), q)
    return w, u


def _mxgcd(a, b, p):
    """(s, t) with s*a + t*b = 1 over F_p, for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        quo, r = _mdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mmod(psub(s0, pmul(quo, s1)), p)
        t0, t1 = t1, _mmod(psub(t0, pmul(quo, t1)), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _mpowmod(a, e, f, p):
    """a^e mod (f, p) by repeated squaring."""
    out, a = [1], _mdivmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _mdivmod(pmul(out, a), f, p)[1]
        a = _mdivmod(pmul(a, a), f, p)[1]
        e >>= 1
    return out


# ---------------------------------------------------------------------------
# the search proper


@dataclass(frozen=True)
class WFactor:
    """A factor in dehomogenized coordinates: w_coeffs[k] is the Q[sigma]
    coefficient of w^k."""

    w_coeffs: tuple[tuple[Fraction, ...], ...]


def _wfactor(g) -> WFactor:
    return WFactor(tuple(tuple(map(Fraction, c)) for c in g))


def _hensel_lift(f_eps, g0, h0, n: int, p: int, m: int):
    """Linear eps-adic lift of the fiber factorization f_0 = g0*h0 over Z,
    g0 coprime to h0 modulo p and lc(g0) a unit there, to f(s0 + eps, w) =
    g*h mod (eps^n, m) with g monic of the degree of g0; m is a power
    p^(2^k).  g0 is made monic mod m, and t*h0 = 1 mod (g0, p) is lifted by
    Newton's iteration t <- t*(2 - t*h0) mod (g0, q^2) up to q = m.
    f_eps[k] is the w-polynomial f_k, the coefficient of eps^k; each order
    solves g0*h_k + g_k*h0 = f_k - sum_{0<i<k} g_i*h_{k-i} with deg g_k <
    deg g0 (von zur Gathen-Gerhard, ch. 15).  Returns the eps-series of g's
    non-leading coefficients, in [0, m), one per w-power below deg g0.  The
    search needs n = dmax + 1, dmax the sigma-degree of f (see
    search_w_factor)."""
    h0 = _mmod([c * g0[-1] for c in h0], m)
    g0 = _mmonic(g0, m)
    t = _mxgcd(_mmod(g0, p), _mmod(h0, p), p)[1]
    q = p
    while q < m:
        q *= q
        t = _mdivmod(pmul(t, psub([2], pmul(t, h0))), g0, q)[1]
    g, h = [g0], [h0]
    for k in range(1, n):
        rhs = f_eps[k]
        for i in range(1, k):
            rhs = psub(rhs, pmul(g[i], h[k - i]))
        gk = _mdivmod(pmul(t, rhs), g0, m)[1]
        g.append(gk)
        h.append(_mdivmod(psub(rhs, pmul(gk, h0)), g0, m)[0])
    return [[gk[j] if j < len(gk) else 0 for gk in g] for j in range(pdeg(g0))]


def search_w_factor(coeff_polys, bound: int) -> WFactor | None:
    """Core search on f(sigma, w) = sum coeff_polys[k] w^k over Z[sigma]
    (top coefficient nonzero).  Returns a primitive factor with 1 <= w-degree
    <= bound, or None.  Completeness needs one specialization with nonzero
    leading coefficient and squarefree fiber; non-reduced inputs, which have
    none, are peeled via the radical.

    Each candidate g0 is lifted modulo (eps^(dmax+1), m), m = p^(2^k) for
    p = _small_prime(fib).  The leading-coefficient trick: if g0 specializes
    a primitive factor G of f, then f = G*H over Z[sigma] (Gauss's lemma),
    and lc(f) times the monic lift G/lc(G) is lc(H)*G, of sigma-degree
    <= dmax and w-degree <= bound, so dmax + 1 orders of it, shifted back,
    are that polynomial modulo m.  Each of its coefficients is at most
    2^(dmax+bound) M(lc(H)*G) <= 2^(dmax+bound) M(f) <= 2^(dmax+bound) |f|_2
    (the Mahler measure M is multiplicative, M(lc_w H) <= M(H), and
    M <= |.|_2), so m > 2^(dmax+bound+1) (floor(|f|_2) + 1) reads it off
    exactly as balanced residues, and its primitive part is G.  A candidate
    that specializes no factor is refused by wdivexact."""
    f = wnorm(list(coeff_polys))
    nw = wdeg(f)
    if nw < 2:
        return None
    bound = min(bound, nw - 1)
    if bound < 1:
        return None
    dmax = max(max(pdeg(c) for c in f), 0)
    prec = dmax + 1

    # one good specialization suffices when f is squarefree in w: the leading
    # coefficient and the fiber discriminant vanish at finitely many points
    for k in range(10 * (dmax + 2) + 20):
        s0 = (-1) ** k * ((k + 1) // 2)
        if peval(f[-1], s0) == 0:
            continue
        fib = wevaluate(f, s0)
        if len(zgcd(fib, pderiv(fib))) == 1:
            break
    else:
        # a repeated factor of f stays repeated in every fiber where the
        # leading coefficient survives, so f is non-reduced unless the
        # points ran out; every irreducible factor divides the radical,
        # which is proper and squarefree, so recursion takes the main path
        g = wgcd(f, wderiv(f))
        if wdeg(g) < 1:
            raise RuntimeError("no squarefree specialization found")
        rad = wprimitive(wdivexact(f, g))
        if 1 <= wdeg(rad) <= bound:
            return _wfactor(rad)
        return search_w_factor(rad, bound) if wdeg(rad) >= 2 else None

    # candidates: rational fiber roots, then irreducible fiber quadratics and
    # products of two distinct rational fiber roots, each product built only
    # when the search reaches it, all primitive over Z.  A factor of f of
    # w-degree <= bound specializes to one of them, so with none there is
    # nothing to lift.
    fib_factors = [_primitive_ints(fac) for fac, _ in uni_irreducible_factors(fib)]
    lins = [fac for fac in fib_factors if pdeg(fac) == 1]
    quads = [fac for fac in fib_factors if pdeg(fac) == 2] if bound >= 2 else []
    pairs = combinations(lins, 2) if bound >= 2 else ()
    if not lins and not quads:
        return None  # no linear factor, so no pair either
    candidates = chain(lins, quads, (pmul(a, b) for a, b in pairs))

    # f_eps[k]: the coefficient of eps^k in f(s0 + eps, w), f_eps[0] = fib
    shifted = [pshift(c, s0) for c in f]
    f_eps = [pnorm([c[k] if k < len(c) else 0 for c in shifted]) for k in range(prec)]
    p = _small_prime(fib)
    m, top = p, 2 ** (dmax + bound + 1) * (math.isqrt(sum(x * x for c in f for x in c)) + 1)
    while m <= top:
        m *= m
    lead = shifted[-1]  # lc_w(f)(s0 + eps)
    for g0 in candidates:
        lifted = _hensel_lift(f_eps, g0, zdivexact(fib, g0), prec, p, m)
        coeffs = [_mbalanced(pshift(pmul(lead, series)[:prec], -s0), m) for series in lifted]
        g_cand = wprimitive(coeffs + [f[-1]])
        try:
            wdivexact(f, g_cand)
        except ValueError:
            continue
        return _wfactor(g_cand)
    return None


# ---------------------------------------------------------------------------
# entry point for coefficient lists


def twisted_factor_search(coeff_forms, bound: int, delta_profile=None):
    """Bounded search for twisted forms whose (u,v)-coefficients are
    (s,t)-forms of varying degrees; coeff_forms[j] multiplies u^(n-j) v^j.

    Returns None if no factor of (u,v)-degree <= bound (and no content, no
    pure u or v factor) was found, else a tag pair:
    ("content", BinaryForm), ("u", None), ("v", None), ("factor", WFactor).

    A caller that knows the (u,v)-discriminant Delta to be nonzero passes
    its squarefree profile as (degree, multiplicity) pairs, Delta = c *
    prod P_i^m_i; None means Delta is unknown, and the full path runs.  The
    profile decides two questions without computing.  A content c of
    degree >= 1 gives disc(c G) = c^(2n-2) disc(G), so with no P_i of
    multiplicity >= 2n-2 there is none, and the content gcd is skipped.  A
    split F = G*H over Q gives disc(G H) = disc(G) disc(H) Res(G,H)^2
    (Gelfand-Kapranov-Zelevinsky, Discriminants, Resultants and
    Multidimensional Determinants, ch. 12), with Res(G,H) != 0 since Delta
    is, so Res(G,H)^2 divides Delta and deg Res(G,H) <= sigma =
    sum deg(P_i) * floor(m_i/2); _splits_ruled_out compares that with the
    degree the grading forces on Res(G,H), and where no split of
    (u,v)-degree <= bound fits, the search returns None without
    specializing, factoring or lifting anything."""
    if all(c.is_zero for c in coeff_forms):
        raise ValueError("factor search on the zero form")
    n = len(coeff_forms) - 1
    if delta_profile is None or n < 2 or _profile_sum(delta_profile, 2 * n - 2):
        content = BinaryForm.zero(0)
        for c in coeff_forms:
            content = form_gcd(content, c)
        if content.degree >= 1:
            return ("content", content.integer_primitive()[1])
    if coeff_forms[0].is_zero:
        return ("v", None)
    if coeff_forms[-1].is_zero:
        return ("u", None)
    if delta_profile is not None and _splits_ruled_out(coeff_forms, bound, delta_profile):
        return None
    found = search_w_factor(zx_polys(coeff_forms[::-1])[1], bound)
    if found is None:
        return None
    return ("factor", found)


def _profile_sum(delta_profile, k: int) -> int:
    """sum deg(P_i) * floor(m_i / k): the largest degree of a form whose
    k-th power divides Delta = c * prod P_i^m_i."""
    return sum(degree * (mult // k) for degree, mult in delta_profile)


def _splits_ruled_out(coeff_forms, bound: int, delta_profile) -> bool:
    """Whether Delta's profile leaves no split F = G*H with 1 <= deg_(u,v) G
    = b <= bound, for F with nonzero end coefficients c_0 and c_n.

    F is homogeneous for the grading with s, t of weight 1, u of weight 0
    and v of weight -delta when the nonzero c_j have degrees D_j = D_0 +
    j*delta; then so are G and H, with g_k of degree A + k*delta and h_k of
    degree C + k*delta.  c_0 = g_0 h_0 and c_n = g_b h_d (d = n - b) give
    A + C = D_0, A, C >= 0, A + b*delta >= 0 and C + d*delta >= 0, and
    Res(G,H), isobaric of weight b*d, has degree d*A + b*C + b*d*delta.  A
    split needs that degree at most sigma = _profile_sum(delta_profile, 2)
    (see twisted_factor_search); where the degrees D_j are not of that
    shape, nothing is ruled out."""
    n = len(coeff_forms) - 1
    degrees = [(j, c.degree) for j, c in enumerate(coeff_forms) if not c.is_zero]
    d0 = degrees[0][1]
    delta, rest = divmod(degrees[-1][1] - d0, n)
    if rest or any(deg != d0 + j * delta for j, deg in degrees):
        return False
    sigma = _profile_sum(delta_profile, 2)
    for b in range(1, min(bound, n - 1) + 1):
        d = n - b
        for a in range(d0 + 1):
            c = d0 - a
            if a + b * delta >= 0 and c + d * delta >= 0 and d * a + b * c + b * d * delta <= sigma:
                return False
    return True
