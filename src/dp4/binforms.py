"""Binary forms over Q with exact dense arithmetic.

A form of degree d holds d+1 integer numerators over one positive
denominator, nums[i] / den = coeffs[i] multiplying x^(d-i) y^i, so its
arithmetic, and every integer kernel that reads a form, runs on ints.  The
zero form keeps a nominal degree so graded matrix entries stay degree-tagged.
Univariate helpers act on dense lists with p[i] the x^i coefficient and no
trailing zeros; [] is the zero polynomial.  Their prefix names the ring:
- p- helpers add, multiply, differentiate, evaluate and shift, keeping the
  coefficient type (int lists stay int), so they serve Z[x] and Q[x] alike.
  pmonomials evaluates ternary monomials at three of them, cut to n
  coefficients: at a point, along a line and on a branch series, for
  plane_quintic and the blow-up of pencils.  None of them divides: every
  division runs over Z or modulo m;
- z- helpers run over Z: Yun's squarefree decomposition, and the kernels
  that pinterpolate, pencil_determinant, resultant and discriminant wrap.
  Interpolation takes values at the integer nodes 0..n and expands their
  Newton form by one synthetic multiplication by (x - k) per node, in place
  (the step pshift takes with x + a).  zrecover finds an integer polynomial
  from a bound on its coefficients and a way to evaluate it: from one
  value at a power of two, read off in base-2^b digits (Kronecker
  substitution), when the digits are at most PACK_BITS wide, else by
  interpolation; it serves pencil determinants and the family spectral
  form and Delta.  zgcd, the one gcd over Z[x], is the heuristic gcd: the
  integer gcd of two values at 2^w read off in base-2^w digits, the same
  Kronecker substitution, checked by exact division and backed by the
  primitive PRS.  Every squarefreeness test is one zgcd with the
  derivative: Yun's first gcd, which ends the algorithm where it is 1.
  Resultants run the subresultant PRS; both PRSs share one
  pseudo-remainder (_zprem);
- m- helpers act on int lists modulo m, remainders in [0, m): the one
  Euclid over F_p, which zgcd's coprimality proof on wide inputs
  (_mcoprime) and the factorizer over Z (factor_search) share, and the
  division modulo p^k of factor_search's Hensel lifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg

# ---------------------------------------------------------------------------
# univariate dense polynomials over Q


def pnorm(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def pdeg(p: list[Fraction]) -> int:
    return len(p) - 1  # -1 for the zero polynomial


def padd(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return pnorm(out)


def psub(p, q):
    return padd(p, [-c for c in q])


def pmul(p, q):
    if not p or not q:
        return []
    # a zero of the product's type, without multiplying two long leads
    out = [p[-1] * 0 * q[-1]] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return pnorm(out)


def pmonomials(coords, monos, n=None):
    """The values of the exponent triples monos at the three polynomials
    coords in t: a point is three constants, a line three linear
    polynomials, a branch three series.  Each product is cut to its first
    n coefficients (kept whole when n is None) and keeps the coefficient
    type, as pmul does."""

    def mul(p, q):
        return pmul(p, q) if n is None else pnorm(pmul(p, q)[:n])

    powers = []
    for v, c in enumerate(coords):
        row = [[1]]
        for _ in range(max((m[v] for m in monos), default=0)):
            row.append(mul(row[-1], c))
        powers.append(row)
    return [mul(mul(powers[0][i], powers[1][j]), powers[2][k]) for i, j, k in monos]


def _zprimitive(p: list[int]) -> list[int]:
    """A nonzero integer polynomial divided by the gcd of its coefficients,
    signs kept."""
    g = math.gcd(*p)
    return [c // g for c in p]


def _primitive_ints(p) -> list[int]:
    """A nonzero rational polynomial (or integer list) scaled to coprime
    integer coefficients, signs kept; an integer list clears nothing."""
    if not {int}.issuperset(map(type, p)):
        p = linalg.clear_denominators(p)[1]
    return _zprimitive(p)


def _zprem(a: list[int], b: list[int]) -> list[int]:
    """The pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b over Z (a
    itself when deg a < deg b): each quotient term scales the remainder by
    lc(b) instead of dividing, so everything stays in int."""
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    for k in reversed(range(len(a) - db)):
        c = r[k + db]
        r = [x * lead for x in r[: k + db]]
        if c:
            for i in range(db):
                r[k + i] -= c * b[i]
    return pnorm(r)


def primitive_prs(a, b, prem, primitive):
    """The last nonzero term of the primitive pseudo-remainder sequence of
    the nonzero primitive polynomials a and b (Collins 1967, Brown-Traub
    1971): a gcd of a and b over the fraction field, up to a unit.  Every
    pseudo-remainder prem(a, b) is made primitive before it divides, so
    coefficients stay as small as the gcd's own.  The gcd over Z[sigma][w]
    in factor_search, and over Z[x] where zgcd's heuristic gives up.
    Resultants take the subresultant PRS instead (zresultant): dividing out
    whole contents loses the scale that makes each term a subresultant, and
    the subresultant PRS keeps it at the price of larger coefficients, which
    made it the slower gcd on the family pipeline's inputs."""
    while b:
        r = prem(a, b)
        a, b = b, (primitive(r) if r else r)
    return a


def zgcd(p, q) -> list[int]:
    """Primitive gcd over Z[x] of two rational or integer polynomials, with
    positive leading coefficient ([] when both vanish), blind to integer
    contents: the heuristic gcd on their primitive parts (_zheugcd), and the
    primitive PRS over Z where it gives up."""
    a, b = pnorm(list(p)), pnorm(list(q))
    if not a or not b:
        a = a or b
        g = _primitive_ints(a) if a else a
    else:
        a, b = _primitive_ints(a), _primitive_ints(b)
        g = _zheugcd(a, b) or primitive_prs(a, b, _zprem, _zprimitive)
    return [-c for c in g] if g and g[-1] < 0 else g


# The widest coefficient, in bits, at which zgcd starts with the heuristic
# gcd: above HEU_BITS it first tries to prove its inputs coprime modulo a
# prime, because math.gcd of the two values at 2^w, like CPython's division,
# is quadratic in their length, while the proof reduces each coefficient
# once.  Measured per call on random squarefree integer polynomials and
# their derivatives (BENCH_heugcd.json), the two cost the same near 340 bits
# at degree 36, 370 at degree 20 and 430-450 at degrees 5 and 10.
HEU_BITS = 384


def _zheugcd(a: list[int], b: list[int]) -> list[int] | None:
    """The primitive gcd of the primitive a and b by the heuristic gcd
    (GCDHEU; Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989;
    Geddes-Czapor-Labahn, Algorithms for Computer Algebra, 7.7), or None
    when four widths fail.  For 2^w >= 2 min(|a|_inf, |b|_inf) + 2, every
    root of a common factor C of degree >= 1 lies within |a|_inf + 1 <=
    2^(w-1) of 0 (Cauchy's bound on the narrower input), so |C(2^w)| >
    2^(w-1).  Then h = gcd(a(2^w), b(2^w)), a multiple of C(2^w), has a
    balanced base-2^w digit expansion g with g(2^w) = h, and:
    - a constant g means h < 2^(w-1), so a and b are coprime;
    - otherwise the primitive part of g is the gcd as soon as it divides
      both a and b (the theorem of the paper above), and a wider w is tried
      when it does not.
    Inputs wider than HEU_BITS first try a coprimality proof modulo a
    prime (_mcoprime)."""
    if len(a) == 1 or len(b) == 1:
        return [1]
    na, nb = max(map(abs, a)), max(map(abs, b))
    if max(na, nb).bit_length() > HEU_BITS and _mcoprime(a, b):
        return [1]
    w = min(na, nb).bit_length() + 2
    for _ in range(4):
        g = _zprimitive(_zdigits(math.gcd(_zpack(a, w), _zpack(b, w)), w))
        if len(g) == 1:
            return [1]
        try:
            zdivexact(a, g)
            zdivexact(b, g)
        except ValueError:
            w *= 2
            continue
        return g
    return None


def _zpack(a: list[int], w: int) -> int:
    """a(2^w) by Horner's rule on shifts."""
    acc = 0
    for c in reversed(a):
        acc = (acc << w) + c
    return acc


def zdivexact(p: list[int], q: list[int]) -> list[int]:
    """Exact quotient of integer polynomials; raises unless q divides p
    over Z."""
    r = list(p)
    dq = len(q) - 1
    quo = [0] * max(len(r) - dq, 0)
    for k in reversed(range(len(quo))):
        c, rem = divmod(r[k + dq], q[-1])
        if rem:
            raise ValueError("inexact polynomial division")
        quo[k] = c
        for i, y in enumerate(q):
            r[k + i] -= c * y
    if any(r):
        raise ValueError("inexact polynomial division")
    return quo


def _mmod(a, m):
    return pnorm([c % m for c in a])


def _mbalanced(a, m):
    """a mod m as balanced residues, in (-m/2, m/2]."""
    return [c - m if 2 * c > m else c for c in _mmod(a, m)]


def _mmonic(a, m):
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _mdivmod(a, b, m):
    """Quotient and remainder mod m; lc(b) must be a unit mod m."""
    inv = pow(b[-1], -1, m)
    r = _mmod(a, m)
    quo = [0] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        c = r[-1] * inv % m
        k = len(r) - len(b)
        quo[k] = c
        for i, y in enumerate(b):
            r[k + i] = (r[k + i] - c * y) % m
        pnorm(r)
    return pnorm(quo), r


def _mgcd(a, b, p):
    """Monic gcd over F_p of a nonzero a and any b."""
    a, b = _mmod(a, p), _mmod(b, p)
    while b:
        a, b = b, _mdivmod(a, b, p)[1]
    return _mmonic(a, p)


def _msquarefree(x: list[int], p: int) -> bool:
    """Whether p does not divide lc(x) and gcd(x, x') = 1 over F_p.  Then the
    reduction keeps the degree, so disc(x) is nonzero mod p, and x is
    squarefree over Q (the lucky-prime test, von zur Gathen-Gerhard ch. 14)."""
    return x[-1] % p != 0 and len(_mgcd(x, pderiv(x), p)) == 1


# The primes that zgcd's coprimality proof (_mcoprime) reduces modulo: the
# first one dividing neither leading coefficient is used.
DELTA_PRIMES = (1000003, 1000033, 1000037)


def _mcoprime(a: list[int], b: list[int]) -> bool:
    """Whether a and b are proved coprime over Q modulo the first of
    DELTA_PRIMES dividing neither leading coefficient: a common factor of
    degree >= 1 keeps its degree there (its lead divides both leads) and
    divides the gcd over F_p.  False proves nothing."""
    p = next((q for q in DELTA_PRIMES if a[-1] % q and b[-1] % q), None)
    return p is not None and len(_mgcd(a, b, p)) == 1


def pderiv(p):
    return pnorm([p[i] * i for i in range(1, len(p))])


def peval(p, x0):
    acc = x0 * 0
    for c in reversed(p):
        acc = acc * x0 + c
    return acc


def _mul_linear_add(p: list, a, c) -> None:
    """p <- p * (x + a) + c in place: one Horner step, a synthetic
    multiplication by the monic linear factor x + a."""
    p.append(0)
    for i in range(len(p) - 1, 0, -1):
        p[i] = p[i - 1] + a * p[i]
    p[0] = a * p[0] + c


def pshift(p, a):
    """p(x + a) by Horner, in place on one list; integer p and a give an
    integer result, as padd and pmul do."""
    out: list = []
    for c in reversed(p):
        _mul_linear_add(out, a, c)
    return pnorm(out)


def zinterpolate(values: list[int]) -> list[int]:
    """The polynomial through (k, values[k]), k = 0..n, for integer values of
    a polynomial in Z[x]: the Newton form on the integer nodes, whose k-th
    coefficient, the k-th forward difference at 0 over k!, is an integer,
    expanded by Horner's rule in place."""
    cur, newton = list(values), []
    while cur:
        newton.append(_zexact(cur[0], math.factorial(len(newton))))
        cur = [y - x for x, y in zip(cur, cur[1:])]
    poly: list[int] = []
    for k in reversed(range(len(newton))):
        _mul_linear_add(poly, -k, newton[k])
    return pnorm(poly)


# The widest digit, in bits, that zrecover packs: at most PACK_BITS it reads
# the polynomials off one value at 2^b, above it off values at integer nodes.
# Measured on the five family models (BENCH_kronecker.json), the two sides
# cost the same somewhere in 350-620 bits for Delta and in 510-660 bits for
# the pencil determinant of a fiber.
PACK_BITS = 560


def zrecover(at, bound: int, degree: int) -> list[list[int]]:
    """The integer polynomials P_0, ..., P_m whose values at integer x are
    at(x) = [P_0(x), ..., P_m(x)], given a bound on the absolute value of
    every coefficient of every P_i.  With b = bound.bit_length() + 1 every
    coefficient lies strictly between -2^(b-1) and 2^(b-1), so when
    b <= PACK_BITS one call at(2^b) holds each P_i exactly in its balanced
    base-2^b digits (Kronecker substitution; von zur Gathen-Gerhard,
    Modern Computer Algebra, 8.4), whatever its degree.  Wider digits make
    the one big-integer computation behind at(2^b) slower than many small
    ones (CPython divides big integers by the schoolbook method), so the
    values at k = 0..degree are interpolated instead (zinterpolate), for
    P_i of degree at most degree."""
    b = bound.bit_length() + 1
    if b <= PACK_BITS:
        return [_zdigits(v, b) for v in at(1 << b)]
    return [zinterpolate(col) for col in zip(*(at(k) for k in range(degree + 1)))]


def _zdigits(v: int, b: int) -> list[int]:
    """The balanced base-2^b digits of v, lowest first, each in
    [-2^(b-1), 2^(b-1)), with no trailing zero; b >= 2."""
    half, mask = 1 << (b - 1), (1 << b) - 1
    out = []
    while v:
        d = v & mask
        v >>= b
        if d >= half:
            d -= mask + 1
            v += 1
        out.append(d)
    return out


def pinterpolate(values) -> list[Fraction]:
    """The polynomial through (k, values[k]), k = 0..n, for Fraction or int
    values: zinterpolate of the values times n! D, D the lcm of their
    denominators (n! p lies in Z[x] for integer values), over n! D."""
    den, ints = linalg.clear_denominators(values)
    scale = math.factorial(max(len(ints) - 1, 0))
    return [Fraction(c, scale * den) for c in zinterpolate([v * scale for v in ints])]


def _zexact(n: int, d: int) -> int:
    """n / d where d divides n; RuntimeError, never a floored quotient."""
    q, r = divmod(n, d)
    if r:
        raise RuntimeError(f"inexact integer division by {d}")
    return q


def psquarefree_decomposition(p: list[int]) -> list[tuple[list[int], int]]:
    """Yun's algorithm over Z (Yun 1976): [(g, k)] with p = c * prod g^k for
    a primitive integer p, the g primitive, squarefree and pairwise coprime
    with positive leading coefficient, k ascending.  Its first gcd, with the
    derivative, is the squarefreeness test: where it is 1, p itself (its
    lead made positive) is returned at once, so a squarefree p costs that
    one zgcd.  Every gcd is primitive, so each division is exact over Z by
    Gauss's lemma."""
    if len(p) < 2:
        return []
    a = zgcd(p, pderiv(p))
    if len(a) == 1:
        return [(p if p[-1] > 0 else [-c for c in p], 1)]
    b = zdivexact(p, a)
    c = zdivexact(pderiv(p), a)
    out = []
    k = 1
    while len(b) > 1:
        d = psub(c, pderiv(b))
        g = zgcd(b, d)
        if len(g) > 1:
            out.append((g, k))
        b = zdivexact(b, g)
        c = zdivexact(d, g)
        k += 1
    return out


# ---------------------------------------------------------------------------
# binary forms


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous form in two variables over Q, held over Z: nums[i] / den
    multiplies x^(d-i) y^i, with den > 0 coprime to the nums (1 for the zero
    form), so equal forms have equal fields.  BinaryForm(d, coeffs) takes
    Fractions or ints, BinaryForm(d, nums, den) integers over den; either
    way the form is brought to that shape.  coeffs gives the Fractions."""

    degree: int
    nums: tuple[int, ...]
    den: int = 1

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("negative degree")
        nums, den = self.nums, self.den
        if len(nums) != self.degree + 1:
            raise ValueError("coefficient count does not match degree")
        if type(nums) is not tuple or not {int}.issuperset(map(type, nums)):
            lcm, ints = linalg.clear_denominators([Fraction(c) for c in nums])
            nums, den = tuple(ints), den * lcm
        g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
        if g != 1 or nums is not self.nums:
            object.__setattr__(self, "nums", tuple(c // g for c in nums))
            object.__setattr__(self, "den", den // g)

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    # construction ---------------------------------------------------------

    @classmethod
    def zero(cls, degree: int = 0) -> "BinaryForm":
        return cls(degree, (0,) * (degree + 1))

    @classmethod
    def constant(cls, c) -> "BinaryForm":
        return cls(0, (c,))

    @classmethod
    def from_roots(cls, roots, scale=1) -> "BinaryForm":
        """scale * prod (x - r y) over the given rational roots."""
        f = cls.constant(scale)
        for r in roots:
            f = f * cls(1, (1, -Fraction(r)))
        return f

    @classmethod
    def from_x_poly(cls, p: list, degree: int, den: int = 1) -> "BinaryForm":
        """Homogenize p(x) = f(x, 1) back to the given degree; p over den."""
        if pdeg(p) > degree:
            raise ValueError("degree too small to homogenize")
        return cls(degree, (0,) * (degree - pdeg(p)) + tuple(reversed(p)), den)

    # queries --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def zx_poly(self) -> list[int]:
        """den * f(x, 1) as a dense univariate polynomial over Z."""
        return pnorm(list(self.nums[::-1]))

    def y_valuation(self) -> int:
        """Largest v with y^v dividing f; degree+1 sentinel for the zero form."""
        return next((i for i, c in enumerate(self.nums) if c), self.degree + 1)

    def evaluate(self, x0, y0) -> Fraction:
        """f(x0, y0) by Horner's rule on the integer numerators: with the
        point over one denominator L, den*L^d*f(x0, y0) = nums(L*x0, L*y0),
        and one division ends it."""
        lx, (x, y) = linalg.clear_denominators((Fraction(x0), Fraction(y0)))
        acc, ypow = 0, 1
        for c in self.nums:
            acc = acc * x + c * ypow
            ypow *= y
        return Fraction(acc, self.den * lx**self.degree)

    # arithmetic -----------------------------------------------------------

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            if self.is_zero:
                return other
            if other.is_zero:
                return self
            raise ValueError("degree mismatch in form addition")
        den = math.lcm(self.den, other.den)
        p, q = den // self.den, den // other.den
        return BinaryForm(self.degree, tuple(p * a + q * b for a, b in zip(self.nums, other.nums)), den)

    def __sub__(self, other: "BinaryForm") -> "BinaryForm":
        return self + (-other)

    def __neg__(self) -> "BinaryForm":
        return BinaryForm(self.degree, tuple(-c for c in self.nums), self.den)

    def __mul__(self, other: "BinaryForm") -> "BinaryForm":
        d = self.degree + other.degree
        out = [0] * (d + 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(other.nums):
                    out[i + j] += a * b
        return BinaryForm(d, tuple(out), self.den * other.den)

    def scale(self, c) -> "BinaryForm":
        """c * f for a rational c."""
        return BinaryForm(self.degree, tuple(a * c.numerator for a in self.nums), self.den * c.denominator)

    def divexact(self, other: "BinaryForm") -> "BinaryForm":
        """Exact quotient of homogeneous forms; raises if not divisible."""
        if other.is_zero:
            raise ZeroDivisionError("division by zero form")
        if self.degree < other.degree:
            raise ValueError("inexact form division")
        if self.is_zero:
            return BinaryForm.zero(self.degree - other.degree)
        vs, vo = self.y_valuation(), other.y_valuation()
        if vs < vo:
            raise ValueError("inexact form division")
        # other(x, 1) is g / other.den times a primitive polynomial, which
        # divides self.den * self(x, 1) over Z (Gauss's lemma)
        g = math.gcd(*other.nums)
        q = zdivexact(self.zx_poly(), [c // g for c in other.zx_poly()])
        return BinaryForm.from_x_poly([c * other.den for c in q], self.degree - other.degree, self.den * g)

    def integer_primitive(self) -> tuple[Fraction, "BinaryForm"]:
        """(content, primitive form) with coprime integer coefficients and
        positive first nonzero coefficient."""
        if self.is_zero:
            return Fraction(0), self
        g = math.gcd(*self.nums)
        if next(c for c in self.nums if c) < 0:
            g = -g
        return Fraction(g, self.den), BinaryForm(self.degree, tuple(c // g for c in self.nums))


def zx_polys(forms) -> tuple[int, list[list[int]]]:
    """(L, [L * f(x, 1) for f in forms]) as integer polynomials, L the lcm of
    the denominators of the forms (a list): the forms over one denominator."""
    den = math.lcm(*(f.den for f in forms))
    return den, [[c * (den // f.den) for c in f.zx_poly()] for f in forms]


def form_gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Monic-normalized gcd of two forms (1 for coprime forms)."""
    if f.is_zero:
        return g
    if g.is_zero:
        return f
    v = min(f.y_valuation(), g.y_valuation())
    p = zgcd(f.zx_poly(), g.zx_poly())
    return BinaryForm.from_x_poly(p, pdeg(p) + v, p[-1])


def mobius_substitute(f: BinaryForm, m) -> BinaryForm:
    """Substitution x -> a x + b y, y -> c x + d y for an invertible rational
    matrix m = ((a, b), (c, d)).  This is a right action: substituting m1 and
    then m2 equals substituting the single matrix product m1 m2."""
    (a, b), (c, d) = m
    if a * d - b * c == 0:
        raise ValueError("substitution matrix is singular")
    lin1, lin2 = BinaryForm(1, (a, b)), BinaryForm(1, (c, d))
    p1, p2 = [BinaryForm.constant(1)], [BinaryForm.constant(1)]
    for _ in range(f.degree):
        p1.append(p1[-1] * lin1)
        p2.append(p2[-1] * lin2)
    out = BinaryForm.zero(f.degree)
    for i, cf in enumerate(f.nums):
        if cf:
            out = out + (p1[f.degree - i] * p2[i]).scale(cf)
    return out.scale(Fraction(1, f.den))


def pencil_determinant(a, b) -> "BinaryForm":
    """det(u*a + v*b) for n x n matrices of Fractions or ints, as a form of
    degree n with coefficient i on u^(n-i) v^i: zpencil_determinant of a and
    b over one common denominator D, divided by D^n."""
    n = len(a)
    den, rows = linalg.clear_row_denominators([*a, *b])
    p = zpencil_determinant(rows[:n], rows[n:])
    return BinaryForm(n, tuple(p), den**n)


def zpencil_determinant(a: list[list[int]], b: list[list[int]]) -> list[int]:
    """The n+1 coefficients of det(u*a + v*b), on u^n, u^(n-1) v, ..., for
    integer n x n matrices: the polynomial det(a + tau*b) in tau, recovered
    by zrecover from one determinant at a power of two, or from
    det(a + k*b) at k = 0..n when its coefficients are wide.  Every
    coefficient of a
    determinant of polynomials is at most the product of the row sums of
    the entries' 1-norms, here prod_i sum_j (|a_ij| + |b_ij|)."""
    n = len(a)
    bound = math.prod(sum(abs(x) + abs(y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))
    (p,) = zrecover(
        lambda t: [linalg.zdet([[x + t * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])],
        bound,
        n,
    )
    return p + [0] * (n + 1 - len(p))


def zresultant(f, g) -> int:
    """Res(f, g) for integer coefficient sequences, highest power first (the
    order of BinaryForm.coeffs), at their formal degrees m and n: the
    determinant of the Sylvester matrix, by the subresultant PRS over Z
    (Collins 1967, Brown-Traub 1971; Cohen, GTM 138, alg. 3.3.7).  When f
    has actual degree m - k < m and b0 = g[0] is nonzero,
    Res_{m,n} = (-1)^(nk) b0^k Res_{m-k,n}; when g drops by k, a0^k
    Res_{m,n-k}; when both drop, the Sylvester matrix has a zero first
    column.  Every division the PRS takes as exact is checked (_zexact)."""
    m, n = len(f) - 1, len(g) - 1
    if n == 0:
        return g[0] ** m
    if m == 0:
        return f[0] ** n
    if not f[0] and not g[0]:
        return 0
    if not f[0]:
        k = next((i for i, c in enumerate(f) if c), m)
        return (-1) ** (n * k) * g[0] ** k * zresultant(f[k:], g)
    if not g[0]:
        k = next((i for i, c in enumerate(g) if c), n)
        return f[0] ** k * zresultant(f, g[k:])
    a, b, sign = f[::-1], g[::-1], 1
    if m < n:
        a, b, sign = b, a, (-1) ** (m * n)
    # lead and h are g and h of the subresultant PRS: each pseudo-remainder
    # divided by lead * h^delta is the next subresultant, exactly
    lead = h = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        sign *= (-1) ** (da * db)
        r = _zprem(a, b)
        if not r:
            return 0
        div = lead * h**delta
        a, b = b, [_zexact(c, div) for c in r]
        lead = a[-1]
        if delta:
            h = _zexact(lead**delta, h ** (delta - 1))
    da = len(a) - 1
    return sign * _zexact(b[0] ** da, h ** (da - 1))


def resultant(f: BinaryForm, g: BinaryForm) -> Fraction:
    """Resultant at the formal degrees, vanishing iff the forms share a root
    in P^1 (roots at infinity included): zresultant of the numerators, which
    is Df^deg(g) Dg^deg(f) Res(f, g) for the denominators Df and Dg, divided
    out once."""
    return Fraction(zresultant(f.nums, g.nums), f.den**g.degree * g.den**f.degree)


def discriminant(f: BinaryForm) -> Fraction:
    """Discriminant normalized so a monic split form gives the product of
    squared root differences: zdiscriminant of the numerators, which is
    D^(2d-2) disc(f) for the denominator D, divided out once."""
    d = f.degree
    if d <= 1:
        return Fraction(1)
    return Fraction(zdiscriminant(f.nums), f.den ** (2 * d - 2))


def zdiscriminant(c) -> int:
    """(-1)^(d(d-1)/2) Res(f_x, f_y) / d^(d-2) for the integer form of degree
    d >= 2 with coefficients c (as in BinaryForm.coeffs): one zresultant of
    the two partials at formal degree d-1, and an exact division by
    d^(d-2)."""
    d = len(c) - 1
    fx = [c[i] * (d - i) for i in range(d)]
    fy = [c[i] * i for i in range(1, d + 1)]
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * _zexact(zresultant(fx, fy), d ** (d - 2))


def squarefree_profile(f: BinaryForm) -> list[tuple[BinaryForm, int]]:
    """Pairwise-coprime squarefree factors with multiplicities.

    Factors are monic in x (the pure-y factor appears as y itself); the product
    of factor^multiplicity recovers f up to a nonzero constant.  Ordered by
    (multiplicity, degree, coefficients).

    The roots at (1 : 0) and (0 : 1) are split off first, as y^v and x^m,
    and Yun's algorithm runs on the rest r: its first gcd, with the
    derivative, is the squarefreeness test, so a squarefree r costs one
    zgcd.  Yun's factors hold every root of one multiplicity, so x joins
    the factor of multiplicity m, and stands alone when there is none.
    """
    if f.is_zero:
        raise ValueError("squarefree profile of the zero form")
    out = []
    v = f.y_valuation()
    if v > 0:
        out.append((BinaryForm(1, (0, 1)), v))
    x = _zprimitive(f.zx_poly())
    m = next(i for i, c in enumerate(x) if c)
    parts = psquarefree_decomposition(x[m:])
    if m:
        k = next((i for i, (_, mult) in enumerate(parts) if mult == m), None)
        if k is None:
            parts.append(([0, 1], m))
        else:
            parts[k] = ([0, *parts[k][0]], m)
    for g, k in parts:
        out.append((BinaryForm.from_x_poly(g, len(g) - 1, g[-1]), k))
    # only y can share a multiplicity, and it comes first in out and in the
    # (multiplicity, degree, coeffs) order, so the stable sort needs no coeffs
    return sorted(out, key=lambda t: (t[1], t[0].degree))
