"""One-parameter families of quartic Del Pezzo surfaces over the line.

A family is a pair of symmetric 5x5 matrices of (s,t)-forms twisted by
splitting degrees: d_1..d_5 for the rank-5 side, (e_1, e_2) for the pencil
side, with entry (i,j) of A_k homogeneous of degree d_i + d_j - e_k.  The
height is h = -2*sum(d), and sum(d) = e_1 + e_2 is enforced (both sides
compute the same pushforward degree).

The spectral form det(u*A1 + v*A2) is a quintic in (u,v) whose (s,t)
coefficient degrees vary linearly with the (u,v)-power, a binforms.BiForm
like the conic entries of models; a zero coefficient carries the nominal
degree max(expected, 0).  Its (u,v)-discriminant has degree exactly 2h
whenever nonzero (every term of the determinant expansion has the same
isobaric weight).  Both run in int with one division per output
coefficient, and both are recovered by binforms.zrecover from a bound on
their coefficients: from the pencil determinant of the one fiber over
(2^b : 1), and from the discriminant of the one spectral fiber there, when
the base-2^b digits are narrow; otherwise from the fibers over (k : 1) at
the integer nodes k, one more than the degree needs.  Squarefreeness of
Delta is the simple-branching flag (read off the squarefree profile,
which splits off the roots at 0 and infinity and tests the rest by one gcd
with its derivative over Z, with Yun's algorithm when it is not
squarefree), and a bounded factor search plus a fiber irreducibility
witness certify the full Galois-group condition.  The certificate proves
before it computes.  The search reads Delta's squarefree profile, Delta =
c * prod P_i^m_i: a split F = G*H puts Res(G,H)^2 into Delta (disc(G H) =
disc(G) disc(H) Res(G,H)^2), and the grading gives Res(G,H) the degree
d*A + b*C + b*d*delta for (u,v)-degrees b + d = 5, (s,t)-degrees A + k*delta
and C + k*delta of the coefficients of G and H, which on every model and
on the squared example exceeds sum deg(P_i) * floor(m_i/2), so their
search fiber is never factored; a content c puts c^8 into Delta, so the
content gcd is skipped when no m_i reaches 8.  A witness fiber proved
squarefree counts its roots modulo a small prime, fewer than its degree
proving an irreducible factor of degree >= 2; only a fiber that count
leaves open is factored.
The Chern-class identity for the cube of the relative dualizing sheaf is
verified symbolically in a tiny Chow ring.

The spectral form, Delta and the certificate are functions of the frozen
FamilySpec alone, each memoized per spec (CACHE_BOUND entries), so a spec
is analyzed once however many reports, builds and checks ask about it;
models memoizes its seeded builds with the same bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from fractions import Fraction

from . import linalg
from .binforms import (
    BiForm,
    BinaryForm,
    _primitive_ints,
    pdeg,
    peval,
    psquarefree_decomposition,
    squarefree_profile,
    zdiscriminant,
    zpencil_determinant,
    zrecover,
    zx_polys,
)
from .factor_search import (
    _zfactor_squarefree,
    proves_nonlinear_factor,
    twisted_factor_search,
    uni_irreducible_factors,  # noqa: F401 - the benchmark's tracer wraps this binding
)

# Entries kept by each per-spec memo (spectral form, Delta, certificate) and
# by the memo of models.build_example on (name, seed).  At least
# models.RETRY_BOUND, so that every attempt of one seeded build stays cached
# while the build, its report and its verification run.
CACHE_BOUND = 32


@dataclass(frozen=True)
class FamilySpec:
    """Splitting degrees plus the two twisted symmetric matrices."""

    d: tuple[int, ...]
    e: tuple[int, int]
    A1: tuple[tuple[BinaryForm, ...], ...]
    A2: tuple[tuple[BinaryForm, ...], ...]

    def __post_init__(self):
        if len(self.d) != 5 or len(self.e) != 2:
            raise ValueError("need 5 degrees d and 2 degrees e")
        if sum(self.d) != self.e[0] + self.e[1]:
            raise ValueError(
                "splitting degrees must satisfy sum(d) = e1 + e2 "
                "(the two pushforwards have equal degree)"
            )
        for k, a in ((0, self.A1), (1, self.A2)):
            if len(a) != 5 or any(len(row) != 5 for row in a):
                raise ValueError("matrices must be 5x5")
            for i in range(5):
                for j in range(5):
                    if a[i][j] != a[j][i]:
                        raise ValueError("matrices must be symmetric")
                    expected = self.d[i] + self.d[j] - self.e[k]
                    entry = a[i][j]
                    if expected < 0 and not entry.is_zero:
                        raise ValueError(
                            f"entry ({i},{j}) of A{k + 1} must vanish "
                            f"(degree {expected} < 0)"
                        )
                    if not entry.is_zero and entry.degree != expected:
                        raise ValueError(
                            f"entry ({i},{j}) of A{k + 1} has degree "
                            f"{entry.degree}, expected {expected}"
                        )
        # Zero entries pass at any expected degree, so the splitting degrees
        # alone could ask for spectral coefficients (and a Delta) of any
        # degree.  A spectral coefficient sums products of five entries, so
        # one of degree above five times the largest nonzero entry degree is
        # refused; that keeps every coefficient degree, the spectral form's
        # nodes and h <= 4 * max(expected) (the six expected degrees sum to
        # 3h/2) within the input's size.
        reach = 5 * max(
            (x.degree for a in (self.A1, self.A2) for row in a for x in row if not x.is_zero),
            default=0,
        )
        top = max(expected_coefficient_degree(self, j) for j in range(6))
        if top > reach:
            raise ValueError(
                f"splitting degrees expect a spectral coefficient of degree {top}, "
                f"but products of five entries reach degree {reach} at most"
            )

    def __hash__(self):
        # the per-spec memos hash a spec on every lookup, and hashing its 50
        # nested forms costs far more than the lookup; the value is the
        # dataclass hash, computed once and kept outside the fields
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.d, self.e, self.A1, self.A2)))
            return self._hash


def height(spec: FamilySpec) -> int:
    """h = -2*sum(d) = -2*(e1 + e2)."""
    return -2 * sum(spec.d)


def expected_coefficient_degree(spec: FamilySpec, j: int) -> int:
    """(s,t)-degree of the u^(5-j) v^j spectral coefficient."""
    return 2 * sum(spec.d) - (5 - j) * spec.e[0] - j * spec.e[1]


@lru_cache(maxsize=CACHE_BOUND)
def spectral_form(spec: FamilySpec) -> BiForm:
    """det(u*A1 + v*A2) over one common denominator L of the entries: the
    six (s,t)-coefficients of det(u*L*A1 + v*L*A2), each a polynomial in x
    = s/t, recovered by zrecover from zpencil_determinant of the integer
    fibers L*A1(x, 1), L*A2(x, 1), and divided by L^5 once.  Every
    coefficient of that determinant is at most prod_i sum_j (|L*A1_ij|_1 +
    |L*A2_ij|_1), the product of the row sums of the entries' 1-norms, so
    small entries take one fiber at x = 2^b; wide ones take the fibers at
    k = 0..D+1, D the largest D_j = expected_coefficient_degree(spec, j)
    (at least 0), one node beyond the D+1 that determine a coefficient.
    Coefficient j must have degree at most D_j, and be zero when D_j is
    negative: exactly so from one fiber, at the extra node from many.
    FamilySpec bounds each D_j by the degree that products of the nonzero
    entries reach.  A zero coefficient keeps the nominal degree
    max(D_j, 0)."""
    expected = [expected_coefficient_degree(spec, j) for j in range(6)]
    den, entries = zx_polys([x for a in (spec.A1, spec.A2) for row in a for x in row])
    rows = [entries[i : i + 5] for i in range(0, 50, 5)]
    norms = [[sum(map(abs, c)) for c in row] for row in rows]
    bound = math.prod(sum(x + y for x, y in zip(n1, n2)) for n1, n2 in zip(norms[:5], norms[5:]))

    def fiber(x):
        m = [[peval(c, x) for c in row] for row in rows]
        return zpencil_determinant(m[:5], m[5:])

    polys = zrecover(fiber, bound, max(max(expected), 0) + 1)
    if any(p and pdeg(p) > deg for p, deg in zip(polys, expected)):
        raise RuntimeError("spectral coefficient degree violates bookkeeping")
    coeffs = [BinaryForm.from_x_poly(p, max(deg, 0), den**5) for p, deg in zip(polys, expected)]
    form = BiForm(tuple(coeffs))
    if form.is_zero:
        raise ValueError("generically degenerate family")
    return form


@dataclass(frozen=True)
class HirzebruchClass:
    """alpha * fiber + beta * xi on the surface F_n (xi^2 = -n)."""

    n: int
    alpha: int
    beta: int


@dataclass(frozen=True)
class SpectralClassReport:
    cls: HirzebruchClass
    a: int
    reduced_range_ok: bool
    irreducible_range_ok: bool


def spectral_class(spec: FamilySpec) -> SpectralClassReport:
    """The spectral curve class (-5a-h) f + 5 xi on F_n with a = min(e) and
    n = -2a - h/2, plus the admissibility ranges for a."""
    h = height(spec)
    a = min(spec.e)
    n = -2 * a - h // 2
    assert n == abs(spec.e[0] - spec.e[1])
    cls = HirzebruchClass(n, -5 * a - h, 5)
    reduced = Fraction(-h, 3) <= a <= Fraction(-h, 4)
    irreducible = Fraction(-3 * h, 10) <= a <= Fraction(-h, 4)
    return SpectralClassReport(cls, a, reduced, irreducible)


def arithmetic_genus(cls: HirzebruchClass) -> int:
    """p_a of a curve of class alpha f + beta xi on F_n by adjunction."""
    if cls.beta < 1:
        raise ValueError("need beta >= 1")
    return (cls.alpha - 1) * (cls.beta - 1) - cls.n * cls.beta * (cls.beta - 1) // 2


@dataclass(frozen=True)
class DiscriminantReport:
    """Delta, its degree, whether it is squarefree (simple branching), its
    number of distinct roots, and its squarefree profile Delta = c * prod
    P_i^m_i as the (deg P_i, m_i) pairs, empty for a constant Delta: what
    the bounded factor search reads to rule out a content or a split."""

    delta: BinaryForm
    degree: int
    g1_prime: bool
    singular_fiber_count: int
    profile: tuple[tuple[int, int], ...]


@lru_cache(maxsize=CACHE_BOUND)
def _discriminant_or_none(spec: FamilySpec) -> DiscriminantReport | None:
    """discriminant_family, with None where Delta = 0 (h < 0 included).
    The memoized Delta step: lru_cache keeps no exception, so returning None
    is what lets a family that is not generically smooth be analyzed once."""
    sf = spectral_form(spec)
    h = height(spec)
    if h < 0:
        return None  # no nonzero form of degree 2h
    den, coeffs = zx_polys(sf.coefficients)
    # Delta = +-Res(f_u, f_v)/125, the determinant of the 8x8 Sylvester
    # matrix: four rows of f_u, of 1-norm sum (5-i)|c_i|_1, and four of f_v
    norms = [sum(map(abs, c)) for c in coeffs]
    row_u = sum((5 - i) * n for i, n in enumerate(norms))
    row_v = sum(i * n for i, n in enumerate(norms))
    (poly,) = zrecover(
        lambda x: [zdiscriminant([peval(c, x) for c in coeffs])], (row_u * row_v) ** 4, 2 * h + 1
    )
    if pdeg(poly) > 2 * h:
        raise RuntimeError("discriminant degree violates bookkeeping")
    if not poly:
        return None
    delta = BinaryForm.from_x_poly(poly, 2 * h, den**8)
    if delta.degree == 0:
        return DiscriminantReport(delta, 0, True, 0, ())
    return DiscriminantReport(delta, delta.degree, *_branching(delta))


def _branching(delta: BinaryForm) -> tuple[bool, int, tuple[tuple[int, int], ...]]:
    """(whether Delta is squarefree, its number of distinct roots, the
    (degree, multiplicity) pairs of its squarefree profile) for a
    nonconstant Delta, from that profile (which runs Yun's algorithm only
    when the part of Delta off x and y is not squarefree)."""
    profile = tuple((f.degree, mult) for f, mult in squarefree_profile(delta))
    return all(mult == 1 for _, mult in profile), sum(deg for deg, _ in profile), profile


def discriminant_family(spec: FamilySpec) -> DiscriminantReport:
    """The (u,v)-discriminant of the spectral form as an (s,t)-form of
    degree 2h, with the simple-branching flag (squarefree) and the count of
    distinct singular fibers.  It runs over Z on L times the spectral form,
    L its denominator, and divides by L^8.  Delta is +-Res(f_u, f_v)/125,
    the determinant of an 8x8 Sylvester matrix with four rows of f_u and
    four of f_v, so every coefficient is at most
    (sum_i (5-i)|c_i|_1)^4 (sum_i i|c_i|_1)^4 for the coefficients c_i of
    the spectral form.  From that bound zrecover reads Delta off one fiber
    discriminant Delta(2^b, 1), when the digits are narrow, and its degree
    check is exact; otherwise it interpolates the fiber discriminants
    Delta(k, 1) at k = 0..2h+1, and the node beyond the 2h+1 that determine
    Delta checks the degree."""
    disc = _discriminant_or_none(spec)
    if disc is None:
        raise ValueError("non-generically-smooth")
    return disc


@dataclass(frozen=True)
class GenericityReport:
    g1_prime: bool
    bounded_factor: object
    witness: object
    irreducible_certified: bool
    g2_prime: bool | None
    full_weyl_impossible: bool


@lru_cache(maxsize=CACHE_BOUND)
def genericity_check(spec: FamilySpec) -> GenericityReport:
    """Simple branching from the discriminant; the full-Galois-group
    condition as a certificate: no rational factor of (u,v)-degree <= 2 in
    the spectral form, plus one fiber whose quintic has an irreducible
    factor of degree >= 2 (ruling out five conjugate sections).  A found
    factor settles the question negatively and no witness is sought, so
    ``witness`` is None whenever ``bounded_factor`` is set; no factor and no
    witness leaves the result inconclusive (None).  The search reads Delta's
    squarefree profile (None when Delta = 0): Res(G,H)^2 divides Delta for
    a split F = G*H, and c^8 does for a content c, so on every model and on
    the squared example the profile rules both out and the search fiber is
    never factored (twisted_factor_search)."""
    sf = spectral_form(spec)
    try:
        disc = discriminant_family(spec)
    except ValueError:  # Delta = 0
        disc = None
    degenerate = disc is None
    g1 = not degenerate and disc.g1_prime
    factor = twisted_factor_search(
        list(sf.coefficients), 2, None if degenerate else disc.profile
    )
    witness = None
    if factor is None:
        for s0, t0 in _witness_points():
            fiber = sf.fiber(s0, t0)
            if fiber.is_zero:
                continue
            if _nonlinear_factor(fiber.zx_poly()):
                witness = (s0, t0)
                break
    certified = witness is not None
    if factor is not None or degenerate or not g1:
        g2 = False
    elif certified:
        g2 = True
    else:
        g2 = None
    genus = arithmetic_genus(spectral_class(spec).cls)
    return GenericityReport(g1, factor, witness, certified, g2, genus == 0)


def _nonlinear_factor(x_part) -> bool:
    """Whether a fiber's x-part has an irreducible factor of degree >= 2 over
    Q.  Yun's algorithm runs once, its first gcd the squarefreeness test;
    counting roots modulo a small prime proves such a factor of a squarefree
    part, and the parts are factored only where no count proves one."""
    parts = [g for g, _ in psquarefree_decomposition(_primitive_ints(x_part))]
    if any(map(proves_nonlinear_factor, parts)):
        return True
    return any(len(h) > 2 for g in parts for h in _zfactor_squarefree(g))


def _witness_points():
    yield Fraction(1), Fraction(0)
    yield Fraction(0), Fraction(1)
    for k in range(1, 12):
        yield Fraction(k), Fraction(1)
        yield Fraction(-k), Fraction(1)


def dimension_report(h: int) -> dict:
    """The dimension bookkeeping at height h: moduli dimension, the
    linear-system dimension re-derived by Riemann-Roch on the Hirzebruch
    surface, the expected parameter-count dimension, the degree of the
    moduli map, and the fiberwise invariant pullback degrees d*h/4."""
    if h % 2 != 0 or h < 0:
        raise ValueError("height must be even and non-negative")
    linear_system = 3 * h // 2 + 5
    riemann_roch = 5 * h // 2 - (h - 4) + 1
    if linear_system != riemann_roch:
        raise RuntimeError("linear-system dimension disagrees with Riemann-Roch")
    return {
        "height": h,
        "moduli_dimension": 3 * h // 2 + 2,
        "linear_system_dimension": linear_system,
        "expected_dimension": 3 * h // 2 - 1,
        "map_degree": 6 * h,
        "invariant_pullback_degrees": {
            "J4": h,
            "J8": 2 * h,
            "J12": 3 * h,
            "J18": 9 * h // 2,
        },
    }


def dimension_identities_symbolic() -> bool:
    """The Riemann-Roch identity 5h/2 - (h-4) + 1 = 3h/2 + 5 and the genus
    identity p_a = h - 4 for alpha = -5a-h, beta = 5, n = -2a-h/2, both as
    polynomial identities."""
    h, a, half = Poly.var("h"), Poly.var("a"), Fraction(1, 2)
    rr = 5 * half * h - (h - 4) + 1 - (3 * half * h + 5)
    alpha = -5 * a - h
    n = -2 * a - half * h
    genus = (alpha - 1) * (5 - 1) - n * 5 * (5 - 1) * half - (h - 4)
    return rr == 0 and genus == 0


@dataclass(frozen=True)
class ScanRow:
    a: int
    n: int
    alpha: int
    genus: int
    full_weyl_impossible: bool


def height_bounds_scan(h: int) -> dict:
    """Admissible twists at height h: integers a with -h/3 <= a <= -h/4 for
    reduced spectral curves, -3h/10 <= a <= -h/4 for irreducible ones."""
    if h % 2 != 0 or h < 0:
        raise ValueError("height must be even and non-negative")

    def rows(lo: Fraction, hi: Fraction):
        out = []
        a = math.ceil(lo)
        while a <= hi:
            n = -2 * a - h // 2
            alpha = -5 * a - h
            genus = arithmetic_genus(HirzebruchClass(n, alpha, 5))
            out.append(ScanRow(a, n, alpha, genus, genus == 0))
            a += 1
        return out

    return {
        "height": h,
        "reduced": rows(Fraction(-h, 3), Fraction(-h, 4)),
        "irreducible": rows(Fraction(-3 * h, 10), Fraction(-h, 4)),
    }


# ---------------------------------------------------------------------------
# Chern-class identity in the Chow ring of the ambient bundle


class Poly:
    """A polynomial over Q in named variables: a dict from sorted tuples of
    variable names (a monomial, one name per factor) to nonzero Fractions.
    It mixes with ints and Fractions under + - * == !=, so the Chow-ring code
    below runs unchanged on numbers and on symbols."""

    def __init__(self, terms):
        self.terms = {m: Fraction(c) for m, c in terms.items() if c}

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls({(name,): 1})

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in _poly(other).terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(out)

    def __mul__(self, other):
        out = {}
        for (m1, c1), (m2, c2) in product(self.terms.items(), _poly(other).terms.items()):
            m = tuple(sorted(m1 + m2))
            out[m] = out.get(m, 0) + c1 * c2
        return Poly(out)

    def __sub__(self, other):
        return self + other * -1

    def __rsub__(self, other):
        return self * -1 + other

    def __eq__(self, other):
        return self.terms == _poly(other).terms

    __radd__, __rmul__ = __add__, __mul__


def _poly(x) -> Poly:
    return x if isinstance(x, Poly) else Poly({(): x})


def _is_variable(x) -> bool:
    return isinstance(x, Poly) and [(len(m), c) for m, c in x.terms.items()] == [(1, 1)]


def _chow_reduce(cls: dict, c1):
    out = {}
    for (i, j), v in cls.items():
        if j >= 2:
            continue
        if j == 0 and i >= 5:
            if i == 5:
                key = (4, 1)
                out[key] = out.get(key, 0) + v * c1
            # i > 5 lands in H^(i-1) F with i-1 >= 5, which dies against F
            continue
        if j == 1 and i >= 5:
            continue
        out[(i, j)] = out.get((i, j), 0) + v
    return {k: v for k, v in out.items() if v != 0}


def _chow_mul(x: dict, y: dict, c1):
    out = {}
    for (i1, j1), v1 in x.items():
        for (i2, j2), v2 in y.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + v1 * v2
    return _chow_reduce(out, c1)


def chern_sides(d, e):
    """(integral of c1(omega_rel)^3 over the family, -2*sum(d)) for numeric
    or Poly inputs.  The ambient Chow ring is generated by the relative
    hyperplane H and the fiber F modulo F^2 and H^5 - c1 H^4 F with
    c1 = sum(d); the family class is 4H^2 - 2(e1+e2) HF and omega_rel is
    -H + (sum(d) - e1 - e2) F."""
    if len(d) != 5 or len(e) != 2:
        raise ValueError("need 5 degrees d and 2 degrees e")
    c1 = sum(d)
    se = e[0] + e[1]
    x_class = {(2, 0): 4, (1, 1): -2 * se}
    omega = {(1, 0): -1, (0, 1): c1 - se}
    cube = _chow_mul(_chow_mul(omega, omega, c1), omega, c1)
    total = _chow_mul(cube, x_class, c1)
    return total.get((4, 1), 0) + c1 * total.get((5, 0), 0), -2 * c1


def chern_verify(d, e) -> bool:
    """Whether c1(omega_rel)^3 integrates to -2*sum(d).  The identity only
    holds modulo sum(d) = e1 + e2; where it fails, a Poly variable e2 (else
    e1) is eliminated through it, and numeric inputs must satisfy it."""
    if sum(d) - e[0] - e[1] != 0:
        if _is_variable(e[1]):
            e = [e[0], sum(d) - e[0]]
        elif _is_variable(e[0]):
            e = [sum(d) - e[1], e[1]]
        else:
            raise ValueError("sum(d) = e1 + e2 violated")
    lhs, rhs = chern_sides(d, e)
    return bool(lhs == rhs)


# ---------------------------------------------------------------------------
# complete-intersection presentations


def family_from_quadric_pair(pairs) -> FamilySpec:
    """Two symmetric Gram matrices of (s,t)-forms, the k-th quadratic in the
    fiber coordinates with (s,t)-degree m_k, as a FamilySpec: d_i = -(m1+m2)
    and e_k = -2(m1+m2) - m_k (pinned by the entry-degree bookkeeping)."""
    if len(pairs) != 2:
        raise ValueError("need exactly two quadratic forms")
    (m1, g1), (m2, g2) = pairs
    total = m1 + m2
    d = (-total,) * 5
    e = (-2 * total - m1, -2 * total - m2)
    return FamilySpec(d, e, _as_form_matrix(g1, m1), _as_form_matrix(g2, m2))


def _as_form_matrix(g, degree: int):
    rows = []
    for row in g:
        out = []
        for x in row:
            if isinstance(x, BinaryForm):
                out.append(x)
            elif degree == 0:
                out.append(BinaryForm.constant(x))
            else:
                raise ValueError("non-constant entries must be BinaryForms")
        rows.append(tuple(out))
    return tuple(rows)


def family_from_linear_plus_quadrics(alpha, beta, q1, q2) -> FamilySpec:
    """Eliminate one of six coordinates using the bilinear form with
    coefficient vectors alpha (s-part) and beta (t-part): restrict the two
    constant quadrics to the rank-5 kernel spanned by four constant vectors
    and one vector linear in (s,t).  Gives d = (0,-1,-1,-1,-1) and
    e = (-2,-2), so h = 8."""
    alpha = [Fraction(x) for x in alpha]
    beta = [Fraction(x) for x in beta]
    if len(alpha) != 6 or len(beta) != 6:
        raise ValueError("need 6 coefficients in each of alpha, beta")
    if linalg.rank([alpha, beta]) < 2:
        raise ValueError("elimination impossible: bilinear form has rank < 2")
    # one kernel of [alpha | -1 0; beta | 0 -1], all of whose pivots lie in
    # columns 0..5: in free-column order, the four vectors of ker [alpha;
    # beta], then p at free column 6 and q at free column 7, the solutions
    # of alpha.p = 1, beta.p = 0 and alpha.q = 0, beta.q = 1 that vanish at
    # the free columns, all over one positive denominator
    _, basis = linalg.kernel_basis([[*alpha, -1, 0], [*beta, 0, -1]])
    *kern, p, q = (v[:6] for v in basis)
    # w = t*p - s*q: alpha.w = t, beta.w = -s, so the constraint
    # s*(alpha.z) + t*(beta.z) vanishes on w for every (s,t)
    joint = _primitive_ints([*p, *q])
    p, q = joint[:6], joint[6:]
    # the columns of C as integer (s,t)-coefficient lists, one per coordinate
    columns = [[(-q[i], p[i]) for i in range(6)]]
    for v in kern:
        columns.append([(x,) for x in _primitive_ints(v)])

    def restrict(quad):
        """C^T quad C over Z, with quad scaled by the lcm of its
        denominators: quad c_j once per column, then entry (i,j) as
        c_i . (quad c_j).  A symmetric quad takes the entries with i <= j
        and mirrors them; any other quad takes all 25, and FamilySpec
        refuses the result unless it is symmetric.  Entry (i,j) has degree
        deg c_i + deg c_j once a term contributes to it, even if the terms
        cancel, and is BinaryForm.zero(0) otherwise."""
        quad = [[Fraction(x) for x in row] for row in quad]
        symmetric = all(quad[i][j] == quad[j][i] for i in range(6) for j in range(i))
        den, quad = linalg.clear_row_denominators(quad)

        def image(cj):
            # row r of quad c_j, None where no term contributes
            out = []
            for row in quad:
                terms = [(a, w) for a, w in zip(row, cj) if a and any(w)]
                out.append(
                    [sum(a * w[n] for a, w in terms) for n in range(len(cj[0]))] if terms else None
                )
            return out

        def entry(ci, cj, qcj):
            terms = [(u, v) for u, v in zip(ci, qcj) if v is not None and any(u)]
            if not terms:
                return BinaryForm.zero(0)
            acc = [0] * (len(ci[0]) + len(cj[0]) - 1)
            for u, v in terms:
                for k, x in enumerate(u):
                    for n, y in enumerate(v):
                        acc[k + n] += x * y
            return BinaryForm(len(acc) - 1, tuple(acc), den)

        images = [image(cj) for cj in columns]
        out = [[None] * 5 for _ in range(5)]
        for i, ci in enumerate(columns):
            for j in range(i if symmetric else 0, 5):
                out[i][j] = entry(ci, columns[j], images[j])
                if symmetric:
                    out[j][i] = out[i][j]
        return tuple(tuple(row) for row in out)

    d = (0, -1, -1, -1, -1)
    e = (-2, -2)
    return FamilySpec(d, e, restrict(q1), restrict(q2))


def substitute_squared(spec: FamilySpec) -> FamilySpec:
    """Pull the family back along (s,t) -> (s^2, t^2); splitting degrees
    double and the discriminant becomes the old one in (s^2, t^2)."""

    def sq(f: BinaryForm) -> BinaryForm:
        nums = [0] * (2 * f.degree + 1)
        nums[::2] = f.nums
        return BinaryForm(2 * f.degree, tuple(nums), f.den)

    d = tuple(2 * x for x in spec.d)
    e = (2 * spec.e[0], 2 * spec.e[1])
    a1 = tuple(tuple(sq(x) for x in row) for row in spec.A1)
    a2 = tuple(tuple(sq(x) for x in row) for row in spec.A2)
    return FamilySpec(d, e, a1, a2)


@dataclass(frozen=True)
class FamilyReport:
    height: int
    coefficient_degrees: tuple[int, ...]
    expected_degrees: tuple[int, ...]
    spectral: SpectralClassReport
    genus: int
    discriminant_degree: int | None
    g1_prime: bool
    singular_fiber_count: int | None
    genericity: GenericityReport
    dimensions: dict


def family_report(spec: FamilySpec) -> FamilyReport:
    """Everything the CLI prints about one family."""
    h = height(spec)
    sf = spectral_form(spec)
    sc = spectral_class(spec)
    gen = genericity_check(spec)
    disc = _discriminant_or_none(spec)
    return FamilyReport(
        height=h,
        coefficient_degrees=sf.degrees(),
        expected_degrees=tuple(expected_coefficient_degree(spec, j) for j in range(6)),
        spectral=sc,
        genus=arithmetic_genus(sc.cls),
        discriminant_degree=None if disc is None else disc.degree,
        g1_prime=gen.g1_prime,
        singular_fiber_count=None if disc is None else disc.singular_fiber_count,
        genericity=gen,
        dimensions=dimension_report(h) if h % 2 == 0 and h >= 0 else {},
    )
