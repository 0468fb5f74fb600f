"""Pencils of quadrics on P^4: spectral quintic, degeneracy data, surface
classification, and the blow-up model.

A pencil is a pair of symmetric 5x5 rational matrices (P, Q); the base
surface is the intersection of the two quadrics.  The spectral quintic
det(uP + vQ) controls everything here: its roots are the singular members of
the pencil, multiplicities and coranks (whether each factor divides the
principal minors of the pencil, over Z) classify the surface, and a quintic
with rational roots can be rebuilt into a pencil by blowing up the plane
along five points of a conic (projection from a line identifies the surface
with that blow-up, and the identification is validated through the moduli
point of the spectral quintic); the blow-up's conditions and cubic products
run over Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import linalg
from .binforms import (
    BinaryForm,
    _zprem,
    pdeg,
    pencil_determinant,
    pmonomials,
    zpencil_determinant,
)
from .factor_search import uni_irreducible_factors
from .quintic import moduli_point, stability_classify


def _check_symmetric(m, name):
    if len(m) != 5 or any(len(row) != 5 for row in m):
        raise ValueError(f"{name} must be 5x5")
    for i in range(5):
        for j in range(i):
            if m[i][j] != m[j][i]:
                raise ValueError(f"{name} must be symmetric")


@dataclass(frozen=True)
class SymmetricPencil:
    """A pencil u*P + v*Q of quadrics on P^4."""

    P: tuple[tuple[Fraction, ...], ...]
    Q: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        p = tuple(tuple(Fraction(x) for x in row) for row in self.P)
        q = tuple(tuple(Fraction(x) for x in row) for row in self.Q)
        _check_symmetric(p, "P")
        _check_symmetric(q, "Q")
        object.__setattr__(self, "P", p)
        object.__setattr__(self, "Q", q)


def spectral_quintic(pencil: SymmetricPencil) -> BinaryForm:
    """det(uP + vQ) as a binary quintic, coefficient k on u^(5-k) v^k:
    interpolated from the six member determinants det(P + kQ), k = 0..5."""
    f = pencil_determinant(pencil.P, pencil.Q)
    if f.is_zero:
        raise ValueError("degenerate pencil")
    return f


def irreducible_profile(f: BinaryForm):
    """Factorization into rational irreducibles with multiplicities,
    deterministic order (multiplicity, degree, coefficients)."""
    from .binforms import squarefree_profile

    out = []
    for factor, mult in squarefree_profile(f):
        if factor.y_valuation() >= 1:
            out.append((factor, mult))
            continue
        for p, _ in uni_irreducible_factors(factor.zx_poly()):
            out.append((BinaryForm.from_x_poly(p, pdeg(p)), mult))
    out.sort(key=lambda fm: (fm[1], fm[0].degree, fm[0].coeffs))
    return out


@dataclass(frozen=True)
class ProfileRecord:
    factor: BinaryForm
    multiplicity: int
    corank: int


def degeneracy_profile(pencil: SymmetricPencil, f: BinaryForm | None = None) -> list[ProfileRecord]:
    """Per irreducible factor of the spectral quintic f (computed unless the
    caller has it): its multiplicity and the corank of the member quadric
    at a root of that factor.

    At the root (1:0) the member is P and the corank is 5 - rank(P).  At the
    roots of an integer factor phi of multiplicity m (the numerators of an
    irreducible factor monic in x, which are primitive) the corank of
    wP + Q lies between 1 and m, since the pencil is regular (Gantmacher,
    The Theory of Matrices, vol. 2, ch. XII).  For k = 2..m, once the corank
    is known to be at least k - 1, it is at least k exactly when phi divides
    every principal minor of size 6 - k: a symmetric matrix has a
    nonsingular principal submatrix of the size of its rank.  (Principal
    minors of one size alone bound no rank: [[0, 1], [1, 0]] has a zero
    diagonal and rank 2.)
    Each minor is the pencil determinant of principal submatrices of P and
    Q over one common denominator.
    """
    if f is None:
        f = spectral_quintic(pencil)
    _, rows = linalg.clear_row_denominators([*pencil.P, *pencil.Q])
    p, q = rows[:5], rows[5:]

    def minors_vanish(phi, size):
        # det(w P_S + Q_S) has coefficient i on w^i, as phi does
        for s in combinations(range(5), size):
            minor = zpencil_determinant([[q[i][j] for j in s] for i in s], [[p[i][j] for j in s] for i in s])
            if _zprem(minor, phi):
                return False
        return True

    records = []
    for factor, mult in irreducible_profile(f):
        if factor.y_valuation() >= 1:
            # root (1:0): member is P itself
            corank = 5 - linalg.rank(pencil.P)
        else:
            phi = factor.zx_poly()
            corank = 1
            while corank < mult and minors_vanish(phi, 5 - corank):
                corank += 1
        records.append(ProfileRecord(factor, mult, corank))
    return records


@dataclass(frozen=True)
class SurfaceLabel:
    label: str
    profile: tuple[ProfileRecord, ...]


def classify_surface(pencil: SymmetricPencil, f: BinaryForm | None = None) -> SurfaceLabel:
    """smooth / one-A1 / boundary-U / outside-U from the degeneracy profile
    (of the spectral quintic f, computed unless the caller has it).

    one-A1 means exactly one rational double root with corank 1 and simple
    roots elsewhere.  All other multiplicity-2 patterns (conjugate double
    roots, corank 2, two doubles) are surfaced as boundary-U with raw data.
    """
    profile = tuple(degeneracy_profile(pencil, f))
    if any(rec.multiplicity >= 3 for rec in profile):
        return SurfaceLabel("outside-U", profile)
    doubles = [rec for rec in profile if rec.multiplicity == 2]
    if not doubles:
        for rec in profile:
            if rec.corank != 1:
                raise RuntimeError("simple root with corank > 1")
        return SurfaceLabel("smooth", profile)
    if (
        len(doubles) == 1
        and doubles[0].factor.degree == 1
        and doubles[0].corank == 1
    ):
        return SurfaceLabel("one-A1", profile)
    return SurfaceLabel("boundary-U", profile)


# ---------------------------------------------------------------------------
# blow-up model: five points on a conic in the plane


_CUBIC_MONOMIALS = [
    (a, b, 3 - a - b) for a in range(4) for b in range(4 - a)
]
_SEXTIC_MONOMIALS = [
    (a, b, 6 - a - b) for a in range(7) for b in range(7 - a)
]


@dataclass(frozen=True)
class BlowupModel:
    parameters: tuple[Fraction, ...]
    points: tuple[tuple[Fraction, Fraction, Fraction], ...]
    cubic_basis: tuple[tuple[Fraction, ...], ...]
    pencil: SymmetricPencil


def blowup_from_quintic(parameters) -> tuple[BlowupModel, SymmetricPencil]:
    """Blow up the plane along the length-5 subscheme cut on the conic
    x0*x2 = x1^2 by parameters r_1..r_5; the anticanonical cubics through the
    subscheme map the plane to P^4, and the two quadric relations among them
    present the image as a pencil of quadrics.

    A repeated parameter contributes its point with a first-order condition
    along the conic; three equal parameters are rejected.  For rho = p/q
    the rows are the cubic monomials at ((p + qt)^2, (p + qt)q, q^2): q^6
    times their value and derivative at (rho^2, rho, 1), over Z.
    """
    rs = tuple(Fraction(r) for r in parameters)
    if len(rs) != 5:
        raise ValueError("five parameters required")
    mults: dict[Fraction, int] = {}
    for r in rs:
        mults[r] = mults.get(r, 0) + 1
    if any(m >= 3 for m in mults.values()):
        raise ValueError("unstable configuration")

    rows = []
    for rho in sorted(mults):
        p, q = rho.numerator, rho.denominator
        conic = [[p * p, 2 * p * q, q * q], [p * q, q * q], [q * q]]
        values = pmonomials(conic, _CUBIC_MONOMIALS, mults[rho])
        rows.extend([v[r] if r < len(v) else 0 for v in values] for r in range(mults[rho]))
    dc, cubics = linalg.kernel_basis(rows)
    if len(cubics) != 5:
        raise RuntimeError("cubic system dimension != 5")

    # the integer cubics are dc times the rational ones, so every product
    # is dc^2 times the rational one and the relation matrix keeps its kernel
    pairs = [(i, j) for i in range(5) for j in range(i, 5)]
    row_of = {mono: r for r, mono in enumerate(_SEXTIC_MONOMIALS)}
    relation_matrix = [[0] * len(pairs) for _ in _SEXTIC_MONOMIALS]
    for col, (i, j) in enumerate(pairs):
        for (a1, b1, c1), x in zip(_CUBIC_MONOMIALS, cubics[i]):
            for (a2, b2, c2), y in zip(_CUBIC_MONOMIALS, cubics[j]):
                if x and y:
                    relation_matrix[row_of[a1 + a2, b1 + b2, c1 + c2]][col] += x * y
    d, relations = linalg.kernel_basis(relation_matrix)
    if len(relations) != 2:
        raise RuntimeError("quadric relation dimension != 2")

    grams = []
    for rel in relations:
        g = [[Fraction(0)] * 5 for _ in range(5)]
        for (i, j), q in zip(pairs, rel):
            if i == j:
                g[i][i] = Fraction(q, d)
            else:
                g[i][j] = g[j][i] = Fraction(q, 2 * d)
        grams.append(tuple(tuple(row) for row in g))
    pencil = SymmetricPencil(grams[0], grams[1])
    points = tuple((r * r, r, Fraction(1)) for r in rs)
    cubic_basis = tuple(tuple(Fraction(x, dc) for x in c) for c in cubics)
    model = BlowupModel(rs, points, cubic_basis, pencil)
    return model, pencil


def roundtrip_check(f: BinaryForm) -> bool:
    """Whether the blow-up built from the rational roots of f has a spectral
    quintic with the same moduli point as f."""
    if f.degree != 5:
        raise ValueError("roundtrip needs a quintic")
    if stability_classify(f) == "unstable":
        raise ValueError("not in U")
    if f.y_valuation() >= 1:
        raise ValueError("roundtrip needs five affine rational roots")
    roots = []
    for factor, mult in irreducible_profile(f):
        if factor.degree != 1 or factor.y_valuation() >= 1:
            raise ValueError("quintic does not split over the rationals")
        # monic x - rho*y has coefficients (1, -rho)
        rho = -factor.coeffs[1] / factor.coeffs[0]
        roots.extend([rho] * mult)
    _, pencil = blowup_from_quintic(roots)
    return moduli_point(spectral_quintic(pencil)) == moduli_point(f)
