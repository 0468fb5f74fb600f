"""Smooth plane quintics: exact divisor arithmetic and the theta parity.

A smooth plane quintic has genus 6 and the line class as a theta
characteristic (twice a line section is the canonical class).  For a
two-torsion class eta presented as a difference of rational-point divisors,
the parity q(eta) = (h^0(theta + eta) + h^0(theta)) mod 2 is computed by
exact interpolation: sections of theta + eta are realized as plane forms
constrained by auxiliary lines through the positive part and power-series
vanishing conditions at the negative part, and h^0 falls out as a kernel
dimension minus the quintic multiples.  The form and its monomials meet
a point, a line and a branch series through one evaluator,
binforms.pmonomials, and the branch series gains one order per step.

Two fixtures are bundled, both built by solving exact linear systems for
quintics with prescribed tangent lines.  The pencil fixture has three
tangent lines through a common rational curve point; differences of its
tangency pairs are two-torsion classes whose twists by theta always carry
an effective divisor, so their parity is 0.  The quadrilateral fixture has
four lines in general position, each tangent at one rational point, with
the curve through all six intersection vertices; the class pairing one
vertex and two tangency points against the opposite vertex and the other
two tangency points has no forced section and comes out odd, parity 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from . import linalg
from .binforms import (
    BinaryForm,
    _zprem,
    discriminant,
    form_gcd,
    monomials,
    padd,
    pinterpolate,
    pmonomials,
    pnorm,
    psub,
    resultant,
)


_QUINTIC_MONOMIALS = monomials(5)


@dataclass(frozen=True)
class PlaneQuintic:
    """Coefficients against monomials(5), exact rationals."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != 21:
            raise ValueError("plane quintic needs 21 coefficients")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    def evaluate(self, point) -> Fraction:
        return _evaluate(self.coeffs, 5, point)

    def gradient(self, point) -> tuple[Fraction, Fraction, Fraction]:
        return tuple(_evaluate(_partial(self.coeffs, v), 4, point) for v in range(3))

    def contains(self, point) -> bool:
        return self.evaluate(point) == 0

    def is_smooth(self) -> bool:
        """Certified smoothness (resultants as elimination, Cox-Little-O'Shea
        ch. 3).  A singular point Q off the centre P = (a, a^2 + 1, 1) lies on
        the line L through P and some (x : y : 0), where F_x, F_y and F_z
        vanish; so R_x = Res(F_x|L, F_z|L) and R_y = Res(F_y|L, F_z|L), forms
        of degree 16 in (x : y) interpolated from 17 nodes, share a root.  A
        constant gcd proves smoothness; False means no centre certified."""
        partials = [_partial(self.coeffs, v) for v in range(3)]
        for a in SMOOTHNESS_CENTRES:
            centre = (a, a * a + 1, 1)
            if self.evaluate(centre) == 0:
                continue
            rows = [[restrict(g, 4, (k, 1, 0), centre) for g in partials] for k in range(17)]
            rx, ry = (
                BinaryForm.from_x_poly(pinterpolate([resultant(r[i], r[2]) for r in rows]), 16)
                for i in (0, 1)
            )
            if form_gcd(rx, ry).degree == 0:
                return True
        return False


SMOOTHNESS_CENTRES = range(1, 7)


def _form_at(coeffs, degree: int, coords, n=None) -> list:
    """A ternary form at three polynomials in t, the sum of c * pmonomials
    over monomials(degree), as a p-list cut to n coefficients."""
    terms = [(c, m) for c, m in zip(coeffs, monomials(degree)) if c]
    total: list = []
    for (c, _), value in zip(terms, pmonomials(coords, [m for _, m in terms], n)):
        total = padd(total, [c * x for x in value])
    return total


def _evaluate(coeffs, degree: int, point) -> Fraction:
    value = _form_at(coeffs, degree, [[v] for v in point])
    return Fraction(value[0]) if value else Fraction(0)


def restrict(curve_coeffs, degree: int, p0, p1) -> BinaryForm:
    """Restriction of a ternary form to the line s*p0 + t*p1 as a binary
    form in (s, t), computed over Z on the form and the points scaled by
    the lcms D, d0, d1 of their denominators: coefficient i (on
    s^(degree-i) t^i) is over D * d0^(degree-i) * d1^i, so the form is the
    numerators times d0^i * d1^(degree-i) over D * (d0 * d1)^degree."""
    den, coeffs = linalg.clear_denominators(curve_coeffs)
    (d0, q0), (d1, q1) = linalg.clear_denominators(p0), linalg.clear_denominators(p1)
    total = _form_at(coeffs, degree, [[a, b] for a, b in zip(q0, q1)])
    total += [0] * (degree + 1 - len(total))
    return BinaryForm(
        degree,
        tuple(c * d0**i * d1 ** (degree - i) for i, c in enumerate(total)),
        den * (d0 * d1) ** degree,
    )


def _covector(p, q):
    return (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )


def _on_line(covector, point) -> bool:
    return sum(a * b for a, b in zip(covector, point)) == 0


# ---------------------------------------------------------------------------
# branch expansion at a smooth rational point


def _branch_series(curve: PlaneQuintic, point, order: int):
    """Power-series parametrization of the curve branch at a smooth rational
    point: three p-lists (x(t), y(t), z(t)), exact modulo t^order, with the
    free coordinate moving linearly in t.  Each step y <- y - F(y)/F_y(point)
    clears the lowest nonzero order of F(y): along the branch F_y is
    F_y(point), nonzero at a smooth point, plus higher orders."""
    pt = [Fraction(v) for v in point]
    iz = next(i for i in range(3) if pt[i] != 0)
    pt = [v / pt[iz] for v in pt]
    grad = curve.gradient(pt)
    others = [i for i in range(3) if i != iz]
    iy = next((i for i in others if grad[i] != 0), None)
    if iy is None:
        raise ValueError("unsupported divisor presentation: singular point")
    ix = next(i for i in others if i != iy)

    series = [None, None, None]
    series[iz] = [Fraction(1)]
    series[ix] = [pt[ix], Fraction(1)]
    series[iy] = pnorm([pt[iy]])
    # F(point) = 0, so order - 1 steps leave F(y) zero modulo t^order
    for _ in range(order):
        value = _form_at(curve.coeffs, 5, series, order)
        if not value:
            return series
        series[iy] = psub(series[iy], [v / grad[iy] for v in value])
    raise RuntimeError("branch expansion did not converge")


def _partial(coeffs, var: int):
    out = {}
    for c, mono in zip(coeffs, _QUINTIC_MONOMIALS):
        if not c or not mono[var]:
            continue
        lowered = list(mono)
        lowered[var] -= 1
        out[tuple(lowered)] = out.get(tuple(lowered), Fraction(0)) + c * mono[var]
    return [out.get(m, Fraction(0)) for m in monomials(4)]


# ---------------------------------------------------------------------------
# h^0 by interpolation


def _normalize_divisor(div):
    out = []
    for entry in div:
        point, mult = entry
        mult = int(mult)
        if mult <= 0:
            raise ValueError("unsupported divisor presentation: bad multiplicity")
        out.append((tuple(Fraction(v) for v in point), mult))
    keys = [p for p, _ in out]
    if len(set(keys)) != len(keys):
        raise ValueError("unsupported divisor presentation: repeated point")
    return out


def _pick_lines(curve: PlaneQuintic, plus, special_points):
    """One auxiliary line per multiplicity unit of each positive point:
    not tangent there, residual quartic squarefree, avoiding every other
    special point, and meeting previous lines off the curve."""
    chosen = []
    for p, mult in plus:
        for _ in range(mult):
            found = False
            for w in _direction_candidates():
                cov = _covector(p, w)
                if cov == (0, 0, 0) or any(
                    _on_line(cov, q) for q in special_points if tuple(q) != tuple(p)
                ):
                    continue
                # a new line, meeting the lines through other points off the curve
                crossings = [(p2, _covector(cov, cov2)) for p2, _, cov2, _ in chosen]
                if any(
                    x == (0, 0, 0) or (tuple(p2) != tuple(p) and curve.evaluate(x) == 0)
                    for p2, x in crossings
                ):
                    continue
                b = restrict(curve.coeffs, 5, p, w)
                if b.coeffs[0] != 0:
                    raise RuntimeError("positive point is not on the curve")
                if b.coeffs[1] == 0:
                    continue  # line tangent at p
                residual = BinaryForm(4, b.coeffs[1:])
                if discriminant(residual) == 0:
                    continue  # repeated residual intersection
                chosen.append((p, w, cov, residual))
                found = True
                break
            if not found:
                raise RuntimeError("no valid auxiliary line found")
    return chosen


def _direction_candidates():
    for k in range(40):
        yield (Fraction(1), Fraction(k), Fraction(k * k + 1))
        yield (Fraction(0), Fraction(1), Fraction(k))
        yield (Fraction(1), Fraction(-k - 1), Fraction(k + 2))


def h0_linear_system(curve: PlaneQuintic, plus, minus, extra_h: int = 0) -> int:
    """h^0 of O_C(extra_h * H + plus - minus) for divisors of rational
    points.  Sections f are written as F/G with G a product of auxiliary
    lines through the positive part; the conditions div(F) >= div(G) -
    plus + minus become residual-quartic divisibility along each line and
    branch-series vanishing at the negative points, and h^0 is the kernel
    dimension minus the space of quintic multiples."""
    plus = _normalize_divisor(plus)
    minus = _normalize_divisor(minus)
    sp = [p for p, _ in plus] + [q for q, _ in minus]
    if len(set(sp)) != len(sp):
        raise ValueError("unsupported divisor presentation: overlapping support")
    for p in sp:
        if not curve.contains(p):
            raise ValueError("unsupported divisor presentation: point off the curve")
    if extra_h < 0:
        raise ValueError("unsupported divisor presentation: negative twist")

    lines = _pick_lines(curve, plus, sp)
    m = sum(mult for _, mult in plus)
    deg_f = m + extra_h
    mons = monomials(deg_f)
    rows = []

    for p, w, _, residual in lines:
        rpoly = residual.zx_poly()
        cond = [[] for _ in range(4)]
        # each monomial on the line w + x*p, a polynomial in x
        for value in pmonomials([[a, b] for a, b in zip(w, p)], mons):
            # at its full length deg_f + 1, every fpoly along this line takes
            # the pseudo-remainder's factor lc^(deg_f - 3): one row scale
            fpoly = value + [Fraction(0)] * (deg_f + 1 - len(value))
            rem = _zprem(fpoly, rpoly)
            for r in range(4):
                cond[r].append(rem[r] if r < len(rem) else Fraction(0))
        rows.extend(cond)

    for q, mult in minus:
        values = pmonomials(_branch_series(curve, q, mult), mons, mult)
        rows.extend([v[r] if r < len(v) else Fraction(0) for v in values] for r in range(mult))

    rank = linalg.rank(rows)
    v1 = len(mons) - rank
    v0 = 0
    if deg_f >= 5:
        v0 = (deg_f - 4) * (deg_f - 3) // 2
    return v1 - v0


def theta_quadratic_form(curve: PlaneQuintic, plus, minus) -> int:
    """Parity q(eta) = (h^0(theta + eta) + 3) mod 2 for eta = plus - minus;
    the class must be two-torsion, which is verified by checking that
    2*eta is principal."""
    plus = _normalize_divisor(plus) if plus else []
    minus = _normalize_divisor(minus) if minus else []
    if sum(m for _, m in plus) != sum(m for _, m in minus):
        raise ValueError("unsupported divisor presentation: degrees differ")
    if plus or minus:
        doubled_plus = [(p, 2 * m) for p, m in plus]
        doubled_minus = [(q, 2 * m) for q, m in minus]
        if h0_linear_system(curve, doubled_plus, doubled_minus, 0) != 1:
            raise ValueError("not 2-torsion")
    h0 = h0_linear_system(curve, plus, minus, 1)
    return (h0 + 3) % 2


def is_principal(curve: PlaneQuintic, plus, minus) -> bool:
    """Degree-zero class test: h^0 = 1 exactly for a principal divisor."""
    return h0_linear_system(curve, plus, minus, 0) == 1


# ---------------------------------------------------------------------------
# bundled fixtures


@dataclass(frozen=True)
class PencilFixture:
    """Quintic with three tangent lines through a common curve point.

    Line i is tangent at a_i and b_i and passes through the shared point
    X, so div(L_i/L_j) = 2(a_i + b_i) - 2(a_j + b_j) and each difference
    (a_i + b_i) - (a_j + b_j) is two-torsion.  Twisting by theta and
    substituting a line section leaves the effective divisor
    a_i + b_i + a_j + b_j + X, so every class in this subgroup has
    parity 0.
    """

    curve: PlaneQuintic
    center: tuple
    pairs: tuple

    def eta(self, i: int, j: int):
        (ai, bi), (aj, bj) = self.pairs[i], self.pairs[j]
        return [(ai, 1), (bi, 1)], [(aj, 1), (bj, 1)]


@dataclass(frozen=True)
class QuadrilateralFixture:
    """Quintic through the six vertices of four general lines, tangent to
    each line at one more rational point.

    With vertices P_ij and tangency points a_i, the ratio of line products
    gives div(L_i L_j / L_k L_l) = 2 eta for the class
    eta = (P_ij + a_i + a_j) - (P_kl + a_k + a_l); the three pairings of
    opposite vertices present the same class.
    """

    curve: PlaneQuintic
    vertices: dict
    tangents: tuple

    def eta(self, partition: str = "12|34"):
        a1, a2, a3, a4 = self.tangents
        table = {
            "12|34": (("P12", a1, a2), ("P34", a3, a4)),
            "13|24": (("P13", a1, a3), ("P24", a2, a4)),
            "14|23": (("P14", a1, a4), ("P23", a2, a3)),
        }
        (vp, pa, pb), (vm, ma, mb) = table[partition]
        plus = [(self.vertices[vp], 1), (pa, 1), (pb, 1)]
        minus = [(self.vertices[vm], 1), (ma, 1), (mb, 1)]
        return plus, minus


def _tangent_target(alpha, beta):
    # s (alpha s - t)^2 (beta s - t)^2: tangency at two finite parameters,
    # transverse at the shared point (parameter (0, 1))
    t = BinaryForm(1, (Fraction(1), Fraction(0)))
    for r in (alpha, alpha, beta, beta):
        t = t * BinaryForm(1, (Fraction(r), Fraction(-1)))
    return t


def _solve_with_mix(rows, rhs, kmix):
    """The solution of rows x = rhs that vanishes at the free columns, plus
    the combination kmix of the kernel basis of rows: one kernel of
    [rows | -rhs], whose vectors over the denominator d are the kernel of
    rows, then, where the system is consistent, d (x, 1) at free column n."""
    n = len(rows[0])
    d, kern = linalg.kernel_basis([[*row, -b] for row, b in zip(rows, rhs)])
    if not kern or kern[-1][n] != d:
        raise RuntimeError("fixture system inconsistent")
    if len(kern) != len(kmix) + 1:
        raise RuntimeError("fixture kernel dimension changed")
    vec = kern[-1][:n]
    for kv, w in zip(kern, kmix):
        for idx in range(n):
            vec[idx] += w * kv[idx]
    return [Fraction(x, d) for x in vec]


@lru_cache(maxsize=1)
def pencil_fixture() -> PencilFixture:
    """Deterministic parity-0 fixture; construction is re-verified on each
    build (restrictions exact, all special points rational and on the
    curve, curve smooth)."""
    ms = (0, 1, -1)
    tangency = ((1, 2), (3, -2), (-3, 4))
    kmix = (1, -2, 3, -1, 2, 1, -3)
    targets = [_tangent_target(a, b) for a, b in tangency]
    rows, rhs = [], []
    for i in range(3):
        for k in range(6):
            row = [Fraction(0)] * 23
            for col, (a, b, c) in enumerate(_QUINTIC_MONOMIALS):
                if c == k:
                    row[col] = Fraction(ms[i]) ** b
            if i >= 1:
                row[20 + i] = -targets[i].coeffs[k]
            rows.append(row)
            rhs.append(targets[0].coeffs[k] if i == 0 else Fraction(0))
    vec = _solve_with_mix(rows, rhs, kmix)
    curve = PlaneQuintic(tuple(vec[:21]))
    scalars = (Fraction(1), vec[21], vec[22])
    center = (Fraction(0), Fraction(0), Fraction(1))
    pairs = tuple(
        (
            (Fraction(1), Fraction(ms[i]), Fraction(tangency[i][0])),
            (Fraction(1), Fraction(ms[i]), Fraction(tangency[i][1])),
        )
        for i in range(3)
    )
    for i in range(3):
        # line i is s*(1, m_i, 0) + t*(0, 0, 1), the point path (s, m_i s, t)
        got = restrict(curve.coeffs, 5, (1, ms[i], 0), center)
        if got.coeffs != targets[i].scale(scalars[i]).coeffs:
            raise RuntimeError("fixture restriction mismatch")
    points = [center] + [p for pr in pairs for p in pr]
    if len(set(points)) != 7 or not all(curve.contains(p) for p in points):
        raise RuntimeError("fixture points invalid")
    if not curve.is_smooth():
        raise RuntimeError("fixture curve is singular")
    return PencilFixture(curve=curve, center=center, pairs=pairs)


@lru_cache(maxsize=1)
def quadrilateral_fixture() -> QuadrilateralFixture:
    """Deterministic parity-1 fixture; same re-verification policy as the
    pencil fixture."""
    alphas = (1, 2, -2, 3)
    kmix = (1, -1, 1, -1, 1, -1)
    # lines x = 0, y = 0, z = 0, x + y + z = 0 with parametrizations
    # (0,s,t), (s,0,t), (s,t,0), (s,t,-s-t); each meets the others at
    # parameters (0,1), (1,0), (1,-1)
    def target(alpha):
        t = BinaryForm(1, (Fraction(0), Fraction(1)))
        t = t * BinaryForm(1, (Fraction(1), Fraction(0)))
        t = t * BinaryForm(1, (Fraction(1), Fraction(1)))
        lin = BinaryForm(1, (Fraction(alpha), Fraction(-1)))
        return t * lin * lin

    line_rows = [[[Fraction(0)] * 21 for _ in range(6)] for _ in range(4)]
    for col, (a, b, c) in enumerate(_QUINTIC_MONOMIALS):
        if a == 0:
            line_rows[0][c][col] += Fraction(1)
        if b == 0:
            line_rows[1][c][col] += Fraction(1)
        if c == 0:
            line_rows[2][b][col] += Fraction(1)
        for j in range(c + 1):
            line_rows[3][b + j][col] += Fraction((-1) ** c * comb(c, j))

    targets = [target(a) for a in alphas]
    rows, rhs = [], []
    for i in range(4):
        for k in range(6):
            row = line_rows[i][k][:] + [Fraction(0)] * 3
            if i >= 1:
                row[20 + i] = -targets[i].coeffs[k]
            rows.append(row)
            rhs.append(targets[0].coeffs[k] if i == 0 else Fraction(0))
    vec = _solve_with_mix(rows, rhs, kmix)
    curve = PlaneQuintic(tuple(vec[:21]))
    scalars = (Fraction(1), vec[21], vec[22], vec[23])

    F = Fraction
    vertices = {
        "P12": (F(0), F(0), F(1)),
        "P13": (F(0), F(1), F(0)),
        "P23": (F(1), F(0), F(0)),
        "P14": (F(0), F(1), F(-1)),
        "P24": (F(1), F(0), F(-1)),
        "P34": (F(1), F(-1), F(0)),
    }
    tangents = (
        (F(0), F(1), F(alphas[0])),
        (F(1), F(0), F(alphas[1])),
        (F(1), F(alphas[2]), F(0)),
        (F(1), F(alphas[3]), F(-1 - alphas[3])),
    )
    params = [
        ((F(0), F(1), F(0)), (F(0), F(0), F(1))),
        ((F(1), F(0), F(0)), (F(0), F(0), F(1))),
        ((F(1), F(0), F(0)), (F(0), F(1), F(0))),
        ((F(1), F(0), F(-1)), (F(0), F(1), F(-1))),
    ]
    for i, (p0, p1) in enumerate(params):
        got = restrict(curve.coeffs, 5, p0, p1)
        if got.coeffs != targets[i].scale(scalars[i]).coeffs:
            raise RuntimeError("fixture restriction mismatch")
    points = list(vertices.values()) + list(tangents)
    if len(set(points)) != 10 or not all(curve.contains(p) for p in points):
        raise RuntimeError("fixture points invalid")
    if not curve.is_smooth():
        raise RuntimeError("fixture curve is singular")
    return QuadrilateralFixture(curve=curve, vertices=vertices, tangents=tangents)
