"""Explicit family models at heights 8 and 10, with their verification.

Height 8 has two routes: a complete intersection in P^1 x P^5 of one
(1,1)-form with two constant quadrics, and a conic fibration over
P^1 x P^1 inside P(O^2 + O(-1,-1)), a symmetric 3x3 matrix of
binforms.BiForm entries.  Height 10 likewise: a complete
intersection in P^1 x P^4 of a constant quadric with an (s,t)-linear
one, and a rank-5 bundle presentation with splitting degrees
(0,-1,-1,-1,-2).  Bundle routes are validated through the degree of the
(u,v)-discriminant and the genericity certificate; the conic route
through an exact determinant congruence.  Writing q = A11 A22 - A12^2,

    det(A) = A33 q - A11 A23^2 - A22 A13^2 + 2 A12 A23 A13,

and expanding the remainder as a u^2 + 2b uv + c v^2 with A13 =
A13' u + A13'' v, A23 = A23' u + A23'' v gives the factorization

    a c - b^2 = q (A13' A23'' - A13'' A23')^2,

so q divides the degree-10 branch form of the (u,v)-double cover cut by
det(A): the two branch points of the bisection sit among the ten of the
spectral cover, and the residual degree-8 form brands a genus-3 curve.

Seeded builders draw integer coefficients in [-9, 9] and re-roll a
bounded number of times when an instance misses the open genericity
conditions.  A build is a function of (name, seed), memoized with the
bound of the family steps (families.CACHE_BOUND), so building and then
verifying one seed draws and certifies its attempts once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from random import Random

from .binforms import BiForm, BinaryForm, squarefree_profile
from .families import (
    CACHE_BOUND,
    FamilySpec,
    arithmetic_genus,
    discriminant_family,
    family_from_linear_plus_quadrics,
    family_from_quadric_pair,
    genericity_check,
    height,
    spectral_class,
    substitute_squared,
)

RETRY_BOUND = 24

EXAMPLE_NAMES = ("h8_ci", "h8_conic", "h10_ci", "h10_bundle")

# entry (i, j), i <= j, of the conic matrix -> ((s,t)-degree, (u,v)-degree)
_CONIC_BIDEGREES = {
    (0, 0): (1, 0),
    (0, 1): (1, 0),
    (1, 1): (1, 0),
    (0, 2): (2, 1),
    (1, 2): (2, 1),
    (2, 2): (3, 2),
}


@dataclass(frozen=True)
class ConicBundleSpec:
    """Symmetric 3x3 matrix of biforms cutting a conic fibration over
    P^1 x P^1 inside P(O^2 + O(-1,-1)).

    Bidegrees, as ((s,t)-degree, (u,v)-degree): the upper-left 2x2 block
    has (1, 0), the off-corner entries (2, 1), the corner (3, 2).  An entry
    of bidegree (m, n) is a BiForm of n+1 coefficients, each of degree m.
    The base-line degree of det(A) in (u, v) is then 2 and the fiber-line
    degree in (s, t) is 5.  det is computed once per spec.
    """

    entries: tuple[tuple[BiForm, ...], ...]

    def __post_init__(self):
        e = self.entries
        if len(e) != 3 or any(len(row) != 3 for row in e):
            raise ValueError("need a 3x3 matrix of biforms")
        object.__setattr__(self, "entries", tuple(tuple(row) for row in e))
        for i in range(3):
            for j in range(3):
                entry = self.entries[i][j]
                if entry != self.entries[j][i]:
                    raise ValueError("matrix must be symmetric")
                m, n = _CONIC_BIDEGREES[(min(i, j), max(i, j))]
                if entry.degrees() != (m,) * (n + 1):
                    raise ValueError(
                        f"entry ({i + 1},{j + 1}) has (s,t)-degrees "
                        f"{entry.degrees()}, expected bidegree {(m, n)}"
                    )

    @cached_property
    def det(self) -> BiForm:
        (a11, a12, a13), (_, a22, a23), (_, _, a33) = self.entries
        return (
            a11 * (a22 * a33 - a23 * a23)
            - a12 * (a12 * a33 - a23 * a13)
            + a13 * (a12 * a23 - a22 * a13)
        )


@dataclass(frozen=True)
class ConicBundleReport:
    identity: bool
    branch_divides: bool
    det_nonzero: bool
    det_degree_st: int
    det_degree_uv: int
    branch_degree: int
    residual_degree: int | None
    branch_squarefree: bool


def conic_symbols(spec: ConicBundleSpec) -> dict:
    """The named (s,t)-forms of the congruence: q = A11 A22 - A12^2, the
    remainder coefficients a, b, c with remainder a u^2 + 2b uv + c v^2,
    and the splitting minor w = A13' A23'' - A13'' A23'."""
    (a11, a12, a13), (_, a22, a23), _ = spec.entries
    rem = (a12 * a23 * a13).scale(2) - a11 * (a23 * a23) - a22 * (a13 * a13)
    return {
        "q": (a11 * a22 - a12 * a12).coefficients[0],
        "a": rem.coefficients[0],
        "b": rem.coefficients[1].scale(Fraction(1, 2)),
        "c": rem.coefficients[2],
        "w": a13.coefficients[0] * a23.coefficients[1]
        - a13.coefficients[1] * a23.coefficients[0],
    }


def conic_report(spec: ConicBundleSpec) -> ConicBundleReport:
    """The two exact identities plus the branch bookkeeping.

    The remainder of det(A) modulo q = A11 A22 - A12^2 is quadratic in
    (u, v) with degree-5 coefficients a, 2b, c, and a c - b^2 factors as
    q times the square of the 2x2 minor of the (u, v)-splittings of A13
    and A23; consequently q divides the branch form D1^2 - 4 D0 D2 of
    det(A) = D0 u^2 + D1 uv + D2 v^2.
    """
    sym = conic_symbols(spec)
    a, b, c, q, w = sym["a"], sym["b"], sym["c"], sym["q"], sym["w"]
    identity = (a * c - b * b) == q * w * w
    det = spec.det
    d0, d1, d2 = det.coefficients
    branch = d1 * d1 - (d0 * d2).scale(4)
    residual = None
    if not branch.is_zero:
        try:
            residual = branch.divexact(q)
        except (ValueError, ZeroDivisionError):  # q is zero or does not divide
            pass
    divides = branch.is_zero or residual is not None
    squarefree = (
        not branch.is_zero
        and all(mult == 1 for _, mult in squarefree_profile(branch))
    )
    return ConicBundleReport(
        identity=identity,
        branch_divides=divides,
        det_nonzero=not det.is_zero,
        det_degree_st=d0.degree,
        det_degree_uv=det.n,
        branch_degree=branch.degree,
        residual_degree=None if residual is None else residual.degree,
        branch_squarefree=squarefree,
    )


def conic_identity_check(spec: ConicBundleSpec) -> bool:
    """Both exact identities: the a c - b^2 factorization and the
    divisibility of the branch form by q."""
    rep = conic_report(spec)
    return rep.identity and rep.branch_divides


@dataclass(frozen=True)
class ConicBundleExample:
    spec: ConicBundleSpec
    discriminant: BiForm


# ---------------------------------------------------------------------------
# seeded random instances


def _rng_of(seed) -> Random:
    return seed if isinstance(seed, Random) else Random(seed)


def _random_biform(rng: Random, m: int, n: int) -> BiForm:
    """Integers drawn s-power by s-power, u-power by u-power within each,
    then read as n+1 (s,t)-forms of degree m."""
    rows = [[rng.randint(-9, 9) for _ in range(n + 1)] for _ in range(m + 1)]
    return BiForm(tuple(BinaryForm(m, tuple(r[j] for r in rows)) for j in range(n + 1)))


def random_conic_bundle(seed) -> ConicBundleSpec:
    rng = _rng_of(seed)
    entries = [[None] * 3 for _ in range(3)]
    for (i, j), (m, n) in _CONIC_BIDEGREES.items():
        f = _random_biform(rng, m, n)
        entries[i][j] = f
        entries[j][i] = f
    return ConicBundleSpec(tuple(tuple(row) for row in entries))


def _random_symmetric_constants(rng: Random, size: int):
    g = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            g[i][j] = g[j][i] = rng.randint(-9, 9)
    return [list(row) for row in g]


def _random_symmetric_forms(rng: Random, size: int, degree: int):
    rows = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            f = BinaryForm(degree, tuple(rng.randint(-9, 9) for _ in range(degree + 1)))
            rows[i][j] = rows[j][i] = f
    return tuple(tuple(r) for r in rows)


def _make_h8_ci(rng: Random) -> FamilySpec:
    alpha = [rng.randint(-9, 9) for _ in range(6)]
    beta = [rng.randint(-9, 9) for _ in range(6)]
    q1 = _random_symmetric_constants(rng, 6)
    q2 = _random_symmetric_constants(rng, 6)
    return family_from_linear_plus_quadrics(alpha, beta, q1, q2)


def _make_h10_ci(rng: Random) -> FamilySpec:
    gram0 = _random_symmetric_constants(rng, 5)
    gram1 = _random_symmetric_forms(rng, 5, 1)
    return family_from_quadric_pair(((0, gram0), (1, gram1)))


_BUNDLE_D = (0, -1, -1, -1, -2)
_BUNDLE_E = (-2, -3)


def _make_h10_bundle(rng: Random) -> FamilySpec:
    mats = []
    for ek in _BUNDLE_E:
        rows = [[None] * 5 for _ in range(5)]
        for i in range(5):
            for j in range(i, 5):
                deg = _BUNDLE_D[i] + _BUNDLE_D[j] - ek
                if deg < 0:
                    f = BinaryForm.zero(0)
                else:
                    f = BinaryForm(deg, tuple(rng.randint(-9, 9) for _ in range(deg + 1)))
                rows[i][j] = rows[j][i] = f
        mats.append(tuple(tuple(r) for r in rows))
    return FamilySpec(_BUNDLE_D, _BUNDLE_E, mats[0], mats[1])


_FAMILY_MAKERS = {
    "h8_ci": _make_h8_ci,
    "h10_ci": _make_h10_ci,
    "h10_bundle": _make_h10_bundle,
}


def _seeded(name: str, seed, attempt: int) -> Random:
    return Random(f"{name}:{seed}:{attempt}")


@lru_cache(maxsize=CACHE_BOUND)
def build_example(name: str, seed=1):
    """A verified instance of the named model: a FamilySpec for the three
    bundle routes, a ConicBundleExample for the conic route.  A seeded
    draw that misses the open genericity conditions is re-rolled up to
    RETRY_BOUND times, then errors.  The instance is a function of (name,
    seed), memoized like the family steps, so verify_example and a report
    on the same seed read one build."""
    if name == "h8_conic":
        for attempt in range(RETRY_BOUND):
            spec = random_conic_bundle(_seeded(name, seed, attempt))
            rep = conic_report(spec)
            if rep.branch_squarefree and rep.branch_divides:
                return ConicBundleExample(spec, spec.det)
        raise ValueError(
            f"{name}: no generic instance in {RETRY_BOUND} attempts"
        )
    if name not in _FAMILY_MAKERS:
        raise ValueError(f"unknown example {name!r}")
    make = _FAMILY_MAKERS[name]
    last = "no attempt"
    for attempt in range(RETRY_BOUND):
        rng = _seeded(name, seed, attempt)
        try:
            spec = make(rng)
        except ValueError as exc:
            last = str(exc)
            continue
        rep = genericity_check(spec)
        if rep.g1_prime and rep.g2_prime is True:
            return spec
        last = "genericity certificate failed"
    raise ValueError(
        f"{name}: no generic instance in {RETRY_BOUND} attempts ({last})"
    )


@dataclass(frozen=True)
class ExampleCatalogEntry:
    name: str
    kind: str  # "family" or "conic"
    expected_height: int | None
    expected_delta_degree: int | None
    expected_class: tuple[int, int, int] | None  # (n, alpha, beta) on F_n


CATALOG = (
    ExampleCatalogEntry("h8_ci", "family", 8, 16, (0, 2, 5)),
    ExampleCatalogEntry("h8_conic", "conic", None, 10, None),
    ExampleCatalogEntry("h10_ci", "family", 10, 20, (1, 5, 5)),
    ExampleCatalogEntry("h10_bundle", "family", 10, 20, (1, 5, 5)),
)


def catalog_entry(name: str) -> ExampleCatalogEntry:
    for entry in CATALOG:
        if entry.name == name:
            return entry
    raise ValueError(f"unknown example {name!r}")


def verify_example(name: str, seed=1) -> dict:
    """Build the named example and check it against its catalog row."""
    entry = catalog_entry(name)
    if entry.kind == "conic":
        rep = conic_report(build_example(name, seed).spec)
        checks = {
            "identity": rep.identity,
            "branch_divides": rep.branch_divides,
            "det_bidegree": rep.det_nonzero
            and (rep.det_degree_uv, rep.det_degree_st) == (2, 5),
            "branch_degree": rep.branch_degree == entry.expected_delta_degree,
            "residual_degree": rep.residual_degree == 8,
            "branch_squarefree": rep.branch_squarefree,
        }
    else:
        spec = build_example(name, seed)
        disc = discriminant_family(spec)
        h = height(spec)
        sc = spectral_class(spec)
        cls = (sc.cls.n, sc.cls.alpha, sc.cls.beta)
        checks = {
            "height": h == entry.expected_height,
            "delta_degree": disc.degree == entry.expected_delta_degree,
            "spectral_class": cls == entry.expected_class,
            "g1_prime": disc.g1_prime,
            "genus": arithmetic_genus(sc.cls) == entry.expected_height - 4,
        }
    return {"name": name, "seed": seed, "ok": all(checks.values()), "checks": checks}


# ---------------------------------------------------------------------------
# engineered genericity failures


def squared_discriminant_example(seed=1) -> FamilySpec:
    """A height-20 family violating simple branching: the fiber at (0:1)
    is planted with a doubly degenerate pencil, and pulling back along
    (s,t) -> (s^2,t^2) doubles that discriminant root.  The planted root is
    checked on the squared family's own Delta, which a report on the result
    then reads from the memo: Delta_sq(s,t) = Delta(s^2,t^2), so the root at
    (0:1) and a vanishing Delta show alike on both, and the base family's
    spectral form and Delta are never computed."""
    for attempt in range(RETRY_BOUND):
        rng = _seeded("squared", seed, attempt)
        gram0 = [[int(i == j) for j in range(5)] for i in range(5)]
        planted = (0, 0, 1, 2, 3)
        rows = [[None] * 5 for _ in range(5)]
        for i in range(5):
            for j in range(i, 5):
                tpart = planted[i] if i == j else 0
                f = BinaryForm(1, (rng.randint(-9, 9), tpart))
                rows[i][j] = rows[j][i] = f
        spec = substitute_squared(family_from_quadric_pair(
            ((0, gram0), (1, tuple(tuple(r) for r in rows)))
        ))
        try:
            disc = discriminant_family(spec)
        except ValueError:
            continue
        # planted double root of the fiber quintic at (0:1)
        if disc.delta.evaluate(0, 1) != 0:
            raise RuntimeError("planted degenerate fiber missed")
        return spec
    raise ValueError(f"no usable squared instance in {RETRY_BOUND} attempts")


def split_diagonal_example(seed=1) -> FamilySpec:
    """A height-10 family whose spectral form splits into five rational
    (u,v)-linear factors, so the irreducibility certificate fails."""
    for attempt in range(RETRY_BOUND):
        rng = _seeded("diagonal", seed, attempt)
        gram0 = [[0] * 5 for _ in range(5)]
        rows = [[BinaryForm.zero(1) for _ in range(5)] for _ in range(5)]
        for i in range(5):
            gram0[i][i] = rng.randint(1, 9)
            rows[i][i] = BinaryForm(1, (rng.randint(-9, 9), rng.randint(-9, 9)))
        spec = family_from_quadric_pair(
            ((0, gram0), (1, tuple(tuple(r) for r in rows)))
        )
        if genericity_check(spec).bounded_factor is not None:
            return spec
    raise ValueError(f"no usable diagonal instance in {RETRY_BOUND} attempts")
