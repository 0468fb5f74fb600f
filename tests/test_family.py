"""Fibrations of quartic surfaces over the line: spec validation, height,
spectral form and curve class, discriminant, genericity flags, dimension
bookkeeping, and the Chern-number identity."""

import random
import time
from fractions import Fraction
from unittest import mock

import pytest

from conftest import FAMILY_CACHES, clear_family_caches, widened
from dp4 import binforms, families, linalg
from dp4.binforms import BinaryForm, squarefree_profile, zdiscriminant
from dp4.families import (
    FamilySpec,
    HirzebruchClass,
    Poly,
    arithmetic_genus,
    chern_sides,
    chern_verify,
    dimension_identities_symbolic,
    dimension_report,
    discriminant_family,
    expected_coefficient_degree,
    family_from_linear_plus_quadrics,
    family_from_quadric_pair,
    family_report,
    genericity_check,
    height,
    height_bounds_scan,
    spectral_class,
    spectral_form,
    substitute_squared,
)
from dp4.models import build_example, split_diagonal_example, squared_discriminant_example
from dp4.quintic import invariants
from dp4.serialize import decode_family

F = Fraction


def constant_gram(rng, size=5):
    m = [[F(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            m[i][j] = m[j][i] = F(rng.randint(-9, 9))
    return tuple(tuple(row) for row in m)


def form_gram(rng, size, degree):
    m = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            f = BinaryForm(degree, tuple(F(rng.randint(-9, 9)) for _ in range(degree + 1)))
            m[i][j] = m[j][i] = f
    return tuple(tuple(row) for row in m)


def h10_spec(rng):
    return family_from_quadric_pair(
        ((0, constant_gram(rng)), (1, form_gram(rng, 5, 1)))
    )


def h8_spec(rng):
    alpha = [rng.randint(-9, 9) for _ in range(6)]
    beta = [rng.randint(-9, 9) for _ in range(6)]
    while True:
        try:
            return family_from_linear_plus_quadrics(
                alpha, beta, constant_gram(rng, 6), constant_gram(rng, 6)
            )
        except ValueError:
            alpha = [rng.randint(-9, 9) for _ in range(6)]
            beta = [rng.randint(-9, 9) for _ in range(6)]


def test_height_reference_splittings():
    rng = random.Random(401)
    for n in (1, 2):
        d = (-2 * n,) * 5
        e = (-5 * n, -5 * n)
        a1 = tuple(
            tuple(
                BinaryForm.zero(d[i] + d[j] - e[0]) if i != j else
                BinaryForm(d[i] + d[j] - e[0], tuple(F(rng.randint(-5, 5)) for _ in range(d[i] + d[j] - e[0] + 1)))
                for j in range(5)
            )
            for i in range(5)
        )
        a2 = tuple(
            tuple(
                BinaryForm.zero(d[i] + d[j] - e[1]) if i != j else
                BinaryForm(d[i] + d[j] - e[1], tuple(F(rng.randint(-5, 5)) for _ in range(d[i] + d[j] - e[1] + 1)))
                for j in range(5)
            )
            for i in range(5)
        )
        spec = FamilySpec(d, e, a1, a2)
        assert height(spec) == 20 * n


def test_height_h10_h0():
    rng = random.Random(402)
    assert height(h10_spec(rng)) == 10
    const = family_from_quadric_pair(
        ((0, constant_gram(rng)), (0, constant_gram(rng)))
    )
    assert height(const) == 0


def test_spec_rejects_inconsistent_splittings():
    rng = random.Random(403)
    zero5 = tuple(tuple(BinaryForm.zero(0) for _ in range(5)) for _ in range(5))
    with pytest.raises(ValueError):
        FamilySpec((-1,) * 5, (-2, -2), zero5, zero5)


def test_spec_rejects_wrong_entry_degree():
    d = (0,) * 5
    e = (0, 0)
    good = tuple(tuple(BinaryForm.constant(1) for _ in range(5)) for _ in range(5))
    bad_row = list(list(r) for r in good)
    bad_row[0][0] = BinaryForm(1, (F(1), F(0)))
    with pytest.raises(ValueError):
        FamilySpec(d, e, tuple(tuple(r) for r in bad_row), good)


def test_spectral_form_diagonal_splits():
    d = (0,) * 5
    e = (0, 0)
    a1 = tuple(
        tuple(BinaryForm.constant(1 if i == j else 0) for j in range(5))
        for i in range(5)
    )
    a2 = tuple(
        tuple(BinaryForm.constant(i + 1 if i == j else 0) for j in range(5))
        for i in range(5)
    )
    spec = FamilySpec(d, e, a1, a2)
    sf = spectral_form(spec)
    fiber = sf.fiber(1, 0)
    expect = BinaryForm.from_roots([])  # placeholder start
    expect = BinaryForm.constant(1)
    for k in range(5):
        expect = expect * BinaryForm(1, (F(1), F(k + 1)))
    assert fiber == expect


def test_spectral_form_coefficient_degrees():
    rng = random.Random(404)
    for builder in (h10_spec, h8_spec):
        for _ in range(3):
            spec = builder(rng)
            sf = spectral_form(spec)
            for j in range(6):
                expect = expected_coefficient_degree(spec, j)
                c = sf.coefficients[j]
                if not c.is_zero:
                    assert c.degree == expect


def test_spectral_class_values():
    rng = random.Random(405)
    h10 = spectral_class(h10_spec(rng))
    assert (h10.a, h10.cls.n, h10.cls.alpha, h10.cls.beta) == (-3, 1, 5, 5)
    h8 = spectral_class(h8_spec(rng))
    assert (h8.a, h8.cls.n, h8.cls.alpha, h8.cls.beta) == (-2, 0, 2, 5)
    assert h8.reduced_range_ok and h8.irreducible_range_ok


def test_arithmetic_genus_table():
    assert arithmetic_genus(HirzebruchClass(0, 1, 5)) == 0
    assert arithmetic_genus(HirzebruchClass(0, 2, 5)) == 4
    assert arithmetic_genus(HirzebruchClass(1, 5, 5)) == 6
    assert arithmetic_genus(HirzebruchClass(0, 3, 5)) == 8
    with pytest.raises(ValueError):
        arithmetic_genus(HirzebruchClass(0, 1, 0))


def test_genus_equals_height_minus_four():
    for h in range(8, 22, 2):
        scan = height_bounds_scan(h)
        for row in scan["reduced"]:
            assert row.genus == h - 4
        for row in scan["irreducible"]:
            assert row.genus == h - 4


def test_discriminant_degree_2h():
    rng = random.Random(406)
    spec = h10_spec(rng)
    rep = discriminant_family(spec)
    assert rep.degree == 20
    spec8 = h8_spec(rng)
    rep8 = discriminant_family(spec8)
    assert rep8.degree == 16


def test_discriminant_simple_branching_counts_fibers():
    rng = random.Random(407)
    spec = h10_spec(rng)
    rep = discriminant_family(spec)
    if rep.g1_prime:
        assert rep.singular_fiber_count == 20


def test_discriminant_constant_family():
    rng = random.Random(408)
    spec = family_from_quadric_pair(
        ((0, constant_gram(rng)), (0, constant_gram(rng)))
    )
    rep = discriminant_family(spec)
    assert rep.degree == 0
    assert rep.singular_fiber_count == 0


def negative_height_spec(rng):
    # d = (1,1,0,0,0), e = (3,-1): A1 vanishes (every entry degree is
    # negative), so the spectral form is det(A2) v^5 and Delta = 0
    d, e = (1, 1, 0, 0, 0), (3, -1)
    zero = tuple(tuple(BinaryForm.zero(0) for _ in range(5)) for _ in range(5))
    rows = [[None] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i, 5):
            deg = d[i] + d[j] - e[1]
            f = BinaryForm(deg, tuple(F(rng.randint(-9, 9)) for _ in range(deg + 1)))
            rows[i][j] = rows[j][i] = f
    return FamilySpec(d, e, zero, tuple(tuple(r) for r in rows))


def test_negative_height_is_not_generically_smooth():
    spec = negative_height_spec(random.Random(411))
    assert height(spec) == -4
    with pytest.raises(ValueError, match="non-generically-smooth"):
        discriminant_family(spec)
    rep = family_report(spec)
    assert rep.discriminant_degree is None
    assert rep.singular_fiber_count is None
    assert rep.g1_prime is False
    assert rep.genericity.g2_prime is False


def oversized_family_tree(m, last):
    """The JSON of d = (-M,)*5, e = (-3M, -2M), A1 = 0 and a constant
    diagonal A2 with last entry ``last``: a few hundred bytes whose
    splitting degrees ask for spectral coefficients of degree 5M - M*j and
    h = 10M, while no entry has positive degree."""
    zero = {"degree": 0, "coeffs": ["0"]}
    diag = [1, 2, 3, 4, last]
    return {
        "type": "family",
        "d": [-m] * 5,
        "e": [-3 * m, -2 * m],
        "A1": [[zero] * 5 for _ in range(5)],
        "A2": [
            [{"degree": 0, "coeffs": [str(diag[i] if i == j else 0)]} for j in range(5)]
            for i in range(5)
        ],
    }


def test_spectral_form_nodes_bounded_by_entries():
    # zero entries pass the entry-degree check at any expected degree, so
    # the spec refuses splitting degrees whose spectral coefficients no
    # product of entries reaches (det(A2) = 120 v^5, then a singular A2)
    zero = tuple(tuple(BinaryForm.zero(0) for _ in range(5)) for _ in range(5))
    for m in (1000, 10**9):
        for last in (5, 0):
            tree = oversized_family_tree(m, last)
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"degree {5 * m}, but products of five entries"):
                decode_family(tree)
            a2 = tuple(
                tuple(BinaryForm.constant(int(x["coeffs"][0])) for x in row)
                for row in tree["A2"]
            )
            with pytest.raises(ValueError, match="entries reach degree 0 at most"):
                FamilySpec((-m,) * 5, (-3 * m, -2 * m), zero, a2)
            assert time.perf_counter() - start < 1


def test_forced_zero_coefficient_within_entry_reach_is_accepted():
    # seed 94 draws a zero diagonal entry for A2: det(A2), the v^5
    # coefficient of expected degree 5, vanishes, and the rows' largest
    # entry degrees sum to 4 only; the spec stays valid and the zero keeps
    # its nominal degree
    spec = split_diagonal_example(94)
    assert spec.A2[4][4].is_zero
    sf = spectral_form(spec)
    assert sf.coefficients[5].is_zero and sf.degrees()[5] == 5
    rep = family_report(spec)
    assert rep.genericity.g2_prime is False
    assert rep.genericity.bounded_factor is not None


def test_interpolated_delta_degree_is_checked(monkeypatch, recover_widths):
    # the squared family's Delta has degree 40; fed with the unsquared spec
    # (2h = 20), one fiber discriminant at 2^b reads it off whole, and the
    # 22 nodes of the widened spec fit no form of degree 20
    spec = build_example("h10_ci", seed=1)
    squared = {s: spectral_form(substitute_squared(s)) for s in (spec, widened(spec))}
    monkeypatch.setattr(families, "spectral_form", squared.get)
    for s, packed in zip(squared, (True, False)):
        recover_widths.clear()
        with pytest.raises(RuntimeError, match="violates bookkeeping"):
            families._discriminant_or_none.__wrapped__(s)
        assert len(recover_widths) == 1 and (recover_widths[0] <= binforms.PACK_BITS) == packed


def computations():
    """(spectral forms, Deltas) computed since the family caches were
    cleared: the misses of the two memoized steps."""
    return (
        families.spectral_form.cache_info().misses,
        families._discriminant_or_none.cache_info().misses,
    )


@pytest.mark.parametrize("kind", ["model", "negative_height"])
def test_family_report_computes_once(kind):
    if kind == "model":
        spec = build_example("h8_ci", seed=1)
    else:
        spec = negative_height_spec(random.Random(411))
    clear_family_caches()
    family_report(spec)
    assert computations() == (1, 1)


@pytest.mark.parametrize("name", ["h8_ci", "h10_ci", "h10_bundle"])
def test_integer_forms_clear_no_denominators(name):
    # a form holds integers over one denominator, so the spectral form and
    # Delta of an integer model, and the invariants of an integer quintic,
    # read its numerators and clear nothing
    spec = build_example(name, seed=1)
    clear_family_caches()
    with mock.patch.object(linalg, "clear_denominators", wraps=linalg.clear_denominators) as spy:
        spectral_form(spec)
        discriminant_family(spec)
        invariants(BinaryForm(5, (3, -1, 4, 1, -5, 9)))
    assert computations() == (1, 1)
    assert spy.call_count == 0


def test_equal_specs_share_hash_and_cache_entry():
    # two separately built equal specs (the second past the build memo):
    # equal, equally hashed and printed, and the second is a hit on the
    # first one's spectral form entry
    import dataclasses

    first = build_example("h10_bundle", seed=1)
    second = build_example.__wrapped__("h10_bundle", seed=1)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second)
    assert hash(first) == hash((first.d, first.e, first.A1, first.A2))
    clear_family_caches()
    assert spectral_form(first) is spectral_form(second)
    assert computations()[0] == 1
    assert families.spectral_form.cache_info().hits == 1
    assert "_hash" not in [f.name for f in dataclasses.fields(FamilySpec)]


def test_family_caches_hold_every_attempt_of_a_build():
    from dp4.models import RETRY_BOUND

    assert families.CACHE_BOUND >= RETRY_BOUND
    for step in FAMILY_CACHES:
        assert step.cache_parameters()["maxsize"] == families.CACHE_BOUND


def test_verify_example_computes_once():
    from dp4.models import verify_example

    out = verify_example("h10_bundle", seed=1)
    assert out["ok"]
    # one build attempt at this seed: one spectral form and one Delta
    assert computations() == (1, 1)


@pytest.mark.parametrize("name, seed, tries", [("h8_ci", 1, 1), ("h10_bundle", 62, 3)])
def test_pipeline_item_interpolates_delta_once_per_attempt(
    monkeypatch, recover_widths, name, seed, tries
):
    # build -> report -> verify, as one family_pipeline item runs them:
    # each attempt's Delta is read off one fiber discriminant at 2^b once,
    # however often the item asks for it; with wide entries it is
    # interpolated from the 2h+2 fiber discriminants at k = 0..2h+1
    from dp4 import models

    fibers = []
    attempts = set()
    check = models.genericity_check

    def counted_discriminant(c):
        fibers.append(1)
        return zdiscriminant(c)

    def recorded_check(spec):
        attempts.add(spec)
        return check(spec)

    monkeypatch.setattr(families, "zdiscriminant", counted_discriminant)
    monkeypatch.setattr(models, "genericity_check", recorded_check)
    spec = build_example(name, seed)
    family_report(spec)
    models.verify_example(name, seed)
    assert len(attempts) == tries
    assert len(fibers) == tries and max(recover_widths) <= binforms.PACK_BITS
    fibers.clear()
    recover_widths.clear()
    families._discriminant_or_none(widened(spec))
    assert len(fibers) == 2 * height(spec) + 2
    assert min(recover_widths) > binforms.PACK_BITS


@pytest.mark.parametrize("name, seed, tries", [("h8_ci", 1, 1), ("h10_bundle", 62, 3)])
def test_pipeline_item_builds_once_per_attempt(monkeypatch, name, seed, tries):
    # build -> report -> verify: verify_example reads the item's own build
    from dp4 import models

    made = []
    make = models._FAMILY_MAKERS[name]

    def counted(rng):
        made.append(rng)
        return make(rng)

    monkeypatch.setitem(models._FAMILY_MAKERS, name, counted)
    spec = build_example(name, seed)
    family_report(spec)
    assert models.verify_example(name, seed)["ok"]
    assert len(made) == tries


def test_squared_item_computes_one_spectral_form_and_one_delta():
    # the planted root is checked on the squared family's Delta, which the
    # report then reads; the base family is never analyzed
    spec = squared_discriminant_example(seed=1)
    assert computations() == (1, 1)
    family_report(spec)
    assert computations() == (1, 1)


@pytest.mark.parametrize("kind", ["h8_ci", "h10_ci", "h10_bundle", "squared", "diagonal"])
def test_pipeline_item_runs_yun_only_on_non_squarefree_delta(monkeypatch, kind):
    # one family_pipeline item each: every distinct Delta gets one squarefree
    # profile; Yun's algorithm runs past its first gcd, the squarefreeness
    # test, only on the diagonal example's Delta, the one whose repeated
    # roots are not at (0 : 1) or (1 : 0): the models' Delta, and the part
    # of the squared example's Delta off x, are proved squarefree by that
    # one gcd with the derivative
    from dp4 import binforms, models

    profiled, gcds = [], []

    def spy(f):
        profiled.append(f)
        return squarefree_profile(f)

    def counted_gcd(p, q):
        gcds[-1] += 1
        return gcd(p, q)

    def yun_spy(p):
        gcds.append(0)
        with monkeypatch.context() as m:
            m.setattr(binforms, "zgcd", counted_gcd)
            return decomposition(p)

    decomposition, gcd = binforms.psquarefree_decomposition, binforms.zgcd
    monkeypatch.setattr(families, "squarefree_profile", spy)
    monkeypatch.setattr(binforms, "psquarefree_decomposition", yun_spy)
    if kind in ("squared", "diagonal"):
        make = squared_discriminant_example if kind == "squared" else split_diagonal_example
        family_report(make(1))
    else:
        family_report(build_example(kind, 1))
        models.verify_example(kind, 1)
    assert profiled
    assert len(set(profiled)) == len(profiled) == computations()[1]
    runs_on = [n for n in gcds if n > 1]
    if kind == "diagonal":
        assert len(runs_on) == len(profiled)
    else:
        assert runs_on == []


def test_squared_substitution_fails_g1():
    spec = squared_discriminant_example(seed=1)
    rep = discriminant_family(spec)
    assert rep.g1_prime is False
    gen = genericity_check(spec)
    assert gen.g1_prime is False
    assert gen.g2_prime is False
    assert height(spec) == 20


def test_substitute_squared_doubles_height():
    # pulling back along (s,t) -> (s^2, t^2) doubles the splitting degrees;
    # double roots appear only when a discriminant root sits at a branch
    # point of the squaring map, which squared_discriminant_example plants
    spec = build_example("h10_ci", seed=1)
    sq = substitute_squared(spec)
    assert height(sq) == 20
    assert discriminant_family(sq).degree == 40


def test_split_diagonal_fails_g2():
    spec = split_diagonal_example(seed=1)
    gen = genericity_check(spec)
    assert gen.bounded_factor is not None
    assert gen.g2_prime is False
    assert gen.irreducible_certified is False


@pytest.mark.parametrize("seed", [1, 2])
def test_split_diagonal_skips_witness_search(seed):
    # a found factor settles g2; the fiber witness would go unused
    spec = split_diagonal_example(seed)
    with mock.patch.object(families, "_zfactor_squarefree", wraps=families._zfactor_squarefree) as spy:
        gen = genericity_check.__wrapped__(spec)
    assert gen.bounded_factor is not None
    assert gen.witness is None
    assert spy.call_count == 0


def test_generic_h10_certifies_g2():
    spec = build_example("h10_ci", seed=1)
    gen = genericity_check(spec)
    assert gen.g1_prime is True
    assert gen.bounded_factor is None
    assert gen.witness is not None
    assert gen.irreducible_certified is True
    assert gen.g2_prime is True


def test_height4_shape_flags_weyl_impossible():
    scan = height_bounds_scan(4)
    rows = scan["reduced"]
    assert len(rows) == 1
    row = rows[0]
    assert (row.a, row.n, row.alpha) == (-1, 0, 1)
    assert row.genus == 0
    assert row.full_weyl_impossible is True


def test_height_bounds_h2_empty():
    scan = height_bounds_scan(2)
    assert scan["reduced"] == []
    assert scan["irreducible"] == []


def test_height_bounds_h6_irreducible_empty():
    scan = height_bounds_scan(6)
    assert scan["reduced"] != []
    assert scan["irreducible"] == []


def test_height_bounds_h10_single_row():
    scan = height_bounds_scan(10)
    rows = scan["irreducible"]
    assert len(rows) == 1
    assert (rows[0].a, rows[0].n) == (-3, 1)
    assert rows[0].alpha == 5


def test_height_bounds_h12_bidegree():
    scan = height_bounds_scan(12)
    assert any((row.a, row.n, row.alpha) == (-3, 0, 3) for row in scan["irreducible"])


def test_height_bounds_rejects_odd():
    with pytest.raises(ValueError):
        height_bounds_scan(7)


def test_dimension_report_h8():
    rep = dimension_report(8)
    assert rep["moduli_dimension"] == 14
    assert rep["linear_system_dimension"] == 17
    assert rep["expected_dimension"] == 11
    assert rep["map_degree"] == 48
    assert rep["invariant_pullback_degrees"]["J4"] == 8


def test_dimension_report_h12():
    rep = dimension_report(12)
    assert rep["moduli_dimension"] == 20
    assert rep["linear_system_dimension"] == 23
    assert rep["expected_dimension"] == 17


def test_dimension_identities_symbolic():
    assert dimension_identities_symbolic() is True


def test_dimension_report_rejects_odd():
    with pytest.raises(ValueError):
        dimension_report(9)


def test_chern_identity_symbolic():
    d = [Poly.var(f"d{i}") for i in range(1, 6)]
    e1 = Poly.var("e1")
    e2 = sum(d) - e1
    assert chern_verify(d, (e1, e2)) is True


def test_chern_identity_numeric_cases():
    # d = (-2)^5: deg of the pushforward is -10, so -2*deg = +20
    assert chern_verify((-2, -2, -2, -2, -2), (-5, -5)) is True
    lhs, rhs = chern_sides((-2, -2, -2, -2, -2), (-5, -5))
    assert lhs == rhs == 20
    assert chern_verify((0, 0, 0, 0, 0), (0, 0)) is True
    lhs0, rhs0 = chern_sides((0, 0, 0, 0, 0), (0, 0))
    assert lhs0 == rhs0 == 0


def test_chern_rejects_unbalanced():
    with pytest.raises(ValueError):
        chern_verify((0, 0, 0, 0, 0), (-1, 0))


def test_elimination_impossible_rejected():
    rng = random.Random(410)
    with pytest.raises(ValueError, match="elimination impossible"):
        family_from_linear_plus_quadrics(
            [0] * 6, [0] * 6, constant_gram(rng, 6), constant_gram(rng, 6)
        )


def test_family_report_shape():
    spec = build_example("h10_ci", seed=1)
    rep = family_report(spec)
    assert rep.height == 10
    assert rep.genus == 6
    assert rep.discriminant_degree == 20
    assert rep.g1_prime is True
    assert rep.singular_fiber_count == 20
    assert rep.dimensions["moduli_dimension"] == 17
