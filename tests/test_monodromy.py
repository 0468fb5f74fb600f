"""Two-torsion of hyperelliptic curves as even branch subsets, the theta
parity on plane quintics, and the component classifier."""

import itertools
import random
import time

import pytest

from dp4.monodromy import (
    TwoTorsionClass,
    classify_component,
    enumerate_classes,
    orbit_sizes,
    torsion_orbit_label,
)
from dp4.plane_quintic import (
    PlaneQuintic,
    is_principal,
    monomials,
    pencil_fixture,
    quadrilateral_fixture,
    theta_quadratic_form,
)


def test_canonical_representative_complement():
    cls = TwoTorsionClass(10, frozenset({1, 2, 3, 4, 5, 6}))
    assert cls.subset == frozenset({7, 8, 9, 10})
    assert torsion_orbit_label(cls) == 2


def test_canonical_half_size_contains_one():
    # at branch count 8 the half size is 4; a size-4 subset missing index 1
    # flips to its complement
    cls8 = TwoTorsionClass(8, frozenset({5, 6, 7, 8}))
    assert cls8.subset == frozenset({1, 2, 3, 4})


def test_zero_class():
    z = TwoTorsionClass(10, frozenset())
    assert z.is_zero()
    assert torsion_orbit_label(z) == 0
    full = TwoTorsionClass(10, frozenset(range(1, 11)))
    assert full.is_zero()


def test_odd_subset_rejected():
    with pytest.raises(ValueError):
        TwoTorsionClass(10, frozenset({1, 2, 3}))


def test_indices_out_of_range_rejected():
    with pytest.raises(ValueError):
        TwoTorsionClass(10, frozenset({0, 1}))
    with pytest.raises(ValueError):
        TwoTorsionClass(10, frozenset({10, 11}))


def test_orbit_label_examples():
    assert torsion_orbit_label(TwoTorsionClass(10, frozenset({1, 2}))) == 1
    assert torsion_orbit_label(TwoTorsionClass(10, frozenset({1, 2, 3, 4}))) == 2


def test_enumeration_counts():
    for g in range(1, 5):
        classes = enumerate_classes(g)
        assert len(classes) == 4**g


def test_group_law_exhaustive_small_genus():
    for g in (1, 2):
        classes = enumerate_classes(g)
        zero = TwoTorsionClass(2 * g + 2, frozenset())
        for a in classes:
            assert a.add(a).is_zero()
            assert a.add(zero) == a
        for a, b in itertools.product(classes[:8], repeat=2):
            assert a.add(b) == b.add(a)
        for a, b, c in itertools.product(classes[:4], repeat=3):
            assert a.add(b).add(c) == a.add(b.add(c))


def test_orbit_sizes_small_genus():
    assert orbit_sizes(1) == (1, 3)
    assert orbit_sizes(2) == (1, 15)
    assert orbit_sizes(4) == (1, 45, 210)
    assert sum(orbit_sizes(4)) == 256


def test_orbit_sizes_totals_up_to_genus_six():
    for g in range(1, 7):
        assert sum(orbit_sizes(g)) == 4**g


def test_orbit_sizes_match_enumeration():
    for g in (2, 3, 4):
        classes = enumerate_classes(g)
        counts = {}
        for cls in classes:
            counts[torsion_orbit_label(cls)] = counts.get(torsion_orbit_label(cls), 0) + 1
        sizes = orbit_sizes(g)
        assert counts == {n: s for n, s in enumerate(sizes)}


def test_relabel_preserves_orbit_label_exhaustive_g4():
    classes = enumerate_classes(4)
    # adjacent transpositions generate the full symmetric group on 10 points
    gens = []
    for k in range(1, 10):
        perm = {i: i for i in range(1, 11)}
        perm[k], perm[k + 1] = k + 1, k
        gens.append(perm)
    for cls in classes:
        n = torsion_orbit_label(cls)
        for perm in gens:
            assert torsion_orbit_label(cls.relabel(perm)) == n


def test_relabel_ten_cycle():
    cyc = {i: i % 10 + 1 for i in range(1, 11)}
    cls = TwoTorsionClass(10, frozenset({1, 2, 3, 10}))
    assert torsion_orbit_label(cls.relabel(cyc)) == 2


def test_classifier_table():
    assert classify_component(0, None) == "empty"
    assert classify_component(2, None) == "empty"
    assert classify_component(4, None) == "empty"
    assert classify_component(6, 3) == "empty"
    assert classify_component(8, 0) == "S5-only"
    assert classify_component(8, 1) == "W-component-A"
    assert classify_component(8, 2) == "W-component-B"
    assert classify_component(10, None) == "S5-only"
    assert classify_component(10, 0) == "W-component-A"
    assert classify_component(10, 1) == "W-component-B"
    assert classify_component(12, True) == "W-single"
    assert classify_component(12, False) == "S5-only"
    assert classify_component(20, True) == "W-single"


def test_classifier_accepts_torsion_classes():
    cls = TwoTorsionClass(10, frozenset({1, 2}))
    assert classify_component(8, cls) == "W-component-A"
    zero = TwoTorsionClass(10, frozenset())
    assert classify_component(8, zero) == "S5-only"
    t12 = TwoTorsionClass(18, frozenset({1, 2}))
    assert classify_component(12, t12) == "W-single"


def test_classifier_complement_stability():
    a = TwoTorsionClass(10, frozenset({1, 2, 3, 4}))
    b = TwoTorsionClass(10, frozenset(range(1, 11)) - frozenset({1, 2, 3, 4}))
    assert classify_component(8, a) == classify_component(8, b)


def test_classifier_rejects_bad_input():
    with pytest.raises(ValueError):
        classify_component(7, 0)
    with pytest.raises(ValueError):
        classify_component(-2, 0)
    with pytest.raises(ValueError):
        classify_component(8, 3)
    with pytest.raises(ValueError):
        classify_component(10, 2)


# ----------------------------------------------------------------------------
# theta parity on the two bundled quintic fixtures


def test_pencil_fixture_classes_have_parity_zero():
    fx = pencil_fixture()
    for i, j in ((0, 1), (0, 2), (1, 2)):
        plus, minus = fx.eta(i, j)
        assert theta_quadratic_form(fx.curve, plus, minus) == 0


def test_pencil_fixture_classes_are_two_torsion():
    fx = pencil_fixture()
    plus, minus = fx.eta(0, 1)
    # the class itself is nonzero ...
    assert not is_principal(fx.curve, plus, minus)
    # ... but its double is principal: div(L_0 / L_1)
    doubled_plus = [(p, 2 * m) for p, m in plus]
    doubled_minus = [(p, 2 * m) for p, m in minus]
    assert is_principal(fx.curve, doubled_plus, doubled_minus)


def test_trivial_class_has_parity_zero():
    fx = pencil_fixture()
    assert theta_quadratic_form(fx.curve, [], []) == 0
    plus, minus = fx.eta(0, 1)
    doubled_plus = [(p, 2 * m) for p, m in plus]
    doubled_minus = [(p, 2 * m) for p, m in minus]
    assert theta_quadratic_form(fx.curve, doubled_plus, doubled_minus) == 0


def test_quadrilateral_fixture_parity_one():
    fx = quadrilateral_fixture()
    plus, minus = fx.eta("12|34")
    assert theta_quadratic_form(fx.curve, plus, minus) == 1


def test_quadrilateral_presentations_agree():
    # the three opposite-vertex pairings present the same class; the parity
    # must not depend on the presentation
    fx = quadrilateral_fixture()
    values = set()
    for partition in ("12|34", "13|24", "14|23"):
        plus, minus = fx.eta(partition)
        values.add(theta_quadratic_form(fx.curve, plus, minus))
    assert values == {1}


def test_non_torsion_divisor_rejected():
    fx = pencil_fixture()
    (a1, b1), (a2, b2) = fx.pairs[0], fx.pairs[1]
    with pytest.raises(ValueError, match="not 2-torsion"):
        theta_quadratic_form(fx.curve, [(a1, 1), (b1, 1)], [(a2, 1), (fx.center, 1)])


def test_overlapping_support_rejected():
    fx = pencil_fixture()
    (a1, b1), _ = fx.pairs[0], fx.pairs[1]
    with pytest.raises(ValueError, match="overlapping support"):
        theta_quadratic_form(fx.curve, [(a1, 1), (b1, 1)], [(a1, 1), (b1, 1)])


def test_fixture_curves_are_smooth_and_contain_points():
    fp = pencil_fixture()
    assert fp.curve.is_smooth()
    assert fp.curve.contains(fp.center)
    for a, b in fp.pairs:
        assert fp.curve.contains(a) and fp.curve.contains(b)
    fq = quadrilateral_fixture()
    assert fq.curve.is_smooth()
    for p in fq.vertices.values():
        assert fq.curve.contains(p)
    for p in fq.tangents:
        assert fq.curve.contains(p)


# three-digit integer matrices of determinant 1
UNIMODULAR = (
    ((-922, 187, 437), (956, -557, -324), (-967, 782, 250)),
    ((115, -508, 661), (-546, -397, -992), (-535, -957, -538)),
)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _moved(curve, m):
    """The curve F(m^-1 x) through the points m p of F, as a PlaneQuintic:
    m^-1 is the adjugate of m, whose columns are cross products of its rows."""
    cols = (_cross(m[1], m[2]), _cross(m[2], m[0]), _cross(m[0], m[1]))
    inverse = [[col[i] for col in cols] for i in range(3)]
    assert [[sum(m[i][k] * inverse[k][j] for k in range(3)) for j in range(3)] for i in range(3)] == [
        [int(i == j) for j in range(3)] for i in range(3)
    ]
    total = {}
    for c, mono in zip(curve.coeffs, monomials(5)):
        term = {(0, 0, 0): c}
        for row, power in zip(inverse, mono):
            for _ in range(power):
                product = {}
                for e, x in term.items():
                    for v, a in enumerate(row):
                        key = tuple(k + (v == w) for w, k in enumerate(e))
                        product[key] = product.get(key, 0) + x * a
                term = product
        for e, x in term.items():
            total[e] = total.get(e, 0) + x
    return PlaneQuintic(tuple(total.get(mono, 0) for mono in monomials(5)))


def _move(m, p):
    return tuple(sum(a * x for a, x in zip(row, p)) for row in m)


def _unimodular(digits, rng):
    """A determinant-1 integer matrix with entries of about the given number
    of digits: a unit lower times a unit upper triangular matrix."""
    half = 10 ** (digits // 2)
    r = [rng.randrange(-half, half) for _ in range(6)]
    lower = ((1, 0, 0), (r[0], 1, 0), (r[1], r[2], 1))
    upper = ((1, r[3], r[4]), (0, 1, r[5]), (0, 0, 1))
    return tuple(tuple(sum(lower[i][k] * upper[k][j] for k in range(3)) for j in range(3)) for i in range(3))


# Bound on one is_smooth of the pencil fixture moved by a matrix with
# 100-digit entries (coefficients of about 3300 bits); it takes under 0.1 s
# on 2 cores
LARGE_SMOOTHNESS_S = 1


def test_is_smooth_on_large_coordinates_in_bounded_time():
    # the two degree-16 resultant forms of the moved curve have
    # coefficients of thousands of bits; zgcd proves them coprime
    curve = _moved(pencil_fixture().curve, _unimodular(100, random.Random(100)))
    start = time.perf_counter()
    assert curve.is_smooth()
    assert time.perf_counter() - start < LARGE_SMOOTHNESS_S


@pytest.mark.parametrize("m", UNIMODULAR, ids=["m1", "m2"])
@pytest.mark.parametrize(
    "fixture, eta",
    [(pencil_fixture, lambda fx: fx.eta(0, 1)), (quadrilateral_fixture, lambda fx: fx.eta("12|34"))],
    ids=["pencil", "quadrilateral"],
)
def test_answers_are_invariant_under_unimodular_coordinates(fixture, eta, m):
    fx = fixture()
    curve = _moved(fx.curve, m)
    plus, minus = eta(fx)
    moved_plus, moved_minus = ([(_move(m, p), k) for p, k in div] for div in (plus, minus))
    assert all(curve.contains(p) for p, _ in moved_plus + moved_minus)
    assert curve.is_smooth() == fx.curve.is_smooth()
    assert is_principal(curve, moved_plus, moved_minus) == is_principal(fx.curve, plus, minus)
    assert theta_quadratic_form(curve, moved_plus, moved_minus) == theta_quadratic_form(fx.curve, plus, minus)
