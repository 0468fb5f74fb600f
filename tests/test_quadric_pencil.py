"""Pencils of quadrics in five variables: spectral quintic, degeneracy
profile, surface classification, and the conic blow-up round trip."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import power
from dp4 import linalg
from dp4.binforms import BinaryForm, mobius_substitute
from dp4.linalg import det, mat_mul, transpose
from dp4.pencils import (
    SymmetricPencil,
    blowup_from_quintic,
    classify_surface,
    degeneracy_profile,
    roundtrip_check,
    spectral_quintic,
)
from dp4.quintic import moduli_point

F = Fraction


def diag(values):
    return tuple(
        tuple(F(values[i]) if i == j else F(0) for j in range(5)) for i in range(5)
    )


def random_symmetric(rng):
    m = [[F(0)] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i, 5):
            m[i][j] = m[j][i] = F(rng.randint(-6, 6))
    return tuple(tuple(row) for row in m)


def test_spectral_quintic_diagonal():
    pencil = SymmetricPencil(diag([1] * 5), diag([0, 1, 2, 3, 4]))
    f = spectral_quintic(pencil)
    expect = BinaryForm.constant(1)
    for k in range(5):
        expect = expect * BinaryForm(1, (F(1), F(k)))
    assert f == expect


def test_spectral_quintic_equal_members():
    pencil = SymmetricPencil(diag([1] * 5), diag([1] * 5))
    f = spectral_quintic(pencil)
    expect = power(BinaryForm(1, (F(1), F(1))), 5)
    assert f == expect


def test_spectral_quintic_evaluation_oracle():
    rng = random.Random(301)
    for _ in range(3):
        P = random_symmetric(rng)
        Q = random_symmetric(rng)
        try:
            pencil = SymmetricPencil(P, Q)
            f = spectral_quintic(pencil)
        except ValueError:
            continue
        for _ in range(12):
            u0, v0 = F(rng.randint(-6, 6)), F(rng.randint(-6, 6))
            member = [
                [u0 * P[i][j] + v0 * Q[i][j] for j in range(5)] for i in range(5)
            ]
            assert f.evaluate(u0, v0) == det(member)


# non-integral rationals: every denominator from 1 to 6
rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
squares = st.lists(rationals, min_size=25, max_size=25).map(
    lambda flat: [flat[5 * i : 5 * i + 5] for i in range(5)]
)


@st.composite
def symmetric_matrices(draw):
    entries = iter(draw(st.lists(rationals, min_size=15, max_size=15)))
    m = [[F(0)] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i, 5):
            m[i][j] = m[j][i] = next(entries)
    return m


def spectral_quintic_or_none(p, q):
    try:
        return spectral_quintic(SymmetricPencil(p, q))
    except ValueError:
        return None


@settings(max_examples=60)
@given(symmetric_matrices(), symmetric_matrices(), squares)
def test_spectral_quintic_congruence_covariance(P, Q, M):
    # P, Q -> M P M^T, M Q M^T scales det(uP + vQ) by det(M)^2
    dm = det([row[:] for row in M])
    assume(dm != 0)
    f = spectral_quintic_or_none(P, Q)
    g = spectral_quintic_or_none(
        mat_mul(mat_mul(M, P), transpose(M)), mat_mul(mat_mul(M, Q), transpose(M))
    )
    if f is None:
        assert g is None
    else:
        assert g == f.scale(dm * dm)


@settings(max_examples=30)
@given(symmetric_matrices(), symmetric_matrices(), st.tuples(*[rationals] * 4))
def test_spectral_quintic_basis_change_is_mobius(P, Q, abcd):
    # (u, v) -> (a u + b v, c u + d v) replaces the pencil members
    a, b, c, d = abcd
    assume(a * d - b * c != 0)
    P2 = [[a * x + c * y for x, y in zip(rp, rq)] for rp, rq in zip(P, Q)]
    Q2 = [[b * x + d * y for x, y in zip(rp, rq)] for rp, rq in zip(P, Q)]
    f = spectral_quintic_or_none(P, Q)
    f2 = spectral_quintic_or_none(P2, Q2)
    if f is None:
        assert f2 is None
        return
    assert f2 == mobius_substitute(f, ((a, b), (c, d)))

    def coranks(p, q):
        return sorted((r.multiplicity, r.corank) for r in degeneracy_profile(SymmetricPencil(p, q)))

    assert coranks(P, Q) == coranks(P2, Q2)


def test_degenerate_pencil_rejected():
    zero = diag([0] * 5)
    with pytest.raises(ValueError, match="degenerate"):
        spectral_quintic(SymmetricPencil(zero, zero))


def test_asymmetric_matrix_rejected():
    bad = [[F(0)] * 5 for _ in range(5)]
    bad[0][1] = F(1)
    with pytest.raises(ValueError):
        SymmetricPencil(tuple(tuple(r) for r in bad), diag([1] * 5))


def test_profile_distinct_diagonal():
    pencil = SymmetricPencil(diag([1] * 5), diag([0, 1, 2, 3, 4]))
    prof = degeneracy_profile(pencil)
    assert len(prof) == 5
    assert all(r.multiplicity == 1 and r.corank == 1 for r in prof)


def test_profile_double_eigenvalue():
    pencil = SymmetricPencil(diag([1] * 5), diag([0, 0, 1, 2, 3]))
    prof = degeneracy_profile(pencil)
    key = sorted((r.multiplicity, r.corank) for r in prof)
    assert key == [(1, 1), (1, 1), (1, 1), (2, 2)]


def test_profile_total_multiplicity_five():
    rng = random.Random(304)
    count = 0
    while count < 5:
        P = random_symmetric(rng)
        Q = random_symmetric(rng)
        try:
            pencil = SymmetricPencil(P, Q)
            prof = degeneracy_profile(pencil)
        except ValueError:
            continue
        count += 1
        assert sum(r.multiplicity * r.factor.degree for r in prof) == 5
        assert all(r.corank >= 1 for r in prof)


def test_classify_smooth():
    pencil = SymmetricPencil(diag([1] * 5), diag([0, 1, 2, 3, 4]))
    assert classify_surface(pencil).label == "smooth"


def test_classify_corank2_double_is_boundary():
    pencil = SymmetricPencil(diag([1] * 5), diag([0, 0, 1, 2, 3]))
    assert classify_surface(pencil).label == "boundary-U"


def test_classify_outside_u():
    pencil = SymmetricPencil(diag([1] * 5), diag([0, 0, 0, 1, 2]))
    assert classify_surface(pencil).label == "outside-U"


def test_blowup_split_quintic_moduli_roundtrip():
    _, pencil = blowup_from_quintic([0, -1, -2, -3, -4])
    f = spectral_quintic(pencil)
    g = BinaryForm.from_roots([0, -1, -2, -3, -4])
    assert moduli_point(f) == moduli_point(g)


def test_blowup_coincidence_gives_one_a1():
    _, pencil = blowup_from_quintic([0, 0, 1, 2, 3])
    assert classify_surface(pencil).label == "one-A1"


def test_blowup_unstable_rejected():
    with pytest.raises(ValueError, match="unstable"):
        blowup_from_quintic([1, 1, 1, 2, 3])


def test_blowup_model_dimensions():
    rng = random.Random(305)
    for _ in range(5):
        rs = rng.sample(range(-10, 11), 5)
        model, pencil = blowup_from_quintic(rs)
        assert len(model.cubic_basis) == 5
        assert len(model.points) == 5
        for (x, y, z), r in zip(model.points, model.parameters):
            assert (x, y, z) == (r * r, r, 1)
        # pencil is a valid symmetric pencil with nonzero spectral form
        assert not spectral_quintic(pencil).is_zero


def test_blowup_rows_products_and_relations_hold_only_integers():
    # for rho = p/q the rows are q^6 times the rational conditions, and the
    # cubics multiply over one denominator: neither kernel reads a Fraction
    with mock.patch.object(linalg, "kernel_basis", wraps=linalg.kernel_basis) as spy:
        blowup_from_quintic([F(1, 2), F(1, 2), F(-3, 7), 5, F(11, 13)])
    rows, relation_matrix = (call.args[0] for call in spy.call_args_list)
    assert (len(rows), len(relation_matrix)) == (5, 28)
    assert all(type(x) is int for m in (rows, relation_matrix) for row in m for x in row)


def test_roundtrip_simple_and_double():
    assert roundtrip_check(BinaryForm.from_roots([0, 1, 2, 3, 4]))
    assert roundtrip_check(BinaryForm.from_roots([0, 0, 1, 2, 3]))


def test_roundtrip_random_split_quintics():
    rng = random.Random(306)
    for _ in range(10):
        roots = rng.sample(range(-9, 10), 5)
        f = BinaryForm.from_roots(roots, scale=rng.choice((1, 2, -3)))
        assert roundtrip_check(f)


def test_roundtrip_rejects_irrational():
    # x^5 - 2 y^5 does not split over the rationals
    f = BinaryForm(5, (F(1), 0, 0, 0, 0, F(-2)))
    with pytest.raises(ValueError):
        roundtrip_check(f)
