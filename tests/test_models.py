"""Seeded worked examples: conic-bundle determinant identities and the
catalog of reference fibrations at heights 8 and 10."""

from fractions import Fraction
from unittest import mock

import pytest

from dp4 import models
from dp4.biforms import BiForm
from dp4.binforms import BinaryForm
from dp4.families import discriminant_family, genericity_check, height, spectral_class
from dp4.models import (
    CATALOG,
    EXAMPLE_NAMES,
    ConicBundleExample,
    ConicBundleSpec,
    build_example,
    catalog_entry,
    conic_identity_check,
    conic_report,
    conic_symbols,
    random_conic_bundle,
    split_diagonal_example,
    squared_discriminant_example,
    verify_example,
)

F = Fraction


def biform_const(m, n, value=0):
    grid = tuple(tuple(F(value) for _ in range(n + 1)) for _ in range(m + 1))
    return BiForm(m, n, grid)


def test_conic_spec_rejects_wrong_bidegree():
    rows = [[None] * 3 for _ in range(3)]
    degs = {(0, 0): (1, 0), (0, 1): (1, 0), (1, 1): (1, 0),
            (0, 2): (2, 1), (1, 2): (2, 1), (2, 2): (3, 2)}
    for (i, j), (m, n) in degs.items():
        f = biform_const(m, n, 1)
        rows[i][j] = rows[j][i] = f
    rows[0][0] = rows[0][0] = biform_const(2, 0, 1)
    with pytest.raises(ValueError, match="bidegree"):
        ConicBundleSpec(tuple(tuple(r) for r in rows))


def test_conic_spec_rejects_asymmetric():
    spec = random_conic_bundle(11)
    rows = [list(r) for r in spec.entries]
    rows[0][1] = rows[0][1].scale(2)
    with pytest.raises(ValueError, match="symmetric"):
        ConicBundleSpec(tuple(tuple(r) for r in rows))


def test_identity_on_twenty_seeds():
    for seed in range(1, 21):
        spec = random_conic_bundle(seed)
        assert conic_identity_check(spec) is True


def test_identity_factorization_exact():
    spec = random_conic_bundle(5)
    sym = conic_symbols(spec)
    lhs = sym["a"] * sym["c"] - sym["b"] * sym["b"]
    rhs = sym["q"] * sym["w"] * sym["w"]
    assert lhs == rhs
    assert lhs.degree == 10


def test_rank_drop_case():
    # zero the v-parts of A13 and A23: w = 0 and the remainder quadric
    # degenerates, a c = b^2
    spec = random_conic_bundle(3)
    rows = [list(r) for r in spec.entries]
    for i, j in ((0, 2), (1, 2)):
        f = rows[i][j]
        grid = tuple((row[0], F(0)) for row in f.grid)
        g = BiForm(f.m, f.n, grid)
        rows[i][j] = rows[j][i] = g
    spec2 = ConicBundleSpec(tuple(tuple(r) for r in rows))
    sym = conic_symbols(spec2)
    assert sym["w"].is_zero
    assert sym["a"] * sym["c"] == sym["b"] * sym["b"]
    assert conic_identity_check(spec2) is True


def test_det_bidegree():
    spec = random_conic_bundle(7)
    det = spec.det()
    # degree 5 along the fiber line (s,t), 2 along the base line (u,v)
    assert (det.m, det.n) == (5, 2)
    rep = conic_report(spec)
    assert rep.det_degree_st == 5
    assert rep.det_degree_uv == 2
    assert rep.det_nonzero


def test_branch_and_residual_degrees():
    rep = conic_report(random_conic_bundle(9))
    assert rep.branch_degree == 10
    assert rep.branch_divides
    assert rep.residual_degree == 8


def test_branch_divisibility_edge_cases():
    # the zero spec: q = 0 and a zero branch, which counts as divisible,
    # with no residual
    rows = [[None] * 3 for _ in range(3)]
    for (i, j), (m, n) in models._CONIC_BIDEGREES.items():
        rows[i][j] = rows[j][i] = biform_const(m, n)
    rep = conic_report(ConicBundleSpec(tuple(tuple(r) for r in rows)))
    assert rep.branch_divides and rep.residual_degree is None and not rep.det_nonzero
    # a zero q divides no nonzero branch; no spec has one (q = 0 makes the
    # branch -4 q w^2 = 0), so the symbols are patched
    spec = random_conic_bundle(9)
    sym = dict(conic_symbols(spec), q=BinaryForm.zero(2))
    with mock.patch.object(models, "conic_symbols", return_value=sym):
        rep = conic_report(spec)
    assert rep.branch_degree == 10 and not rep.branch_divides and rep.residual_degree is None


def test_catalog_names_and_kinds():
    assert tuple(e.name for e in CATALOG) == EXAMPLE_NAMES
    kinds = {e.name: e.kind for e in CATALOG}
    assert kinds == {
        "h8_ci": "family",
        "h8_conic": "conic",
        "h10_ci": "family",
        "h10_bundle": "family",
    }


def test_catalog_expected_values():
    assert catalog_entry("h8_ci").expected_height == 8
    assert catalog_entry("h8_ci").expected_delta_degree == 16
    assert catalog_entry("h10_ci").expected_height == 10
    assert catalog_entry("h10_ci").expected_delta_degree == 20
    assert catalog_entry("h10_bundle").expected_class == (1, 5, 5)
    with pytest.raises(ValueError, match="unknown example"):
        catalog_entry("h12_nope")


def test_build_h8_ci():
    spec = build_example("h8_ci", seed=1)
    assert height(spec) == 8
    assert discriminant_family(spec).degree == 16
    sc = spectral_class(spec)
    assert (sc.cls.n, sc.cls.alpha, sc.cls.beta) == (0, 2, 5)


def test_build_h10_ci():
    spec = build_example("h10_ci", seed=1)
    assert height(spec) == 10
    rep = discriminant_family(spec)
    assert rep.degree == 20
    assert rep.g1_prime is True


def test_build_h10_bundle():
    spec = build_example("h10_bundle", seed=1)
    assert height(spec) == 10
    assert spec.d == (0, -1, -1, -1, -2)
    assert tuple(sorted(spec.e)) == (-3, -2)
    assert discriminant_family(spec).degree == 20
    sc = spectral_class(spec)
    assert (sc.cls.n, sc.cls.alpha, sc.cls.beta) == (1, 5, 5)


def test_build_h8_conic():
    ex = build_example("h8_conic", seed=1)
    assert isinstance(ex, ConicBundleExample)
    rep = conic_report(ex.spec)
    assert rep.identity and rep.branch_divides
    assert rep.branch_squarefree
    assert ex.discriminant == ex.spec.det()


def test_build_deterministic():
    a = build_example("h10_ci", seed=3)
    b = build_example("h10_ci", seed=3)
    assert a == b
    c = build_example("h10_ci", seed=4)
    assert a != c


def test_build_unknown_name():
    with pytest.raises(ValueError, match="unknown example"):
        build_example("h6_mystery", seed=1)


def test_verify_example_all_names():
    for name in EXAMPLE_NAMES:
        out = verify_example(name, seed=1)
        assert out["name"] == name
        assert out["ok"] is True
        assert all(out["checks"].values())


def test_verify_example_family_check_names():
    out = verify_example("h10_ci", seed=2)
    assert set(out["checks"]) == {
        "height", "delta_degree", "spectral_class", "g1_prime", "genus",
    }
    assert out["ok"] is True


def test_verify_example_conic_check_names():
    out = verify_example("h8_conic", seed=2)
    assert set(out["checks"]) == {
        "identity", "branch_divides", "det_bidegree",
        "branch_degree", "residual_degree", "branch_squarefree",
    }
    assert out["ok"] is True


def test_squared_discriminant_example_fails_simple_branching():
    spec = squared_discriminant_example(seed=1)
    assert height(spec) == 20
    rep = discriminant_family(spec)
    assert rep.g1_prime is False
    assert rep.singular_fiber_count < rep.degree


def test_split_diagonal_example_fails_galois():
    spec = split_diagonal_example(seed=1)
    gen = genericity_check(spec)
    assert gen.g2_prime is False
    assert gen.bounded_factor is not None


def test_generated_examples_respect_catalog_over_seeds():
    for name in ("h8_ci", "h10_ci"):
        entry = catalog_entry(name)
        for seed in (1, 2, 3):
            spec = build_example(name, seed=seed)
            assert height(spec) == entry.expected_height
            assert discriminant_family(spec).degree == entry.expected_delta_degree
