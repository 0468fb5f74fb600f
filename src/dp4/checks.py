"""Registry of the verification checks behind `dp4 verify`.

Each check is a seeded pure function returning (ok, details); the runner
wraps results with wall-clock timings into CheckResult records.  Anchors
state the exact fact being checked, as a formula or enumeration, so a
report line is legible without the surrounding context.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from . import lines, models
from .binforms import BinaryForm, discriminant, mobius_substitute
from .families import (
    Poly,
    chern_verify,
    dimension_identities_symbolic,
    dimension_report,
    discriminant_family,
    genericity_check,
    height,
    height_bounds_scan,
    spectral_class,
)
from .monodromy import (
    TwoTorsionClass,
    classify_component,
    enumerate_classes,
    orbit_sizes,
    torsion_orbit_label,
)
from .pencils import roundtrip_check
from .quintic import disc_as_invariant, invariants, syzygy_coefficients, syzygy_monomials


@dataclass(frozen=True)
class CheckResult:
    name: str
    anchor: str
    status: str  # pass / fail / inconclusive
    elapsed: float
    details: dict


_REGISTRY: list[tuple[str, str, object]] = []


def _register(name: str, anchor: str):
    def deco(fn):
        _REGISTRY.append((name, anchor, fn))
        return fn

    return deco


def check_names() -> list[str]:
    return [name for name, _, _ in _REGISTRY]


def run_check(name: str, seed=7) -> CheckResult:
    for n, anchor, fn in _REGISTRY:
        if n != name:
            continue
        start = time.perf_counter()
        try:
            ok, details = fn(Random(f"check:{name}:{seed}"))
            status = "pass" if ok else "fail"
        except Exception as exc:  # a crash is a failed check, not a dead report
            status = "fail"
            details = {"error": f"{type(exc).__name__}: {exc}"}
        return CheckResult(n, anchor, status, time.perf_counter() - start, details)
    raise ValueError(f"unknown check {name!r}")


def run_all(seed=7, names=None) -> list[CheckResult]:
    wanted = check_names() if names is None else list(names)
    return [run_check(name, seed) for name in wanted]


# ---------------------------------------------------------------------------
# the checks


def _random_quintic(rng: Random) -> BinaryForm:
    while True:
        coeffs = tuple(Fraction(rng.randint(-9, 9)) for _ in range(6))
        if any(coeffs):
            return BinaryForm(5, coeffs)


def _random_unimodular(rng: Random):
    a, b, c = (rng.randint(-3, 3) for _ in range(3))
    return ((1 + a * b, (1 + a * b) * c + a), (b, b * c + 1))


@_register(
    "roundtrip-moduli",
    "moduli point of the spectral quintic of the blow-up model equals the "
    "moduli point of the input, for split quintics with simple roots",
)
def _check_roundtrip(rng: Random):
    trials = 25
    failures = []
    for k in range(trials):
        roots = rng.sample(range(-12, 13), 5)
        f = BinaryForm.from_roots(roots, scale=rng.choice((1, 2, -3)))
        if not roundtrip_check(f):
            failures.append(roots)
    return not failures, {"trials": trials, "failures": failures}


@_register(
    "invariant-ring",
    "J4, J8, J12, J18 invariant under unimodular substitution; "
    "125 disc = J4^2 - 4 J8; J18^2 in the degree-36 span of J4, J8, J12",
)
def _check_invariants(rng: Random):
    substitution_failures = 0
    for _ in range(5):
        f = _random_quintic(rng)
        base = invariants(f).as_tuple()
        for _ in range(20):
            g = mobius_substitute(f, _random_unimodular(rng))
            if invariants(g).as_tuple() != base:
                substitution_failures += 1
    c1, c2 = disc_as_invariant()
    disc_failures = 0
    for _ in range(100):
        f = _random_quintic(rng)
        j = invariants(f)
        if discriminant(f) != c1 * j.J4**2 + c2 * j.J8:
            disc_failures += 1
    syzygy_failures = 0
    mons = syzygy_monomials()
    coeffs = syzygy_coefficients()
    for _ in range(25):
        j = invariants(_random_quintic(rng))
        total = sum(
            w * j.J4**a * j.J8**b * j.J12**c
            for (a, b, c), w in zip(mons, coeffs)
        )
        if total != j.J18**2:
            syzygy_failures += 1
    ok = not (substitution_failures or disc_failures or syzygy_failures)
    return ok, {
        "substitution_failures": substitution_failures,
        "disc_coefficients": [str(c1), str(c2)],
        "disc_failures": disc_failures,
        "syzygy_failures": syzygy_failures,
    }


@_register(
    "line-configuration",
    "16 lines, 5-regular incidence, sum of lines = -4K, five partitions, "
    "symmetry group of order 1920 with a simply transitive kernel of order "
    "16, and no group strictly between the index-5 copy and the whole",
)
def _check_lines(rng: Random):
    rep = lines.report()
    conditions = {
        "classes": len(rep["classes"]) == 16,
        "five_regular": all(d == 5 for d in rep["line_degrees"]),
        "sum_is_minus_4k": rep["sum_of_lines"]
        == [-4 * c for c in rep["canonical_class"]],
        "partitions": len(rep["partitions"]) == 5,
        "group_order": rep["group_order"] == 1920,
        "kernel_order": rep["kernel_order"] == 16,
        "kernel_simply_transitive": rep["kernel_orbit_size"] == 16
        and rep["kernel_stabilizers_trivial"],
        "no_intermediate_subgroup": rep["no_intermediate_subgroup"],
        "matches_golden": rep == lines.load_golden(),
    }
    return all(conditions.values()), conditions


@_register(
    "family-numerics",
    "deg Delta = 2h (16 at height 8, 20 at height 10); spectral classes "
    "(2,5), 5f+5xi, (3,5) at heights 8, 10, 12; p_a = h - 4 throughout; "
    "dimension counts 3h/2+2, 3h/2+5, 3h/2-1, 6h",
)
def _check_family_numerics(rng: Random):
    seed = rng.randint(1, 10**6)
    conditions = {}
    for name in ("h8_ci", "h10_ci"):
        entry = models.catalog_entry(name)
        spec = models.build_example(name, seed)
        disc = discriminant_family(spec)
        cls = spectral_class(spec).cls
        conditions[f"{name}_delta_degree"] = disc.degree == 2 * height(spec)
        conditions[f"{name}_delta_expected"] = disc.degree == entry.expected_delta_degree
        conditions[f"{name}_class"] = (cls.n, cls.alpha, cls.beta) == entry.expected_class
    scan12 = height_bounds_scan(12)["reduced"]
    conditions["h12_class"] = any(
        (row.n, row.alpha) == (0, 3) and row.genus == 8 for row in scan12
    )
    genus_rows = []
    for h in range(8, 21, 2):
        for row in height_bounds_scan(h)["reduced"]:
            genus_rows.append(row.genus == h - 4)
    conditions["genus_h_minus_4"] = bool(genus_rows) and all(genus_rows)
    dims_ok = dimension_identities_symbolic()
    for h in range(8, 21, 2):
        rep = dimension_report(h)
        dims_ok = dims_ok and (
            rep["moduli_dimension"] == 3 * h // 2 + 2
            and rep["linear_system_dimension"] == 3 * h // 2 + 5
            and rep["expected_dimension"] == 3 * h // 2 - 1
            and rep["map_degree"] == 6 * h
        )
    conditions["dimension_counts"] = dims_ok
    return all(conditions.values()), conditions


@_register(
    "height-bounds",
    "exhaustive scan of even heights up to 20: h = 2 admits no twist, "
    "h = 4 forces the rational (1,5) class, h = 6 admits no irreducible "
    "spectral curve",
)
def _check_height_bounds(rng: Random):
    s2 = height_bounds_scan(2)
    s4 = height_bounds_scan(4)
    s6 = height_bounds_scan(6)
    rows4 = s4["reduced"]
    conditions = {
        "h2_inadmissible": not s2["reduced"] and not s2["irreducible"],
        "h4_unique_row": len(rows4) == 1,
        "h4_class_15_genus0": bool(rows4)
        and (rows4[0].n, rows4[0].alpha, rows4[0].genus) == (0, 1, 0)
        and rows4[0].full_weyl_impossible,
        "h6_reduced_exists": bool(s6["reduced"]),
        "h6_irreducible_empty": not s6["irreducible"],
        "scan_total": all(
            height_bounds_scan(h)["reduced"] for h in range(8, 21, 2)
        ),
    }
    return all(conditions.values()), conditions


@_register(
    "conic-identity",
    "ac - b^2 = (A11 A22 - A12^2)(A13'A23'' - A13''A23')^2 exactly, and "
    "A11 A22 - A12^2 divides the degree-10 branch form of det(A)",
)
def _check_conic_identity(rng: Random):
    failures = []
    for k in range(20):
        spec = models.random_conic_bundle(rng.randint(1, 10**9))
        if not models.conic_identity_check(spec):
            failures.append(k)
    return not failures, {"instances": 20, "failures": failures}


@_register(
    "chern-identity",
    "c1(omega)^3 integrates to -2 deg of the pushforward, as a polynomial "
    "identity in fully symbolic splitting degrees",
)
def _check_chern(rng: Random):
    d = [Poly.var(f"d{i}") for i in range(1, 6)]
    symbolic = chern_verify(d, [Poly.var("e1"), Poly.var("e2")])
    numeric = all(
        chern_verify(list(ds), list(es))
        for ds, es in (
            ((-1, -1, -1, -1, -1), (-2, -3)),
            ((0, -1, -1, -1, -2), (-2, -3)),
            ((0, -1, -1, -1, -1), (-2, -2)),
        )
    )
    return symbolic and numeric, {"symbolic": symbolic, "numeric": numeric}


@_register(
    "two-torsion-orbits",
    "orbit sizes (1, 45, 210) summing to 256 at genus 4, by exhaustive "
    "enumeration; branch relabeling preserves the orbit label",
)
def _check_two_torsion(rng: Random):
    sizes = orbit_sizes(4)
    classes = enumerate_classes(4)
    counted = [0] * len(sizes)
    for cls in classes:
        counted[torsion_orbit_label(cls)] += 1
    swap = {1: 2, 2: 1}
    cycle = {i: (i % 10) + 1 for i in range(1, 11)}
    relabel_ok = all(
        torsion_orbit_label(cls.relabel(lambda i: swap.get(i, i)))
        == torsion_orbit_label(cls)
        and torsion_orbit_label(cls.relabel(cycle)) == torsion_orbit_label(cls)
        for cls in classes
    )
    totals_ok = all(sum(orbit_sizes(g)) == 4**g for g in range(1, 7))
    conditions = {
        "sizes": sizes == (1, 45, 210),
        "sum_256": sum(sizes) == 256 and len(classes) == 256,
        "counted_match": tuple(counted) == sizes,
        "relabel_invariant": relabel_ok,
        "totals_4^g": totals_ok,
    }
    return all(conditions.values()), conditions


@_register(
    "component-table",
    "monodromy components: empty for h <= 6, two labels beside S5-only at "
    "h = 8 and h = 10, a single label for h >= 12",
)
def _check_component_table(rng: Random):
    low = all(classify_component(h, None) == "empty" for h in (0, 2, 4, 6))
    h8 = {classify_component(8, n) for n in (1, 2)}
    h8_trivial = classify_component(8, 0) == "S5-only"
    h8_class = classify_component(
        8, TwoTorsionClass(10, frozenset({1, 2}))
    ) == classify_component(8, 1)
    h10 = {classify_component(10, q) for q in (0, 1)}
    h10_trivial = classify_component(10, None) == "S5-only"
    high = all(
        classify_component(h, True) == "W-single"
        and classify_component(h, False) == "S5-only"
        for h in (12, 14, 16, 20)
    )
    conditions = {
        "low_empty": low,
        "h8_two_labels": h8 == {"W-component-A", "W-component-B"},
        "h8_trivial": h8_trivial,
        "h8_subset_datum": h8_class,
        "h10_two_labels": h10 == {"W-component-A", "W-component-B"},
        "h10_trivial": h10_trivial,
        "h12_single": high,
    }
    return all(conditions.values()), conditions


@_register(
    "genericity-certificates",
    "squared discriminants fail simple branching, split diagonal spectral "
    "forms fail the irreducibility certificate, and random models certify "
    "both genericity conditions",
)
def _check_genericity(rng: Random):
    seed = rng.randint(1, 10**6)
    squared = genericity_check(models.squared_discriminant_example(seed))
    diagonal = genericity_check(models.split_diagonal_example(seed))
    certified = {}
    for name in ("h10_ci", "h10_bundle"):
        rep = genericity_check(models.build_example(name, seed))
        certified[name] = rep.g1_prime and rep.g2_prime is True
    conditions = {
        "squared_fails_g1": squared.g1_prime is False,
        "diagonal_fails_g2": diagonal.g2_prime is False,
        "diagonal_factor_found": diagonal.bounded_factor is not None,
        **{f"{k}_certified": v for k, v in certified.items()},
    }
    return all(conditions.values()), conditions
