"""Seeded inputs, item runners, canonical outputs and output checks.

Input generation is plain Python driven by ``random.Random`` seeded from the
benchmark seed, so the same seed always gives the same items.  Everything
that needs dp4 imports it lazily, so the orchestrator can import this module
without importing dp4 (or sympy).

Item runners call the program through module attributes (``families.x``,
``pencils.y``) so that the traced run's wrappers, which rebind those
attributes, see every call.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from random import Random

WORKLOADS = ("family_pipeline", "quintic_pencil", "cold_cli")
DEFAULT_SEED = 1

# One family round: the three reference models plus the two engineered
# genericity failures, the fast ones spread between the slow ones.
FAMILY_ROUND = ("h8_ci", "h10_ci", "squared", "h10_bundle", "diagonal")
MODEL_NAMES = ("h8_ci", "h10_ci", "h10_bundle")

# One quintic_pencil round: 4 random quintics (a), 3 planted-root quintics
# (b, one of each root pattern) and 3 random pencils (c).
QUINTIC_ROUND = ("a", "b", "c", "a", "b", "c", "a", "b", "c", "a")
B_PATTERNS = ((1, 1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1))
B_STABILITY = {
    (1, 1, 1, 1, 1): "all-simple",
    (2, 1, 1, 1): "one-double",
    (2, 2, 1): "two-doubles",
}
B_SURFACE = {
    (1, 1, 1, 1, 1): "smooth",
    (2, 1, 1, 1): "one-A1",
    (2, 2, 1): "boundary-U",
}

# The cold_cli command sequence, by the names used in ``cli.<name>.s``.
COLD_COMMANDS = (
    "examples_build",
    "family_analyze",
    "quintic_invariants",
    "pencil_analyze",
    "lines_report",
    "classify_h8",
    "classify_h10",
)

# Items in the fixed lists the traced run replays (prefixes of each stream).
TRACE_ROUNDS = {"family_pipeline": 1, "quintic_pencil": 20, "cold_cli": 1}


def rng_for(workload: str, seed: int, stream: str = "main") -> Random:
    return Random(f"perfbench:{workload}:{stream}:{seed}")


def digest(tree) -> str:
    text = json.dumps(tree, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# input generation (no dp4)


def family_round(rng: Random) -> list[dict]:
    return [{"kind": kind, "seed": rng.randint(1, 10**6)} for kind in FAMILY_ROUND]


def _random_quintic(rng: Random) -> list[int]:
    while True:
        coeffs = [rng.randint(-9, 9) for _ in range(6)]
        if any(coeffs):
            return coeffs


def _random_symmetric(rng: Random, lo: int, hi: int) -> list[list[int]]:
    m = [[0] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i, 5):
            m[i][j] = m[j][i] = rng.randint(lo, hi)
    return m


def _planted_roots(rng: Random, pattern) -> list[tuple[int, int]]:
    distinct: set[Fraction] = set()
    while len(distinct) < len(pattern):
        distinct.add(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    order = sorted(distinct)
    rng.shuffle(order)
    roots = []
    for r, mult in zip(order, pattern):
        roots.extend([(r.numerator, r.denominator)] * mult)
    return roots


def quintic_round(rng: Random) -> list[dict]:
    items = []
    patterns = iter(B_PATTERNS)
    for kind in QUINTIC_ROUND:
        if kind == "a":
            items.append({"kind": "a", "coeffs": _random_quintic(rng)})
        elif kind == "b":
            pattern = next(patterns)
            items.append(
                {"kind": "b", "pattern": list(pattern), "roots": _planted_roots(rng, pattern)}
            )
        else:
            items.append(
                {
                    "kind": "c",
                    "P": _random_symmetric(rng, -5, 5),
                    "Q": _random_symmetric(rng, -5, 5),
                }
            )
    return items


def make_round(workload: str, rng: Random) -> list[dict]:
    return family_round(rng) if workload == "family_pipeline" else quintic_round(rng)


def cold_inputs(seed: int) -> dict:
    """Parameters of the cold_cli input files; files are written by
    ``worker.py cold-inputs``."""
    rng = rng_for("cold_cli", seed)
    size = rng.choice((2, 4))
    subset = sorted(rng.sample(range(1, 11), size))
    if rng.random() < 0.5:
        fixture = {"name": "pencil", "pair": rng.choice(((0, 1), (0, 2), (1, 2))), "parity": 0}
    else:
        fixture = {"name": "quadrilateral", "partition": rng.choice(("12|34", "13|24", "14|23")), "parity": 1}
    return {
        "model_seed": rng.randint(1, 10**6),
        "quintic": _random_quintic(rng),
        "P": _random_symmetric(rng, -5, 5),
        "Q": _random_symmetric(rng, -5, 5),
        "torsion": subset,
        "fixture": fixture,
    }


def cold_argv(inputs: dict, run_dir: str) -> list[list[str]]:
    """argv (after ``-m dp4.cli``) of each command in COLD_COMMANDS."""
    return [
        ["examples", "build", "h10_ci", "--seed", str(inputs["model_seed"]),
         "--out", f"{run_dir}/family.json"],
        ["family", "analyze", "--input", f"{run_dir}/family.json"],
        ["quintic", "invariants", "--input", f"{run_dir}/quintic.json"],
        ["pencil", "analyze", "--input", f"{run_dir}/pencil.json"],
        ["lines", "report"],
        ["classify", "--height", "8", "--torsion", ",".join(map(str, inputs["torsion"]))],
        ["classify", "--height", "10", "--quintic", f"{run_dir}/curve.json",
         "--eta", f"{run_dir}/eta.json"],
    ]


# ---------------------------------------------------------------------------
# independent arithmetic used by the checks


def fraction_det(m) -> Fraction:
    """Determinant by Gaussian elimination over Fraction (the checks' own,
    independent of dp4.linalg)."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    result = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            result = -result
        result *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return result


def spectral_matches(coeffs, P, Q) -> bool:
    """Whether sum coeffs[k] u^(5-k) v^k equals det(uP + vQ) at six pairwise
    independent points, which decides equality of two binary quintics."""
    for u, v in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 3)):
        lhs = sum(Fraction(c) * u ** (5 - k) * v**k for k, c in enumerate(coeffs))
        member = [[u * P[i][j] + v * Q[i][j] for j in range(5)] for i in range(5)]
        if lhs != fraction_det(member):
            return False
    return True


def _disc_relation_holds(disc, j4, j8) -> bool:
    return 125 * Fraction(disc) == Fraction(j4) ** 2 - 4 * Fraction(j8)


# ---------------------------------------------------------------------------
# running items (dp4 imported lazily)


def prepare(workload: str, item: dict):
    """Turn a generated item into the program's input objects."""
    if workload == "family_pipeline":
        return item
    from dp4.binforms import BinaryForm
    from dp4.pencils import SymmetricPencil

    if item["kind"] == "a":
        return BinaryForm(5, tuple(Fraction(c) for c in item["coeffs"]))
    if item["kind"] == "b":
        roots = [Fraction(p, q) for p, q in item["roots"]]
        f = BinaryForm(0, (Fraction(1),))
        for p, q in item["roots"]:
            f = f * BinaryForm(1, (Fraction(q), Fraction(-p)))
        return roots, f
    return SymmetricPencil(item["P"], item["Q"])


def run_item(workload: str, item: dict, args):
    """The program calls of one item."""
    if workload == "family_pipeline":
        from dp4 import families, models

        kind, seed = item["kind"], item["seed"]
        if kind in MODEL_NAMES:
            spec = models.build_example(kind, seed)
            report = families.family_report(spec)
            verify = models.verify_example(kind, seed)
            return spec, report, verify
        make = (
            models.squared_discriminant_example
            if kind == "squared"
            else models.split_diagonal_example
        )
        spec = make(seed)
        return spec, families.family_report(spec), None

    from dp4 import binforms, pencils, quintic

    kind = item["kind"]
    if kind == "a":
        f = args
        j = quintic.invariants(f)
        disc = binforms.discriminant(f)
        stability = quintic.stability_classify(f)
        point = None
        if stability != "unstable" and (j.J4, j.J8, j.J12) != (0, 0, 0):
            point = quintic.normalize_weighted((j.J4, j.J8, j.J12))
        return j, disc, stability, point
    if kind == "b":
        roots, f = args
        _, pencil = pencils.blowup_from_quintic(roots)
        label = pencils.classify_surface(pencil)
        roundtrip = pencils.roundtrip_check(f)
        return pencil, label, roundtrip, quintic.stability_classify(f)
    pencil = args
    f = pencils.spectral_quintic(pencil)
    label = pencils.classify_surface(pencil)
    return f, label, quintic.invariants(f)


def family_tree(rep) -> dict:
    """The fields ``dp4 family analyze`` prints for a FamilyReport, written
    out here rather than taken from the CLI so that the cold_cli check
    compares the CLI with an independent rendering."""
    sc = rep.spectral
    return {
        "height": rep.height,
        "coefficient_degrees": list(rep.coefficient_degrees),
        "expected_degrees": list(rep.expected_degrees),
        "spectral_class": {
            "n": sc.cls.n,
            "alpha": sc.cls.alpha,
            "beta": sc.cls.beta,
            "a": sc.a,
            "reduced_range_ok": sc.reduced_range_ok,
            "irreducible_range_ok": sc.irreducible_range_ok,
        },
        "genus": rep.genus,
        "discriminant_degree": rep.discriminant_degree,
        "g1_prime": rep.g1_prime,
        "singular_fiber_count": rep.singular_fiber_count,
        "g2_prime": rep.genericity.g2_prime,
        "irreducible_certified": rep.genericity.irreducible_certified,
        "dimensions": rep.dimensions,
    }


def _profile_tree(label) -> list:
    from dp4.serialize import encode_form

    return [
        {"factor": encode_form(r.factor), "multiplicity": r.multiplicity, "corank": r.corank}
        for r in label.profile
    ]


def _invariant_list(j) -> list[str]:
    return [str(x) for x in j.as_tuple()]


def canonical(workload: str, item: dict, result) -> dict:
    """JSON tree of one item's outputs; its sha256 is the item digest."""
    from dp4.serialize import encode_family, encode_form, encode_pencil

    if workload == "family_pipeline":
        spec, report, verify = result
        tree = {"item": item, "family": encode_family(spec), "report": family_tree(report)}
        factor = report.genericity.bounded_factor
        tree["bounded_factor"] = None if factor is None else factor[0]
        if verify is not None:
            tree["verify"] = verify
        return tree
    kind = item["kind"]
    if kind == "a":
        j, disc, stability, point = result
        return {
            "item": item,
            "invariants": _invariant_list(j),
            "discriminant": str(disc),
            "stability": stability,
            "moduli_point": None
            if point is None
            else {"coords": [str(c) for c in point.coords], "normalized": point.normalized},
        }
    if kind == "b":
        pencil, label, roundtrip, stability = result
        return {
            "item": item,
            "pencil": encode_pencil(pencil),
            "label": label.label,
            "profile": _profile_tree(label),
            "roundtrip": roundtrip,
            "stability": stability,
        }
    f, label, j = result
    return {
        "item": item,
        "spectral_quintic": encode_form(f),
        "label": label.label,
        "profile": _profile_tree(label),
        "invariants": _invariant_list(j),
    }


def check(workload: str, item: dict, result) -> list[str]:
    """Checks that hold for any seed; returns the failed ones."""
    from dp4 import binforms, models

    bad = []
    if workload == "family_pipeline":
        spec, rep, verify = result
        gen = rep.genericity
        kind = item["kind"]
        if kind in MODEL_NAMES:
            entry = models.catalog_entry(kind)
            sc = rep.spectral.cls
            if rep.height != entry.expected_height:
                bad.append("height differs from the catalog")
            if rep.discriminant_degree != entry.expected_delta_degree or (
                rep.discriminant_degree != 2 * rep.height
            ):
                bad.append("discriminant degree is not the catalog's 2h")
            if (sc.n, sc.alpha, sc.beta) != entry.expected_class:
                bad.append("spectral class differs from the catalog")
            if rep.genus != entry.expected_height - 4:
                bad.append("genus is not h - 4")
            if rep.g1_prime is not True or gen.g2_prime is not True:
                bad.append("model is not certified generic")
            if verify.get("ok") is not True:
                bad.append("verify_example failed")
        elif kind == "squared":
            if (rep.height, rep.discriminant_degree) != (20, 40):
                bad.append("squared example is not height 20 with a degree-40 discriminant")
            if rep.g1_prime is not False:
                bad.append("squared example passes simple branching")
        else:
            if gen.g2_prime is not False or gen.bounded_factor is None:
                bad.append("diagonal example has no bounded factor")
        return bad

    kind = item["kind"]
    if kind == "a":
        j, disc, stability, point = result
        if not _disc_relation_holds(disc, j.J4, j.J8):
            bad.append("125 disc != J4^2 - 4 J8")
        if (disc != 0) != (stability == "all-simple"):
            bad.append("stability disagrees with the discriminant")
        if point is not None and j.J4 != 0 and point.coords != (
            1, j.J8 / j.J4**2, j.J12 / j.J4**3
        ):
            bad.append("moduli point is not (1, J8/J4^2, J12/J4^3)")
        return bad
    if kind == "b":
        pencil, label, roundtrip, stability = result
        pattern = tuple(item["pattern"])
        if stability != B_STABILITY[pattern]:
            bad.append("stability differs from the planted roots")
        if label.label != B_SURFACE[pattern]:
            bad.append("surface label differs from the planted roots")
        if roundtrip is not True:
            bad.append("roundtrip_check failed")
        return bad
    f, label, j = result
    if not spectral_matches(f.coeffs, item["P"], item["Q"]):
        bad.append("spectral quintic != det(uP + vQ)")
    disc = binforms.discriminant(f)
    if not _disc_relation_holds(disc, j.J4, j.J8):
        bad.append("125 disc != J4^2 - 4 J8")
    if sum(r.factor.degree * r.multiplicity for r in label.profile) != 5:
        bad.append("profile degrees do not sum to 5")
    if disc != 0 and (
        label.label != "smooth"
        or any((r.multiplicity, r.corank) != (1, 1) for r in label.profile)
    ):
        bad.append("squarefree spectral quintic but not a smooth surface")
    return bad
