"""Command-line surface: exact analyzers, model builders, and the
verification umbrella.

Output is canonical JSON (sorted keys, rationals as strings) or a plain
text rendering; results go to stdout or --out.  Exit codes: 0 all
requested checks pass, 1 a check failed, 2 usage error, 3 malformed
input, 4 internal error (an uncaught exception in a command, reported as
one line on stderr).  All commands are byte-deterministic for a fixed
seed; verify adds wall-clock timings only under --timings.

A fresh process loads only what its command uses.  The module-level
imports are the functions the benchmark's tracer wraps as cli.* bindings
(perfbench/tracer.py TARGETS), which must stay bound here, plus serialize,
which every command prints with, and two more names from families, which
family_report loads anyway.  checks, models, lines and monodromy are
imported by the handlers that use them.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialize
from .binforms import discriminant
from .families import family_report, height_bounds_scan, spectral_form
from .pencils import classify_surface, spectral_quintic
from .plane_quintic import is_principal, theta_quadratic_form
from .quintic import invariants, normalize_weighted, stability_classify

# models.EXAMPLE_NAMES, spelled out so that building the parser does not
# import models (tests/test_cli.py pins the two together)
EXAMPLE_NAMES = ("h8_ci", "h8_conic", "h10_ci", "h10_bundle")

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


class CliInputError(Exception):
    pass


class UsageError(Exception):
    pass


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path} is not valid JSON: {exc}")


def _decode(decoder, data):
    try:
        return decoder(data)
    except ValueError as exc:
        raise CliInputError(str(exc))


def _scalar(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    return str(v)


def _render_text(tree, indent=0) -> list[str]:
    pad = "  " * indent
    out = []
    if isinstance(tree, dict):
        for k, v in tree.items():
            if isinstance(v, (dict, list)):
                if v:
                    out.append(f"{pad}{k}:")
                    out.extend(_render_text(v, indent + 1))
                else:
                    out.append(f"{pad}{k}: (empty)")
            else:
                out.append(f"{pad}{k}: {_scalar(v)}")
    elif isinstance(tree, list):
        for v in tree:
            if isinstance(v, (dict, list)):
                out.extend(_render_text(v, indent))
                out.append("")
            else:
                out.append(f"{pad}- {_scalar(v)}")
        if out and out[-1] == "":
            out.pop()
    else:
        out.append(f"{pad}{_scalar(tree)}")
    return out


def _emit(tree, args) -> None:
    if getattr(args, "format", "json") == "json":
        text = serialize.dumps_canonical(tree)
    else:
        text = "\n".join(_render_text(tree)) + "\n"
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# handlers


def _invariant_tree(f):
    j = invariants(f)
    tree = {
        "J4": serialize.encode_rational(j.J4),
        "J8": serialize.encode_rational(j.J8),
        "J12": serialize.encode_rational(j.J12),
        "J18": serialize.encode_rational(j.J18),
        "discriminant": serialize.encode_rational(discriminant(f)),
        "stability": stability_classify(f),
    }
    if tree["stability"] != "unstable" and (j.J4, j.J8, j.J12) != (0, 0, 0):
        try:
            point = normalize_weighted((j.J4, j.J8, j.J12))
        except ValueError as exc:  # a kernel beyond the trial-division bound
            raise CliInputError(str(exc))
        tree["moduli_point"] = {
            "coords": [serialize.encode_rational(c) for c in point.coords],
            "normalized": point.normalized,
        }
    else:
        tree["moduli_point"] = None
    return tree


def _cmd_pencil_analyze(args):
    pencil = _decode(serialize.decode_pencil, _load_json(args.input))
    try:
        f = spectral_quintic(pencil)
    except ValueError:
        return {"error": "generically degenerate pencil"}, EXIT_CHECK
    label = classify_surface(pencil)
    tree = {
        "spectral_quintic": serialize.encode_form(f),
        "label": label.label,
        "profile": [
            {
                "factor": serialize.encode_form(rec.factor),
                "multiplicity": rec.multiplicity,
                "corank": rec.corank,
            }
            for rec in label.profile
        ],
        "quintic": _invariant_tree(f),
    }
    return tree, EXIT_OK


def _cmd_quintic_invariants(args):
    f = _decode(serialize.decode_form, _load_json(args.input))
    if f.degree != 5 or f.is_zero:
        raise CliInputError("need a nonzero binary quintic")
    return _invariant_tree(f), EXIT_OK


def _cmd_lines_report(args):
    from . import lines

    rep = lines.report()
    golden = _load_json(lines.golden_path())
    rep["matches_golden"] = rep == golden
    return rep, EXIT_OK if rep["matches_golden"] else EXIT_CHECK


def _family_tree(spec):
    rep = family_report(spec)
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


def _cmd_family_analyze(args):
    data = _load_json(args.input)
    if isinstance(data, dict) and "family" in data:
        data = data["family"]  # accept `examples build` output unchanged
    spec = _decode(serialize.decode_family, data)
    try:
        spectral_form(spec)
    except ValueError:
        return {"error": "generically degenerate family"}, EXIT_CHECK
    return _family_tree(spec), EXIT_OK


def _scan_row(r) -> dict:
    return {
        "a": r.a,
        "n": r.n,
        "alpha": r.alpha,
        "genus": r.genus,
        "full_weyl_impossible": r.full_weyl_impossible,
    }


def _cmd_family_scan(args):
    if args.max < 0 or args.max > 200:
        raise UsageError("--max must lie in 0..200")
    heights = []
    for h in range(2, args.max + 1, 2):
        scan = height_bounds_scan(h)
        heights.append(
            {
                "height": h,
                "reduced": [_scan_row(r) for r in scan["reduced"]],
                "irreducible": [_scan_row(r) for r in scan["irreducible"]],
            }
        )
    return {"max": args.max, "heights": heights}, EXIT_OK


def _parse_subset(text: str) -> frozenset:
    text = text.strip()
    if not text:
        return frozenset()
    try:
        return frozenset(int(piece) for piece in text.split(","))
    except ValueError:
        raise CliInputError(f"malformed torsion subset {text!r}")


def _cmd_classify(args):
    from .monodromy import TwoTorsionClass, classify_component, torsion_orbit_label

    h = args.height
    if h % 2 != 0 or h < 0:
        raise CliInputError("height must be even and non-negative")
    if h <= 6:
        return {"height": h, "label": classify_component(h, None)}, EXIT_OK
    if h == 10:
        if not args.quintic or not args.eta:
            raise UsageError("height 10 needs --quintic and --eta")
        curve = _decode(serialize.decode_curve, _load_json(args.quintic))
        eta = _load_json(args.eta)
        if not isinstance(eta, dict) or "plus" not in eta or "minus" not in eta:
            raise CliInputError("eta file needs 'plus' and 'minus' divisors")
        plus = _decode(serialize.decode_divisor, eta["plus"])
        minus = _decode(serialize.decode_divisor, eta["minus"])
        if not curve.is_smooth():
            raise CliInputError("cannot certify that the curve is smooth")
        try:
            principal = is_principal(curve, plus, minus)
            q = None if principal else theta_quadratic_form(curve, plus, minus)
        except ValueError as exc:
            raise CliInputError(str(exc))
        return {
            "height": 10,
            "principal": principal,
            "theta_parity": q,
            "label": classify_component(10, q),
        }, EXIT_OK
    if args.torsion is None:
        raise UsageError(f"height {h} needs --torsion (possibly empty)")
    subset = _parse_subset(args.torsion)
    try:
        cls = TwoTorsionClass(2 * (h - 4) + 2, subset)
    except ValueError as exc:
        raise CliInputError(str(exc))
    if h == 8:
        return {
            "height": 8,
            "torsion_subset": sorted(cls.subset),
            "orbit_label": torsion_orbit_label(cls),
            "label": classify_component(8, cls),
        }, EXIT_OK
    return {
        "height": h,
        "torsion_nonzero": not cls.is_zero(),
        "label": classify_component(h, cls),
    }, EXIT_OK


def _cmd_examples_build(args):
    from . import models

    try:
        built = models.build_example(args.name, args.seed)
    except ValueError as exc:
        return {"error": str(exc)}, EXIT_CHECK
    tree = {"name": args.name, "seed": args.seed}
    if isinstance(built, models.ConicBundleExample):
        tree["conic"] = serialize.encode_conic(built.spec)
        tree["discriminant"] = serialize.encode_biform(built.discriminant)
    else:
        tree["family"] = serialize.encode_family(built)
    return tree, EXIT_OK


def _parse_seeds(text: str) -> list[int]:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = (int(p) for p in text.split(".."))
            seeds = range(lo, hi + 1)
        else:
            seeds = [int(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"malformed seed range {text!r}")
    # sized by slicing, so a huge range is refused before any list is built
    if not seeds or seeds[500:]:
        raise UsageError("seed range must contain 1..500 seeds")
    return list(seeds)


def _cmd_examples_verify(args):
    from . import models

    seeds = _parse_seeds(args.seeds)
    results = []
    for name in models.EXAMPLE_NAMES:
        for seed in seeds:
            try:
                results.append(models.verify_example(name, seed))
            except ValueError as exc:
                results.append(
                    {"name": name, "seed": seed, "ok": False, "error": str(exc)}
                )
    ok = all(r["ok"] for r in results)
    return {"ok": ok, "results": results}, (EXIT_OK if ok else EXIT_CHECK)


def _cmd_verify(args):
    from . import checks

    names = None
    if args.only:
        unknown = [n for n in args.only if n not in checks.check_names()]
        if unknown:
            raise UsageError(f"unknown checks: {', '.join(unknown)}")
        names = args.only
    results = checks.run_all(seed=args.seed, names=names)
    rows = []
    for r in results:
        row = {
            "name": r.name,
            "anchor": r.anchor,
            "status": r.status,
            "details": r.details,
        }
        if args.timings:
            row["elapsed"] = round(r.elapsed, 3)
        rows.append(row)
    tree = {
        "seed": args.seed,
        "ok": all(r.status == "pass" for r in results),
        "checks": rows,
    }
    return tree, (EXIT_OK if tree["ok"] else EXIT_CHECK)


# ---------------------------------------------------------------------------
# parser


def _output_flags(p, seed=None):
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )
    if seed is not None:
        p.add_argument("--seed", type=int, default=seed, help="random seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dp4",
        description="Exact arithmetic for quartic Del Pezzo surfaces, their "
        "pencils of quadrics, and one-parameter families over the line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pencil = sub.add_parser("pencil", help="pencils of quadrics on P^4")
    pencil_sub = pencil.add_subparsers(dest="action", required=True)
    pa = pencil_sub.add_parser(
        "analyze",
        help="spectral quintic, degeneracy profile, surface label, moduli point",
    )
    pa.add_argument("--input", required=True, help="JSON file with P and Q")
    _output_flags(pa)
    pa.set_defaults(func=_cmd_pencil_analyze)

    quintic = sub.add_parser("quintic", help="binary quintics")
    quintic_sub = quintic.add_subparsers(dest="action", required=True)
    qi = quintic_sub.add_parser(
        "invariants",
        help="J4, J8, J12, J18, discriminant, stability, weighted moduli point",
    )
    qi.add_argument("--input", required=True, help="JSON file with a degree-5 form")
    _output_flags(qi)
    qi.set_defaults(func=_cmd_quintic_invariants)

    lines_p = sub.add_parser("lines", help="the 16-line configuration")
    lines_sub = lines_p.add_subparsers(dest="action", required=True)
    lr = lines_sub.add_parser(
        "report",
        help="classes, incidence, partitions, symmetry group, golden comparison",
    )
    _output_flags(lr)
    lr.set_defaults(func=_cmd_lines_report)

    family = sub.add_parser("family", help="families over the line")
    family_sub = family.add_subparsers(dest="action", required=True)
    fa = family_sub.add_parser(
        "analyze",
        help="height, spectral class, discriminant degree, genericity",
    )
    fa.add_argument("--input", required=True, help="JSON family file")
    _output_flags(fa)
    fa.set_defaults(func=_cmd_family_analyze)
    fs = family_sub.add_parser(
        "scan-heights", help="admissible twists per even height"
    )
    fs.add_argument("--max", type=int, default=20, help="largest height")
    _output_flags(fs)
    fs.set_defaults(func=_cmd_family_scan)

    classify = sub.add_parser(
        "classify",
        help="monodromy component from height plus torsion datum or theta parity",
    )
    classify.add_argument("--height", type=int, required=True)
    classify.add_argument(
        "--torsion", help='branch subset like "1,2" (empty string for the zero class)'
    )
    classify.add_argument("--quintic", help="plane quintic JSON (height 10)")
    classify.add_argument("--eta", help="two-torsion divisor JSON (height 10)")
    _output_flags(classify)
    classify.set_defaults(func=_cmd_classify)

    examples = sub.add_parser("examples", help="seeded model constructions")
    examples_sub = examples.add_subparsers(dest="action", required=True)
    eb = examples_sub.add_parser("build", help="build one verified instance")
    eb.add_argument("name", choices=EXAMPLE_NAMES)
    _output_flags(eb, seed=1)
    eb.set_defaults(func=_cmd_examples_build)
    ev = examples_sub.add_parser(
        "verify-all", help="rebuild and check every model over a seed range"
    )
    ev.add_argument("--seeds", default="1..5", help='e.g. "1..20" or "1,3,7"')
    _output_flags(ev)
    ev.set_defaults(func=_cmd_examples_verify)

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("suite", choices=("paper-checks",))
    verify.add_argument(
        "--only", nargs="*", help="restrict to these checks (default: all)"
    )
    verify.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock timings (output no longer byte-stable)",
    )
    _output_flags(verify, seed=7)
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        tree, code = args.func(args)
        _emit(tree, args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
