"""Command-line surface: exit codes, JSON shapes, determinism, input
validation, and the golden-file override."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from dp4 import cli, models, serialize
from dp4.binforms import BinaryForm
from dp4.cli import main
from dp4.pencils import blowup_from_quintic
from dp4.plane_quintic import PlaneQuintic, monomials, pencil_fixture, quadrilateral_fixture

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, (json.loads(out) if out.strip() else None), err


def write_json(path, tree):
    path.write_text(serialize.dumps_canonical(tree))
    return str(path)


@pytest.fixture
def pencil_file(tmp_path):
    P = [["1" if i == j else "0" for j in range(5)] for i in range(5)]
    Q = [[str(i) if i == j else "0" for j in range(5)] for i in range(5)]
    return write_json(tmp_path / "pencil.json", {"type": "pencil", "P": P, "Q": Q})


@pytest.fixture
def quintic_file(tmp_path):
    f = BinaryForm.from_roots([0, 1, 2, 3, 4])
    return write_json(tmp_path / "quintic.json", serialize.encode_form(f))


def test_no_arguments_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_pencil_analyze(capsys, pencil_file):
    code, tree, _ = run_json(capsys, "pencil", "analyze", "--input", pencil_file)
    assert code == 0
    assert tree["label"] == "smooth"
    assert len(tree["profile"]) == 5
    assert "moduli_point" in tree["quintic"]


def test_pencil_analyze_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "pencil", "analyze", "--input", str(tmp_path / "none.json"))
    assert code == 3
    assert err


def test_pencil_analyze_degenerate(capsys, tmp_path):
    zero = [["0"] * 5 for _ in range(5)]
    path = write_json(tmp_path / "zero.json", {"type": "pencil", "P": zero, "Q": zero})
    code, tree, _ = run_json(capsys, "pencil", "analyze", "--input", path)
    assert code == 1
    assert "error" in tree


def test_pencil_analyze_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "pencil", "analyze", "--input", str(path))
    assert code == 3


def test_quintic_invariants(capsys, quintic_file):
    code, tree, _ = run_json(capsys, "quintic", "invariants", "--input", quintic_file)
    assert code == 0
    assert set(tree) >= {"J4", "J8", "J12", "J18", "discriminant", "stability", "moduli_point"}
    assert tree["stability"] == "all-simple"


def test_quintic_invariants_kernel_beyond_bound_exits_3(capsys, tmp_path):
    # x^5 + a x y^4 has J4 = 0 and J8 = -8000 a^5; with a the product of two
    # primes above the trial-division bound the square kernel is refused
    a = 1000003 * 10000019
    f = BinaryForm(5, tuple(F(c) for c in (1, 0, 0, 0, a, 0)))
    path = write_json(tmp_path / "quintic.json", serialize.encode_form(f))
    start = time.perf_counter()
    code, out, err = run(capsys, "quintic", "invariants", "--input", path)
    assert time.perf_counter() - start < 5
    assert code == cli.EXIT_INPUT == 3
    assert out == ""
    assert "cannot compute the square kernel" in err


def test_quintic_invariants_prime_power_kernel(capsys, tmp_path):
    # with a = 1000003, a prime above the trial-division bound, J8 = -8000 a^5
    # leaves the cofactor a^5, a prime power, so the square kernel is 5a
    f = BinaryForm(5, tuple(F(c) for c in (1, 0, 0, 0, 1000003, 0)))
    path = write_json(tmp_path / "quintic.json", serialize.encode_form(f))
    code, tree, _ = run_json(capsys, "quintic", "invariants", "--input", path)
    assert code == 0
    assert tree["moduli_point"] == {"coords": ["0", "-5000015", "0"], "normalized": "J8"}


def test_quintic_invariants_prints_huge_values_in_full(capsys, tmp_path):
    # a = 10^1000 gives J8 = -8000 a^5 = -8 * 10^5003, above CPython's limit
    # of 4300 digits for str() of an int; an input coefficient above that
    # limit is still refused
    f = BinaryForm(5, tuple(F(c) for c in (1, 0, 0, 0, 10**1000, 0)))
    path = write_json(tmp_path / "quintic.json", serialize.encode_form(f))
    code, tree, err = run_json(capsys, "quintic", "invariants", "--input", path)
    assert code == 0, err
    assert tree["J8"] == "-8" + "0" * 5003
    assert tree["moduli_point"] == {"coords": ["0", "-5", "0"], "normalized": "J8"}
    huge = {"degree": 5, "coeffs": ["1", "0", "0", "0", "1" + "0" * 4400, "0"]}
    path = write_json(tmp_path / "huge.json", huge)
    code, out, err = run(capsys, "quintic", "invariants", "--input", path)
    assert code == cli.EXIT_INPUT == 3
    assert out == ""
    assert err.startswith("error: ") and "internal" not in err


def test_quintic_invariants_wrong_degree(capsys, tmp_path):
    f = BinaryForm.from_roots([0, 1, 2])
    path = write_json(tmp_path / "cubic.json", serialize.encode_form(f))
    code, _, err = run(capsys, "quintic", "invariants", "--input", path)
    assert code == 3


@pytest.mark.parametrize(
    "tree",
    [
        {"degree": "5", "coeffs": ["1", "0", "0", "0", "0", "1"]},
        {"degree": 5.0, "coeffs": ["1", "0", "0", "0", "0", "1"]},
        {"degree": 5, "coeffs": ["1", "0", "0", "0", "0", "1e10000000"]},
        {"degree": 5, "coeffs": "100001"},
    ],
)
def test_quintic_invariants_malformed_input(capsys, tmp_path, tree):
    path = write_json(tmp_path / "bad.json", tree)
    code, out, err = run(capsys, "quintic", "invariants", "--input", path)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "internal" not in err
    assert len(err.strip().splitlines()) == 1


def test_lines_report(capsys):
    code, tree, _ = run_json(capsys, "lines", "report")
    assert code == 0
    assert tree["group_order"] == 1920
    assert tree["matches_golden"] is True


def test_lines_report_golden_override(capsys, tmp_path, monkeypatch):
    bogus = tmp_path / "lines_golden.json"
    bogus.write_text(json.dumps({"group_order": 1}))
    monkeypatch.setenv("DP4_GOLDEN_DIR", str(tmp_path))
    code, tree, _ = run_json(capsys, "lines", "report")
    assert code == 1
    assert tree["matches_golden"] is False


@pytest.mark.parametrize(
    "text, message", [("{not json", "is not valid JSON"), (None, "cannot read")]
)
def test_lines_report_unreadable_golden_exits_3(capsys, tmp_path, monkeypatch, text, message):
    if text is not None:
        (tmp_path / "lines_golden.json").write_text(text)
    monkeypatch.setenv("DP4_GOLDEN_DIR", str(tmp_path))
    code, out, err = run(capsys, "lines", "report")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_family_analyze_accepts_build_output(capsys, tmp_path):
    code, built, _ = run_json(capsys, "examples", "build", "h10_ci", "--seed", "1")
    assert code == 0
    path = write_json(tmp_path / "fam.json", built)
    code2, tree, _ = run_json(capsys, "family", "analyze", "--input", path)
    assert code2 == 0
    assert tree["height"] == 10
    assert tree["genus"] == 6
    assert tree["discriminant_degree"] == 20
    assert tree["g1_prime"] is True
    assert tree["spectral_class"]["alpha"] == 5


def test_family_analyze_bare_family(capsys, tmp_path):
    code, built, _ = run_json(capsys, "examples", "build", "h8_ci", "--seed", "1")
    path = write_json(tmp_path / "fam8.json", built["family"])
    code2, tree, _ = run_json(capsys, "family", "analyze", "--input", path)
    assert code2 == 0
    assert tree["height"] == 8
    assert tree["discriminant_degree"] == 16


def test_family_analyze_degenerate(capsys, tmp_path):
    # row and column 4 of both matrices zeroed: the file still decodes, but
    # det(u*A1 + v*A2) vanishes identically
    code, built, _ = run_json(capsys, "examples", "build", "h8_ci", "--seed", "3")
    assert code == 0
    zero = {"coeffs": ["0"], "degree": 0}
    for name in ("A1", "A2"):
        a = built["family"][name]
        for i in range(5):
            a[i][4] = a[4][i] = zero
    path = write_json(tmp_path / "degenerate.json", built)
    code, out, _ = run(capsys, "family", "analyze", "--input", path)
    assert code == 1
    assert json.loads(out) == {"error": "generically degenerate family"}


def test_family_analyze_malformed(capsys, tmp_path):
    path = write_json(tmp_path / "bad.json", {"type": "family", "d": [0]})
    code, _, err = run(capsys, "family", "analyze", "--input", path)
    assert code == 3


@pytest.mark.parametrize("m", [1000, 10**9])
def test_family_analyze_oversized_degrees_rejected(capsys, tmp_path, m):
    from test_family import oversized_family_tree

    path = write_json(tmp_path / "big.json", oversized_family_tree(m, 5))
    code, out, err = run(capsys, "family", "analyze", "--input", path)
    assert code == 3
    assert out == ""
    assert err.startswith("error:")
    assert "entries reach degree 0" in err


def test_family_scan_heights(capsys):
    code, tree, _ = run_json(capsys, "family", "scan-heights", "--max", "12")
    assert code == 0
    rows = {entry["height"]: entry for entry in tree["heights"]}
    assert rows[2]["reduced"] == []
    assert rows[6]["irreducible"] == []
    assert len(rows[10]["irreducible"]) == 1
    assert rows[10]["irreducible"][0]["a"] == -3


def test_family_scan_heights_bad_max(capsys):
    code, _, _ = run(capsys, "family", "scan-heights", "--max", "999")
    assert code == 2


def test_classify_low_heights_empty(capsys):
    for h in ("0", "4", "6"):
        code, tree, _ = run_json(capsys, "classify", "--height", h)
        assert code == 0
        assert tree["label"] == "empty"


def test_classify_h8_orbits(capsys):
    code, tree, _ = run_json(capsys, "classify", "--height", "8", "--torsion", "1,2")
    assert code == 0
    assert tree["orbit_label"] == 1
    assert tree["label"] == "W-component-A"
    code, tree, _ = run_json(capsys, "classify", "--height", "8", "--torsion", "1,2,3,4")
    assert tree["label"] == "W-component-B"
    code, tree, _ = run_json(capsys, "classify", "--height", "8", "--torsion", "")
    assert tree["label"] == "S5-only"


def test_classify_h8_requires_torsion(capsys):
    code, _, _ = run(capsys, "classify", "--height", "8")
    assert code == 2


def test_classify_h8_odd_subset_rejected(capsys):
    code, _, err = run(capsys, "classify", "--height", "8", "--torsion", "1,2,3")
    assert code == 3


def test_classify_h10_parity_zero(capsys, tmp_path):
    fx = pencil_fixture()
    curve = write_json(tmp_path / "curve.json", serialize.encode_curve(fx.curve))
    plus, minus = fx.eta(0, 1)
    eta = write_json(tmp_path / "eta.json", {
        "plus": serialize.encode_divisor(plus),
        "minus": serialize.encode_divisor(minus),
    })
    code, tree, _ = run_json(
        capsys, "classify", "--height", "10", "--quintic", curve, "--eta", eta
    )
    assert code == 0
    assert tree["principal"] is False
    assert tree["theta_parity"] == 0
    assert tree["label"] == "W-component-A"


def test_classify_h10_parity_one(capsys, tmp_path):
    fx = quadrilateral_fixture()
    curve = write_json(tmp_path / "curve.json", serialize.encode_curve(fx.curve))
    plus, minus = fx.eta("12|34")
    eta = write_json(tmp_path / "eta.json", {
        "plus": serialize.encode_divisor(plus),
        "minus": serialize.encode_divisor(minus),
    })
    code, tree, _ = run_json(
        capsys, "classify", "--height", "10", "--quintic", curve, "--eta", eta
    )
    assert code == 0
    assert tree["theta_parity"] == 1
    assert tree["label"] == "W-component-B"


def test_classify_h10_trivial_class(capsys, tmp_path):
    fx = pencil_fixture()
    curve = write_json(tmp_path / "curve.json", serialize.encode_curve(fx.curve))
    eta = write_json(tmp_path / "eta.json", {"plus": [], "minus": []})
    code, tree, _ = run_json(
        capsys, "classify", "--height", "10", "--quintic", curve, "--eta", eta
    )
    assert code == 0
    assert tree["principal"] is True
    assert tree["label"] == "S5-only"


def test_classify_h10_non_torsion_rejected(capsys, tmp_path):
    fx = pencil_fixture()
    curve = write_json(tmp_path / "curve.json", serialize.encode_curve(fx.curve))
    (a1, b1), (a2, _) = fx.pairs[0], fx.pairs[1]
    eta = write_json(tmp_path / "eta.json", {
        "plus": serialize.encode_divisor([(a1, 1), (b1, 1)]),
        "minus": serialize.encode_divisor([(a2, 1), (fx.center, 1)]),
    })
    code, _, err = run(
        capsys, "classify", "--height", "10", "--quintic", curve, "--eta", eta
    )
    assert code == 3
    assert "not 2-torsion" in err


def test_classify_h10_uncertified_curve_exits_3(capsys, tmp_path):
    # x y z^3 + x^5 + y^5 has a node at (0 : 0 : 1): no parity is reported
    terms = {(1, 1, 3): 1, (5, 0, 0): 1, (0, 5, 0): 1}
    node = PlaneQuintic(tuple(F(terms.get(m, 0)) for m in monomials(5)))
    curve = write_json(tmp_path / "curve.json", serialize.encode_curve(node))
    eta = write_json(tmp_path / "eta.json", {"plus": [], "minus": []})
    code, out, err = run(
        capsys, "classify", "--height", "10", "--quintic", curve, "--eta", eta
    )
    assert code == cli.EXIT_INPUT == 3
    assert out == ""
    assert err == "error: cannot certify that the curve is smooth\n"


def test_classify_h10_requires_files(capsys):
    code, _, _ = run(capsys, "classify", "--height", "10")
    assert code == 2


def test_classify_h12_torsion_presence(capsys):
    code, tree, _ = run_json(capsys, "classify", "--height", "12", "--torsion", "1,2")
    assert code == 0
    assert tree["torsion_nonzero"] is True
    assert tree["label"] == "W-single"
    code, tree, _ = run_json(capsys, "classify", "--height", "12", "--torsion", "")
    assert tree["label"] == "S5-only"


def test_classify_odd_height_rejected(capsys):
    code, _, _ = run(capsys, "classify", "--height", "9")
    assert code == 3


def test_examples_build_deterministic(capsys):
    code1, out1, _ = run(capsys, "examples", "build", "h8_conic", "--seed", "2")
    code2, out2, _ = run(capsys, "examples", "build", "h8_conic", "--seed", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run(capsys, "examples", "build", "h8_conic", "--seed", "3")
    assert out3 != out1


def test_examples_build_unknown_name(capsys):
    code, _, _ = run(capsys, "examples", "build", "h99_无", "--seed", "1")
    assert code == 2


def test_examples_build_conic_shape(capsys):
    code, tree, _ = run_json(capsys, "examples", "build", "h8_conic", "--seed", "1")
    assert code == 0
    assert tree["conic"]["type"] == "conic-bundle"
    # degree 5 along the fiber line, 2 along the base line
    assert tree["discriminant"]["bidegree"] == [5, 2]


def test_examples_verify_all(capsys):
    code, tree, _ = run_json(capsys, "examples", "verify-all", "--seeds", "1,2")
    assert code == 0
    assert len(tree["results"]) == 8
    assert all(item["ok"] for item in tree["results"])


def test_examples_verify_bad_seed_range(capsys):
    code, _, _ = run(capsys, "examples", "verify-all", "--seeds", "0..1000")
    assert code == 2


@pytest.mark.parametrize("seeds", ["1..1000000000000", "1..10" + "0" * 30])
def test_examples_verify_huge_seed_range_is_usage_error(capsys, seeds):
    code, out, err = run(capsys, "examples", "verify-all", "--seeds", seeds)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: seed range must contain 1..500 seeds"]


def test_verify_subset(capsys):
    code, tree, _ = run_json(
        capsys, "verify", "paper-checks", "--only", "height-bounds", "chern-identity",
        "--seed", "7",
    )
    assert code == 0
    names = [c["name"] for c in tree["checks"]]
    assert names == ["height-bounds", "chern-identity"]
    assert all(c["status"] == "pass" for c in tree["checks"])


def test_verify_unknown_check_rejected(capsys):
    code, _, _ = run(capsys, "verify", "paper-checks", "--only", "nonexistent")
    assert code == 2


def test_verify_byte_deterministic_without_timings(capsys):
    args = ("verify", "paper-checks", "--only", "height-bounds", "--seed", "7")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert "elapsed" not in out1


def test_verify_timings_flag(capsys):
    code, tree, _ = run_json(
        capsys, "verify", "paper-checks", "--only", "height-bounds", "--timings"
    )
    assert code == 0
    assert "elapsed" in tree["checks"][0]


def test_output_to_file(capsys, tmp_path, quintic_file):
    out = tmp_path / "result.json"
    code, stdout, _ = run(
        capsys, "quintic", "invariants", "--input", quintic_file, "--out", str(out)
    )
    assert code == 0
    assert stdout == ""
    tree = json.loads(out.read_text())
    assert tree["stability"] == "all-simple"


def test_unwritable_output_path_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(
        capsys, "family", "scan-heights", "--max", "4", "--out", str(target)
    )
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: cannot write {target}: ")
    assert not target.exists()


def test_text_format(capsys, quintic_file):
    code, out, _ = run(
        capsys, "quintic", "invariants", "--input", quintic_file, "--format", "text"
    )
    assert code == 0
    assert "stability: all-simple" in out


def test_data_commands_byte_deterministic(capsys):
    code1, out1, _ = run(capsys, "family", "scan-heights", "--max", "20")
    code2, out2, _ = run(capsys, "family", "scan-heights", "--max", "20")
    assert out1 == out2
    code3, out3, _ = run(capsys, "lines", "report")
    code4, out4, _ = run(capsys, "lines", "report")
    assert out3 == out4


@pytest.mark.parametrize("exc", [RuntimeError("boom"), ZeroDivisionError("x / 0")])
def test_internal_error_exit_code(capsys, monkeypatch, exc):
    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_lines_report", broken)
    code, out, err = run(capsys, "lines", "report")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == f"error: internal: {type(exc).__name__}: {exc}\n"


SYMPY_FREE_SCRIPT = """
import contextlib, io, json, sys
sys.modules["sympy"] = None  # any import of sympy now fails
from dp4.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
loaded = [k for k, v in sys.modules.items() if k.split(".")[0] == "sympy" and v is not None]
print(json.dumps([codes, loaded]))
"""


def test_pipeline_commands_run_without_sympy(tmp_path):
    # every command runs on dp4's own arithmetic: factoring over Q, the
    # symbolic identities of verify paper-checks and the smoothness
    # certificate of classify --height 10 never import sympy
    random_pencil = {
        "type": "pencil",
        "P": [["1" if i == j else "0" for j in range(5)] for i in range(5)],
        # an irreducible spectral quintic
        "Q": [
            [str(c) for c in row]
            for row in [[-2, 1, 3, 3, 3], [1, -3, -1, -3, 0], [3, -1, 3, 0, 0],
                        [3, -3, 0, 2, 0], [3, 0, 0, 0, 3]]
        ],
    }
    _, double_root = blowup_from_quintic([F(0), F(0), F(1), F(2), F(3)])
    pencils = [
        write_json(tmp_path / "random.json", random_pencil),
        write_json(tmp_path / "double.json", serialize.encode_pencil(double_root)),
    ]
    builds = {name: str(tmp_path / f"{name}.json") for name in models.EXAMPLE_NAMES}
    argvs = [["examples", "build", name, "--out", out] for name, out in builds.items()]
    argvs.append(["family", "analyze", "--input", builds["h10_ci"]])
    argvs += [["pencil", "analyze", "--input", p] for p in pencils]
    argvs.append(["examples", "verify-all", "--seeds", "1..2"])
    argvs += [["verify", "paper-checks"], ["lines", "report"],
              ["family", "scan-heights", "--max", "20"],
              ["classify", "--height", "8", "--torsion", "1,2"],
              ["classify", "--height", "12", "--torsion", ""]]
    for name, fx, (plus, minus) in (
        ("pencil", pencil_fixture(), pencil_fixture().eta(0, 1)),
        ("quadrilateral", quadrilateral_fixture(), quadrilateral_fixture().eta("12|34")),
    ):
        curve = write_json(tmp_path / f"{name}_curve.json", serialize.encode_curve(fx.curve))
        eta = write_json(tmp_path / f"{name}_eta.json", {
            "plus": serialize.encode_divisor(plus),
            "minus": serialize.encode_divisor(minus),
        })
        argvs.append(["classify", "--height", "10", "--quintic", curve, "--eta", eta])
    quintic = BinaryForm(5, tuple(F(c) for c in (1, 0, 0, 0, 1000003, 0)))
    argvs.append(["quintic", "invariants", "--input",
                  write_json(tmp_path / "quintic.json", serialize.encode_form(quintic))])
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", SYMPY_FREE_SCRIPT, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert codes == [0] * len(argvs), proc.stderr
    assert loaded == []


SRC = Path(__file__).resolve().parents[1] / "src"


def dp4_process(*argv):
    """`python -m dp4.cli argv` in a fresh interpreter, at 80 columns."""
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    return subprocess.run(
        [sys.executable, "-m", "dp4.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


DP4_HELP = """\
usage: dp4 [-h] {pencil,quintic,lines,family,classify,examples,verify} ...

Exact arithmetic for quartic Del Pezzo surfaces, their pencils of quadrics,
and one-parameter families over the line.

positional arguments:
  {pencil,quintic,lines,family,classify,examples,verify}
    pencil              pencils of quadrics on P^4
    quintic             binary quintics
    lines               the 16-line configuration
    family              families over the line
    classify            monodromy component from height plus torsion datum or
                        theta parity
    examples            seeded model constructions
    verify              run verification suites

options:
  -h, --help            show this help message and exit
"""

EXAMPLES_BUILD_USAGE = """\
usage: dp4 examples build [-h] [--out OUT] [--format {json,text}]
                          [--seed SEED]
                          {h8_ci,h8_conic,h10_ci,h10_bundle}
"""

EXAMPLES_BUILD_HELP = EXAMPLES_BUILD_USAGE + """
positional arguments:
  {h8_ci,h8_conic,h10_ci,h10_bundle}

options:
  -h, --help            show this help message and exit
  --out OUT             write the report here instead of stdout
  --format {json,text}  output format
  --seed SEED           random seed
"""


def test_parser_example_names_are_the_models_names():
    assert cli.EXAMPLE_NAMES == models.EXAMPLE_NAMES


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["--help"], 0, DP4_HELP, ""),
        (["examples", "build", "--help"], 0, EXAMPLES_BUILD_HELP, ""),
        (
            ["examples", "build", "nosuch"],
            2,
            "",
            EXAMPLES_BUILD_USAGE
            + "dp4 examples build: error: argument name: invalid choice: 'nosuch' "
            "(choose from 'h8_ci', 'h8_conic', 'h10_ci', 'h10_bundle')\n",
        ),
    ],
)
def test_help_and_usage_text_frozen(argv, code, out, err):
    proc = dp4_process(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


FOOTPRINT_SCRIPT = """
import contextlib, io, json, sys
from dp4.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(k for k in sys.modules if k.startswith("dp4."))]))
"""


def test_commands_load_only_the_modules_they_use(tmp_path, pencil_file, quintic_file):
    # each command in a fresh interpreter: checks, models, lines and
    # monodromy load only in the handlers that use them
    family = str(tmp_path / "family.json")
    assert main(["examples", "build", "h8_ci", "--out", family]) == 0
    argvs = [
        ["lines", "report"],
        ["quintic", "invariants", "--input", quintic_file],
        ["pencil", "analyze", "--input", pencil_file],
        ["family", "analyze", "--input", family],
        ["family", "scan-heights", "--max", "8"],
        ["classify", "--height", "8", "--torsion", "1,2"],
        ["examples", "build", "h8_conic"],
        ["examples", "verify-all", "--seeds", "1"],
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    loaded = {}
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-c", FOOTPRINT_SCRIPT, json.dumps(argv)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout)
        assert code == 0, argv
        loaded[" ".join(argv[:2])] = set(modules)
    for command, modules in loaded.items():
        assert ("dp4.models" in modules) == command.startswith("examples"), command
        assert ("dp4.lines" in modules) == command.startswith("lines"), command
        assert ("dp4.monodromy" in modules) == command.startswith("classify"), command
        assert "dp4.checks" not in modules, command
    assert "dp4.biforms" not in loaded["quintic invariants"]
