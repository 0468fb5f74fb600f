"""Mutation sweep over the fast exact paths of src/dp4.

    python tests/mutants.py [mutant name ...]

Each mutant below is one small textual replacement in one file of src/dp4
(a dropped sign, factor or check, an off-by-one, a flipped branch) on a
path that a slower exact oracle or a property test should guard.  For
each, src, tests, perfbench and pyproject.toml are copied to a temporary
directory, the mutant is applied to the copy, and pytest runs there on the
test functions whose source names the mutated function.  A mutant is
killed when pytest fails.  The survivors are listed at the end, and the
exit status is 1 when any survives.  The file name keeps pytest from
collecting it.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file under src/dp4, function named by the tests to run, old, new)
MUTANTS = [
    (
        "drop the d < 0 flip",
        "linalg.py",
        "kernel_basis",
        "    if d < 0:\n        d, rows =",
        "    if False:\n        d, rows =",
    ),
    (
        "skip the gcd division",
        "linalg.py",
        "kernel_basis",
        "    g = math.gcd(*(x for v in basis for x in v)) or d\n",
        "    g = 1\n",
    ),
    (
        "forward elimination only",
        "linalg.py",
        "kernel_basis",
        "pivots, d, _ = _bareiss(rows, True)",
        "pivots, d, _ = _bareiss(rows, False)",
    ),
    (
        "+rows[i][j] at the pivots",
        "linalg.py",
        "kernel_basis",
        "v[p] = -rows[i][j]",
        "v[p] = +rows[i][j]",
    ),
    (
        "grams without / D",
        "pencils.py",
        "blowup_from_quintic",
        "g[i][i] = Fraction(q, d)",
        "g[i][i] = Fraction(q)",
    ),
    (
        "grams without / D off the diagonal",
        "pencils.py",
        "blowup_from_quintic",
        "g[i][j] = g[j][i] = Fraction(q, 2 * d)",
        "g[i][j] = g[j][i] = Fraction(q, 2)",
    ),
    (
        "rank < 1 in families",
        "families.py",
        "family_from_linear_plus_quadrics",
        "if linalg.rank([alpha, beta]) < 2:",
        "if linalg.rank([alpha, beta]) < 1:",
    ),
    (
        "no length check in _solve_with_mix",
        "plane_quintic.py",
        "_solve_with_mix",
        "    if len(kern) != len(kmix) + 1:\n",
        "    if False:\n",
    ),
    (
        "transvectant without the (-1)^k sign",
        "quintic.py",
        "transvectant",
        "sign = (-1) ** k * math.comb(r, k)",
        "sign = math.comb(r, k)",
    ),
    (
        "perm(i + 1, k) in the transvectant",
        "quintic.py",
        "transvectant",
        "math.perm(i, k)",
        "math.perm(i + 1, k)",
    ),
    (
        "transvectant without the classical scale",
        "quintic.py",
        "transvectant",
        "f.den * g.den).scale(scale)",
        "f.den * g.den)",
    ),
    (
        "J18^2 check without its 15625 factor",
        "quintic.py",
        "invariants",
        "if total != 15625 * j18 * j18:",
        "if total != j18 * j18:",
    ),
    (
        "J18 cleared with weight 8",
        "quintic.py",
        "invariants",
        "zip(values, (2, 4, 6, 9))",
        "zip(values, (2, 4, 6, 8))",
    ),
    (
        "j18 for j18 * j18 in the check",
        "quintic.py",
        "invariants",
        "if total != 15625 * j18 * j18:",
        "if total != 15625 * j18:",
    ),
]


def tests_naming(function: str) -> list[str]:
    """Node ids of the test functions in tests/test_*.py whose source
    contains the function's name."""
    ids = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        source = path.read_text()
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
                if function in ast.get_source_segment(source, node):
                    ids.append(f"tests/{path.name}::{node.name}")
    return ids


def killed(mutant, workdir: Path) -> bool:
    name, filename, function, old, new = mutant
    for part in ("src", "tests", "perfbench"):
        shutil.rmtree(workdir / part, ignore_errors=True)
        shutil.copytree(ROOT / part, workdir / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", workdir)
    target = workdir / "src" / "dp4" / filename
    source = target.read_text()
    if source.count(old) != 1:
        raise SystemExit(f"mutant {name!r}: its text is not found once in {filename}")
    target.write_text(source.replace(old, new))
    ids = tests_naming(function)
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids],
        cwd=workdir, env=env, capture_output=True, text=True,
    )
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else proc.stderr.strip()
    verdict = "killed " if proc.returncode else "SURVIVED"
    print(f"{verdict}  {name}  ({len(ids)} tests: {last})", flush=True)
    return proc.returncode != 0


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    with tempfile.TemporaryDirectory() as tmp:
        survivors = [m[0] for m in chosen if not killed(m, Path(tmp))]
    print("survivors:", ", ".join(survivors) if survivors else "none")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
