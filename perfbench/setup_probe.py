"""Fresh interpreter to ready: import dp4.cli, then the first
``quintic.invariants`` call, which runs the lazy syzygy fit.

Run as a script it prints ``ready`` the moment that is done (the
orchestrator times the process from spawn to that line), then one JSON line
with the sympy version and ground types, read only after dp4 imported sympy.
"""

from __future__ import annotations

import json
import sys

READY_QUINTIC = (1, 2, 3, 4, 5, 7)


def ready() -> None:
    import dp4.cli  # noqa: F401  (the import is the measured work)
    from fractions import Fraction

    from dp4.binforms import BinaryForm
    from dp4.quintic import invariants

    invariants(BinaryForm(5, tuple(Fraction(c) for c in READY_QUINTIC)))


def sympy_stamp() -> dict:
    """sympy version and ground types; sympy is already imported by dp4."""
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    return {"sympy": sympy.__version__, "ground_types": GROUND_TYPES}


if __name__ == "__main__":
    ready()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    sys.stdout.write(json.dumps(sympy_stamp()) + "\n")
