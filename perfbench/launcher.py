"""Traced cold_cli launcher: imports dp4.cli under an ``import`` span,
installs the tracer's wrappers, then runs ``dp4.cli.main(argv)``.

    launcher.py SPANS_FILE ITEM_ID -- <dp4 cli arguments>

The spans are written to SPANS_FILE when the command ends; the exit code is
the CLI's.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, item = sys.argv[1], int(sys.argv[2])
    argv = sys.argv[4:]
    tracer = Tracer()
    tracer.item = item
    with tracer.span("import"):
        import dp4.cli
    tracer.install()
    try:
        return dp4.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
