"""Run one ``dualct`` CLI stage with the layer tracer installed.

    python3 perfbench/stage.py SPANS_OUT <dualct arguments...>

Run from the repository root. Behaves like ``python3 -m dualct.cli`` and
writes the stage's spans to SPANS_OUT when it ends.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import dualct.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return dualct.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
