"""Cold command-line entry point: ``python3 perfbench/cli_entry.py [--trace] <cli args>``.

Runs ``fountain_lab.cli.main`` from the checkout's ``src/`` in a fresh
interpreter, as a user's ``fountain-lab`` call would.  With ``--trace`` it
first installs the span wrappers, and after the call prints the collected
stats as one JSON line on standard output for the parent benchmark to merge.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv: list[str]) -> int:
    trace = bool(argv) and argv[0] == "--trace"
    if trace:
        argv = argv[1:]
    sys.path.insert(0, SRC)
    from fountain_lab import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"fountain_lab imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if not trace:
        return cli.main(argv)

    import json

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing

    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        code = cli.main(argv)
    finally:
        tracing.uninstall(patches)
    print(json.dumps(tracer.export()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
