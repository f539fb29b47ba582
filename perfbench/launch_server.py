"""Start ``repro.cli serve`` in this process, optionally traced.

Usage (from the checkout root)::

    python3 -u perfbench/launch_server.py [--spans FILE] -- serve --port 0 ...

Everything after ``--`` goes to ``repro.cli.main`` unchanged.  With
``--spans`` the span tracer is installed before the server starts any
thread, and its spans are written to FILE after the server has shut
down (SIGINT stops ``repro serve`` cleanly).
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", default=None, help="write traced spans here on exit")
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="-- then repro CLI arguments")
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    from repro.cli import main as repro_main

    tracer = None
    if args.spans:
        from tracer import SpanTracer

        tracer = SpanTracer()
        tracer.install()
    try:
        return repro_main(cli_args)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
