"""Run one springswim CLI command with span tracing and write its spans as JSON.

Usage: python3 bench/cli_child.py SPANS_JSON SUBCOMMAND [ARG ...]

The whole ``cli.main`` call is the top span "cli.main"; its self time is
what the CLI spends outside the traced library calls (argument parsing,
formatting and writing). Exits with the CLI's own exit code.
"""

import sys

import tracing
from common import import_package


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import_package()
    from springswim import cli

    tracer = tracing.Tracer()
    try:
        with tracing.installed(tracer):
            return tracer.call("cli.main", cli.main, argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
