"""`modalkit` command line with every layer traced.

    python bench/traced_cli.py SPANS_FILE VERB [ARGS...]

Runs the same ``modalkit.cli.run`` as ``python -m modalkit.cli`` under one
root span, with argument parsing in its own spans (``cli.build_parser`` and
``cli.parse_args``), and writes the spans to SPANS_FILE whatever the outcome.
"""

import argparse
import sys

from spans import Tracer


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    argparse.ArgumentParser.parse_args = tracer.span(
        "cli.parse_args", argparse.ArgumentParser.parse_args)
    cli = sys.modules["modalkit.cli"]
    try:
        code = tracer.run_op(cli.run, argv)
        sys.stdout.flush()
    finally:
        tracer.write(spans_file)
    sys.exit(code)


if __name__ == "__main__":
    main()
