"""Run one nchardy CLI command with the benchmark tracer installed.

Usage: python benchmark/cli_traced.py SPAN_FILE COMMAND [ARGS...]

Behaves like ``python -m nchardy.cli COMMAND [ARGS...]`` (same output,
same exit code) and writes the spans and counters it recorded to
SPAN_FILE when the command ends.
"""

import json
import sys

from tracer import Tracer


def main():
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install(with_cli=True)
    from nchardy.cli import main as cli_main

    code = 0
    tracer.active = True
    rec = tracer.begin("cli.main", "cli")
    try:
        cli_main.main(args=argv, prog_name="nchardy")
    except SystemExit as exc:
        code = exc.code or 0
    finally:
        tracer.end(rec)
        tracer.active = False
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
