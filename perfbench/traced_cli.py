"""``python -m rootneg.cli`` with spans recorded, for the traced cold_cli run.

Usage: traced_cli.py SPANS_PATH ARGV...  Runs the CLI on ARGV with stdout and
the exit code unchanged, then writes the span dump as JSON to SPANS_PATH.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import rootneg.cli

    tracer = Tracer()
    tracer.install()
    code = rootneg.cli.run(argv)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
