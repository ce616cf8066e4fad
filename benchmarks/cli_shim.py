"""A traced CLI process for cli_mix: `python -X importtime cli_shim.py SPANS ARGS...`.

Runs `propertime.cli.main(ARGS)` with the same wrappers the in-process
workloads use and writes the spans to SPANS as JSON when main returns.
The import of propertime.cli is timed by -X importtime, not by a span.
"""

import json
import sys

import propertime.cli

from tracing import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        return propertime.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"names": tracer.names, "spans": tracer.spans,
                       "errors": dict(tracer.errors)}, fh)


if __name__ == "__main__":
    sys.exit(main())
