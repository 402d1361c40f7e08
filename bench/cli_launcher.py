"""Run one `gamelab` command with the benchmark's tracing wrappers installed.

    PYTHONPATH=src python bench/cli_launcher.py TRACE_OUT ARGS...

Installs the same wrappers as the in-process traced runs, calls
`gamelab.cli.main(ARGS)`, writes the span totals to TRACE_OUT as JSON and
exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys

from tracing import Tracer, install_cli


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install_cli(tracer)
    from gamelab import cli

    frame = tracer.open("cli.main")
    try:
        return cli.main(argv)
    finally:
        tracer.close(frame)
        with open(out, "w") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main())
