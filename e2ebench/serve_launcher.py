"""Run ``repro serve`` with the benchmark's layer wrappers installed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python e2ebench/serve_launcher.py --port 0 --seed 7

Takes the ``serve`` subcommand's flags, serves until SIGTERM or
``POST /shutdown``, then prints one ``E2EBENCH_TRACE {json}`` line with
every span recorded in the server process.  Span times come from the
shared monotonic clock, so the driver can cut them to its own window.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, dump, install_layers  # noqa: E402

from repro.__main__ import main  # noqa: E402

if __name__ == "__main__":
    tracer = install_layers(Tracer())
    status = main(["serve", *sys.argv[1:]])
    print("E2EBENCH_TRACE " + json.dumps(dump(tracer)), flush=True)
    sys.exit(status)
