"""Run one mvstab command with spans recorded around its layer calls.

    python3 bench/traced_cli.py TRACE.json <mvstab arguments...>

The command runs exactly as ``python3 -m mvstab.cli <arguments...>``
would; the spans and counters land in TRACE.json when it ends.  mvstab
must be importable (``PYTHONPATH=src``).
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    rec = tracer.Tracer()
    tracer.install(rec)
    from mvstab import cli
    code = cli.main(argv)
    rec.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
