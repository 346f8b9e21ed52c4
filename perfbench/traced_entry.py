"""Run one qcount CLI call with spans around the program's layers.

    python perfbench/traced_entry.py SPANS_OUT CALL_ID SUBCOMMAND [ARGS...]

Behaves like `python -m qcount.cli SUBCOMMAND [ARGS...]`: the record on
stdout and the exit code are the program's own.  The import of the CLI is
timed before anything of the benchmark is loaded, and the spans go to
SPANS_OUT as JSON when the call ends.
"""

import sys
import time

_start = time.perf_counter()
import qcount.cli  # noqa: E402

_import_s = time.perf_counter() - _start

from tracer import Tracer  # noqa: E402


def main() -> int:
    out, call_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer(call_id)
    tracer.install()
    try:
        return qcount.cli.run(argv)
    finally:
        tracer.dump(out, _import_s)


if __name__ == "__main__":
    sys.exit(main())
