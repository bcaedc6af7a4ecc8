"""Run one CLI invocation in a fresh interpreter and write its record.

    python3 bench/child.py RECORD.json TRACE -- <mangledworlds arguments>

The package is imported before the clock starts, so ``wall_s`` covers
``cli.run`` alone: argument parsing, the computation and writing the
artifacts.  With TRACE = 1 the layer modules are wrapped by
:class:`tracer.Tracer` before the run and the record carries the span
summary.  ``bench/run.py`` starts this with PYTHONPATH set to the
checkout's ``src``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    record_path, trace, sep, *cli_args = argv
    if sep != "--" or trace not in ("0", "1"):
        print("usage: child.py RECORD.json 0|1 -- ARGS...", file=sys.stderr)
        return 2
    from mangledworlds import cli

    tracer = None
    if trace == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    rc = cli.run(cli_args)
    wall = time.perf_counter() - t0
    record = {
        "rc": rc, "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "package": cli.__file__,
    }
    if tracer is not None:
        record["trace"] = tracer.summary()
    Path(record_path).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
