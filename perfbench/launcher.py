"""Server launcher: import, report, wait for the go signal, run ``repro serve``.

Protocol with the generator, one line each on stdout/stdin:

1. the launcher imports ``repro.cli`` and the server modules ``serve``
   would import lazily, then prints ``imported <seconds>``;
2. it blocks until stdin delivers ``go`` -- the generator starts the
   ``setup_s`` clock as it sends it, so interpreter start and imports
   never count as set-up;
3. it hands control to ``repro.cli.main(["serve", ...])``, which prints
   ``serving on HOST:PORT`` once recovery and bind are done, and returns
   after the SIGTERM drain.

With ``--trace-out PATH`` the server-side trace points are installed
before step 1 ends, and the spans are written to ``PATH`` as JSON when
``main`` returns.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    start = time.perf_counter()
    import repro.cli
    import repro.server.persistence  # noqa: F401  (imported lazily by serve)
    import repro.server.server  # noqa: F401

    recorder = None
    if trace_out is not None:
        from perfbench.spans import Recorder
        from perfbench.tracepoints import install_server

        recorder = Recorder()
        install_server(recorder)
    print(f"imported {time.perf_counter() - start!r}", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 2
    code = repro.cli.main(["serve", *argv])
    if recorder is not None:
        with open(trace_out, "w") as out:
            json.dump({"spans": recorder.spans}, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
