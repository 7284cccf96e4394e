"""``python -m bench.traced_server [repro.serve options]``: the shipped
server, started the same way ``python -m repro.serve`` starts it, with
the per-layer wrappers of :mod:`bench.trace` installed first.

On ``SIGUSR1`` it prints one line, :data:`SNAPSHOT_MARK` followed by
the recorder's cumulative per-target counters as JSON; the load process
takes one snapshot before and one after its timed phase.
"""

from __future__ import annotations

import json
import runpy
import signal
import sys

SNAPSHOT_MARK = "bench-trace "


def main() -> None:
    from bench import trace

    recorder = trace.Recorder()
    trace.install(recorder)

    def dump(signum: int, frame: object) -> None:
        print(SNAPSHOT_MARK + json.dumps(recorder.snapshot()), flush=True)

    signal.signal(signal.SIGUSR1, dump)
    sys.argv = ["repro.serve", *sys.argv[1:]]
    runpy.run_module("repro.serve", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
