"""Child processes: environment, CPU pinning, line reading with
timeouts, stopping, and peak-memory readings."""

from __future__ import annotations

import os
import queue
import subprocess
import sys
import threading
from typing import IO

from bench.spec import ROOT, SRC


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts: the program
    from ``src/``, the benchmark from the root, unbuffered output, and a
    fixed string-hash seed so set and dict orders repeat run to run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


def cpus() -> tuple[int, int]:
    """(program CPU, load CPU). On a small VM a process that migrates
    between vCPUs runs in two speed modes, so the benchmark pins the
    program's process to one CPU and its load generator to another
    (the same CPU when only one is available)."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[-1]


def pin(cpu: int) -> None:
    """Pin the calling thread, and threads and processes it starts
    afterwards, to ``cpu``."""
    os.sched_setaffinity(0, {cpu})


def popen_on(cpu: int, cmd: list[str], **kwargs) -> subprocess.Popen:
    """Start ``cmd`` pinned to ``cpu`` (affinity is inherited at fork,
    so the child is pinned before it runs any code)."""
    mine = os.sched_getaffinity(0)
    pin(cpu)
    try:
        return subprocess.Popen(cmd, **kwargs)
    finally:
        os.sched_setaffinity(0, mine)


class LineReader:
    """Reads a child's text stream on a thread so the caller can wait
    for the next line with a timeout."""

    def __init__(self, stream: IO[str]):
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._thread = threading.Thread(target=self._pump, args=(stream,),
                                        daemon=True)
        self._thread.start()

    def _pump(self, stream: IO[str]) -> None:
        for line in stream:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def next_line(self, timeout: float) -> str:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError(f"no output within {timeout:.0f} s") from None
        if line is None:
            raise EOFError("child closed its output")
        return line

    def join(self) -> None:
        self._thread.join(5.0)


def stop(proc: subprocess.Popen) -> None:
    """Terminate ``proc``, wait for it, and kill it if it lingers."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(15.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def peak_rss_mb(pid: int) -> float:
    """A process's peak resident set (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
