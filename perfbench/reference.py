"""The drift reference: a fixed pure-Python loop that brackets every timed operation.

The host's CPU speed drifts by tens of percent over a minute, so a raw
wall time says as much about the neighbours as about the verifier.  Each
timed operation is bracketed by this loop, and its seconds are reported
at a fixed reference speed by :func:`normalised` (see ``run.Timings``).

The loop imports nothing from the program and runs only while no program
worker process is alive.  :class:`TwoCoreReference` runs it on both cores
at once, in two persistent helper processes, for the workload whose
certification itself keeps both cores busy.

This file is also the helper process: ``python3 reference.py --serve``
answers each ``go`` line on stdin with one reference time on stdout.
It uses the standard library only.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from pathlib import Path

#: Iterations of one spin: a reference point, about 5 ms of interpreter
#: work on a 2026 x86 vCPU, short enough to sit next to every operation.
ITERATIONS = 5_000
#: The seconds one point is taken to last at the reference speed.  Any fixed
#: value works; this one is close to the measured speed, so normalised
#: seconds read like raw seconds.
NOMINAL_SECONDS = 0.0054
#: How closely the program's time follows the loop's.  The slope of
#: log(operation seconds) on log(reference seconds), over about 6,800
#: operations of the three workloads on a shared 2-vCPU x86 host, was
#: 0.44-0.53 for cold passes, 0.55-0.78 for warm passes and 0.65-0.70 for
#: deltas: when the host speeds up, the loop speeds up more than the
#: program does.  Full correction over-shoots: ten runs of one workload
#: during which the loop ran 1.7x faster than usual read 13% slower cold
#: passes and 32% slower set-up than ten runs at the usual speed.
EXPONENT = 0.6


def normalised(raw: float, reference: float) -> float:
    """``raw`` seconds, measured where a point took ``reference`` seconds,
    at the reference speed."""
    return raw * (NOMINAL_SECONDS / reference) ** EXPONENT


def spin(iterations: int = ITERATIONS) -> int:
    """Small tuples hashed into a dict, then walked: the shape of term interning.

    Allocation and dict traffic track the verifier's slowdowns better than
    pure integer arithmetic does (measured against cold fleet passes).
    """
    acc = 0
    table = {}
    for index in range(iterations):
        acc = (acc * 1103515245 + index) & 0xFFFFFFFF
        node = (acc >> 20, index & 15, (acc & 0xFF,))
        table[node] = table.get(node[:2], 0) + 1
    total = 0
    for key, value in table.items():
        total += value + key[1]
    return total


def reference_seconds() -> float:
    """One reference point: the duration of one spin.

    The cyclic collector is paused for the spin: its allocations would
    otherwise trigger collections of the program's whole heap, whose cost
    is not the interpreter's speed.  The spin builds no cycles.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        spin()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class OneCoreReference:
    """The reference measured in this process."""

    def measure(self) -> float:
        return reference_seconds()


class TwoCoreReference:
    """The reference measured on two cores at once, by two helper processes.

    Both helpers receive ``go`` back to back and spin concurrently; the
    point is the mean of their two durations.  The helpers stay alive (and
    idle, blocked on stdin) between points so no point pays a process start.
    """

    cores = 2

    def __init__(self) -> None:
        script = str(Path(__file__).resolve())
        self._helpers = []
        try:
            for _ in range(self.cores):
                self._helpers.append(
                    subprocess.Popen(
                        [sys.executable, script, "--serve"],
                        stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE,
                        text=True,
                    )
                )
        except OSError:
            self.close()
            raise

    def measure(self) -> float:
        for helper in self._helpers:
            helper.stdin.write("go\n")
            helper.stdin.flush()
        values = []
        for helper in self._helpers:
            line = helper.stdout.readline()
            if not line:
                raise RuntimeError("reference helper exited early")
            values.append(float(line))
        return sum(values) / len(values)

    def close(self) -> None:
        for helper in self._helpers:
            if helper.stdin and not helper.stdin.closed:
                helper.stdin.close()
        for helper in self._helpers:
            try:
                helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            if helper.stdout:
                helper.stdout.close()
        self._helpers = []


def _serve() -> None:
    for line in sys.stdin:
        if line.strip() == "go":
            sys.stdout.write(f"{reference_seconds()!r}\n")
            sys.stdout.flush()


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        _serve()
    else:
        print(reference_seconds())
