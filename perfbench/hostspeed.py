"""Host-speed calibration: rescale measured times to a reference host speed.

The benchmark runs on a few vCPUs of a shared machine.  Their speed moves
by up to about 1.5x within seconds, and the guest sees no steal time, so a
median over a whole run still moves with the host.  A fixed reference task
(pure-Python arithmetic and dict work, SHA-256 and zlib: the kinds of work
the program does) is timed right before and right after each measured
interval.  The interval is then rescaled to a host on which the task takes
:data:`REFERENCE_S`::

    scaled = measured * REFERENCE_S / mean(task before, task after)

A change to the program moves ``measured`` and leaves the task alone; a
slow phase of the host moves both, and cancels.  The raw times and the
host's slowdown (raw over scaled median job time) are kept in each run's
result record.
"""

from __future__ import annotations

import hashlib
import time
import zlib

#: seconds the reference task takes on the reference host (about its
#: median on the 2-vCPU Xeon host the regression bounds were set on)
REFERENCE_S = 0.03

_BLOB = bytes(range(256)) * 4096
_PACKED = zlib.compress(_BLOB * 4, 6)


def _reference_task() -> int:
    total = 0
    for number in range(60_000):
        total += number * number % 7
    table = {}
    for number in range(20_000):
        table[str(number)] = int(str(number)) + 1
    hashlib.sha256(_BLOB).digest()
    return total + len(table) + len(zlib.decompress(_PACKED))


def calibrate() -> float:
    """Seconds the reference task takes now."""
    started = time.perf_counter()
    _reference_task()
    return time.perf_counter() - started


def scale(measured: float, before: float, after: float) -> float:
    """``measured`` seconds at the reference host speed, given the
    reference task's seconds right before and right after it."""
    return measured * REFERENCE_S * 2.0 / (before + after)


def timed(fn):
    """Run ``fn()``; return its result, raw seconds and scaled seconds."""
    before = calibrate()
    started = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - started
    return result, elapsed, scale(elapsed, before, calibrate())
