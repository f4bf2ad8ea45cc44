"""The benchmark's clock: CPU seconds of the whole process tree, and the
calibrator that says how fast the machine was running meanwhile.

Wall time on a shared two-core box rises by half when neighbours are
busy; CPU time moves by a few percent (see README.md, "Contention").  The
toolchain never waits on I/O on a measured path, so the CPU a request
burns *is* its quiet-machine latency, and it is what a fleet pays for.
The blind spot: time spent blocked (sleeping, waiting on a lock or a
socket) is invisible to this clock.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import time
from typing import Dict, List

_TICK = os.sysconf("SC_CLK_TCK")

#: CPU ms of one calibration unit on the box every reported time is
#: scaled to.  The reference box runs a unit in about this long when its
#: host is quiet; the value fixes the scale, not any comparison.
CALIB_REFERENCE_MS = 3.0

_CALIB_OBJECTS = [{"a": i, "b": str(i), "c": [i, i + 1, {"d": i}]} for i in range(150)]


def _calibration_units(units: int) -> None:
    """A fixed piece of work that has nothing to do with the toolchain,
    in two equal parts: an interpreter-bound arithmetic loop and object
    churn (JSON round trip, keyed sort).  Of eight kinds of work timed
    beside 9000 ``exec_calls`` passes while the box drifted by 30 %,
    these two tracked the workload's own slowdown best (spread between
    300-pass blocks 13.6 % raw, 1.9 % corrected); NumPy passes over
    arrays of 160 KB, 2 MB and 32 MB barely slowed down at all and
    tracked nothing, ``exec_kernels`` included."""
    for _ in range(units):
        acc = 0
        for i in range(30_000):
            acc += i * i % 7
        for _ in range(5):
            json.loads(json.dumps(_CALIB_OBJECTS))
            sorted(_CALIB_OBJECTS, key=lambda d: d["b"])


class Calibrator:
    """Measures how fast the machine is running *while* a pass runs.

    A shared box does not run at one speed.  On the reference box the
    same idle machine takes a calibration unit anywhere between 1.0x and
    1.5x its best time, CPU clock and all (neighbours on the host share
    cores and the frequency budget), and the factor moves within a
    second.  So units are timed right before and right after each pass
    and, when the driving thread calls :meth:`tick` between ops, every
    ``INTERVAL`` seconds inside it — about a tenth of the elapsed time,
    on the calling thread's own CPU clock, so other threads of the
    process do not leak into the sample.  The pass is then reported at
    reference speed: its CPU, minus what the ticks burned, divided by
    the slowdown the units showed.
    """

    INTERVAL = 0.04
    MAX_UNITS = 25

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0
        #: CPU seconds burned by ticks since :meth:`begin`.
        self.spent = 0.0
        self._last = time.perf_counter()

    def _run(self, units: int) -> None:
        t0 = time.thread_time()
        _calibration_units(units)
        cpu = time.thread_time() - t0
        self.units += units
        self.seconds += cpu
        self.spent += cpu
        self._last = time.perf_counter()

    def begin(self, units: int) -> None:
        """Start a pass: forget the last one and sample ``units`` now,
        before the caller opens its timed window."""
        self.units, self.seconds = 0, 0.0
        self._run(units)
        self.spent = 0.0

    def tick(self) -> None:
        """Call between ops, inside the timed window."""
        elapsed = time.perf_counter() - self._last
        if elapsed >= self.INTERVAL:
            self._run(min(self.MAX_UNITS, int(elapsed / self.INTERVAL)))

    def end(self, units: int) -> None:
        """Close a pass: sample ``units`` more, after the timed window."""
        self._run(units)

    def ms_per_unit(self) -> float:
        """CPU ms per unit since :meth:`begin`; over
        :data:`CALIB_REFERENCE_MS` it is the machine's slowdown."""
        return self.seconds * 1e3 / self.units


def _stat_fields(pid: int) -> List[str]:
    """Fields of ``/proc/<pid>/stat`` after the parenthesised command."""
    with open(f"/proc/{pid}/stat") as f:
        stat = f.read()
    return stat[stat.rindex(")") + 2:].split()


def descendants() -> List[int]:
    """Live processes below this one, found by parent pid."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            ppid = int(_stat_fields(int(entry))[1])
        except (OSError, ValueError, IndexError):
            continue  # exited while we were reading
        children.setdefault(ppid, []).append(int(entry))
    found: List[int] = []
    frontier = [os.getpid()]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


def children_cpu() -> float:
    """CPU seconds (user + system) of every descendant: the ones this
    process has reaped (``RUSAGE_CHILDREN``) and the ones still alive
    (``/proc/<pid>/stat``, which counts in 10 ms ticks).

    The ``/proc`` scan costs about a millisecond of this process's own
    CPU, so read it outside the ``process_time`` window it pairs with.
    """
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = reaped.ru_utime + reaped.ru_stime
    for pid in descendants():
        try:
            fields = _stat_fields(pid)
        except OSError:
            continue
        # utime, stime, and the same for children that process reaped.
        total += sum(int(fields[i]) for i in (11, 12, 13, 14)) / _TICK
    return total


def tree_cpu() -> float:
    """CPU seconds of the whole process tree since this process began."""
    return children_cpu() + time.process_time()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest peak among its
    live descendants (the serve worker), in MB."""
    worst_child_kb = 0
    for pid in descendants():
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        worst_child_kb = max(worst_child_kb, int(line.split()[1]))
        except OSError:
            continue
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kb + worst_child_kb) / 1024.0


def kill_descendants() -> int:
    """Last-resort sweep for a failed run: kill and reap whatever is
    still alive below this process.  Returns how many were killed."""
    pids = descendants()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    for pid in pids:
        try:
            os.waitpid(pid, 0)
        except OSError:
            pass  # a grandchild: its parent's death hands it to init
    return len(pids)
