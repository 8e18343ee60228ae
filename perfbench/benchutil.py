"""Small helpers shared by the workload drivers."""

from __future__ import annotations

import os
import time
from pathlib import Path
from statistics import median
from typing import Sequence

#: Iterations of the calibration loop, and the loop's duration on a
#: shared 2-vCPU x86-64 VM (Python 3.11) in its fast periods.
CAL_LOOPS = 30_000
CAL_REF_S = 0.0025
#: Host time between two calibration loops inside a timed piece.
TRACK_INTERVAL_NS = 100_000_000
#: Calibration loops run in each gap between timed pieces.
GAP_LOOPS = 4


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of another process, from /proc."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def cpu_pair() -> tuple[int, int]:
    """The CPU for the benchmark process and the one for a server it
    starts: two different ones when the process may use two."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[-1]


def pin(cpu: int) -> None:
    """Keep this process on one CPU."""
    os.sched_setaffinity(0, {cpu})


def calibration_s(count: int, cpu: int | None = None) -> list[float]:
    """Seconds the calibration loop takes, ``count`` times, on ``cpu``
    (default: here)."""
    home = os.sched_getaffinity(0)
    if cpu is not None:
        pin(cpu)
    try:
        times = []
        for _ in range(count):
            start = time.perf_counter()
            acc = 0
            for i in range(CAL_LOOPS):
                acc += i * i % 7
            times.append(time.perf_counter() - start)
        return times
    finally:
        if cpu is not None:
            os.sched_setaffinity(0, home)


class SpeedTrack:
    """Scales host timings to a reference host speed.

    Each CPU of a shared VM changes speed by up to a half for ten
    seconds or more at a time, independently of the other CPUs, and a
    timing moves with it.  A track runs a short calibration loop on the
    CPU that does the timed work many times over a measured phase:
    between its pieces (:meth:`sample`) or, inside one long piece, every
    ``TRACK_INTERVAL_NS`` of host time (:meth:`poll`).  Its factor is
    ``CAL_REF_S`` over the median loop, so that a loop the host
    interrupted does not count; a time multiplied by it is what the
    work would take on a CPU that runs the loop in ``CAL_REF_S``.
    """

    def __init__(self, cpu: int | None = None) -> None:
        self.cpu = cpu
        self.loops: list[float] = []
        self.sample()

    def sample(self, count: int = 1) -> None:
        self.loops += calibration_s(count, self.cpu)
        self.mark = time.perf_counter_ns()

    def poll(self, now_ns: int) -> None:
        if now_ns - self.mark >= TRACK_INTERVAL_NS:
            self.sample()

    @property
    def factor(self) -> float:
        return CAL_REF_S / median(self.loops)

    def recent_factor(self, count: int) -> float:
        """The factor of the last ``count`` loops only."""
        return CAL_REF_S / median(self.loops[-count:])

    @property
    def loops_s(self) -> float:
        """Seconds spent in the loops after the first one."""
        return sum(self.loops[1:])
