"""
Host-speed probe: calibrates pass times against a fixed reference task.

On a shared virtual machine the same pure-Python code runs at speeds that
differ by up to 2x, in phases of one to ten seconds.  A reference task
timed beside a whole pass samples a different phase than the pass did, so
the probe runs *inside* the pass instead: an interval timer interrupts the
workload every ``INTERVAL_S`` seconds, and the handler times one unit of
reference work.  Between signals the workload runs as usual.

The reference work is the benchmark's own code (Robinson-Schensted
insertion of fixed permutations into lists, tallied in a dict), never the
package's, so a change to the package cannot move it.  It allocates,
compares and indexes small Python objects, as the package does.

For a pass that took ``raw_ns`` of which ``probe_ns`` went to probes, the
calibrated time is ``(raw_ns - probe_ns) * mean(NOMINAL_NS / d)`` over the
probe durations ``d``: the time the pass would take at the speed where one
probe unit takes ``NOMINAL_NS``.  The mean of speeds over probes evenly
spaced in time is the pass's mean speed, and a probe that was preempted
reads as a low speed rather than a large outlier.
"""
from __future__ import annotations

import random
import signal
import time

INTERVAL_S = 0.2
PERMS_PER_UNIT = 300
# One probe unit at the fast phase of a 2-vCPU Xeon VM at 2.1 GHz, Python 3.11.7.
NOMINAL_NS = 2_500_000

_rng = random.Random(20221026)
_PERMS = []
for _ in range(PERMS_PER_UNIT):
    _perm = list(range(9))
    _rng.shuffle(_perm)
    _PERMS.append(tuple(_perm))


def _reference_unit() -> int:
    shapes: dict[tuple[int, ...], int] = {}
    for perm in _PERMS:
        rows: list[list[int]] = []
        for x in perm:
            for row in rows:
                for j, y in enumerate(row):
                    if y > x:
                        row[j], x = x, y
                        break
                else:
                    row.append(x)
                    x = -1
                    break
            if x >= 0:
                rows.append([x])
        shape = tuple(len(row) for row in rows)
        shapes[shape] = shapes.get(shape, 0) + 1
    return len(shapes)


class Probe:
    """Collects probe durations while installed; see the module docstring."""

    def __init__(self) -> None:
        self.durations: list[int] = []
        self.busy = False

    def sample(self) -> None:
        clock = time.perf_counter_ns
        start = clock()
        _reference_unit()
        self.durations.append(clock() - start)

    @property
    def probe_ns(self) -> int:
        return sum(self.durations)

    def _on_alarm(self, _signum, _frame) -> None:
        if self.busy:
            return
        self.busy = True
        try:
            self.sample()
        finally:
            self.busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self) -> float:
        """Mean speed over the probes, relative to ``NOMINAL_NS``."""
        return sum(NOMINAL_NS / d for d in self.durations) / len(self.durations)
