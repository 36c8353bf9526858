"""Machine-speed calibration for the end-to-end CPU times.

A shared host runs the same code at different speeds from one minute to
the next (clock frequency, other tenants on the sibling hyperthreads and
caches), and CPU time follows that drift as closely as wall time does.
:class:`SpeedProbe` runs a fixed reference computation, which is the
benchmark's own code and never the program's, between the measured
operations of a run.  The median CPU time of the reference over the run
is the machine's speed during that run; dividing every measured CPU time
by it and multiplying by :data:`REFERENCE_S` gives CPU seconds at the
reference host's speed.

The reference mixes what the program's hot paths do: small numpy arrays
(draws, sorts, prefix sums) and interpreted loops over dicts.  Probes run
outside every timed region, and the time they take is subtracted from the
totals they fall inside.
"""

from __future__ import annotations

import statistics
from typing import List

import numpy as np

from tracing import clock, cpu_clock

__all__ = ["REFERENCE_S", "SpeedProbe", "reference_work"]

#: Median CPU seconds of one :func:`reference_work` on the reference host
#: (2-CPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 4.5e-3


def reference_work() -> float:
    """The fixed reference computation; returns a checksum so nothing is skipped."""
    rng = np.random.default_rng(0)
    acc = 0.0
    for _ in range(300):
        acc += float(np.sort(rng.random(256)).cumsum()[-1])
        counts: dict = {}
        for j in range(150):
            counts[j % 37] = counts.get(j % 37, 0) + j
        acc += sum(counts.values())
    return acc


class SpeedProbe:
    """Reference runs interleaved with a run's operations."""

    def __init__(self) -> None:
        #: CPU seconds of each reference run.
        self.samples: List[float] = []
        #: CPU and wall seconds spent in reference runs so far.
        self.spent_cpu = 0.0
        self.spent_wall = 0.0

    def tick(self) -> None:
        """Run the reference once and record its CPU time."""
        wall, cpu = clock(), cpu_clock()
        reference_work()
        took = cpu_clock() - cpu
        self.samples.append(took)
        self.spent_cpu += took
        self.spent_wall += clock() - wall

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor that turns this run's CPU seconds into reference-host seconds."""
        return REFERENCE_S / self.median_s()
