"""Calibration of job times against a fixed reference kernel.

The shared sandbox this benchmark was built in changes speed by a quarter or
more over seconds to minutes: one seed of ``setcover-msp`` ran at 32 to 63
jobs/s in back-to-back passes.  No frequency pinning or core isolation is
available, so the benchmark times a fixed pure-Python kernel between jobs and
reports job times in *reference seconds*: seconds on a machine where the
kernel takes :data:`REF_SECONDS`.  The kernel uses no survpath code, so a
change to the program moves calibrated times by the same share as raw ones;
the tables print both.  Set-up and CLI times stay raw, because a few kernel
samples around them tracked their noise worse than no calibration at all.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# The kernel's typical time on the 2-CPU sandbox the first baseline was
# recorded on, so that calibrated and raw times are close there.
REF_SECONDS = 0.0015

_MASK22 = (1 << 22) - 1
_ROWS = [((0x9E3779B97F4A7C15 * (j + 1)) >> 7) & _MASK22 | 1 << (j % 22) for j in range(22)]
_WIDE = [((0x9E3779B97F4A7C15 * (j + 7)) ** 9) & ((1 << 1200) - 1) for j in range(64)]


def reference_kernel() -> int:
    """About a millisecond of the operations survpath's solvers are made of:
    a recursive cover search over small bitmasks with list copies, popcounts
    of wide masks, and dictionary churn."""
    best = [23]

    def search(k: int, covered: int, chosen: list[int]) -> None:
        if covered == _MASK22:
            best[0] = min(best[0], len(chosen))
            return
        if len(chosen) + 1 >= best[0] or k == 22:
            return
        search(k + 1, covered | _ROWS[k], chosen + [k])
        search(k + 1, covered, chosen)

    search(0, 0, [])
    total = 0
    for a in _WIDE:
        for b in _WIDE[:48]:
            total += (a & ~b).bit_count()
    table = {}
    for i in range(1500):
        table[i % 97] = (i, str(i))
    return best[0] + total + len(table)


class Calibration:
    """Kernel timings taken between the jobs of one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self, every: float) -> None:
        """Time the kernel, unless the last timing ended less than ``every``
        seconds ago."""
        start = perf_counter()
        if start - self._last >= every:
            reference_kernel()
            self._last = perf_counter()
            self.samples.append(self._last - start)

    def scale(self) -> float:
        """Factor that turns seconds measured during the jobs into reference seconds."""
        return REF_SECONDS / statistics.median(self.samples)
