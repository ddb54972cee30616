"""Reference-speed scaling of measured durations.

The CPU speed this benchmark gets from its host drifts: a fixed
pure-Python loop, run back to back for three minutes on a 2-vCPU VM,
took between 141 and 266 ms per 15-second window, in phases lasting
15-45 seconds.  A 30-second run can fall wholly in a slow phase, so raw
times of the same code differ between runs by up to ~1.9x, far beyond
any useful regression bound.

Every duration the benchmark reports is therefore *reference-scaled*:
it is divided by the current speed factor ``f``, the duration of a
fixed pure-Python reference workload (dict, tuple, list and integer
operations, the kinds of work the program does) measured around the
same moment, over its nominal duration.  ``f`` is 1 when the host runs
at the nominal speed and ~1.9 in a slow phase.  A reported "ms" is a
millisecond at nominal speed.  Raw durations are kept beside the
scaled ones in each run's report.
"""

from __future__ import annotations

import statistics
import time

#: The reference workload's duration at nominal speed (seconds): about
#: its median on the host above, so scaled times read close to raw ones.
NOMINAL_S = 0.0008


def reference() -> float:
    """Run the fixed reference workload once; its duration in seconds."""
    started = time.perf_counter()
    table: dict = {}
    items = []
    for i in range(1500):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + i
        items.append(key)
    items.sort()
    seen = {k for k in items if k[1]}
    total = sum(v for k, v in table.items() if k in seen)
    if total < 0:  # keeps the work observable
        raise AssertionError
    return time.perf_counter() - started


class Speedometer:
    """Samples the reference over a run and scales durations by it."""

    #: Samples this close (seconds) to an interval also count towards its
    #: factor; host phases last far longer.
    MARGIN_S = 1.0

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def sample(self, repeats: int = 3) -> None:
        """Take ``repeats`` reference measurements now."""
        for _ in range(repeats):
            self.samples.append((time.perf_counter(), reference()))

    def factor(self, start: float, end: float) -> float:
        """Median reference duration around ``[start, end]`` over nominal."""
        near = [
            d for t, d in self.samples if start - self.MARGIN_S <= t <= end + self.MARGIN_S
        ]
        if not near:
            nearest = min(self.samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))
            near = [nearest[1]]
        return statistics.median(near) / NOMINAL_S

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured over ``[start, end]``, at nominal speed."""
        return seconds / self.factor(start, end)

    def mean_factor(self) -> float:
        return statistics.median(d for _, d in self.samples) / NOMINAL_S
