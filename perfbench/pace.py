"""The machine's current speed, read from a fixed pure-Python loop.

On a shared VM the same call can take 1.5 times as long from one second to
the next, because other tenants load the host. The benchmark times this loop
right before and right after each timed call and expresses the call's time
at the speed the loop shows around it:

    scaled = seconds * REFERENCE_S / mean(loop before, loop after)

``REFERENCE_S`` fixes the unit: scaled seconds are seconds on a machine
that runs the loop in 5 ms, about its median on the 2-vCPU VM of the
recorded baseline. A change to the program moves scaled and raw seconds
alike; a change in the machine's load moves mostly the raw ones.

Only the standard library is used, so the loop can run before meshseg is
imported.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.005
LOOP_ITERATIONS = 60_000


def reference_loop() -> float:
    """Seconds the fixed loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


class Scaler:
    """Sums timed calls, raw and scaled. ``add`` must follow each call
    directly; the loop after one call is the loop before the next."""

    def __init__(self):
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._before = reference_loop()

    def add(self, seconds: float) -> None:
        after = reference_loop()
        self.raw_s += seconds
        self.scaled_s += seconds * REFERENCE_S / ((self._before + after) / 2)
        self._before = after
