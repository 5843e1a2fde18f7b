"""Host speed, measured alongside the work, for scaling times.

Shared two-core hosts change speed by up to 1.7x over seconds and
minutes, which swamps the differences a benchmark must resolve.  Every
reported time is therefore scaled to the host's reference speed: a time
t measured while `reference()` took r seconds is reported as
t * REFERENCE_S / r, i.e. in seconds at the speed where `reference()`
takes REFERENCE_S.  Raw times are reported next to the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_S = 0.00027  # reference() on an idle core of a 2-core x86-64 host
QUIET_SAMPLES = 15


def reference() -> int:
    """Fixed interpreter work: dict stores and loads and integer
    arithmetic, the kind of work deflog's evaluators do, on a dict it
    builds and frees itself."""
    d = {}
    for i in range(3000):
        d[i * 7 & 1023] = i
    s = 0
    for k in d:
        s += d[k] ^ k
    return s


def timed_reference() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def quiet_factor() -> float:
    """The scale factor REFERENCE_S / r from reference() timed back to back,
    with no other work in between; the worker takes it before and after
    the job list to show that the factor does not follow the program."""
    return REFERENCE_S / statistics.median(timed_reference() for _ in range(QUIET_SAMPLES))


class Speedometer:
    """Times `reference()` every SAMPLE_CPU_S of process CPU time, from a
    SIGPROF handler, so samples fall inside long jobs as well as between
    jobs.  Each sample runs `reference()` twice and times the second run:
    the first displaces the cache and branch-predictor state the
    interrupted program left, and the second reuses the memory blocks the
    first just freed, so a sample reads like a quiet one whatever the
    program's heap holds.  Sampling costs about 2% and is subtracted from
    each span."""

    SAMPLE_CPU_S = 0.04
    WINDOW_S = 0.25

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, cost, reference time)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        reference()
        mid = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.samples.append((start, end - start, end - mid))

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.SAMPLE_CPU_S, self.SAMPLE_CPU_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """(raw, scaled) seconds of the span [t0, t1], without sampling time.
        The scale is the median reference time over the span widened by
        WINDOW_S on each side, which the host's speed outlasts."""
        raw = t1 - t0 - sum(c for s, c, _ in self.samples if t0 <= s < t1)
        near = [r for s, _, r in self.samples if t0 - self.WINDOW_S <= s < t1 + self.WINDOW_S]
        if not near:  # too short to have a sample nearby
            mid = (t0 + t1) / 2
            near = [min(self.samples, key=lambda sample: abs(sample[0] - mid))[2]]
        return raw, raw * REFERENCE_S / statistics.median(near)
