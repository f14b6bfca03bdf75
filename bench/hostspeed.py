"""Host-speed probe: rescales pass times to a fixed reference speed.

The shared host this benchmark was written on switches between speed
states up to 1.8x apart, within seconds and over minutes, with no steal
time shown to the guest.  A whole run can sit in one state, so no
estimator over a run's own passes (median, mean, fastest) is steady
across runs.  Instead a fixed pure-Python loop is timed every
`PERIOD` seconds from a SIGALRM handler while the workload runs, and
each slice of a pass between two samples is rescaled by how much slower
the probe ran there than `REF_PROBE_S`:

    wall_ref = sum over slices of  slice time * REF_PROBE_S / probe time

The probe's own time is left out of the pass.  A slower program still
shows in full: the probe does not depend on it.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD = 0.05         # s between samples, about 1% of the run
LOOPS = 4000          # probe size, about 0.25 ms
REF_PROBE_S = 2.5e-4  # probe time in the host's fast state (2-vCPU Xeon VM)
SMOOTH = 5            # samples in the running median of probe times


def _probe():
    s = 0
    for i in range(LOOPS):
        s += i * i % 7
    return s


def median(values):
    v = sorted(values)
    n = len(v)
    return v[n // 2] if n % 2 else 0.5 * (v[n // 2 - 1] + v[n // 2])


def probe_times(n, warm=5):
    """n probe times after `warm` untimed probes."""
    for _ in range(warm):
        _probe()
    times = []
    for _ in range(n):
        t = time.perf_counter()
        _probe()
        times.append(time.perf_counter() - t)
    return times


class HostSpeed:
    """Samples the probe from SIGALRM between start() and stop()."""

    def __init__(self):
        self.samples = []  # (start, probe seconds)
        self._previous = None

    def _sample(self, signum=None, frame=None):
        t = time.perf_counter()
        _probe()
        self.samples.append((t, time.perf_counter() - t))

    def start(self):
        probe_times(0, warm=50)
        self._sample()  # every pass starts after at least one sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def rescale(self, a, b):
        """Time of the span [a, b] at the reference speed, less the time
        the probe itself took inside it."""
        times = [t for t, _ in self.samples]
        probe = [d for _, d in self.samples]
        half = SMOOTH // 2
        j = bisect.bisect_right(times, a) - 1
        total, t = 0.0, a
        while True:
            end = times[j + 1] if j + 1 < len(times) and times[j + 1] < b \
                else b
            speed = median(probe[max(0, j - half):j + half + 1])
            total += max(0.0, end - t) * REF_PROBE_S / speed
            if end == b:
                return total
            j += 1
            t = end + probe[j]
