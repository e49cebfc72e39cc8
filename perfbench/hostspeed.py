"""A clock that runs at the host's speed, so slow spells of a shared host
do not read as slow code.

The vCPUs this benchmark runs on share their physical cores with other
machines' work.  Their speed for the same Python code changes by 30-70%
within seconds, and its average moves by as much over minutes (README,
Stability).  Raw pass times follow those swings.

SpeedClock interrupts the measured program every INTERVAL_S with SIGALRM
and runs a fixed probe: a short pure-Python loop, timed in the thread's
own CPU time, so a thread holding the GIL cannot make it look slow.  The
time between two probes counts scaled by REF_PROBE_S / (the later probe's
duration): a slice in which the host ran the probe at half speed counts
half.  The probes' own time is left out.  now() is this scaled time, in
seconds of a host that runs the probe in REF_PROBE_S.

Code that does more work still reads slower: only the probe's speed, never
the program's, sets the scale.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
# About the probe's CPU time on an uncontended vCPU of the 2-vCPU, 2.0 GHz
# Xeon VM the bounds were set on; it only sets the unit of now().
REF_PROBE_S = 35e-6

_TABLE = list(range(64))


def probe() -> int:
    """The fixed workload whose speed stands for the host's."""
    s, t = 0, _TABLE
    for i in range(300):
        s = (s * 31 + t[(s ^ i) & 63]) % 65521
    return s


class SpeedClock:
    """Seconds at reference speed, advanced by SIGALRM probes.

    Install it in the main thread; only one may run at a time.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.scaled = 0.0            # scaled seconds up to self.last
        self.last = 0.0              # perf_counter() at the end of the last probe
        self.scale = 1.0             # REF_PROBE_S / the last probe's duration
        self.probes: list[float] = []
        self._previous = None

    def start(self) -> None:
        self.probes.clear()
        self._take()
        self.scaled = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def now(self) -> float:
        return self.scaled + (time.perf_counter() - self.last) * self.scale

    def _on_alarm(self, signum, frame) -> None:
        self.scaled += (time.perf_counter() - self.last) * self._take()

    def _take(self) -> float:
        """Run the probe; set and return the scale of the slice it ends."""
        t = time.thread_time()
        probe()
        d = time.thread_time() - t
        self.probes.append(d)
        # a probe cannot be faster than the clock can tell
        self.scale = REF_PROBE_S / max(d, 1e-7)
        self.last = time.perf_counter()
        return self.scale
