"""CPU speed probes for speed-normalized timings.

The shared machine this benchmark targets changes speed by up to a third
within tens of seconds, as neighbours load it.  The process's own CPU
time stretches with its wall time, so CPU time does not help, and raw
run-to-run spreads reach 25-35%.  The benchmark therefore times a fixed
probe around every timed call and scales the call's time to the speed at
which the probe takes its reference time.  No probe runs quandlekit
code, so an optimisation of the program cannot move a probe.

Two probes, because the two kinds of work drift differently:

- the loop probe, an allocation-heavy pure-Python loop (dicts keyed by
  tuples, sorted tuples), tracks the exact-arithmetic layer in a
  library process.  A SIGALRM sampler also runs it during long calls,
  so a call of several seconds is scaled by the speed over its whole
  duration rather than at its two ends;
- the spawn probe, a fresh `python3 -c "import numpy"`, tracks what a
  CLI call pays before the program runs: process start, interpreter set
  up and the import of the package's one dependency.

Numpy-bound kernel calls tracked neither probe, so they keep raw times.
"""

from __future__ import annotations

import signal
import subprocess
import sys
from statistics import mean, median
from time import perf_counter

# typical probe times on the 2-core machine the bounds were set on
LOOP_REFERENCE_S = 0.012
SPAWN_REFERENCE_S = 0.18


def loop_once() -> float:
    t0 = perf_counter()
    rows = []
    for i in range(1500):
        d: dict = {}
        for j in range(8):
            key = ((i * 31 + j * 17) % 97, j)
            d[key] = d.get(key, 0) + i * j
        rows.append(tuple(sorted(d.items())))
    rows.sort(key=lambda r: (len(r), r))
    return perf_counter() - t0


def loop_probe() -> float:
    """Seconds for the loop, the median of three runs."""
    return median(loop_once() for _ in range(3))


def spawn_probe(cwd, env) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, env=env,
                   capture_output=True, check=True, timeout=60)
    return perf_counter() - t0


def scaled(raw_s: float, probes, reference: float) -> float:
    """raw_s at the speed where the probe takes `reference` seconds."""
    return raw_s * reference / mean(probes)


class Sampler:
    """Runs loop_once every `interval` seconds from a SIGALRM handler.

    `spent` is the time the samples took; callers subtract it from the
    calls they time.  The context manager installs the handler; resume()
    and pause() start and stop the samples around each timed call.
    """

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._old = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(loop_once())
        self.spent += perf_counter() - t0

    def pause(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def resume(self):
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc):
        self.pause()
        signal.signal(signal.SIGALRM, self._old)
