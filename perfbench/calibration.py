"""Machine-speed calibration, so that times read the same on a host whose
speed drifts.

On a shared host the same code runs up to twice as slow for a few seconds
at a time, whatever it does, and slow stretches come and go over minutes.
``Sampler`` runs one round of a fixed kernel of the benchmark's own code
every ``INTERVAL_S`` of wall time, from a ``SIGALRM`` handler, so rounds
land inside ``qformula`` calls as well as between them.  The kernel is a
pure-Python ``indent=1`` JSON round trip and dict loop (like ``fileio``
and the command-line layer) and two-qubit gates on a 12-qubit state (like
``simulator.apply_gate``).  Nothing here imports ``qformula``, so a change
to the program cannot change the kernel.

The speed factor of a stretch of time is the mean round time near it
over ``NOMINAL_ROUND_S``; dividing a time measured over that stretch by
the factor gives the time at the reference speed.  Time spent in the
handler is counted in ``busy`` so that callers can take it out of what
they time.
"""
from __future__ import annotations

import bisect
import json
import signal
from time import perf_counter

import numpy as np

import reference as ref

# Median round time on the reference machine (2-vCPU KVM guest, Intel
# Xeon, Python 3.11.7, numpy 2.4.6).  It only sets the scale of the
# reported times.
NOMINAL_ROUND_S = 1.0e-3
INTERVAL_S = 0.01
# Rounds this close to a timed span count towards its factor, so that a
# 30 ms job rests on about a hundred rounds.
WINDOW_S = 0.5


class Sampler:
    """Context manager that runs a kernel round every ``INTERVAL_S``."""

    def __init__(self):
        rng = np.random.default_rng(20010401)
        self._blob = {f"g{i}": [[float(x), float(x) / 3] for x in rng.normal(size=10)]
                      for i in range(5)}
        self._state = (rng.normal(size=4096) + 0j).reshape((2,) * 12)
        self._gate = ref.near_identity(rng, 4, 0.5)
        self.times: list[float] = []  # start of every round, increasing
        self.rounds: list[float] = []  # its duration
        self.busy = 0.0  # seconds spent in the handler
        self._round()  # first-call costs stay out of the samples

    def _round(self) -> None:
        json.loads(json.dumps(self._blob, indent=1))
        counts: dict[int, int] = {}
        for i in range(1500):
            counts[i % 97] = counts.get(i % 97, 0) + i
        state = self._state
        for i in range(6):
            a, b = 2 * i, (2 * i + 5) % 12
            front = np.moveaxis(state, (a, b), (0, 1))
            shape = front.shape
            state = np.moveaxis((self._gate @ front.reshape(4, -1)).reshape(shape), (0, 1), (a, b))

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        self._round()
        seconds = perf_counter() - start
        self.times.append(start)
        self.rounds.append(seconds)
        self.busy += seconds

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """Mean round time from ``start - WINDOW_S`` to ``end + WINDOW_S``
        (``perf_counter`` times) over the nominal one."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi == lo:
            raise RuntimeError("no calibration round near a timed span")
        return sum(self.rounds[lo:hi]) / (hi - lo) / NOMINAL_ROUND_S
