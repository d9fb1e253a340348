"""A fixed calibration kernel, timed between operations.

The benchmark's host is shared: its speed drifts by a third and more over
tens of seconds and minutes as other tenants load it, and that drift, not
sohb, dominates the spread of plain wall-clock rates between runs. The probe
does the same mix of vectorized numpy work, many small numpy calls and
interpreter work every time (about 2.5 ms, under 1 MB touched), and never
calls sohb. Each operation's duration is
scaled by REFERENCE_S / (probe duration around it), which reads the duration
the operation would take on the host running at its reference speed: a
change to sohb moves the scaled duration in full, while a change in the
host's speed moves both and cancels.
"""

import json
import time

import numpy as np

clock = time.perf_counter

#: The probe's duration at the reference speed: its 5th percentile on an
#: Intel Xeon (Sapphire Rapids) 2-vCPU KVM guest, numpy 2.4.6, Python 3.11.7.
REFERENCE_S = 1.8e-3
#: Least time between two probes that ``maybe`` runs.
INTERVAL_S = 0.05
#: An operation is scaled by the median of the probes taken while it ran or
#: within this many seconds of it.
WINDOW_S = 0.25


class Probe:
    """Probe durations with the times they were taken."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._mats = rng.standard_normal((4096, 3, 3))
        self._small = rng.standard_normal((256, 3, 3))
        self._vec = rng.random(1 << 15)
        self._short = rng.random(256)
        self._records = [{"t": 0.001 * i, "id": i, "x": [0.5, 0.25, 0.125]} for i in range(48)]
        self.mids = []
        self.durations = []
        self._last = -np.inf

    def _kernel(self):
        (self._mats @ self._mats).sum()
        np.linalg.svd(self._small)
        np.sort(self._vec)
        v = self._short
        for _ in range(100):
            v = np.sqrt(v * v + 1.0) - 0.5
        for rec in self._records:
            json.dumps(rec)

    def run(self):
        t0 = clock()
        self._kernel()
        t1 = clock()
        self.mids.append(0.5 * (t0 + t1))
        self.durations.append(t1 - t0)
        self._last = t1

    def maybe(self):
        """Run the probe when INTERVAL_S has passed since the last one."""
        if clock() - self._last >= INTERVAL_S:
            self.run()

    def scale(self, starts, ends):
        """REFERENCE_S / (median probe duration over [start - WINDOW_S,
        end + WINDOW_S]) per interval; the nearest probe where none falls in it."""
        mids = np.asarray(self.mids)
        d = np.asarray(self.durations)
        lo = np.searchsorted(mids, np.asarray(starts) - WINDOW_S)
        hi = np.searchsorted(mids, np.asarray(ends) + WINDOW_S)
        out = np.empty(len(lo))
        for k, (a, b) in enumerate(zip(lo, hi)):
            out[k] = np.median(d[a:b]) if b > a else d[np.abs(mids - starts[k]).argmin()]
        return REFERENCE_S / out

    def seconds_between(self, start, end):
        """Probe time spent inside [start, end]."""
        mids = np.asarray(self.mids)
        return float(np.sum(np.asarray(self.durations)[(mids > start) & (mids < end)]))
