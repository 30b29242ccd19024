"""Machine-speed probe for a shared, drifting CPU.

On a small shared machine the speed of a core drifts by tens of percent over
a few seconds as neighbours come and go, and CPU time drifts with wall time,
so raw times from two runs a minute apart differ by more than most changes
worth measuring. The probe times a fixed kernel owned by the benchmark (small
matrix products, ufuncs and a dict loop, the same mix of numpy calls and
interpreter work the package does) every `INTERVAL_S` seconds: between
operations, and inside long ones through hooks. An operation's normalised
time is its measured time times NOMINAL_PROBE_S over the median probe time
around it, that is, its time on a machine where the probe takes
NOMINAL_PROBE_S. Time spent inside the probe is taken out of the
operation's measured time.
"""

import bisect
import contextlib
import statistics
import time

import numpy as np

from fsalign import training

_now = time.perf_counter

# probe time on an idle core of the machine the references were recorded on
# (2-core x86_64, Python 3.11, numpy 2.4, OpenBLAS on one thread)
NOMINAL_PROBE_S = 1.5e-3
INTERVAL_S = 0.1

_rng = np.random.default_rng(20126)
_A = _rng.normal(size=(32, 288))
_B = _rng.normal(size=(288, 256))
_X = _rng.normal(size=(40, 2))

# hooked so the longest operation, building and grouping a training corpus
# in set-up, is probed from inside too
HOOKS = ((training, "cluster_box_centers"),)


def kernel():
    total = 0.0
    for _ in range(6):
        c = np.tanh(_A @ _B) * 0.5 + 1.0
        d = _X[:, None, :] - _X[None, :, :]
        w = np.exp(-(d * d).sum(axis=2))
        total += float(c.sum()) + float(((w @ _X) / w.sum(axis=1)[:, None]).sum())
    table = {}
    for i in range(3000):
        table[i & 1023] = i * 3
    return total + len(table)


class SpeedProbe:
    def __init__(self):
        self.times = []   # probe midpoints
        self.values = []  # probe durations, seconds
        self.spent = 0.0  # total seconds spent probing
        self._last = float("-inf")

    def probe(self):
        t0 = _now()
        kernel()
        t1 = _now()
        self.times.append(0.5 * (t0 + t1))
        self.values.append(t1 - t0)
        self.spent += t1 - t0
        self._last = t1

    def tick(self):
        if _now() - self._last >= INTERVAL_S:
            self.probe()

    def scale(self, start, end):
        """NOMINAL_PROBE_S over the median probe time from the last probe
        before `start` to the first probe after `end`."""
        lo = max(bisect.bisect_left(self.times, start) - 1, 0)
        hi = bisect.bisect_right(self.times, end) + 1
        return NOMINAL_PROBE_S / statistics.median(self.values[lo:hi])

    @contextlib.contextmanager
    def hooked(self):
        """Probe from inside the functions in HOOKS for the block."""
        saved = []
        try:
            for owner, attr in HOOKS:
                original = owner.__dict__[attr]
                setattr(owner, attr, self._hook(original))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _hook(self, fn):
        def hooked(*args, **kwargs):
            self.tick()
            return fn(*args, **kwargs)

        return hooked
