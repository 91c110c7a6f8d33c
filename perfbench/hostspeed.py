"""Host speed probe: a fixed piece of work timed next to every job.

On a shared 2-vCPU x86-64 cloud virtual machine (Intel Xeon) the CPU speed
drifted by up to 2x in phases of tens of seconds (the process's CPU time
grew with its wall time, so the vCPU ran slower rather than being
descheduled), and medians of 36 s runs of the same code spread by 18-32%
in raw seconds, whatever the program did.

The probe does not use curvcalc. It does four kinds of work that the
workloads slow down with in different proportions, each sized to take
about a quarter of the probe right after a job: a pure-Python dict loop,
small numpy SVDs, a numpy gather from a 16 MB array and a pure-Python
random walk over a 200,000-item list (the last two go past the private
caches, so they feel neighbours that share the memory system).
Every measured time is multiplied by REFERENCE_S over the probe time taken
around it, so the benchmark reports seconds on a reference host on which
the probe takes REFERENCE_S. The raw seconds are printed beside them.
"""

import time

import numpy as np

# About the probe's time in the fast phases of a 2-vCPU x86-64 cloud VM
# (Intel Xeon, Python 3.11, numpy 2.4); the unit of the reported times,
# not a measurement.
REFERENCE_S = 0.004


class HostProbe:
    """The probe's inputs, built once; calling it times the probe."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((40, 12))
        self._array = rng.standard_normal(2_000_000)
        self._gather = rng.integers(0, self._array.size, 65_000)
        self._list = list(range(200_000))
        self._walk = rng.permutation(len(self._list))[:4_500].tolist()

    def _python_work(self):
        table = {}
        for i in range(7_500):
            table[i % 97] = table.get(i % 97, 0) + i * i
        return table

    def _numpy_work(self):
        for _ in range(20):
            np.linalg.svd(self._matrix, full_matrices=False)
        return self._array[self._gather].sum()

    def _memory_walk(self):
        items = self._list
        return sum(items[i] for i in self._walk)

    def __call__(self):
        """Seconds the fixed probe work takes now."""
        start = time.perf_counter()
        self._python_work()
        self._numpy_work()
        self._memory_walk()
        return time.perf_counter() - start


def scale(probe_s):
    """Factor from this host's seconds to reference seconds, given the
    probe time measured next to a measurement."""
    return REFERENCE_S / probe_s
