"""The host's speed, sampled by a fixed reference kernel run beside the program.

A shared host does not run at one speed.  On the 2-vCPU VM this benchmark
was tuned on, one search step took about 15 ms or about 25 to 30 ms,
switching every few seconds to a minute as other tenants came and went,
while the guest reported no steal time.  The medians of 20-second
stretches of one long run of search steps then spread by 25% (quartile
distance over median), the largest bound a metric may have.  The
reference kernel below does not call ``routegrad``, so its time measures
the host alone.  Timing it between measured intervals gives each
interval's host slowdown, and dividing by it gives the interval's time at
nominal host speed: over the same stretches the spread fell to 3%.
"""

from __future__ import annotations

import heapq
import math
from time import perf_counter

import numpy as np

# The kernel's time at nominal host speed without array passes, about its
# median on that VM (2.1 GHz Xeon), and the time each MiB streamed adds.  A
# measured interval is reported as its time on a host that runs the
# kernel in exactly this long.
NOMINAL_S = 0.004
NOMINAL_PER_MIB_S = 0.00035
# Measured time between two samples of the host, and the kernel time of
# a sample as a share of the measured time since the previous one.
EVERY_S = 0.2
SHARE = 0.1


class HostSpeed:
    """Samples the host's slowdown: kernel time over its nominal time.

    The kernel is interpreted Dijkstra with ``heapq`` from several sources
    of a fixed graph, then small matrix products, then ``passes``
    element-wise passes over an array of ``mib`` MiB.  The passes are for
    workloads that stream arrays through the caches: with arrays of about
    the size such a workload streams, the kernel slows down with the host
    as the workload does.  The nominal time is :data:`NOMINAL_S` plus
    :data:`NOMINAL_PER_MIB_S` per MiB streamed.
    """

    def __init__(self, mib: int = 0, passes: int = 0):
        rng = np.random.default_rng(20000)
        self.n = 150
        self.adj = [
            [(int(v), float(rng.uniform(1.0, 20.0))) for v in rng.choice(self.n, 6, replace=False) if v != u]
            for u in range(self.n)
        ]
        self.small = rng.standard_normal((64, 64)) / 8.0
        self.large = rng.standard_normal(mib << 17)
        self.buffer = np.empty_like(self.large)
        self.passes = passes
        self.nominal_s = NOMINAL_S + NOMINAL_PER_MIB_S * mib * passes

    def kernel(self) -> float:
        total = 0.0
        for source in range(0, self.n, 10):
            dist = [math.inf] * self.n
            dist[source] = 0.0
            heap = [(0.0, source)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for v, w in self.adj[u]:
                    if d + w < dist[v]:
                        dist[v] = d + w
                        heapq.heappush(heap, (d + w, v))
            total += sum(dist)
        for _ in range(20):
            total += float(np.tanh(self.small @ self.small)[0, 0])
        for _ in range(self.passes):
            np.multiply(self.large, self.large, out=self.buffer)
            self.buffer += 1.0
            np.sqrt(self.buffer, out=self.buffer)
            total += float(self.buffer.sum())
        return total

    def sample(self, interval_s: float) -> float:
        """The host's slowdown: 1.0 at nominal speed, 2.0 when the kernel
        takes twice its nominal time.

        One untimed call first refills the caches the measured code
        evicted, so what the program does to the caches does not show
        here; then the kernel runs about ``SHARE * interval_s``.
        """
        self.kernel()
        reps = max(1, round(SHARE * interval_s / self.nominal_s))
        t0 = perf_counter()
        for _ in range(reps):
            self.kernel()
        return (perf_counter() - t0) / reps / self.nominal_s


class Calibration:
    """Host slowdowns around a sequence of measured intervals.

    The host is sampled before the first interval and then after each
    interval that brings the measured time since the last sample to
    :data:`EVERY_S`; an interval's slowdown is the mean of the samples on
    either side of it.
    """

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self.samples = [speed.sample(0.0)]
        self.closing = []  # per interval, the index of the sample after it
        self.owed = 0.0  # measured time since the last sample

    def measured(self, elapsed: float) -> None:
        """Records one interval and may sample the host (call it untimed)."""
        self.closing.append(len(self.samples))
        self.owed += elapsed
        if self.owed >= EVERY_S:
            self.samples.append(self.speed.sample(self.owed))
            self.owed = 0.0

    def slowdowns(self) -> np.ndarray:
        """One slowdown per measured interval."""
        if self.owed:
            self.samples.append(self.speed.sample(self.owed))
            self.owed = 0.0
        s, k = np.array(self.samples), np.array(self.closing)
        return (s[k - 1] + s[k]) / 2
