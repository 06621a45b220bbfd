"""Queueing resources and measurement helpers for the simulator.

:class:`FifoServer` models a work-conserving FIFO server (a NIC port, a
DRAM controller): jobs are served in submission order, each occupying the
server for its service time.  Queueing delay under load is what produces
the throughput-latency saturation curves of the paper's Fig 5.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Dict, List

from ..errors import InvalidArgument
from .engine import Engine, Event


class FifoServer:
    """A FIFO queue in front of ``capacity`` identical servers.

    ``submit(service_time)`` returns an event that fires when the job has
    *finished* service.  With capacity 1 this is an M/G/1-style station;
    NICs with multiple processing units can use a higher capacity.
    """

    def __init__(self, engine: Engine, name: str, capacity: int = 1):
        if capacity < 1:
            raise InvalidArgument("capacity must be >= 1")
        self.engine = engine
        self.name = name
        self.capacity = capacity
        # Min-heap of times at which each server becomes free.  The
        # ubiquitous capacity-1 station (every NIC in the default
        # cluster) keeps its single free time in a scalar instead.
        self._free_at: List[int] = [0] * capacity
        heapq.heapify(self._free_at)
        self._free1: int = 0
        self.busy_time: int = 0
        self.jobs: int = 0

    def submit(self, service_time: int, arrive_delay: int = 0) -> Event:
        """Enqueue a job needing ``service_time`` ns; event fires at completion.

        ``arrive_delay`` models a job that reaches this station only after a
        fixed delay (e.g. wire propagation): service cannot start before
        ``now + arrive_delay``.
        """
        if service_time < 0:
            raise InvalidArgument("service_time must be >= 0")
        if arrive_delay < 0:
            raise InvalidArgument("arrive_delay must be >= 0")
        now = self.engine.now
        if self.capacity == 1:
            start = now + arrive_delay
            if self._free1 > start:
                start = self._free1
            done = start + service_time
            self._free1 = done
        else:
            free_at = heapq.heappop(self._free_at)
            start = max(now + arrive_delay, free_at)
            done = start + service_time
            heapq.heappush(self._free_at, done)
        self.busy_time += service_time
        self.jobs += 1
        return self.engine.timeout(done - now)

    def utilization(self) -> float:
        """Fraction of elapsed simulated time this station spent busy."""
        if self.engine.now == 0:
            return 0.0
        return self.busy_time / (self.engine.now * self.capacity)

    def backlog_ns(self, now: int) -> int:
        """Accepted-but-unfinished work, in ns, ahead of a job arriving
        at simulated time ``now`` - the queue-depth gauge sampled by
        :class:`repro.obs.Tracer`."""
        free = self._free1 if self.capacity == 1 else self._free_at[0]
        return free - now if free > now else 0

    def reset_stats(self) -> None:
        self.busy_time = 0
        self.jobs = 0


class LatencyRecorder:
    """Collects per-operation latencies (ns) and summarizes them.

    Samples live in an ``array('q')`` (8 bytes each) instead of a Python
    list of boxed ints (~32 bytes each plus pointer): a 400k-key grid
    cell records millions of latencies per run, and the recorder used to
    keep *two* full int lists resident (``samples`` plus the sorted
    view).  ``array`` supports the same ``==``/``len``/iteration
    contract the equivalence suites rely on, and pickles across the
    fork-pool boundary.
    """

    def __init__(self):
        self.samples: array = array("q")
        # Sorted view, computed on the first percentile() call and
        # reused until the next record(); summary() alone asks for two
        # percentiles, so re-sorting per call dominated reporting time.
        self._sorted: List[int] | None = None

    def record(self, latency_ns: int) -> None:
        self.samples.append(latency_ns)
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self.samples)

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile, p in [0, 100]."""
        if not self.samples:
            return 0.0
        data = self._sorted
        if data is None or len(data) != len(self.samples):
            data = self._sorted = sorted(self.samples)
        if len(data) == 1:
            return float(data[0])
        rank = (p / 100.0) * (len(data) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(data) - 1)
        frac = rank - lo
        return data[lo] * (1.0 - frac) + data[hi] * frac

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean_ns": self.mean(),
            "p50_ns": self.percentile(50),
            "p99_ns": self.percentile(99),
        }
