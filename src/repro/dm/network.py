"""Network and NIC model for the simulated DM cluster.

The paper's performance argument is about *messages and bytes through
NICs*: tree traversal costs one round trip per level; the inner-node hash
table costs Theta(L) parallel messages; the succinct filter cache brings
that down to one.  We therefore model each NIC as a FIFO station with a
per-message processing cost plus a serialization cost proportional to the
message size, and a fixed propagation delay between CNs and MNs.  Queueing
at these stations under increasing worker counts produces the saturation
behaviour of Fig 5.

Defaults approximate the paper's testbed (ConnectX-6, ~2 us RTT,
100 Gbps): one verb's unloaded round trip is

    cn_msg + prop + mn_msg + mem + mn_msg + prop + cn_msg  ~=  2.0 us
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from ..sim import Engine, FifoServer


@dataclass(frozen=True)
class NetworkConfig:
    """Timing parameters of the simulated fabric (all times ns)."""

    prop_ns: int = 800
    """One-way propagation + switching delay between a CN and an MN."""

    cn_msg_ns: int = 25
    """Per-message processing cost at a compute-node NIC (40 Mmsg/s)."""

    mn_msg_ns: int = 25
    """Per-message processing cost at a memory-node NIC."""

    bytes_per_ns: float = 12.5
    """Serialization bandwidth, 12.5 B/ns = 100 Gbps."""

    mem_access_ns: int = 80
    """DRAM + PCIe DMA access latency on the memory side."""

    atomic_extra_ns: int = 30
    """Extra NIC-side cost of CAS/FAA over a plain READ/WRITE."""

    cn_nic_capacity: int = 1
    """Parallel message-processing units per CN NIC."""

    mn_nic_capacity: int = 1
    """Parallel message-processing units per MN NIC."""

    header_bytes: int = 32
    """Per-message wire overhead (RoCE/IB headers) added to payloads."""

    def msg_service_ns(self, side: str, payload_bytes: int) -> int:
        """Service time for one message carrying ``payload_bytes``."""
        per_msg = self.cn_msg_ns if side == "cn" else self.mn_msg_ns
        wire = payload_bytes + self.header_bytes
        return per_msg + int(wire / self.bytes_per_ns)

    def unloaded_rtt_ns(self, req_bytes: int = 0, resp_bytes: int = 8) -> int:
        """Latency of a single verb with no queueing (sanity/testing aid)."""
        return (self.msg_service_ns("cn", req_bytes)
                + self.prop_ns
                + self.msg_service_ns("mn", req_bytes)
                + self.mem_access_ns
                + self.msg_service_ns("mn", resp_bytes)
                + self.prop_ns
                + self.msg_service_ns("cn", resp_bytes))


@dataclass
class Nic:
    """One NIC: a FIFO message-processing station plus byte accounting."""

    engine: Engine
    name: str
    config: NetworkConfig
    side: str  # "cn" or "mn"
    capacity: int = 1
    server: FifoServer = field(init=False)
    messages: int = field(init=False, default=0)
    payload_bytes: int = field(init=False, default=0)

    def __post_init__(self):
        self.server = FifoServer(self.engine, self.name, self.capacity)
        # Service time is a pure function of the payload size and the
        # (frozen) config, and verbs reuse a handful of payload sizes, so
        # memoize rather than redo the bandwidth arithmetic per message.
        self._service_ns: dict = {}

    def process(self, payload_bytes: int, extra_ns: int = 0,
                arrive_delay: int = 0):
        """Submit one message; returns the completion event.

        ``arrive_delay`` is the wire time before the message reaches this
        NIC (propagation from the far side, DMA completion, ...).
        """
        self.messages += 1
        self.payload_bytes += payload_bytes
        service = self._service_ns.get(payload_bytes)
        if service is None:
            service = self._service_ns[payload_bytes] = \
                self.config.msg_service_ns(self.side, payload_bytes)
        return self.server.submit(service + extra_ns, arrive_delay)

    def service_ns(self, payload_bytes: int) -> int:
        """Memoized service time for one message of ``payload_bytes``."""
        service = self._service_ns.get(payload_bytes)
        if service is None:
            service = self._service_ns[payload_bytes] = \
                self.config.msg_service_ns(self.side, payload_bytes)
        return service

    def charge(self, payload_bytes: int, extra_ns: int = 0,
               arrive_delay: int = 0) -> int:
        """Account one message and advance the FIFO station, returning
        the **absolute** completion time without scheduling an event.

        Exactly :meth:`process` minus the event: same counters, same
        station math.  The verb trips in :mod:`repro.dm.rdma` use this to
        schedule one pooled timeout per stage instead of going through
        ``FifoServer.submit``.
        """
        self.messages += 1
        self.payload_bytes += payload_bytes
        service = self.service_ns(payload_bytes) + extra_ns
        server = self.server
        now = self.engine.now
        if server.capacity == 1:
            start = now + arrive_delay
            free = server._free1
            if free > start:
                start = free
            done = start + service
            server._free1 = done
            server.busy_time += service
            server.jobs += 1
            return done
        free_at = heapq.heappop(server._free_at)
        done = max(now + arrive_delay, free_at) + service
        heapq.heappush(server._free_at, done)
        server.busy_time += service
        server.jobs += 1
        return done

    def utilization(self) -> float:
        return self.server.utilization()

    def reset_stats(self) -> None:
        self.messages = 0
        self.payload_bytes = 0
        self.server.reset_stats()
