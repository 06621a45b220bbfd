"""The benchmark's workloads: set-up, timed phase, output check, results.

Each workload is a :class:`Workload` with the same steps, so one round of
the benchmark (``perfbench.round``) can run any of them:

* ``setup()`` - generate the inputs, build the cluster or rack and
  bulk-load it (plus cache warm-up for the Sphinx workloads).  This is
  what ``setup_s`` times.
* ``run()`` - the timed phase: closed-loop YCSB clients on the simulated
  clock, and for ``rack-failover`` the topology and failover work that
  runs beside them.  This is what ``ops_per_s`` times.
* ``check()`` - the output-correctness check; returns a list of
  problems (empty when the outputs are correct).
* ``sim_metrics()`` / ``layer_counts()`` - the simulated results and the
  program's own counters over the timed phase.

Each workload loads a fixed key set (``DATASET_SEED``, the figure
harness's dataset seed): under zipfian load the MN that happens to hold
the hottest keys bounds simulated throughput, so a per-seed key set would
make the workload's results a lottery over hot-key placement.  The
benchmark seed drives everything else: the client op streams (keys, scan
lengths, op mix), the cache warm-up and the fault plan.  Sizes are fixed
here; ``README.md`` in this directory says why each was chosen.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.harness import make_index
from repro.dm import Cluster, ClusterConfig
from repro.dm.rack import ClusterSpec, Rack
from repro.fault import FaultPlan, crash_mn
from repro.obs.counters import Counters, client_counters
from repro.recover.failover import FailoverManager
from repro.recover.rebalance import Rebalancer
from repro.tenancy import TenancyController, default_tenants
from repro.tools.fsck import check_index, collect_leaves
from repro.ycsb import bulk_load, make_dataset, run_workload, \
    warm_clients, workload

VALUE_SIZE = 64  # the loader's and YCSB's value size
DATASET_SEED = 1


def expected_value(seq: int) -> bytes:
    """The payload the loader and the YCSB clients write for stamp ``seq``
    (its 8-byte little-endian stamp, repeated to the value size)."""
    stamp = seq.to_bytes(8, "little")
    return (stamp * (VALUE_SIZE // 8 + 1))[:VALUE_SIZE]


def _stamp(value: bytes) -> int:
    """The stamp of a well-formed payload, or -1 for a malformed one."""
    if len(value) != VALUE_SIZE:
        return -1
    seq = int.from_bytes(value[:8], "little")
    return seq if value == expected_value(seq) else -1


class Workload:
    """One benchmark workload; subclasses build ``cluster``/``index`` in
    :meth:`setup` and run the traffic in :meth:`_traffic`."""

    name = ""
    keys = 0
    insert_pool = 0
    ops = 0

    def __init__(self, seed: int):
        self.seed = seed

    def _counters(self) -> Counters:
        return Counters.aggregate(
            client_counters(self.index.client(cn))
            for cn in range(self.cluster.config.num_cns))

    def run(self) -> None:
        engine = self.cluster.engine
        self.before = self._counters()
        events_before = engine.events_processed
        self.result = self._traffic()
        self.events = engine.events_processed - events_before
        self.after = self._counters()

    def sim_metrics(self) -> Dict[str, float]:
        result = self.result
        latency = result.latency
        mn_bytes = sum(self.cluster.mn_bytes_by_category().values())
        return {
            "sim_mops": result.throughput_mops,
            "sim_p50_us": latency.percentile(50) / 1e3,
            "sim_p99_us": latency.percentile(99) / 1e3,
            "latency_samples": latency.count,
            "rtt_per_op": result.round_trips_per_op,
            "mn_bytes_per_key": mn_bytes / self.live_keys(),
            "failed_frac": result.failed_ops / result.ops,
        }

    def layer_counts(self) -> Dict[str, float]:
        """Program counters over the timed phase, for the per-layer
        ratios (see ``perfbench.layers.layer_metrics``)."""
        result = self.result
        delta = {name: self.after[name] - self.before[name]
                 for name in self.after}
        stats = result.op_stats
        latency = result.latency
        # Simulated wait beyond the unloaded RTT: op latency minus each
        # round trip at the unloaded RTT of a minimal verb, minus local
        # compute.
        unloaded = stats.round_trips \
            * self.cluster.config.network.unloaded_rtt_ns() \
            + stats.local_compute_ns
        counts = {
            "events": self.events,
            "restarts": delta.get("op_restarts", 0)
            + delta.get("fault_restarts", 0),
            "filter_evictions": delta.get("filter_evictions", 0),
            "inht_fallbacks": delta.get("inht_fallbacks", 0),
            "multi_candidate_lookups":
                delta.get("multi_candidate_lookups", 0),
            "mn_busy_frac": max(u for name, u in
                                result.nic_utilization.items()
                                if name.startswith("mn")),
            "queue_ns_per_op": (latency.mean() * latency.count - unloaded)
            / result.ops,
        }
        counts.update(self._rack_counts())
        return counts

    def _rack_counts(self) -> Dict[str, int]:
        return {"replica_writes": 0, "replica_fallback_reads": 0,
                "keys_moved": 0, "promotions": 0}


class SphinxWorkload(Workload):
    """Sphinx on the default 3 CN / 3 MN cluster, 192 closed-loop clients.

    The filter budget is the paper's 20 MB per 60 M keys scaled to the
    dataset (``scaled_cache_bytes``), so the dataset-to-cache ratio is
    the paper's.
    """

    dataset = ""
    ycsb = ""
    workers = 192

    def setup(self) -> None:
        self.data = make_dataset(self.dataset, self.keys, seed=DATASET_SEED,
                                 insert_pool=self.insert_pool)
        self.cluster = Cluster(ClusterConfig())
        self.index = make_index("Sphinx", self.cluster, self.keys)
        bulk_load(self.cluster, self.index, self.data)
        self.spec = workload(self.ycsb)
        warm_clients(self.cluster, self.index, self.spec, self.data,
                     min(2_000, self.keys // 4), self.seed)

    def _traffic(self):
        return run_workload(self.cluster, self.index, self.spec, self.data,
                            system="Sphinx", workers=self.workers,
                            ops=self.ops, seed=self.seed)

    @property
    def failed(self) -> int:
        return self.result.failed_ops

    def inserted(self) -> Dict[bytes, bytes]:
        """Acknowledged inserts and their payloads: the runner pops the
        insert pool from its end and stamps the j-th insert ``keys + j``."""
        done = self.result.latency_by_op.get("insert")
        count = done.count if done is not None else 0
        pool = self.data.insert_pool
        return {pool[-j]: expected_value(self.keys + j)
                for j in range(1, count + 1)}

    def live_keys(self) -> int:
        return self.keys + len(self.inserted())

    def check(self) -> List[str]:
        problems = []
        if self.result.ops != self.ops:
            problems.append(f"ran {self.result.ops} of {self.ops} ops")
        if self.result.failed_ops:
            problems.append(f"{self.result.failed_ops} ops failed")
        report = check_index(self.cluster, self.index)
        if not report.clean or report.findings:
            problems.append(f"fsck not clean: {report.summary()} "
                            f"{report.errors[:3]}")
        leaves = collect_leaves(self.cluster, self.index.root_addr)
        expected = {key: expected_value(i)
                    for i, key in enumerate(self.data.keys)}
        expected.update(self.inserted())
        wrong = [key for key, value in expected.items()
                 if leaves.get(key) != value]
        if wrong:
            problems.append(f"{len(wrong)} keys missing or wrong in the "
                            f"read-back, e.g. {wrong[0]!r}")
        extra = leaves.keys() - expected.keys()
        if extra:
            problems.append(f"{len(extra)} unexpected keys in the "
                            f"read-back")
        return problems


class PointRead(SphinxWorkload):
    """YCSB-C (100% zipfian reads) on ``u64`` keys."""

    name = "point-read"
    dataset = "u64"
    ycsb = "C"
    keys = 12_000
    ops = 192 * 60


class ScanInsert(SphinxWorkload):
    """YCSB-E (95% scans of up to 100 keys, 5% inserts) on ``email`` keys."""

    name = "scan-insert"
    dataset = "email"
    ycsb = "E"
    keys = 12_000
    insert_pool = 1_200
    ops = 192 * 6


class RackFailover(Workload):
    """``rack-failover``: a replicated, multi-tenant rack that serves the
    ``default_tenants`` roster through one online MN-group join, one leave
    and the crash of MN group 1 (both of its MNs, at one injector verb).

    The phases mirror ``repro.tenancy.run_rack``, split so that set-up
    (rack build and bulk load) and the timed phase are measured apart.

    The whole group crashes, not one MN of it: with one MN of a group
    dead, a replica insert into the half-dead cell can spin to the retry
    limit (about 6 ms simulated) before it gives up, and in a third or
    more of the seeds that one op stretched the run to two to three times
    its length, so the simulated throughput of a single-MN crash is
    bimodal across seeds and no bound can hold it.  ``README.md`` has the
    reproduction.
    """

    name = "rack-failover"
    keys = 4_000
    insert_pool = 400
    ops = 8_000
    tenants = 16
    join_ns = 100_000
    leave_ns = 400_000
    crash_at_verb = 10_000
    limit_ns = 10_000_000_000_000
    spec = ClusterSpec(num_cns=4, num_mns=8, group_size=2, num_shards=64,
                       clients=64, replicas=1, mn_capacity_bytes=256 << 20)

    def setup(self) -> None:
        self.data = make_dataset("u64", self.keys, seed=DATASET_SEED,
                                 insert_pool=self.insert_pool)
        self.index = self.rack = Rack(self.spec)
        self.cluster = self.rack.cluster
        bulk_load(self.cluster, self.rack, self.data)

    def _topology(self, start_ns: int):
        """Join one MN group, then drain group 0 (a simulation process)."""
        engine = self.cluster.engine
        for at_ns, step in ((self.join_ns, self.rebalancer.join),
                            (self.leave_ns, lambda: self.rebalancer.leave(0))):
            delay = start_ns + at_ns - engine.now
            if delay > 0:
                yield engine.timeout(delay)
            yield from step()
            self.topology_done += 1

    def _traffic(self):
        rack, cluster = self.rack, self.cluster
        engine = cluster.engine
        self.repl_before = rack.repl.as_dict()
        group = self.spec.group_size
        cluster.attach_faults(FaultPlan(seed=self.seed, rules=tuple(
            crash_mn(mn, at_verb=self.crash_at_verb)
            for mn in range(group, 2 * group))))
        self.rebalancer = Rebalancer(rack)
        self.failover = FailoverManager(rack, self.rebalancer)
        self.topology_done = 0
        start_ns = engine.now
        engine.process(self.failover.daemon(), name="replicationd")
        topology = engine.process(self._topology(start_ns), name="topologyd")
        result = run_workload(
            cluster, rack, workload("A"), self.data, system="Rack",
            workers=self.spec.clients, ops=self.ops, seed=self.seed,
            time_limit_ns=self.limit_ns,
            tenancy=TenancyController(default_tenants(self.tenants)))
        # As run_rack: finish the migrations, then settle every replica
        # set, so the check sees replicas at rest.
        if not topology.triggered:
            engine.run_until_complete(topology,
                                      limit=start_ns + 2 * self.limit_ns)
        engine.run_until_complete(
            engine.process(self.failover.settle(), name="replication-settle"),
            limit=start_ns + 4 * self.limit_ns)
        return result

    @property
    def failed(self) -> int:
        """Ops that failed other than by failing fast on the crashed
        group (degraded mode is the simulated system's intended answer
        and counts in ``failed_frac`` instead)."""
        return self.result.failed_ops - self.result.degraded_ops

    def live_keys(self) -> int:
        return self.rack.total_keys()

    def _rack_counts(self) -> Dict[str, int]:
        repl = self.rack.repl.as_dict()
        return {
            name: repl.get(name, 0) - self.repl_before.get(name, 0)
            for name in ("replica_writes", "replica_fallback_reads")
        } | {
            "keys_moved": sum(m[3] for m in self.rebalancer.completed),
            "promotions": len(self.failover.promotions),
        }

    def check(self) -> List[str]:
        rack = self.rack
        problems = []
        expected_ops = self.ops // self.spec.clients * self.spec.clients
        if self.result.ops != expected_ops:
            problems.append(f"ran {self.result.ops} of {expected_ops} ops")
        if self.failed:
            problems.append(f"{self.failed} ops failed outside degraded "
                            f"mode")
        if self.topology_done != 2:
            problems.append(f"{self.topology_done} of 2 topology events ran")
        if not self.failover.promotions:
            problems.append("the group crash caused no failover")
        forfeits = (len(self.rebalancer.forfeited_chaos)
                    + len(self.rebalancer.forfeited_dead)
                    + len(self.failover.forfeited))
        if forfeits:
            problems.append(f"{forfeits} keys forfeited")
        for gid, report in rack.fsck_all():
            if not report.clean or report.findings:
                problems.append(f"fsck of group {gid} not clean: "
                                f"{report.summary()} {report.errors[:3]}")
        registered = set().union(*rack.registry)
        lost = [key for key in self.data.keys if key not in registered]
        if lost:
            problems.append(f"{len(lost)} loaded keys left the registry, "
                            f"e.g. {lost[0]!r}")
        # Read every committed key back through the router.  Tenants
        # update and insert, so a value must be a well-formed payload
        # stamped by the loader, an insert or an update.
        client = rack.client(0)
        executor = self.cluster.direct_executor()
        max_stamp = max(self.keys + self.insert_pool, self.ops)
        bad = []
        for key in sorted(registered):
            value = executor.run(client.search(key))
            if value is None or not 0 <= _stamp(value) <= max_stamp:
                bad.append(key)
        if bad:
            problems.append(f"{len(bad)} keys missing or wrong in the "
                            f"read-back, e.g. {bad[0]!r}")
        return problems


WORKLOADS = {cls.name: cls for cls in (PointRead, ScanInsert, RackFailover)}
