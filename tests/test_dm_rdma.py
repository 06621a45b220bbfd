"""Unit tests for RDMA verbs and executors (timing + semantics)."""

import pytest

from repro.dm import (
    Batch,
    CasOp,
    Cluster,
    ClusterConfig,
    DirectExecutor,
    FaaOp,
    LocalCompute,
    NetworkConfig,
    OpStats,
    ReadOp,
    SimExecutor,
    WriteOp,
)
from repro.dm.memory import addr_mn, addr_offset
from repro.errors import ClientCrash, InjectedFault, MNUnavailable, \
    SimulationError
from repro.fault import FaultPlan, crash_cn, crash_mn, delay, drop, \
    duplicate, stale_cas


@pytest.fixture
def setup():
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=1 << 20))
    addr = cluster.alloc(0, 64)
    return cluster, addr


def test_direct_read_write(setup):
    cluster, addr = setup
    ex = cluster.direct_executor()

    def op():
        yield WriteOp(addr, b"abc")
        data = yield ReadOp(addr, 3)
        return data

    assert ex.run(op()) == b"abc"
    assert ex.stats.round_trips == 2
    assert ex.stats.bytes_written == 3
    assert ex.stats.bytes_read == 3


def test_direct_cas_faa(setup):
    cluster, addr = setup
    ex = cluster.direct_executor()

    def op():
        ok, old = yield CasOp(addr, 0, 41)
        before = yield FaaOp(addr, 1)
        value = yield ReadOp(addr, 8)
        return ok, old, before, int.from_bytes(value, "little")

    assert ex.run(op()) == (True, 0, 41, 42)


def test_batch_counts_one_round_trip(setup):
    cluster, addr = setup
    ex = cluster.direct_executor()

    def op():
        results = yield Batch([WriteOp(addr, b"x"), ReadOp(addr, 1)])
        return results

    results = ex.run(op())
    assert results[1] == b"x"
    assert ex.stats.round_trips == 1
    assert ex.stats.messages == 2
    assert ex.stats.batches == 1


def test_batch_rejects_nested():
    with pytest.raises(SimulationError):
        Batch([Batch([ReadOp(0, 1)])])
    with pytest.raises(SimulationError):
        Batch([LocalCompute(5)])


def test_sim_executor_same_results_as_direct(setup):
    cluster, addr = setup

    def op():
        yield WriteOp(addr, b"hello")
        ok, _ = yield CasOp(addr, int.from_bytes(b"hello" + bytes(3),
                                                 "little"), 7)
        data = yield ReadOp(addr, 8)
        return ok, data

    sx = cluster.sim_executor(0)
    p = cluster.engine.process(sx.run(op()))
    ok, data = cluster.engine.run_until_complete(p)
    assert ok and int.from_bytes(data, "little") == 7


def test_sim_verb_latency_matches_model():
    net = NetworkConfig()
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=1 << 20, network=net))
    addr = cluster.alloc(0, 64)
    sx = cluster.sim_executor(0)

    def op():
        yield ReadOp(addr, 8)

    p = cluster.engine.process(sx.run(op()))
    cluster.engine.run_until_complete(p)
    assert cluster.engine.now == net.unloaded_rtt_ns(0, 8)


def test_sim_batch_is_one_rtt_not_n():
    net = NetworkConfig()
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=1 << 20, network=net))
    addr = cluster.alloc(0, 256)
    sx = cluster.sim_executor(0)

    def op():
        yield Batch([ReadOp(addr + i * 8, 8) for i in range(8)])

    p = cluster.engine.process(sx.run(op()))
    cluster.engine.run_until_complete(p)
    one_rtt = net.unloaded_rtt_ns(0, 8)
    # Batched verbs pipeline: total time is far below 8 sequential RTTs,
    # but above a single verb (NIC serialization of 8 messages).
    assert one_rtt < cluster.engine.now < 3 * one_rtt


def test_sim_batch_same_mn_ordered(setup):
    """Verbs in a batch to one MN execute in posted order (the insert
    protocol of the RACE client depends on this)."""
    cluster, addr = setup
    sx = cluster.sim_executor(0)

    def op():
        results = yield Batch([
            CasOp(addr, 0, 99),
            ReadOp(addr, 8),
        ])
        return results

    p = cluster.engine.process(sx.run(op()))
    (ok, _), data = cluster.engine.run_until_complete(p)
    assert ok
    assert int.from_bytes(data, "little") == 99


def test_local_compute_advances_clock_only(setup):
    cluster, addr = setup
    sx = cluster.sim_executor(0)

    def op():
        yield LocalCompute(12_345)

    p = cluster.engine.process(sx.run(op()))
    cluster.engine.run_until_complete(p)
    assert cluster.engine.now == 12_345
    assert sx.stats.round_trips == 0


def test_nic_contention_creates_queueing():
    net = NetworkConfig()
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=1 << 20, network=net))
    addr = cluster.alloc(0, 8)
    finish_times = []

    def client():
        sx = cluster.sim_executor(0)

        def op():
            yield ReadOp(addr, 8)
        yield from sx.run(op())
        finish_times.append(cluster.engine.now)

    for _ in range(20):
        cluster.engine.process(client())
    cluster.engine.run()
    # All clients share one CN NIC: completions must spread out.
    assert len(set(finish_times)) == 20


def test_op_stats_merge():
    a = OpStats(reads=1, round_trips=2)
    b = OpStats(reads=3, writes=1, round_trips=1)
    a.merge(b)
    assert a.reads == 4 and a.writes == 1 and a.round_trips == 3


def test_batch_rejects_empty():
    # An empty doorbell would silently charge a round trip for nothing.
    with pytest.raises(SimulationError, match="empty batch"):
        Batch([])
    with pytest.raises(SimulationError, match="empty batch"):
        Batch(())


def test_sim_verb_budget_without_fault_plan(setup):
    cluster, addr = setup
    sx = cluster.sim_executor(0)
    sx.arm_verb_budget(10)

    def reads():
        for _ in range(100):
            yield ReadOp(addr, 8)

    p = cluster.engine.process(sx.run(reads()))
    with pytest.raises(SimulationError, match="verb budget exceeded"):
        cluster.engine.run_until_complete(p)
    assert sx.stats.messages == 11


# -- Direct-vs-Sim fault parity ---------------------------------------------
#
# One scenario per fault verdict.  Both executors share a client id and
# every recorded fault fires at simulated time 0, so the injector
# schedules must match field for field; OpStats must match because both
# count a verb exactly when its request left the CN NIC.

_WORD = (5).to_bytes(8, "little")

SCENARIOS = ("dead_mn", "nak", "drop_applied", "drop_unapplied",
             "crash_cn_applied", "crash_cn_unapplied", "delay", "duplicate",
             "stale_cas")


def _scenario(name, cluster, a0, a1):
    """(fault rules, ops run one per executor.run) for one verdict."""
    unroutable = a0 - addr_offset(a0) + cluster.memories[0].capacity + 64
    write = [WriteOp(a0, b"faulted!"), ReadOp(a0, 8)]
    return {
        "dead_mn": ((crash_mn(1, at_verb=0),), [ReadOp(a1, 8), ReadOp(a0, 8)]),
        "nak": ((), [ReadOp(unroutable, 8), ReadOp(a0, 8)]),
        "drop_applied": ((drop(1.0, ("write",), applied_prob=1.0),), write),
        "drop_unapplied": ((drop(1.0, ("write",)),), write),
        "crash_cn_applied": ((crash_cn(0, applied_prob=1.0),), write),
        "crash_cn_unapplied": ((crash_cn(0),), write),
        "delay": ((delay(1.0, 500, ("write",)),), write),
        "duplicate": ((duplicate(1.0, ("faa",)),),
                      [FaaOp(a0, 3), ReadOp(a0, 8)]),
        "stale_cas": ((stale_cas(1.0),), [CasOp(a0, 5, 9), ReadOp(a0, 8)]),
    }[name]


def _one(op):
    return (yield op)


def _fault_run(name, kind):
    """Run scenario ``name`` on a fresh cluster under one executor kind;
    returns (outcomes, OpStats, fault schedule, final memory words)."""
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=1 << 20))
    a0, a1 = cluster.alloc(0, 64), cluster.alloc(1, 64)
    # The words are created by client "c" itself, so under REPRO_SAN=1
    # its later plain writes touch private, unpublished objects.
    init = DirectExecutor(cluster.memories, client_id="c",
                          monitor=cluster.monitor)
    for addr in (a0, a1):
        init.run(_one(WriteOp(addr, _WORD)))
    rules, ops = _scenario(name, cluster, a0, a1)
    injector = cluster.attach_faults(FaultPlan(rules=rules, seed=1))
    if name == "dead_mn":
        # Another client's verb fires the scheduled MN crash at time 0.
        DirectExecutor(cluster.memories, client_id="setup",
                       injector=injector).run(_one(ReadOp(a0, 8)))
    if kind == "direct":
        ex = DirectExecutor(cluster.memories, client_id="c",
                            clock=lambda: cluster.engine.now,
                            monitor=cluster.monitor, injector=injector)
    else:
        ex = SimExecutor(cluster.engine, cluster.memories,
                         cluster.cn_nics[0], cluster.mn_nics,
                         cluster.config.network, client_id="c",
                         monitor=cluster.monitor, injector=injector)
    outcomes = []

    def client():
        for op in ops:
            try:
                if kind == "direct":
                    value = ex.run(_one(op))
                else:
                    value = yield from ex.run(_one(op))
                outcomes.append(("ok", value))
            except (ClientCrash, InjectedFault, MNUnavailable) as exc:
                outcomes.append((type(exc).__name__,
                                 getattr(exc, "applied", None)))

    cluster.engine.run_until_complete(cluster.engine.process(client()))
    words = [cluster.memories[addr_mn(a)].read(addr_offset(a), 8)
             for a in (a0, a1)]
    return outcomes, ex.stats, injector.schedule(), words


@pytest.mark.parametrize("name", SCENARIOS)
def test_fault_verdict_parity_direct_vs_sim(name):
    direct = _fault_run(name, "direct")
    sim = _fault_run(name, "sim")
    assert direct[0] == sim[0]
    assert direct[1] == sim[1]
    assert direct[2] == sim[2]
    assert direct[3] == sim[3]
    assert direct[1].faults_injected == 1


def test_fault_verdict_counts_only_sent_requests():
    # crash_cn before the request left the NIC, and the latched verb
    # after it, never reach the fabric: neither is counted.
    outcomes, stats, _, _ = _fault_run("crash_cn_unapplied", "direct")
    assert outcomes == [("ClientCrash", False), ("ClientCrash", False)]
    assert (stats.messages, stats.writes, stats.reads) == (0, 0, 0)
    # A verb to a dead MN did leave the CN NIC.
    outcomes, stats, _, _ = _fault_run("dead_mn", "sim")
    assert outcomes[0] == ("MNUnavailable", None)
    assert (stats.messages, stats.reads) == (2, 2)
