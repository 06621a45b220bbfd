"""Fast-path equivalence suite.

The batched+pooled dispatch loop and the clean-verb trips are
*performance* features: the ``REPRO_SIM_SLOW=1`` heap-only engine
remains the bit-identical reference oracle.  These tests diff complete
observable digests - benchmark rows, raw latency samples, the final
clock, NIC station counters, and the engine's ``events_processed`` -
across both modes, over clean, chaos, crash-recovery, and
tracer-attached runs.  The mixed-workload digest is also pinned to
literal values, so a schedule change that moves both paths together
still fails.
"""

import hashlib
import random

import pytest

from repro.bench import CellSpec, clear_setup_caches, run_cell
from repro.dm.cluster import Cluster, ClusterConfig
from repro.dm.rdma import Batch, CasOp, FaaOp, LocalCompute, ReadOp, WriteOp
from repro.errors import SimulationError
from repro.sim.engine import _POOL_CAP, Engine

TINY = dict(num_keys=900, ops=140, workers=6, warmup_ops_per_cn=60)

CLEAN = CellSpec(system="Sphinx", dataset="u64", workload="A", **TINY)
CHAOS = CellSpec(system="Sphinx", dataset="u64", workload="A",
                 chaos_seed=5, **TINY)
CRASH = CellSpec(system="Sphinx", dataset="u64", workload="A",
                 chaos_seed=9, chaos_crashes=True, **TINY)
TRACED = CellSpec(system="Sphinx", dataset="u64", workload="A",
                  profile=True, **TINY)
# Locator-family cells: the leaf-locator fast path and the Outback MPH
# baseline issue their own verb shapes (single raw leaf READ), so they
# get their own fast/slow identity coverage.
LOC_CLEAN = CellSpec(system="Sphinx+Loc", dataset="u64", workload="A",
                     **TINY)
OUTBACK_CLEAN = CellSpec(system="Outback", dataset="u64", workload="A",
                         **TINY)


@pytest.fixture(autouse=True)
def _fresh_snapshots():
    # Snapshot caches hold clusters whose Engine pinned its dispatch path
    # at construction; every mode switch needs a cold start.
    clear_setup_caches()
    yield
    clear_setup_caches()


def _cell_digest(cell):
    r = run_cell(cell)
    return (r.row(), tuple(r.latency.samples), r.sim_ns,
            r.op_stats.round_trips, r.op_stats.messages,
            r.op_stats.batches, r.failed_ops, dict(r.faults))


def _slow_digest(cell, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_SLOW", "1")
    clear_setup_caches()
    try:
        return _cell_digest(cell)
    finally:
        monkeypatch.delenv("REPRO_SIM_SLOW")
        clear_setup_caches()


# -- cell-level fast/slow identity ----------------------------------------

def test_clean_cell_fast_matches_slow(monkeypatch):
    assert _cell_digest(CLEAN) == _slow_digest(CLEAN, monkeypatch)


def test_chaos_cell_fast_matches_slow(monkeypatch):
    assert _cell_digest(CHAOS) == _slow_digest(CHAOS, monkeypatch)


def test_crash_recovery_cell_fast_matches_slow(monkeypatch):
    assert _cell_digest(CRASH) == _slow_digest(CRASH, monkeypatch)


def test_traced_cell_fast_matches_slow(monkeypatch):
    assert _cell_digest(TRACED) == _slow_digest(TRACED, monkeypatch)


def test_locator_cell_fast_matches_slow(monkeypatch):
    assert _cell_digest(LOC_CLEAN) == _slow_digest(LOC_CLEAN, monkeypatch)


def test_outback_cell_fast_matches_slow(monkeypatch):
    assert _cell_digest(OUTBACK_CLEAN) == _slow_digest(OUTBACK_CLEAN,
                                                       monkeypatch)


# -- engine-level digest including events_processed -----------------------

def _mixed_digest():
    """Mixed scalar/batch/local workload: a contended phase (several
    clients) then a solo phase (one client on an idle engine).  Returns
    every observable the equivalence contract covers, including the
    event count."""
    cluster = Cluster(ClusterConfig(mn_capacity_bytes=1 << 20))
    addrs = [cluster.alloc(i % 3, 8) for i in range(24)]
    engine = cluster.engine

    def client(sx, seed):
        rng = random.Random(seed)

        def op():
            results = []
            for _ in range(60):
                k = rng.random()
                a = rng.choice(addrs)
                if k < 0.35:
                    results.append(bytes((yield ReadOp(a, 8))))
                elif k < 0.6:
                    yield WriteOp(a, rng.getrandbits(64).to_bytes(8, "little"))
                elif k < 0.7:
                    results.append((yield CasOp(a, 0, rng.getrandbits(16)))[0])
                elif k < 0.78:
                    results.append((yield FaaOp(a, 3)))
                elif k < 0.9:
                    members = [ReadOp(rng.choice(addrs), 8)
                               for _ in range(rng.randint(2, 12))]
                    results.append([bytes(x) for x in (yield Batch(members))])
                else:
                    yield LocalCompute(rng.randint(10, 500))
            return results

        return engine.process(sx.run(op()), name=f"c{seed}")

    procs = [client(cluster.sim_executor(i % 3), 1000 + i) for i in range(3)]
    for p in procs:
        engine.run_until_complete(p)
    solo = engine.run_until_complete(
        client(cluster.sim_executor(0), 7))
    cn = cluster.cn_nics[0]
    mn = cluster.mn_nics[0]
    return (engine.now, engine.events_processed,
            repr([p.value for p in procs]) + repr(solo),
            (cn.messages, cn.payload_bytes, cn.server.busy_time,
             cn.server.jobs),
            (mn.messages, mn.payload_bytes, mn.server.busy_time,
             mn.server.jobs))


#: The mixed workload's (engine.now, events_processed), sha256 of the
#: client results, CN-NIC and MN-NIC (messages, payload_bytes,
#: busy_time, jobs); identical on both dispatch paths.
MIXED_PINNED = (
    208323, 1826,
    "eacecc986d116ec27e4258d4397fced36d6021b47b75d03d3e96e18ea3648e46",
    (322, 1536, 8874, 322),
    (264, 1280, 7787, 264),
)


def test_mixed_workload_identical_across_all_modes(monkeypatch):
    fast = _mixed_digest()

    monkeypatch.setenv("REPRO_SIM_SLOW", "1")
    slow = _mixed_digest()
    monkeypatch.delenv("REPRO_SIM_SLOW")

    assert fast == slow  # includes events_processed equality
    now, events, results, cn, mn = fast
    digest = hashlib.sha256(results.encode()).hexdigest()
    assert (now, events, digest, cn, mn) == MIXED_PINNED


# -- pooling safety --------------------------------------------------------

def test_client_held_timeout_never_recycled():
    """An event the client still references must not enter the pool (its
    value would be clobbered by reuse)."""
    engine = Engine(slow=False)
    held = []

    def proc():
        for i in range(50):
            t = engine.timeout(1, value=i)
            held.append(t)
            yield t

    engine.run_until_complete(engine.process(proc()))
    for i, t in enumerate(held):
        assert t.value == i
    for t in held:
        assert all(t is not p for p in engine._pool)


def test_pool_recycles_and_respects_cap():
    engine = Engine(slow=False)

    def ping():
        for _ in range(200):
            yield engine.timeout(1)

    engine.run_until_complete(engine.process(ping()))
    assert engine._pool, "steady-state timeouts should be recycled"
    assert len(engine._pool) <= _POOL_CAP
    # A recycled event is actually reused by the allocator.
    top = engine._pool[-1]
    assert engine.timeout(1) is top


# -- misbehaving generators ------------------------------------------------

@pytest.mark.parametrize("slow", [False, True])
def test_non_event_yield_raises_and_closes_generator(slow):
    engine = Engine(slow=slow)
    closed = []

    def bad():
        try:
            yield engine.timeout(1)
            yield 42
        finally:
            closed.append(True)

    proc = engine.process(bad(), name="bad")
    with pytest.raises(SimulationError, match="yielded int"):
        engine.run_until_complete(proc)
    assert closed == [True]
