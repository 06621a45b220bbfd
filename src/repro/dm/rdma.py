"""One-sided RDMA verbs and the executors that run them.

Index algorithms in this library are written **once** as plain generators
that yield verb descriptors (:class:`ReadOp`, :class:`WriteOp`,
:class:`CasOp`, :class:`FaaOp`, a doorbell :class:`Batch`, or
:class:`LocalCompute`) and receive the verb's result back.  Two executors
drive such generators:

* :class:`DirectExecutor` applies every verb immediately with no notion of
  time - used for bulk loading, unit tests, and memory measurements.
* :class:`SimExecutor` turns each verb into a timed trip through the
  CN NIC -> fabric -> MN NIC -> DRAM -> back, inside the discrete-event
  engine - used for all benchmarks.  Memory side effects are applied at
  the simulated instant the MN NIC processes the request, so concurrent
  clients interleave with exactly the atomicity of real one-sided RDMA.

A :class:`Batch` models doorbell batching (Kalia et al., ATC'16): all verbs
are posted together, traverse the network in parallel, and the client
resumes when the last completion arrives - one round trip of latency, but
``len(ops)`` messages of NIC load.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from typing import Any, Callable, Generator, Mapping, Optional, Sequence, \
    Tuple, Union

from ..errors import ClientCrash, InjectedFault, MNUnavailable, \
    RetryLimitExceeded, SimulationError
from ..sim.engine import _DEFER, _POOL_CAP, PENDING, \
    Event as SimEvent, Timeout as SimTimeout
from .memory import Memory, addr_mn, addr_offset
from .network import Nic


# --------------------------------------------------------------------------
# Verb descriptors
# --------------------------------------------------------------------------
#
# ``lease`` on WriteOp/CasOp is recovery metadata, not protocol state: a
# lock-acquiring CAS tags itself ``("node",) / ("leaf",) / ("hash", ...)``
# and the verb that releases the lock tags ``("release",)``.  The fabric
# ignores it entirely; only a :class:`repro.recover.LeaseTable` bound via
# ``Cluster.attach_recovery`` reads it (the node header has no spare bits
# for an owner/epoch, so the lease lives CN-side).  The ``None`` default
# keeps untagged verbs - and every pre-recovery schedule - byte-identical.

@dataclass(frozen=True)
class ReadOp:
    """RDMA READ of ``size`` bytes at global address ``addr`` -> bytes."""
    addr: int
    size: int


@dataclass(frozen=True)
class WriteOp:
    """RDMA WRITE of ``data`` at global address ``addr`` -> None."""
    addr: int
    data: bytes
    lease: Optional[tuple] = None


@dataclass(frozen=True)
class CasOp:
    """RDMA CAS on the 8-byte word at ``addr`` -> (swapped, old_value)."""
    addr: int
    expected: int
    desired: int
    lease: Optional[tuple] = None


@dataclass(frozen=True)
class FaaOp:
    """RDMA FAA on the 8-byte word at ``addr`` -> old_value."""
    addr: int
    delta: int


@dataclass(frozen=True)
class LocalCompute:
    """CN-side CPU work of ``ns`` nanoseconds (hashing, filter probes)."""
    ns: int


Verb = Union[ReadOp, WriteOp, CasOp, FaaOp]


@dataclass(frozen=True)
class Batch:
    """A doorbell batch: verbs posted together, completing together."""
    ops: Tuple[Verb, ...]

    def __init__(self, ops: Sequence[Verb]):
        object.__setattr__(self, "ops", tuple(ops))
        if not self.ops:
            # An empty doorbell would silently charge a full round trip
            # for zero messages - always a caller bug.
            raise SimulationError("empty batch: doorbell needs >= 1 verb")
        for op in self.ops:
            if isinstance(op, (Batch, LocalCompute)):
                raise SimulationError("batches must contain plain verbs")


OpOrBatch = Union[Verb, Batch, LocalCompute]
OpGenerator = Generator[OpOrBatch, Any, Any]


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------

@dataclass
class OpStats:
    """Verb-level counters for one executor (one client)."""

    reads: int = 0
    writes: int = 0
    cas: int = 0
    faa: int = 0
    round_trips: int = 0
    messages: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    batches: int = 0
    local_compute_ns: int = 0
    faults_injected: int = 0  # verbs perturbed by an attached FaultPlan

    def count_verb(self, op: Verb) -> None:
        # Exact-class dispatch: the verb set is closed (no subclassing),
        # and this runs once per verb of every benchmark op.
        cls = op.__class__
        if cls is ReadOp:
            self.reads += 1
            self.bytes_read += op.size
        elif cls is WriteOp:
            self.writes += 1
            self.bytes_written += len(op.data)
        elif cls is CasOp:
            self.cas += 1
        elif cls is FaaOp:
            self.faa += 1
        else:  # pragma: no cover - descriptor set is closed
            raise SimulationError(f"unknown verb {op!r}")
        self.messages += 1

    def merge(self, other: "OpStats") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


# --------------------------------------------------------------------------
# Shared verb semantics
# --------------------------------------------------------------------------

def apply_verb(memories: Mapping[int, Memory], op: Verb) -> Any:
    """Execute a verb's memory side effect and return its result."""
    memory = memories[addr_mn(op.addr)]
    offset = addr_offset(op.addr)
    cls = op.__class__
    if cls is ReadOp:
        return memory.read(offset, op.size)
    if cls is WriteOp:
        memory.write(offset, op.data)
        return None
    if cls is CasOp:
        return memory.cas_u64(offset, op.expected, op.desired)
    if cls is FaaOp:
        return memory.faa_u64(offset, op.delta)
    raise SimulationError(f"unknown verb {op!r}")


def _verb_sizes(op: Verb) -> Tuple[int, int]:
    """(request payload bytes, response payload bytes) for timing."""
    cls = op.__class__
    if cls is ReadOp:
        return 0, op.size
    if cls is WriteOp:
        return len(op.data), 0
    if cls is CasOp:
        return 16, 8
    if cls is FaaOp:
        return 8, 8
    raise SimulationError(f"unknown verb {op!r}")


# --------------------------------------------------------------------------
# Executors
# --------------------------------------------------------------------------

class DirectExecutor:
    """Runs op generators instantly against simulated memory.

    Verbs still update :class:`OpStats`, so tests can assert round-trip
    counts (the paper's central metric) without running the clock.
    """

    def __init__(self, memories: Mapping[int, Memory],
                 stats: OpStats | None = None, *,
                 monitor=None, client_id: str = "direct",
                 clock: Optional[Callable[[], int]] = None,
                 injector=None, tracer=None, lease_hook=None):
        self._memories = memories
        self.stats = stats if stats is not None else OpStats()
        self.monitor = monitor
        self.client_id = client_id
        self._clock = clock if clock is not None else (lambda: 0)
        self._injector = injector
        self._tracer = tracer
        self._lease_hook = lease_hook
        self._apply_entry = self._apply if injector is None \
            else self._apply_faulted
        self._budget = 0  # message ceiling armed by arm_verb_budget
        self._crashed = False  # latched by a crash_cn decision

    def arm_verb_budget(self, extra_messages: int) -> None:
        """Fail with SimulationError once ``stats.messages`` exceeds its
        current value plus ``extra_messages`` - the chaos suite's
        livelock bound ("never a hang")."""
        self._budget = self.stats.messages + extra_messages

    def _apply(self, verb: Verb) -> Any:
        monitor = self.monitor
        tracer = self._tracer
        if monitor is None and tracer is None \
                and self._lease_hook is None:
            return apply_verb(self._memories, verb)
        now = self._clock()
        if monitor is None:
            result = apply_verb(self._memories, verb)
        else:
            token = monitor.on_issue(self.client_id, verb, now)
            result = apply_verb(self._memories, verb)
            monitor.on_apply(token, now, result)
            monitor.on_complete(token, now)
        if self._lease_hook is not None \
                and getattr(verb, "lease", None) is not None:
            self._lease_hook(self.client_id, verb, result, now)
        if tracer is not None:
            tracer.on_verb(self.client_id, verb, now, now)
        return result

    def _apply_faulted(self, verb: Verb) -> Any:
        """The injector-aware verb path (only bound when a FaultPlan is
        attached, so the clean path stays untouched)."""
        injector = self._injector
        now = self._clock()
        if self._crashed:
            raise ClientCrash(
                f"client {self.client_id} has crashed (crash_cn)",
                client=self.client_id)
        if injector.dead_mns:
            # Before address_ok: a blanked region still passes the range
            # check and would hand back all-zero "data" - silent wrong
            # answers instead of a typed failure.
            mn = addr_mn(verb.addr)
            if injector.mn_dead(mn):
                injector.record_mn_unavailable(self.client_id, verb, now)
                self.stats.faults_injected += 1
                raise MNUnavailable(f"MN {mn} crashed (crash_mn)",
                                    mn=mn, addr=verb.addr)
        if not injector.address_ok(verb):
            injector.record_nak(self.client_id, verb, now)
            self.stats.faults_injected += 1
            raise InjectedFault("NAK: unreachable address",
                                kind="nak", addr=verb.addr)
        decision = injector.decide(self.client_id, verb, now)
        if decision is None:
            return self._apply(verb)
        self.stats.faults_injected += 1
        kind = decision.kind
        tracer = self._tracer
        if kind == "crash_cn":
            self._crashed = True
            applied = decision.applied
            if applied:
                self._apply(verb)  # the request escaped the dying NIC
            raise ClientCrash(
                f"client {self.client_id} crashed (crash_cn)",
                client=self.client_id, applied=applied)
        if kind == "drop":
            if decision.applied:
                self._apply(verb)  # side effect lands, completion lost
                if tracer is not None:
                    tracer.tag_verb(self.client_id, "drop")
            raise InjectedFault("completion dropped", kind="drop",
                                addr=verb.addr, applied=decision.applied)
        if kind == "delay":  # untimed executor: a delay is invisible
            result = self._apply(verb)
        elif kind == "duplicate":
            result = self._apply(verb)
            apply_verb(self._memories, verb)  # phantom retransmission
        elif kind == "stale_cas":
            result = self._apply(verb)
            if verb.__class__ is CasOp and result[0]:
                result = (False, verb.expected)
        else:
            raise SimulationError(f"unknown fault decision {kind!r}")
        if tracer is not None:
            tracer.tag_verb(self.client_id, kind)
        return result

    def execute(self, op: OpOrBatch) -> Any:
        if self._budget and self.stats.messages > self._budget:
            raise SimulationError(
                f"verb budget exceeded for {self.client_id}: "
                f"{self.stats.messages} messages - livelock under faults?")
        cls = op.__class__
        if cls is LocalCompute:
            self.stats.local_compute_ns += op.ns
            return None
        if cls is Batch:
            self.stats.batches += 1
            self.stats.round_trips += 1
            results = []
            if self._injector is None:
                for verb in op.ops:
                    self.stats.count_verb(verb)
                    results.append(self._apply(verb))
                return results
            # Doorbell under faults: every verb was posted, so surviving
            # members still apply; the batch completion is lost if any
            # member's completion is.
            failure = None
            for verb in op.ops:
                self.stats.count_verb(verb)
                try:
                    results.append(self._apply_faulted(verb))
                except InjectedFault as exc:
                    failure = exc
                    results.append(None)
            if failure is not None:
                raise failure
            return results
        self.stats.round_trips += 1
        self.stats.count_verb(op)
        return self._apply_entry(op)

    def run(self, gen: OpGenerator) -> Any:
        """Drive ``gen`` to completion; returns its return value.

        Injected faults are delivered *into* the client generator with
        ``gen.throw`` - the client sees them at its ``yield``, exactly
        where a real completion error would surface.
        """
        if self._tracer is not None:
            return self._run_traced(gen)
        result = None
        pending: Exception | None = None
        while True:
            try:
                if pending is not None:
                    exc, pending = pending, None
                    op = gen.throw(exc)
                else:
                    op = gen.send(result)
            except StopIteration as stop:
                return stop.value
            except RetryLimitExceeded as exc:
                exc.attach_context(self.client_id, replace(self.stats))
                if self._injector is not None:
                    exc.attach_fault_trace(self._injector.trace_tuple())
                raise
            try:
                result = self.execute(op)
            except (InjectedFault, MNUnavailable) as exc:
                # Both are delivered into the generator so clients can
                # retry (InjectedFault) or degrade (MNUnavailable) at
                # the yield; ClientCrash deliberately is NOT - a dead CN
                # runs no cleanup, so the generator is just abandoned.
                pending = exc
                result = None

    def _run_traced(self, gen: OpGenerator) -> Any:
        """The :meth:`run` loop with span bracketing (only entered when a
        tracer is attached, so the clean path stays allocation-free)."""
        tracer = self._tracer
        span = tracer.op_begin(self.client_id,
                               getattr(gen, "__name__", "op"), self._clock())
        status = "error"
        try:
            result = None
            pending: Exception | None = None
            while True:
                try:
                    if pending is not None:
                        exc, pending = pending, None
                        op = gen.throw(exc)
                    else:
                        op = gen.send(result)
                except StopIteration as stop:
                    status = "ok"
                    return stop.value
                except RetryLimitExceeded as exc:
                    status = "failed"
                    exc.attach_context(self.client_id, replace(self.stats))
                    if self._injector is not None:
                        exc.attach_fault_trace(self._injector.trace_tuple())
                    raise
                if op.__class__ is not LocalCompute:
                    tracer.on_round_trip(span)
                try:
                    result = self.execute(op)
                except InjectedFault as exc:
                    tracer.on_fault(self.client_id, exc.kind,
                                    exc.addr or 0, self._clock())
                    pending = exc
                    result = None
                except MNUnavailable as exc:
                    tracer.on_fault(self.client_id, "mn_unavailable",
                                    exc.addr or 0, self._clock())
                    pending = exc
                    result = None
        finally:
            tracer.op_end(span, self._clock(), status)


class _VerbTrip:
    """Continuation object driving one clean verb through its four NIC
    stages without a generator frame.

    Registered as the single callback (``_cb1``) of each stage's pooled
    timeout, it performs exactly the work :meth:`SimExecutor._verb` does
    at the matching resume point - same NIC charges at the same simulated
    times, events created in the same order - so the schedule (and every
    committed baseline) is bit-identical to the generator path.  Stage 0
    exists only for batch members, standing in for the member process
    bootstrap; scalar verbs start at stage 1 with the sizes precomputed
    by :meth:`SimExecutor._scalar_fast`.  ``worker`` is the client
    process to resume with the result (scalar verbs); batch members
    instead report into their :class:`_BatchTrip` join context.  Spent
    stage timeouts are recycled into the engine's slab pool (the
    refcount-3 check proves the dispatch loop and this frame hold the
    only references).
    """

    __slots__ = ("ex", "op", "worker", "ctx", "idx",
                 "mn", "req", "resp", "extra", "result", "stage")

    def __init__(self, ex: "SimExecutor", op: Verb,
                 worker, ctx: "_BatchTrip | None" = None, idx: int = 0):
        self.ex = ex
        self.op = op
        self.worker = worker
        self.ctx = ctx
        self.idx = idx
        self.result = None
        self.stage = 0

    def __call__(self, event: SimEvent) -> None:
        ex = self.ex
        engine = ex.engine
        cfg = ex._config
        stage = self.stage
        self.stage = stage + 1
        if stage == 0:
            # Batch-member boot: what _verb does before its first yield.
            op = self.op
            ex.stats.count_verb(op)
            self.mn = ex._mn_nics[addr_mn(op.addr)]
            self.req, self.resp = _verb_sizes(op)
            cls = op.__class__
            self.extra = cfg.atomic_extra_ns \
                if (cls is CasOp or cls is FaaOp) else 0
            done = ex._cn_nic.charge(self.req)
            nxt = engine.timeout(done - engine.now)
            nxt._cb1 = self
        elif stage == 1:
            # CN request sent; request crosses the wire to the MN NIC.
            done = self.mn.charge(self.req, self.extra, cfg.prop_ns)
            nxt = engine.timeout(done - engine.now)
            nxt._cb1 = self
        elif stage == 2:
            # MN NIC executed the verb: side effect lands now.
            op = self.op
            result = self.result = apply_verb(ex._memories, op)
            if ex._lease_hook is not None \
                    and getattr(op, "lease", None) is not None:
                ex._lease_hook(ex.client_id, op, result, engine.now)
            done = self.mn.charge(self.resp, 0, cfg.mem_access_ns)
            nxt = engine.timeout(done - engine.now)
            nxt._cb1 = self
        elif stage == 3:
            # Response back across the wire through the CN NIC.
            done = ex._cn_nic.charge(self.resp, 0, cfg.prop_ns)
            worker = self.worker
            if worker is not None:
                # Scalar verb: resume the client process with the result,
                # exactly where the generator path's return would land it.
                nxt = engine.timeout(done - engine.now, self.result)
                nxt._proc = worker
            else:
                nxt = engine.timeout(done - engine.now)
                nxt._cb1 = self
        else:
            # Batch member complete: stands in for the member Process
            # event the generator path queues at this exact moment.
            ctx = self.ctx
            ctx.results[self.idx] = self.result
            done_ev = SimEvent(engine)
            done_ev._value = self.result
            done_ev._cb1 = ctx
            engine._queue_event(done_ev)
        if type(event) is SimTimeout and sys.getrefcount(event) == 3 \
                and len(engine._pool) < _POOL_CAP:
            event._value = PENDING
            event._cb1 = None
            engine._pool.append(event)


class _BatchTrip:
    """Join counter for a doorbell batch driven by member trips.

    Registered as the callback of each member-completion event; when the
    last member reports, it queues the batch-completion event that
    resumes the client - standing in for the generator path's
    :class:`AllOf` at the identical event position, with results in
    member order.
    """

    __slots__ = ("engine", "worker", "results", "remaining")

    def __init__(self, engine, worker, n: int):
        self.engine = engine
        self.worker = worker
        self.results: list = [None] * n
        self.remaining = n

    def __call__(self, _event: SimEvent) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            engine = self.engine
            done = SimEvent(engine)
            done._value = self.results
            done._proc = self.worker
            engine._queue_event(done)


class SimExecutor:
    """Runs op generators under the discrete-event clock.

    :meth:`run` is itself a generator of engine events, so client processes
    compose it with ``yield from`` (or hand it to ``engine.process``).
    """

    def __init__(self, engine, memories: Mapping[int, Memory],
                 cn_nic: Nic, mn_nics: Mapping[int, Nic],
                 config, stats: OpStats | None = None, *,
                 monitor=None, client_id: str = "sim",
                 injector=None, tracer=None, lease_hook=None):
        self.engine = engine
        self._memories = memories
        self._cn_nic = cn_nic
        self._mn_nics = mn_nics
        self._config = config
        self.stats = stats if stats is not None else OpStats()
        self.monitor = monitor
        self.client_id = client_id
        self._injector = injector
        self._tracer = tracer
        self._lease_hook = lease_hook
        self._verb_entry = self._verb if injector is None \
            else self._verb_faulted
        self._budget = 0  # message ceiling armed by arm_verb_budget
        self._crashed = False  # latched by a crash_cn decision
        # Verb trips (continuation objects replacing the per-stage
        # generator resume; event-stream-identical to _verb) need the
        # fast dispatch loop and an unobserved schedule: an injector or
        # tracer routes back through the generator paths those features
        # hook.  A monitor is checked per-op in run() since it can be
        # attached after construction.
        self._trips = (injector is None and tracer is None
                       and not engine._slow)

    def arm_verb_budget(self, extra_messages: int) -> None:
        """See :meth:`DirectExecutor.arm_verb_budget`."""
        self._budget = self.stats.messages + extra_messages

    # -- single verb ----------------------------------------------------
    def _verb(self, op: Verb):
        """Timed execution of one verb (a generator of engine events)."""
        cfg = self._config
        mn_nic = self._mn_nics[addr_mn(op.addr)]
        req_bytes, resp_bytes = _verb_sizes(op)
        cls = op.__class__
        extra = cfg.atomic_extra_ns if (cls is CasOp or cls is FaaOp) else 0
        self.stats.count_verb(op)
        monitor = self.monitor
        tracer = self._tracer
        token = None
        t0 = self.engine.now if tracer is not None else 0
        if monitor is not None:
            token = monitor.on_issue(self.client_id, op, self.engine.now)

        # Request through the CN NIC ...
        yield self._cn_nic.process(req_bytes)
        # ... across the wire, processed by the MN NIC ...
        yield mn_nic.process(req_bytes, extra_ns=extra,
                             arrive_delay=cfg.prop_ns)
        # Side effect happens the instant the MN NIC executes the verb.
        result = apply_verb(self._memories, op)
        if monitor is not None:
            monitor.on_apply(token, self.engine.now, result)
        if self._lease_hook is not None \
                and getattr(op, "lease", None) is not None:
            self._lease_hook(self.client_id, op, result, self.engine.now)
        # Response: DRAM/DMA access, back through the MN NIC ...
        yield mn_nic.process(resp_bytes, arrive_delay=cfg.mem_access_ns)
        # ... across the wire, delivered by the CN NIC.
        yield self._cn_nic.process(resp_bytes, arrive_delay=cfg.prop_ns)
        if monitor is not None:
            monitor.on_complete(token, self.engine.now)
        if tracer is not None:
            tracer.on_verb(self.client_id, op, t0, self.engine.now)
        return result

    def _verb_faulted(self, op: Verb):
        """Injector-aware timed verb path (only bound when a FaultPlan is
        attached; the clean ``_verb`` path is byte-identical to before)."""
        injector = self._injector
        engine = self.engine
        if self._budget and self.stats.messages > self._budget:
            raise SimulationError(
                f"verb budget exceeded for {self.client_id}: "
                f"{self.stats.messages} messages - livelock under faults?")
        tracer = self._tracer
        t0 = engine.now
        if self._crashed:
            raise ClientCrash(
                f"client {self.client_id} has crashed (crash_cn)",
                client=self.client_id)
        if injector.dead_mns:
            # Before address_ok: a blanked region still passes the range
            # check and would hand back all-zero "data" - silent wrong
            # answers instead of a typed failure.  Charge the send plus
            # one completion timeout, then fail fast (no retry storm).
            mn = addr_mn(op.addr)
            if injector.mn_dead(mn):
                injector.record_mn_unavailable(self.client_id, op,
                                               engine.now)
                self.stats.faults_injected += 1
                req_bytes, _ = _verb_sizes(op)
                yield self._cn_nic.process(req_bytes)
                yield engine.timeout(injector.plan.timeout_ns)
                if tracer is not None:
                    tracer.on_verb(self.client_id, op, t0, engine.now,
                                   fault="mn_unavailable")
                raise MNUnavailable(f"MN {mn} crashed (crash_mn)",
                                    mn=mn, addr=op.addr)
        if not injector.address_ok(op):
            injector.record_nak(self.client_id, op, engine.now)
            self.stats.count_verb(op)
            self.stats.faults_injected += 1
            req_bytes, _ = _verb_sizes(op)
            yield self._cn_nic.process(req_bytes)
            yield engine.timeout(injector.plan.timeout_ns)
            if tracer is not None:
                tracer.on_verb(self.client_id, op, t0, engine.now,
                               fault="nak")
            raise InjectedFault("NAK: unreachable address",
                                kind="nak", addr=op.addr)
        decision = injector.decide(self.client_id, op, engine.now)
        if decision is None:
            result = yield from self._verb(op)
            return result
        self.stats.faults_injected += 1
        kind = decision.kind
        if kind == "crash_cn":
            self._crashed = True
            if not decision.applied:
                # The CN died before the request left its NIC: no side
                # effect, no NIC load, no completion - just a corpse.
                raise ClientCrash(
                    f"client {self.client_id} crashed (crash_cn)",
                    client=self.client_id, applied=False)
            # The request escaped the dying NIC: the side effect lands
            # at the MN.  The monitor sees the full issue/apply/complete
            # life cycle (the access happened; the write interval closes
            # at apply time) so no inflight entry dangles from a corpse.
            cfg = self._config
            req_bytes, _ = _verb_sizes(op)
            self.stats.count_verb(op)
            mn_nic = self._mn_nics[addr_mn(op.addr)]
            cls = op.__class__
            extra = cfg.atomic_extra_ns \
                if (cls is CasOp or cls is FaaOp) else 0
            monitor = self.monitor
            token = None
            if monitor is not None:
                token = monitor.on_issue(self.client_id, op, engine.now)
            yield self._cn_nic.process(req_bytes)
            yield mn_nic.process(req_bytes, extra_ns=extra,
                                 arrive_delay=cfg.prop_ns)
            result = apply_verb(self._memories, op)
            if monitor is not None:
                monitor.on_apply(token, engine.now, result)
                monitor.on_complete(token, engine.now)
            if self._lease_hook is not None \
                    and getattr(op, "lease", None) is not None:
                self._lease_hook(self.client_id, op, result, engine.now)
            if tracer is not None:
                tracer.on_verb(self.client_id, op, t0, engine.now,
                               fault="crash_cn")
            raise ClientCrash(
                f"client {self.client_id} crashed (crash_cn)",
                client=self.client_id, applied=True)
        if kind == "delay":
            result = yield from self._verb(op)
            yield engine.timeout(decision.delay_ns)
            if tracer is not None:
                tracer.tag_verb(self.client_id, kind)
            return result
        if kind == "duplicate":
            result = yield from self._verb(op)
            apply_verb(self._memories, op)  # phantom retransmission
            if tracer is not None:
                tracer.tag_verb(self.client_id, kind)
            return result
        if kind == "stale_cas":
            result = yield from self._verb(op)
            if tracer is not None:
                tracer.tag_verb(self.client_id, kind)
            if op.__class__ is CasOp and result[0]:
                return (False, op.expected)
            return result
        if kind != "drop":  # pragma: no cover - decision set is closed
            raise SimulationError(f"unknown fault decision {kind!r}")
        cfg = self._config
        req_bytes, _ = _verb_sizes(op)
        self.stats.count_verb(op)
        if not decision.applied:
            # Request lost in the fabric: the MN never saw it.  Charge
            # the send plus the client's completion timeout.
            yield self._cn_nic.process(req_bytes)
            yield engine.timeout(injector.plan.timeout_ns)
            if tracer is not None:
                tracer.on_verb(self.client_id, op, t0, engine.now,
                               fault="drop")
            raise InjectedFault("request dropped", kind="drop",
                                addr=op.addr, applied=False)
        # Applied at the MN; the completion never arrives.  The monitor
        # sees the full issue/apply/complete life cycle - the access
        # happened - with completion at the client's timeout decision.
        mn_nic = self._mn_nics[addr_mn(op.addr)]
        cls = op.__class__
        extra = cfg.atomic_extra_ns if (cls is CasOp or cls is FaaOp) else 0
        monitor = self.monitor
        token = None
        if monitor is not None:
            token = monitor.on_issue(self.client_id, op, engine.now)
        yield self._cn_nic.process(req_bytes)
        yield mn_nic.process(req_bytes, extra_ns=extra,
                             arrive_delay=cfg.prop_ns)
        result = apply_verb(self._memories, op)
        if monitor is not None:
            monitor.on_apply(token, engine.now, result)
        if self._lease_hook is not None \
                and getattr(op, "lease", None) is not None:
            self._lease_hook(self.client_id, op, result, engine.now)
        yield engine.timeout(injector.plan.timeout_ns)
        if monitor is not None:
            monitor.on_complete(token, engine.now)
        if tracer is not None:
            tracer.on_verb(self.client_id, op, t0, engine.now, fault="drop")
        raise InjectedFault("completion dropped", kind="drop",
                            addr=op.addr, applied=True)

    def _perform(self, op: OpOrBatch):
        cls = op.__class__
        if cls is LocalCompute:
            self.stats.local_compute_ns += op.ns
            yield self.engine.timeout(op.ns)
            return None
        if cls is Batch:
            self.stats.batches += 1
            self.stats.round_trips += 1
            if self._injector is not None:
                # Doorbell under faults: members run sequentially so a
                # dropped completion can surface per member; surviving
                # members still apply, the batch completion is lost if
                # any member's completion is.
                results = []
                failure = None
                for verb in op.ops:
                    try:
                        member = yield from self._verb_faulted(verb)
                    except InjectedFault as exc:
                        failure = exc
                        member = None
                    results.append(member)
                if failure is not None:
                    raise failure
                return results
            procs = [self.engine.process(self._verb(verb), name="verb")
                     for verb in op.ops]
            results = yield self.engine.all_of(procs)
            return results
        self.stats.round_trips += 1
        result = yield from self._verb_entry(op)
        return result

    # -- verb trips (clean fast path) -------------------------------------
    def _scalar_fast(self, op: Verb, worker) -> None:
        """Issue one clean verb as an event-per-stage :class:`_VerbTrip`
        whose schedule is bit-identical to :meth:`_verb`."""
        stats = self.stats
        stats.round_trips += 1
        stats.count_verb(op)
        engine = self.engine
        cfg = self._config
        cls = op.__class__
        trip = _VerbTrip(self, op, worker)
        trip.mn = self._mn_nics[addr_mn(op.addr)]
        trip.req, trip.resp = _verb_sizes(op)
        trip.extra = cfg.atomic_extra_ns \
            if (cls is CasOp or cls is FaaOp) else 0
        trip.stage = 1
        t1 = engine.timeout(self._cn_nic.charge(trip.req) - engine.now)
        t1._cb1 = trip

    def _batch_fast(self, op: Batch, worker) -> None:
        """Issue a clean doorbell batch as event-driven member trips whose
        schedule is bit-identical to :meth:`_perform`'s member processes;
        the caller must ``yield _DEFER``."""
        stats = self.stats
        stats.batches += 1
        stats.round_trips += 1
        engine = self.engine
        ops = op.ops
        # One zero-delay boot per member in member order, exactly where
        # the generator path boots its member processes; the join context
        # stands in for the AllOf.
        ctx = _BatchTrip(engine, worker, len(ops))
        for idx, verb in enumerate(ops):
            boot = engine.timeout(0)
            boot._cb1 = _VerbTrip(self, verb, None, ctx, idx)

    # -- generator driver -------------------------------------------------
    def run(self, gen: OpGenerator):
        """Drive ``gen`` under the clock; yields engine events throughout.

        Injected faults are delivered into the client generator with
        ``gen.throw``, exactly like :meth:`DirectExecutor.run`.
        """
        if self._tracer is not None:
            result = yield from self._run_traced(gen)
            return result
        result = None
        pending: Exception | None = None
        trips = self._trips
        engine = self.engine
        while True:
            try:
                if pending is not None:
                    exc, pending = pending, None
                    op = gen.throw(exc)
                else:
                    op = gen.send(result)
            except StopIteration as stop:
                return stop.value
            except RetryLimitExceeded as exc:
                exc.attach_context(self.client_id, replace(self.stats))
                if self._injector is not None:
                    exc.attach_fault_trace(self._injector.trace_tuple())
                raise
            if trips and self.monitor is None:
                # Clean fast path: post the op as a trip and tell the
                # dispatch loop we already subscribed ourselves.
                # engine._active is the process currently being
                # dispatched - our driving client - and is None when this
                # generator is stepped by hand, which falls back to the
                # yield-per-stage path below.
                worker = engine._active
                if worker is not None:
                    cls = op.__class__
                    if cls is ReadOp or cls is WriteOp \
                            or cls is CasOp or cls is FaaOp:
                        self._scalar_fast(op, worker)
                        result = yield _DEFER
                        continue
                    if cls is Batch:
                        self._batch_fast(op, worker)
                        result = yield _DEFER
                        continue
            try:
                result = yield from self._perform(op)
            except (InjectedFault, MNUnavailable) as exc:
                # Delivered into the generator (retry vs. degrade at the
                # yield); ClientCrash is NOT - the generator of a dead
                # CN is abandoned with its locks still held.
                pending = exc
                result = None

    def _run_traced(self, gen: OpGenerator):
        """The :meth:`run` loop with span bracketing (only entered when a
        tracer is attached; the traced schedule stays bit-identical
        because the tracer never creates engine events)."""
        tracer = self._tracer
        engine = self.engine
        span = tracer.op_begin(self.client_id,
                               getattr(gen, "__name__", "op"), engine.now)
        status = "error"
        try:
            result = None
            pending: Exception | None = None
            while True:
                try:
                    if pending is not None:
                        exc, pending = pending, None
                        op = gen.throw(exc)
                    else:
                        op = gen.send(result)
                except StopIteration as stop:
                    status = "ok"
                    return stop.value
                except RetryLimitExceeded as exc:
                    status = "failed"
                    exc.attach_context(self.client_id, replace(self.stats))
                    if self._injector is not None:
                        exc.attach_fault_trace(self._injector.trace_tuple())
                    raise
                if op.__class__ is not LocalCompute:
                    tracer.on_round_trip(span)
                try:
                    result = yield from self._perform(op)
                except InjectedFault as exc:
                    tracer.on_fault(self.client_id, exc.kind,
                                    exc.addr or 0, engine.now)
                    pending = exc
                    result = None
                except MNUnavailable as exc:
                    tracer.on_fault(self.client_id, "mn_unavailable",
                                    exc.addr or 0, engine.now)
                    pending = exc
                    result = None
        finally:
            tracer.op_end(span, engine.now, status)
