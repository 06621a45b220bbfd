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
# The executor core shared by both clocks
# --------------------------------------------------------------------------
#
# Under an attached FaultPlan each verb gets one verdict from
# ``FaultInjector.decide``.  ``delay``/``duplicate``/``stale_cas`` perturb
# a verb that completes (:func:`_perturb`); every other verdict ends the
# verb with the exception :func:`_fault_error` builds.  Either executor
# counts a verb in OpStats if and only if its request left the CN NIC
# (``Decision.sent``).

_COMPLETING = ("delay", "duplicate", "stale_cas")


def _perturb(kind: str, memories: Mapping[int, Memory], op: Verb,
             result: Any) -> Any:
    """The after-effect of a completing fault on the verb's result."""
    if kind == "duplicate":
        apply_verb(memories, op)  # phantom retransmission
    elif kind == "stale_cas" and op.__class__ is CasOp and result[0]:
        return (False, op.expected)
    return result


def _fault_error(decision, client_id: str, op: Verb) -> Exception:
    """The exception ending a verb whose completion never arrives."""
    kind = decision.kind
    if kind == "crashed":
        return ClientCrash(f"client {client_id} has crashed (crash_cn)",
                           client=client_id)
    if kind == "crash_cn":
        return ClientCrash(f"client {client_id} crashed (crash_cn)",
                           client=client_id, applied=decision.applied)
    if kind == "mn_unavailable":
        mn = addr_mn(op.addr)
        return MNUnavailable(f"MN {mn} crashed (crash_mn)",
                             mn=mn, addr=op.addr)
    if kind == "nak":
        return InjectedFault("NAK: unreachable address",
                             kind="nak", addr=op.addr)
    if kind != "drop":  # pragma: no cover - the decision set is closed
        return SimulationError(f"unknown fault decision {kind!r}")
    return InjectedFault(
        "completion dropped" if decision.applied else "request dropped",
        kind="drop", addr=op.addr, applied=decision.applied)


def _budget_error(ex) -> SimulationError:
    return SimulationError(
        f"verb budget exceeded for {ex.client_id}: "
        f"{ex.stats.messages} messages - livelock under faults?")


def _give_up(ex, exc: RetryLimitExceeded) -> None:
    """Attach the client's counters - and, under a fault plan, the
    recent fault trace - to an op that exhausted its retry budget."""
    exc.attach_context(ex.client_id, replace(ex.stats))
    if ex._injector is not None:
        exc.attach_fault_trace(ex._injector.trace_tuple())


def _trace_fault(tracer, client_id: str, exc: Exception, now: int) -> None:
    """Tag a fault delivered into the client generator on its span."""
    kind = exc.kind if isinstance(exc, InjectedFault) else "mn_unavailable"
    tracer.on_fault(client_id, kind, exc.addr or 0, now)


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
        self._budget = 0  # message ceiling armed by arm_verb_budget

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
        """One verb under the attached fault plan's verdict."""
        decision = self._injector.decide(self.client_id, verb, self._clock())
        stats = self.stats
        if decision is None:
            stats.count_verb(verb)
            return self._apply(verb)
        kind = decision.kind
        if kind != "crashed":
            stats.faults_injected += 1
        if decision.sent:
            stats.count_verb(verb)
        tracer = self._tracer
        if kind in _COMPLETING:  # an untimed executor cannot show a delay
            result = _perturb(kind, self._memories, verb, self._apply(verb))
            if tracer is not None:
                tracer.tag_verb(self.client_id, kind)
            return result
        if decision.applied:
            # crash_cn: the request escaped the dying NIC; drop: the side
            # effect landed and the completion was lost.
            self._apply(verb)
            if tracer is not None:
                tracer.tag_verb(self.client_id, kind)
        raise _fault_error(decision, self.client_id, verb)

    def execute(self, op: OpOrBatch) -> Any:
        """Apply one yielded op: a verb, a doorbell batch or CN compute."""
        stats = self.stats
        cls = op.__class__
        if cls is LocalCompute:
            stats.local_compute_ns += op.ns
            return None
        stats.round_trips += 1
        faulted = self._injector is not None
        if cls is not Batch:
            if faulted:
                return self._apply_faulted(op)
            stats.count_verb(op)
            return self._apply(op)
        stats.batches += 1
        results = []
        if not faulted:
            for verb in op.ops:
                stats.count_verb(verb)
                results.append(self._apply(verb))
            return results
        # Doorbell under faults: every verb was posted, so surviving
        # members still apply; the batch completion is lost if any
        # member's completion is.
        failure = None
        for verb in op.ops:
            try:
                results.append(self._apply_faulted(verb))
            except InjectedFault as exc:
                failure = exc
                results.append(None)
        if failure is not None:
            raise failure
        return results

    def run(self, gen: OpGenerator) -> Any:
        """Drive ``gen`` to completion; returns its return value.

        Injected faults are delivered *into* the client generator with
        ``gen.throw`` - the client sees them at its ``yield``, exactly
        where a real completion error would surface.  With a tracer
        attached the run is one span.
        """
        tracer = self._tracer
        span = None
        if tracer is not None:
            span = tracer.op_begin(self.client_id,
                                   getattr(gen, "__name__", "op"),
                                   self._clock())
        status = "error"
        result = None
        pending: Exception | None = None
        try:
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
                    _give_up(self, exc)
                    raise
                if tracer is not None and op.__class__ is not LocalCompute:
                    tracer.on_round_trip(span)
                if self._budget and self.stats.messages > self._budget:
                    raise _budget_error(self)
                try:
                    result = self.execute(op)
                except (InjectedFault, MNUnavailable) as exc:
                    # Both are delivered into the generator so clients can
                    # retry (InjectedFault) or degrade (MNUnavailable) at
                    # the yield; ClientCrash deliberately is NOT - a dead
                    # CN runs no cleanup, so the generator is abandoned.
                    if tracer is not None:
                        _trace_fault(tracer, self.client_id, exc,
                                     self._clock())
                    pending = exc
                    result = None
        finally:
            if tracer is not None:
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
        self._budget = 0  # message ceiling armed by arm_verb_budget
        # Verb trips (continuation objects replacing the per-stage
        # generator resume; event-stream-identical to _verb) need the
        # fast dispatch loop and an unobserved schedule: a monitor,
        # injector or tracer routes back through the generator paths
        # those hooks observe.
        self._trips = (monitor is None and injector is None
                       and tracer is None and not engine._slow)

    def arm_verb_budget(self, extra_messages: int) -> None:
        """See :meth:`DirectExecutor.arm_verb_budget`."""
        self._budget = self.stats.messages + extra_messages

    # -- single verb ----------------------------------------------------
    def _verb(self, op: Verb, lost: Optional[str] = None):
        """Timed execution of one verb (a generator of engine events).

        ``lost`` names the fault of a verb whose side effect lands at the
        MN but whose completion never reaches the client: after the apply
        a ``"drop"`` waits out the completion timeout and a
        ``"crash_cn"`` ends at once.  The monitor still sees the whole
        issue/apply/complete life cycle - the access happened - so no
        inflight entry dangles.
        """
        cfg = self._config
        engine = self.engine
        mn_nic = self._mn_nics[addr_mn(op.addr)]
        req_bytes, resp_bytes = _verb_sizes(op)
        cls = op.__class__
        extra = cfg.atomic_extra_ns if (cls is CasOp or cls is FaaOp) else 0
        self.stats.count_verb(op)
        monitor = self.monitor
        token = None
        t0 = engine.now
        if monitor is not None:
            token = monitor.on_issue(self.client_id, op, t0)

        # Request through the CN NIC ...
        yield self._cn_nic.process(req_bytes)
        # ... across the wire, processed by the MN NIC ...
        yield mn_nic.process(req_bytes, extra_ns=extra,
                             arrive_delay=cfg.prop_ns)
        # Side effect happens the instant the MN NIC executes the verb.
        result = apply_verb(self._memories, op)
        if monitor is not None:
            monitor.on_apply(token, engine.now, result)
        if self._lease_hook is not None \
                and getattr(op, "lease", None) is not None:
            self._lease_hook(self.client_id, op, result, engine.now)
        if lost is None:
            # Response: DRAM/DMA access, back through the MN NIC ...
            yield mn_nic.process(resp_bytes, arrive_delay=cfg.mem_access_ns)
            # ... across the wire, delivered by the CN NIC.
            yield self._cn_nic.process(resp_bytes, arrive_delay=cfg.prop_ns)
        elif lost == "drop":
            yield engine.timeout(self._injector.plan.timeout_ns)
        if monitor is not None:
            monitor.on_complete(token, engine.now)
        if self._tracer is not None:
            self._tracer.on_verb(self.client_id, op, t0, engine.now,
                                 fault=lost)
        return result

    def _unanswered(self, op: Verb, fault: str):
        """A request that leaves the CN NIC and never gets an answer (the
        MN is dead, NAKs it, or the fabric drops it): charge the send,
        then wait out the client's completion timeout."""
        engine = self.engine
        t0 = engine.now
        self.stats.count_verb(op)
        req_bytes, _ = _verb_sizes(op)
        yield self._cn_nic.process(req_bytes)
        yield engine.timeout(self._injector.plan.timeout_ns)
        if self._tracer is not None:
            self._tracer.on_verb(self.client_id, op, t0, engine.now,
                                 fault=fault)

    def _verb_faulted(self, op: Verb):
        """One timed verb under the attached fault plan's verdict."""
        decision = self._injector.decide(self.client_id, op, self.engine.now)
        if decision is None:
            result = yield from self._verb(op)
            return result
        kind = decision.kind
        if kind != "crashed":
            self.stats.faults_injected += 1
        if kind in _COMPLETING:
            result = yield from self._verb(op)
            if kind == "delay":
                yield self.engine.timeout(decision.delay_ns)
            result = _perturb(kind, self._memories, op, result)
            if self._tracer is not None:
                self._tracer.tag_verb(self.client_id, kind)
            return result
        if decision.applied:
            yield from self._verb(op, kind)
        elif decision.sent:
            yield from self._unanswered(op, kind)
        raise _fault_error(decision, self.client_id, op)

    def _perform(self, op: OpOrBatch):
        cls = op.__class__
        if cls is LocalCompute:
            self.stats.local_compute_ns += op.ns
            yield self.engine.timeout(op.ns)
            return None
        self.stats.round_trips += 1
        faulted = self._injector is not None
        if cls is not Batch:
            if faulted:
                result = yield from self._verb_faulted(op)
            else:
                result = yield from self._verb(op)
            return result
        self.stats.batches += 1
        if faulted:
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
        ``gen.throw``, exactly like :meth:`DirectExecutor.run`.  With a
        tracer attached the run is one span; the traced schedule stays
        bit-identical because the tracer never creates engine events.
        """
        tracer = self._tracer
        engine = self.engine
        span = None
        if tracer is not None:
            span = tracer.op_begin(self.client_id,
                                   getattr(gen, "__name__", "op"),
                                   engine.now)
        status = "error"
        result = None
        pending: Exception | None = None
        trips = self._trips
        try:
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
                    _give_up(self, exc)
                    raise
                if tracer is not None and op.__class__ is not LocalCompute:
                    tracer.on_round_trip(span)
                if self._budget and self.stats.messages > self._budget:
                    raise _budget_error(self)
                if trips:
                    # Clean fast path: post the op as a trip and tell the
                    # dispatch loop we already subscribed ourselves.
                    # engine._active is the process currently being
                    # dispatched - our driving client - and is None when
                    # this generator is stepped by hand, which falls back
                    # to the yield-per-stage path below.
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
                    # Delivered into the generator (retry vs. degrade at
                    # the yield); ClientCrash is NOT - the generator of a
                    # dead CN is abandoned with its locks still held.
                    if tracer is not None:
                        _trace_fault(tracer, self.client_id, exc,
                                     engine.now)
                    pending = exc
                    result = None
        finally:
            if tracer is not None:
                tracer.op_end(span, engine.now, status)
