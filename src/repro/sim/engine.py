"""A small deterministic discrete-event simulation engine.

This is the timing substrate for the disaggregated-memory model: client
operations are Python generators that ``yield`` events (timeouts, resource
grants, sub-operations) and are resumed by the engine when those events
fire.  The design follows SimPy's process/event model, trimmed to exactly
what the RDMA substrate needs:

* :class:`Event` - one-shot, carries a value, runs callbacks when fired.
* :class:`Timeout` - an event scheduled ``delay`` ns in the future.
* :class:`Process` - wraps a generator; itself an event that fires with
  the generator's return value.
* :class:`AllOf` - fires when every child event has fired (used for
  doorbell-batched RDMA operations, which complete together).
* :class:`Engine` - the clock and the event heap.

Time is integer **nanoseconds**; all ordering is deterministic (ties broken
by schedule order), which keeps benchmark results reproducible.

Fast path
---------

Most events in an RDMA workload are *zero-delay bookkeeping* - process
bootstraps, ``succeed()`` of batch members, AllOf completions - not
timing-relevant completions.  The engine therefore keeps two structures:

* a min-heap of ``(time, seq, event)`` for events scheduled strictly in
  the future, and
* a plain FIFO deque of bare events due "now" (each event carries its
  ``_when``/``_seq`` in slots, so no per-event tuple is allocated).

``seq`` is shared and monotonically increasing, so merging the two by
``(time, seq)`` reproduces the single-heap execution order exactly.  The
fast loop exploits an invariant of this split: every heap entry at time
``t`` was created strictly before simulated time ``t`` (a positive delay
always lands in the future), while every FIFO entry at time ``t`` was
created *at* time ``t`` - so at each timestamp the heap run drains first,
then the FIFO run, and nothing created during the drain can sort into the
part already drained.  :meth:`Engine.run` therefore advances ``self.now``
once per timestamp and dispatches whole same-time runs in tight inner
loops ("macro-batch draining") instead of re-entering the heap-vs-FIFO
comparison per event.

Two more mechanisms ride on the batched loop:

* **single-subscriber resume specialization** - almost every event has
  exactly one subscriber: the generator that yielded it.  The first
  process to subscribe is stored in a dedicated ``_proc`` slot and the
  dispatch loop calls ``gen.send`` directly, with no bound-method call,
  no callback-list walk, and no tuple unpacking.  Later subscribers fall
  back to the ``_cb1``/``_spill`` slots; dispatch order is always
  ``_proc`` then ``_cb1`` then ``_spill`` = subscription order.
* **slab event pooling** - processed single-subscriber :class:`Timeout`
  objects are recycled onto a free list and reused by
  :meth:`Engine.timeout`.  An event is recycled only when (a) it is
  exactly a ``Timeout``, (b) its only subscriber was the ``_proc`` slot
  (no spilled callbacks), and (c) ``sys.getrefcount`` proves the loop
  holds the sole reference - so events stored by client code, AllOf
  children, or anything else introspectable are never recycled.

Setting the environment variable ``REPRO_SIM_SLOW=1`` (checked at
:class:`Engine` construction) routes every event through the heap again
and dispatches strictly one event at a time through the callback slots,
with no pooling and no ``_proc`` specialization - the bit-identical
reference oracle.  The equivalence suites in ``tests/test_sim_fastpath.py``
and ``tests/test_perf_equivalence.py`` diff benchmark rows across the two
paths.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

from ..errors import SimulationError

PENDING = object()

#: Sentinel stored in an event's callback slot once the engine has
#: processed it; late subscribers then run immediately.
_PROCESSED = object()

#: Sentinel a generator may yield to tell the dispatch loop "I already
#: subscribed myself to a future event" (see repro.dm.rdma's verb trips).
#: The loop skips subscriber registration; the generator is resumed when
#: whatever event it attached itself to fires.
_DEFER = object()

#: Upper bound on the Timeout free list; beyond this, processed events
#: are simply dropped to the garbage collector.
_POOL_CAP = 4096


def _slow_requested() -> bool:
    return os.environ.get("REPRO_SIM_SLOW", "") not in ("", "0")


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; :meth:`succeed` gives it a value and queues
    its callbacks for execution at the current simulation time.
    """

    __slots__ = ("engine", "_cb1", "_spill", "_value", "_proc", "_when",
                 "_seq")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self._cb1: Optional[Callable[["Event"], None]] = None
        self._spill: Optional[List[Callable[["Event"], None]]] = None
        self._proc: Optional["Process"] = None
        self._value: Any = PENDING

    @property
    def triggered(self) -> bool:
        return self._value is not PENDING

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event value read before it triggered")
        return self._value

    @property
    def callbacks(self) -> Optional[List[Callable[["Event"], None]]]:
        """Subscriber list view (introspection; ``None`` once processed)."""
        if self._cb1 is _PROCESSED:
            return None
        out: List[Callable[["Event"], None]] = []
        if self._proc is not None:
            out.append(self._proc._resume_cb)
        if self._cb1 is not None:
            out.append(self._cb1)
        if self._spill:
            out.extend(self._spill)
        return out

    def succeed(self, value: Any = None) -> "Event":
        if self._value is not PENDING:
            raise SimulationError("event triggered twice")
        self._value = value
        self.engine._queue_event(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        cb1 = self._cb1
        if cb1 is None:
            self._cb1 = fn
        elif cb1 is _PROCESSED:
            # Already processed: run the callback immediately so late
            # subscribers (e.g. AllOf over a triggered event) still fire.
            fn(self)
        elif self._spill is None:
            self._spill = [fn]
        else:
            self._spill.append(fn)


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation."""

    __slots__ = ()

    def __init__(self, engine: "Engine", delay: int, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        super().__init__(engine)
        self._value = value
        engine._schedule(self, delay)


class Process(Event):
    """Drives a generator of events; fires with the generator's return value.

    The generator may ``yield`` any :class:`Event`; it is resumed with the
    event's value.  ``yield from`` composes sub-operations naturally.
    """

    __slots__ = ("_gen", "name", "_resume_cb")

    def __init__(self, engine: "Engine", gen: Generator, name: str = ""):
        super().__init__(engine)
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        # Bind the resume callback once: it is re-registered on every
        # yield, and bound-method creation per event is measurable.
        self._resume_cb = self._resume
        # Bootstrap: resume once at the current time.  The fast loop's
        # _proc slot dispatches it straight into the generator; the slow
        # reference path keeps the callback-slot route.
        if engine._slow:
            boot = Event(engine)
            boot._cb1 = self._resume_cb
            boot._value = None
            engine._queue_event(boot)
        else:
            boot = engine.timeout(0)
            boot._proc = self

    def _resume(self, event: Event) -> None:
        engine = self.engine
        engine._active = self
        try:
            target = self._gen.send(event._value)
        except StopIteration as stop:
            if self._value is PENDING:
                self.succeed(stop.value)
            return
        if isinstance(target, Event):
            target.add_callback(self._resume_cb)
            return
        if target is _DEFER:
            return
        self._gen.close()
        raise SimulationError(
            f"process {self.name!r} yielded {type(target).__name__}, "
            "expected an Event"
        )


class AllOf(Event):
    """Fires once all ``events`` have fired; value is the list of values.

    Models doorbell batching: a batch of RDMA verbs is posted at once and
    the client proceeds when the last completion arrives.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine)
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self._children:
            child.add_callback(self._child_done)

    def _child_done(self, _event: Event) -> None:
        self._remaining -= 1
        if self._remaining == 0 and not self.triggered:
            self.succeed([c.value for c in self._children])


class Engine:
    """The simulation clock and scheduler.

    ``slow=None`` (the default) consults ``REPRO_SIM_SLOW``; passing an
    explicit boolean pins the scheduling path regardless of environment.
    """

    def __init__(self, slow: Optional[bool] = None):
        self.now: int = 0
        self._heap: List = []
        self._fifo: deque = deque()
        self._seq = 0
        self._slow = _slow_requested() if slow is None else bool(slow)
        self._pool: List[Timeout] = []
        self._active: Optional[Process] = None
        self.events_processed: int = 0

    # -- scheduling ---------------------------------------------------
    def _schedule(self, event: Event, delay: int) -> None:
        seq = self._seq = self._seq + 1
        if delay == 0 and not self._slow:
            event._when = self.now
            event._seq = seq
            self._fifo.append(event)
        else:
            heappush(self._heap, (self.now + delay, seq, event))

    def _queue_event(self, event: Event) -> None:
        seq = self._seq = self._seq + 1
        if self._slow:
            heappush(self._heap, (self.now, seq, event))
        else:
            event._when = self.now
            event._seq = seq
            self._fifo.append(event)

    def _peek_time(self) -> Optional[int]:
        """Timestamp of the next event across both queues, if any."""
        if self._fifo:
            when = self._fifo[0]._when
            if self._heap and self._heap[0][0] < when:
                return self._heap[0][0]
            return when
        if self._heap:
            return self._heap[0][0]
        return None

    # -- public factory helpers ---------------------------------------
    def timeout(self, delay: int, value: Any = None) -> Timeout:
        # Inlined Timeout construction + scheduling: this is the single
        # hottest allocation site in the simulator (one per NIC service
        # completion), so it bypasses __init__ and _schedule and reuses
        # pooled events directly.
        if type(delay) is not int:
            delay = int(delay)
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        pool = self._pool
        if pool:
            ev = pool.pop()
        else:
            ev = Timeout.__new__(Timeout)
            ev.engine = self
            ev._cb1 = None
            ev._spill = None
            ev._proc = None
        ev._value = value
        seq = self._seq = self._seq + 1
        if delay == 0 and not self._slow:
            ev._when = self.now
            ev._seq = seq
            self._fifo.append(ev)
        else:
            heappush(self._heap, (self.now + delay, seq, ev))
        return ev

    def event(self) -> Event:
        return Event(self)

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- main loop ----------------------------------------------------
    def run(self, until: Optional[int] = None) -> int:
        """Process events until both queues empty or the clock passes
        ``until``.  Returns the final simulation time."""
        if self._slow:
            return self._run_ref(until)
        return self._run_fast(until, None, None)

    def run_until_complete(self, process: Process,
                           limit: Optional[int] = None) -> Any:
        """Run until ``process`` finishes; returns its value.

        ``limit`` guards against runaway simulations (deadlock / livelock
        bugs) by bounding simulated time.
        """
        if self._slow:
            while not process.triggered:
                when = self._peek_time()
                if when is None:
                    raise SimulationError(
                        f"deadlock: process {process.name!r} pending with "
                        "an empty event heap"
                    )
                if limit is not None and when > limit:
                    raise SimulationError(
                        f"process {process.name!r} exceeded time limit "
                        f"{limit}"
                    )
                self._run_ref(until=when)
            return process.value
        if not process.triggered:
            self._run_fast(None, process, limit)
        return process.value

    def _run_fast(self, until: Optional[int], stop: Optional[Process],
                  limit: Optional[int]) -> int:
        """Batched dispatch loop (the fast path).

        Processes whole same-timestamp runs per iteration: the heap run
        first (created strictly before this timestamp, so smaller seq),
        then the FIFO run (created at this timestamp; appends during the
        drain join the same run in seq order).  ``stop`` turns the loop
        into ``run_until_complete``: after each complete timestamp batch
        the stop process is checked, and an empty queue with ``stop``
        still pending is a deadlock.
        """
        heap = self._heap
        fifo = self._fifo
        pool = self._pool
        popleft = fifo.popleft
        pool_append = pool.append
        refcount = sys.getrefcount
        pool_cap = _POOL_CAP
        processed = 0
        try:
            while heap or fifo:
                if fifo:
                    t = fifo[0]._when
                    if heap and heap[0][0] < t:
                        t = heap[0][0]
                else:
                    t = heap[0][0]
                if until is not None and t > until:
                    self.now = until
                    return until
                if limit is not None and t > limit:
                    raise SimulationError(
                        f"process {stop.name!r} exceeded time limit {limit}"
                    )
                self.now = t
                while heap and heap[0][0] == t:
                    event = heappop(heap)[2]
                    processed += 1
                    proc = event._proc
                    if proc is not None:
                        event._proc = None
                        cb1 = event._cb1
                        event._cb1 = _PROCESSED
                        self._active = proc
                        gen = proc._gen
                        try:
                            target = gen.send(event._value)
                        except StopIteration as stop_iter:
                            if proc._value is PENDING:
                                proc.succeed(stop_iter.value)
                        else:
                            if isinstance(target, Event):
                                if (target._cb1 is None
                                        and target._proc is None):
                                    target._proc = proc
                                else:
                                    target.add_callback(proc._resume_cb)
                            elif target is not _DEFER:
                                gen.close()
                                raise SimulationError(
                                    f"process {proc.name!r} yielded "
                                    f"{type(target).__name__}, expected "
                                    "an Event"
                                )
                        if cb1 is not None:
                            cb1(event)
                            spill = event._spill
                            if spill:
                                event._spill = None
                                for fn in spill:
                                    fn(event)
                        elif (type(event) is Timeout
                              and refcount(event) == 2
                              and len(pool) < pool_cap):
                            event._value = PENDING
                            event._cb1 = None
                            pool_append(event)
                    else:
                        cb1 = event._cb1
                        event._cb1 = _PROCESSED
                        if cb1 is not None:
                            cb1(event)
                            spill = event._spill
                            if spill:
                                event._spill = None
                                for fn in spill:
                                    fn(event)
                while fifo and fifo[0]._when == t:
                    event = popleft()
                    processed += 1
                    proc = event._proc
                    if proc is not None:
                        event._proc = None
                        cb1 = event._cb1
                        event._cb1 = _PROCESSED
                        self._active = proc
                        gen = proc._gen
                        try:
                            target = gen.send(event._value)
                        except StopIteration as stop_iter:
                            if proc._value is PENDING:
                                proc.succeed(stop_iter.value)
                        else:
                            if isinstance(target, Event):
                                if (target._cb1 is None
                                        and target._proc is None):
                                    target._proc = proc
                                else:
                                    target.add_callback(proc._resume_cb)
                            elif target is not _DEFER:
                                gen.close()
                                raise SimulationError(
                                    f"process {proc.name!r} yielded "
                                    f"{type(target).__name__}, expected "
                                    "an Event"
                                )
                        if cb1 is not None:
                            cb1(event)
                            spill = event._spill
                            if spill:
                                event._spill = None
                                for fn in spill:
                                    fn(event)
                        elif (type(event) is Timeout
                              and refcount(event) == 2
                              and len(pool) < pool_cap):
                            event._value = PENDING
                            event._cb1 = None
                            pool_append(event)
                    else:
                        cb1 = event._cb1
                        event._cb1 = _PROCESSED
                        if cb1 is not None:
                            cb1(event)
                            spill = event._spill
                            if spill:
                                event._spill = None
                                for fn in spill:
                                    fn(event)
                if stop is not None and stop._value is not PENDING:
                    return self.now
            if stop is not None and stop._value is PENDING:
                raise SimulationError(
                    f"deadlock: process {stop.name!r} pending with an "
                    "empty event heap"
                )
            return self.now
        finally:
            self.events_processed += processed
            self._active = None

    def _run_ref(self, until: Optional[int] = None) -> int:
        """Reference dispatch loop: one event at a time, merged by
        ``(time, seq)`` head-to-head - the ``REPRO_SIM_SLOW=1`` oracle."""
        heap = self._heap
        fifo = self._fifo
        try:
            while heap or fifo:
                if fifo and not (heap
                                 and (heap[0][0], heap[0][1])
                                 < (fifo[0]._when, fifo[0]._seq)):
                    event = fifo[0]
                    when = event._when
                    if until is not None and when > until:
                        self.now = until
                        return until
                    fifo.popleft()
                else:
                    when, _seq, event = heap[0]
                    if until is not None and when > until:
                        self.now = until
                        return until
                    heappop(heap)
                self.now = when
                self.events_processed += 1
                proc = event._proc
                cb1 = event._cb1
                spill = event._spill
                event._cb1 = _PROCESSED
                if proc is not None:
                    event._proc = None
                    proc._resume_cb(event)
                if cb1 is not None:
                    cb1(event)
                    if spill:
                        event._spill = None
                        for fn in spill:
                            fn(event)
            return self.now
        finally:
            self._active = None
