"""Per-layer host timing and call counts, measured from outside the program.

:class:`LayerTracer` wraps the public functions and methods of the
simulator's packages in place - nothing under ``src/`` is edited - and,
while active, records for every layer:

* **calls** - how many times one of its public functions was called;
* **self time** - host time spent inside the layer, excluding time spent
  in nested calls into any wrapped function (its child spans).

Timing is generator-aware.  Index ops (``SphinxClient.search`` and
friends, every ``RackClient`` op) and executor runs return generators
that the executor or the engine drives later, so a wrapped function that
returns a generator hands back a pass-through generator that times each
*resume* as a span of the function's layer.  The call that creates the
generator counts once.

Functions bound by ``from ... import`` are wrapped where they were
imported too: after wrapping, every ``repro`` module's globals are
rebound from the original function to its wrapper (``hash64`` inside
``filters/hotness.py`` or ``core/`` would otherwise count zero).

A few functions also carry a probe that counts the work behind a
per-layer ratio at the boundary where it happens: verbs and doorbell
batches as op generators hand them to an executor, filter probes and
their answers, RACE bucket reads per lookup, INHT lookups, rack reads
and tenant admission deferrals.

What stays unwrapped: properties, dunder methods, private helpers (their
time is their caller's self time), functions captured in closures or
default arguments, and bound methods stored before :meth:`install`.
Install before building the system so stored bound methods are wrapped.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from types import GeneratorType
from typing import Callable, Dict, List, Optional

from repro.dm.rdma import Batch, CasOp, FaaOp, ReadOp, WriteOp
from repro.errors import ReproError

LAYERS = ("sim", "dm.rdma", "dm.network", "dm.memory", "dm.rack", "core",
          "art", "filters", "race", "util", "ycsb", "tenancy", "recover",
          "fault")

#: Module (or package) -> layer.  ``dm.memory`` also holds the cluster
#: assembly and node placement the allocator goes through.
MODULE_LAYERS = {
    "repro.sim": "sim",
    "repro.dm.rdma": "dm.rdma",
    "repro.dm.network": "dm.network",
    "repro.dm.memory": "dm.memory",
    "repro.dm.cluster": "dm.memory",
    "repro.dm.placement": "dm.memory",
    "repro.dm.rack": "dm.rack",
    "repro.core": "core",
    "repro.art": "art",
    "repro.filters": "filters",
    "repro.race": "race",
    "repro.util": "util",
    "repro.ycsb": "ycsb",
    "repro.tenancy": "tenancy",
    "repro.recover": "recover",
    "repro.fault": "fault",
}

#: Classes whose layer differs from their module's: the shard map only
#: serves rack routing.
CLASS_LAYERS = {"repro.dm.placement.ShardMap": "dm.rack"}

#: Private coroutine bodies the engine resumes directly.  Wrapped so the
#: YCSB clients' own work is charged to ``ycsb``, not to the engine.
PROCESS_BODIES = {"repro.ycsb.runner._worker",
                  "repro.ycsb.runner._tenant_worker"}

_VERBS = (ReadOp, WriteOp, CasOp, FaaOp)


class TracingError(ReproError):
    """The layer tracer could not attach or was left in a bad state."""


def verbs_in(item) -> int:
    """Verbs an op generator's yielded item carries: a doorbell batch's
    members, one for a single verb, none for local compute."""
    cls = item.__class__
    if cls is Batch:
        return len(item.ops)
    return 1 if cls in _VERBS else 0


def layer_of(module: str) -> Optional[str]:
    """The layer a ``repro`` module belongs to, or None when unlisted."""
    parts = module.split(".")
    for cut in range(len(parts), 1, -1):
        layer = MODULE_LAYERS.get(".".join(parts[:cut]))
        if layer is not None:
            return layer
    return None


class LayerTracer:
    """Wraps the layers' public callables; records while :attr:`active`."""

    def __init__(self):
        self.active = False
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        #: Boundary counts behind the per-layer ratios.
        self.counts: Dict[str, int] = dict.fromkeys(
            ("verbs", "batched_verbs", "filter_lookups", "filter_hits",
             "race_lookups", "race_probes", "inht_lookups", "rack_searches",
             "deferrals"), 0)
        self._stack: List[list] = []
        self._undo: List[tuple] = []
        self._hooks = self._make_hooks()

    # -- boundary probes ---------------------------------------------------
    def _count_verbs(self, item) -> None:
        verbs = verbs_in(item)
        self.counts["verbs"] += verbs
        if item.__class__ is Batch:
            self.counts["batched_verbs"] += verbs

    def _make_hooks(self) -> Dict[str, tuple]:
        """qualified name -> (before(args) -> args, after(result), on_item)."""
        counts = self.counts

        def verbs_in_op_stream(args):
            executor, gen = args[0], args[1]
            return (executor, self._resumes(gen, None, self._count_verbs)) \
                + args[2:]

        def verb_executed(args):
            self._count_verbs(args[1])
            return args

        def filter_probe(result):
            counts["filter_lookups"] += 1
            if result:
                counts["filter_hits"] += 1

        def race_probe(item):
            counts["race_probes"] += verbs_in(item)

        def counter(name):
            def bump(_result):
                counts[name] += 1
            return bump

        def admission(result):
            if result[0] < 0:
                counts["deferrals"] += 1

        return {
            "repro.dm.rdma.SimExecutor.run": (verbs_in_op_stream, None, None),
            "repro.dm.rdma.DirectExecutor.execute": (verb_executed, None,
                                                     None),
            "repro.filters.hotness.SuccinctFilterCache.contains":
                (None, filter_probe, None),
            "repro.race.client.RaceClient.lookup":
                (None, counter("race_lookups"), race_probe),
            "repro.core.inht.InhtClient.lookup":
                (None, counter("inht_lookups"), None),
            "repro.dm.rack.RackClient.search":
                (None, counter("rack_searches"), None),
            "repro.tenancy.sched.TenancyController.acquire":
                (None, admission, None),
        }

    # -- spans ---------------------------------------------------------------
    def _resumes(self, gen, idx: Optional[int],
                 on_item: Optional[Callable] = None):
        """Drive ``gen`` transparently, timing each resume as a span of
        layer ``idx`` (None: no span) and showing each yielded item to
        ``on_item``.  Forwards send/throw/close exactly."""
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter
        value = None
        pending = None
        while True:
            timed = self.active and idx is not None
            if timed:
                frame = [clock(), 0.0]
                stack.append(frame)
            try:
                if pending is None:
                    item = gen.send(value)
                else:
                    exc, pending = pending, None
                    item = gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                if timed:
                    span = clock() - frame[0]
                    stack.pop()
                    self_s[idx] += span - frame[1]
                    if stack:
                        stack[-1][1] += span
            if on_item is not None and self.active:
                on_item(item)
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into gen, as yield from
                pending = exc
                value = None

    def _wrap(self, fn: Callable, idx: int, qualname: str) -> Callable:
        tracer = self
        calls = self.calls
        self_s = self.self_s
        stack = self._stack
        clock = time.perf_counter
        resumes = self._resumes
        before, after, on_item = self._hooks.get(qualname, (None,) * 3)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[idx] += 1
            if before is not None:
                args = before(args)
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - frame[0]
                stack.pop()
                self_s[idx] += span - frame[1]
                if stack:
                    stack[-1][1] += span
            if after is not None:
                after(result)
            if result.__class__ is GeneratorType:
                return resumes(result, idx, on_item)
            return result

        return wrapper

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's public callables (inactive until
        :meth:`start`), then rebind imported copies in every module."""
        for package in MODULE_LAYERS:
            importlib.import_module(package)
        index = {layer: i for i, layer in enumerate(LAYERS)}
        wrapped: Dict[int, Callable] = {}
        found = set()
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("repro.") and m is not None]
        for module in modules:
            layer = layer_of(module.__name__)
            if layer is None:
                continue
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                qualname = f"{module.__name__}.{name}"
                if isinstance(obj, type):
                    if name.startswith("_"):
                        continue
                    cls_layer = CLASS_LAYERS.get(qualname, layer)
                    found.update(self._wrap_class(obj, qualname,
                                                  index[cls_layer], wrapped))
                elif callable(obj) and hasattr(obj, "__code__") and (
                        not name.startswith("_")
                        or qualname in PROCESS_BODIES):
                    wrapper = self._wrap(obj, index[layer], qualname)
                    wrapped[id(obj)] = wrapper
                    self._set(module, name, obj, wrapper)
                    found.add(qualname)
        missing = (set(self._hooks) | PROCESS_BODIES) - found
        if missing:
            raise TracingError(f"layer probes found no target: {missing}")
        # Rebind `from ... import`-ed copies, in every repro module.
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapper = wrapped.get(id(obj)) if callable(obj) else None
                if wrapper is not None and obj is not wrapper:
                    self._set(module, name, obj, wrapper)

    def _wrap_class(self, cls: type, qualname: str, idx: int,
                    wrapped: Dict[int, Callable]) -> List[str]:
        done = []
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            method_name = f"{qualname}.{name}"
            if isinstance(raw, (staticmethod, classmethod)):
                inner = raw.__func__
                new = type(raw)(self._wrap(inner, idx, method_name))
            elif callable(raw) and hasattr(raw, "__code__"):
                new = self._wrap(raw, idx, method_name)
                wrapped[id(raw)] = new
            else:
                continue
            self._set(cls, name, raw, new)
            done.append(method_name)
        return done

    def _set(self, owner, name: str, old, new) -> None:
        setattr(owner, name, new)
        self._undo.append((owner, name, old))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, name, old in reversed(self._undo):
            setattr(owner, name, old)
        self._undo.clear()

    # -- recording ---------------------------------------------------------
    def start(self) -> None:
        self.active = True

    def stop(self) -> None:
        if self._stack:
            raise TracingError("layer spans left open")
        self.active = False

    def snapshot(self) -> Dict:
        return {
            "calls": dict(zip(LAYERS, self.calls)),
            "self_s": dict(zip(LAYERS, self.self_s)),
            "counts": dict(self.counts),
        }


def layer_metrics(trace: Dict, counts: Dict, ops: int,
                  wall_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced round.

    ``trace`` is a :meth:`LayerTracer.snapshot` over the timed phase,
    ``counts`` the workload's ``layer_counts()`` and ``wall_s`` the
    traced timed phase.  The two metrics that need the untraced twin
    round (``sim.events_per_s``, ``trace.overhead``) are added by
    ``perfbench/run.py``.
    """
    calls, self_s, probe = trace["calls"], trace["self_s"], trace["counts"]
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_frac"] = self_s[layer] / wall_s
        out[f"{layer}.calls_per_op"] = calls[layer] / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out.update({
        "sim.events_per_op": counts["events"] / ops,
        "dm.rdma.verbs_per_op": probe["verbs"] / ops,
        "dm.rdma.batched_frac": ratio(probe["batched_verbs"],
                                      probe["verbs"]),
        "dm.rdma.retries_per_op": counts["restarts"] / ops,
        "dm.network.mn_busy_frac": counts["mn_busy_frac"],
        "dm.network.queue_ns_per_op": counts["queue_ns_per_op"],
        "filters.hit_rate": ratio(probe["filter_hits"],
                                  probe["filter_lookups"]),
        "filters.evictions_per_op": counts["filter_evictions"] / ops,
        "race.probes_per_lookup": ratio(probe["race_probes"],
                                        probe["race_lookups"]),
        "core.inht_fallbacks_per_op": counts["inht_fallbacks"] / ops,
        "core.multi_candidate_frac": ratio(counts["multi_candidate_lookups"],
                                           probe["inht_lookups"]),
        "dm.rack.replica_writes_per_op": counts["replica_writes"] / ops,
        "dm.rack.replica_fallback_frac": ratio(
            counts["replica_fallback_reads"], probe["rack_searches"]),
        "recover.keys_moved": counts["keys_moved"],
        "recover.promotions": counts["promotions"],
        "tenancy.deferrals_per_op": probe["deferrals"] / ops,
    })
    return out
