"""Microbenchmarks of the event core: how fast does the simulator *run*?

Four patterns stress the distinct hot paths of the ISSUE 7 engine rework,
each driven through the production entry points (``SimExecutor`` /
``Engine.run_until_complete``), not synthetic inner loops:

* ``ping-pong`` - one client issuing sequential 8-byte READ verbs: the
  scalar verb-trip path.
* ``doorbell`` - one client posting same-MN doorbell batches of 16
  reads: the member-trip path.
* ``timeout-storm`` - many pure-engine processes cycling prime-length
  timeouts: heap churn, macro-batch draining, and the timeout pool.
* ``fifo-saturation`` - many workers hammering one FIFO station:
  contended-queue dispatch plus ``FifoServer`` accounting.

Each pattern reports host wall seconds, engine events processed, and
**events per wall second** - the headline metric of the rework.  The
JSON report uses the same ``BENCH_2`` schema as the grid benchmarks, so
``python -m repro.bench.perftrack report.json --compare baseline.json``
diffs it directly::

    python -m repro.bench.enginebench --ops 200000 --out engine.json

Wall-clock numbers are min-of-``--repeat`` to shave scheduler noise;
simulated results are deterministic and identical across repeats.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..dm.cluster import Cluster, ClusterConfig
from ..dm.rdma import Batch, ReadOp
from ..sim import Engine, FifoServer

DOORBELL_WIDTH = 16
STORM_PROCS = 64
SAT_WORKERS = 128

#: (events, wall_s, sim_ns, slow) of one pattern run; ``slow`` is the
#: dispatch path of the engine that actually ran it.
Sample = Tuple[int, float, int, bool]


def _tiny_cluster() -> Cluster:
    return Cluster(ClusterConfig(mn_capacity_bytes=1 << 20))


def bench_ping_pong(ops: int) -> Sample:
    """Sequential scalar READ verbs from a single client."""
    cluster = _tiny_cluster()
    addr = cluster.alloc(0, 8)
    sx = cluster.sim_executor(0)
    engine = cluster.engine

    def client():
        for _ in range(ops):
            yield ReadOp(addr, 8)

    proc = engine.process(sx.run(client()), name="ping-pong")
    start = time.perf_counter()
    engine.run_until_complete(proc)
    wall = time.perf_counter() - start
    return engine.events_processed, wall, engine.now, engine._slow


def bench_doorbell(ops: int) -> Sample:
    """Same-MN doorbell batches of DOORBELL_WIDTH reads."""
    cluster = _tiny_cluster()
    addrs = [cluster.alloc(0, 8) for _ in range(DOORBELL_WIDTH)]
    sx = cluster.sim_executor(0)
    engine = cluster.engine
    batches = max(1, ops // DOORBELL_WIDTH)

    def client():
        template = [ReadOp(a, 8) for a in addrs]
        for _ in range(batches):
            yield Batch(template)

    proc = engine.process(sx.run(client()), name="doorbell")
    start = time.perf_counter()
    engine.run_until_complete(proc)
    wall = time.perf_counter() - start
    return engine.events_processed, wall, engine.now, engine._slow


def bench_timeout_storm(ops: int) -> Sample:
    """Many processes cycling co-prime delays: pure engine dispatch."""
    engine = Engine()
    steps = max(1, ops // STORM_PROCS)
    primes = [3, 5, 7, 11, 13, 17, 19, 23]

    def cycler(delay):
        for _ in range(steps):
            yield engine.timeout(delay)

    procs = [engine.process(cycler(primes[i % len(primes)]),
                            name=f"storm{i}")
             for i in range(STORM_PROCS)]
    start = time.perf_counter()
    for proc in procs:
        engine.run_until_complete(proc)
    wall = time.perf_counter() - start
    return engine.events_processed, wall, engine.now, engine._slow


def bench_fifo_saturation(ops: int) -> Sample:
    """Many workers contending for one FIFO station."""
    engine = Engine()
    server = FifoServer(engine, "sat.nic", capacity=1)
    jobs = max(1, ops // SAT_WORKERS)

    def worker(svc):
        for _ in range(jobs):
            yield server.submit(svc)

    procs = [engine.process(worker(20 + (i % 7)), name=f"w{i}")
             for i in range(SAT_WORKERS)]
    start = time.perf_counter()
    for proc in procs:
        engine.run_until_complete(proc)
    wall = time.perf_counter() - start
    return engine.events_processed, wall, engine.now, engine._slow


PATTERNS: Dict[str, Tuple[Callable[[int], Sample], int]] = {
    # name -> (runner, workers-for-the-record)
    "ping-pong": (bench_ping_pong, 1),
    "doorbell": (bench_doorbell, 1),
    "timeout-storm": (bench_timeout_storm, STORM_PROCS),
    "fifo-saturation": (bench_fifo_saturation, SAT_WORKERS),
}


def run_pattern(name: str, ops: int, repeat: int = 3) -> dict:
    """Run one pattern ``repeat`` times; returns a BENCH_2 cell record
    with min-wall host numbers (simulated results are deterministic)."""
    runner, workers = PATTERNS[name]
    best: Optional[Sample] = None
    for _ in range(max(1, repeat)):
        sample = runner(ops)
        if best is None or sample[1] < best[1]:
            best = sample
    events, wall, sim_ns, slow = best
    return {
        "system": "engine",
        "dataset": "core",
        "workload": name,
        "workers": workers,
        "ops": ops,
        "wall_s": round(wall, 4),
        "events": events,
        "events_per_s": round(events / wall) if wall > 0 else 0,
        "engine_mode": "slow" if slow else "fast",
        "sim_ns": sim_ns,
    }


def report(cells: List[dict]) -> dict:
    return {
        "schema": "BENCH_2",
        "total_wall_s": round(sum(c["wall_s"] for c in cells), 3),
        "total_events": sum(c["events"] for c in cells),
        "cells": cells,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.enginebench",
        description="Event-core microbenchmarks (events per wall second).")
    parser.add_argument("--ops", type=int, default=200_000,
                        help="approximate op count per pattern "
                             "(default 200000)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs per pattern; wall time is the min "
                             "(default 3)")
    parser.add_argument("--pattern", action="append", choices=PATTERNS,
                        help="run only this pattern (repeatable; "
                             "default all)")
    parser.add_argument("--out", metavar="PATH",
                        help="write a BENCH_2 JSON report here")
    args = parser.parse_args(argv)
    names = args.pattern or list(PATTERNS)
    cells = []
    print(f"{'pattern':<16} {'ops':>9} {'events':>10} {'wall_s':>8} "
          f"{'events/s':>12}")
    for name in names:
        cell = run_pattern(name, args.ops, args.repeat)
        cells.append(cell)
        print(f"{name:<16} {cell['ops']:>9} {cell['events']:>10} "
              f"{cell['wall_s']:>8.3f} {cell['events_per_s']:>12,}")
    rep = report(cells)
    print(f"total: {rep['total_events']} events in "
          f"{rep['total_wall_s']:.3f}s")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rep, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
