"""One measured round of one workload, in a fresh interpreter.

    python -m perfbench.round --workload point-read --seed 1 [--traced]

Sets the workload up, runs its timed phase, checks its outputs and
prints one JSON object with the round's timings, simulated results and
(with ``--traced``) the per-layer trace.  ``perfbench/run.py`` starts
one such process per round, so no memo cache or warmed object of one
round carries into the next: every round pays what a fresh command-line
run pays.  Needs ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

from perfbench.layers import LayerTracer, layer_metrics
from perfbench.workloads import WORKLOADS


def run_round(name: str, seed: int, traced: bool) -> dict:
    tracer = None
    if traced:
        # Before set-up, so bound methods stored while building are
        # wrapped too; nothing records until start().
        tracer = LayerTracer()
        tracer.install()
    bench = WORKLOADS[name](seed)
    started = time.perf_counter()
    bench.setup()
    setup_s = time.perf_counter() - started
    if tracer is not None:
        tracer.start()
    started = time.perf_counter()
    bench.run()
    run_s = time.perf_counter() - started
    if tracer is not None:
        tracer.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "setup_s": setup_s,
        "run_s": run_s,
        "ops": bench.result.ops,
        "failed": bench.failed,
        "live_keys": bench.live_keys(),
        "peak_rss_mb": peak_rss_mb,
        "sim": bench.sim_metrics(),
        "layer_counts": bench.layer_counts(),
        "trace": None,
        "layers": None,
    }
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.snapshot()
        out["layers"] = layer_metrics(out["trace"], out["layer_counts"],
                                      out["ops"], run_s)
    out["problems"] = bench.check()
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    print(json.dumps(run_round(args.workload, args.seed, args.traced)))


if __name__ == "__main__":
    main()
