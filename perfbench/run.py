"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload point-read --seed 1 \
        --seconds 40 --trace 0

Run from the root of a source checkout (the package is imported from
``src``; nothing is installed).  Each round of the workload - set-up,
timed phase, output check - runs in a fresh interpreter
(``python -m perfbench.round``), one after the other, until about
``--seconds`` of wall time is spent, and at least three rounds (one
untraced/traced pair with ``--trace 1``) have run.

``--trace 0`` reports the end-to-end metrics: host speed as the median
over rounds, simulated results from the (identical) rounds.  ``--trace
1`` alternates untraced and traced rounds of the same seed and reports
the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every round's outputs passed the check, every
round of the seed simulated the same results and (traced) the same
per-layer call counts.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_ROUNDS = 3
DEADLINE_S = 165  # start no round that would end past this

#: End-to-end metric -> what one sample of it is.  Host-speed metrics
#: are medians over rounds; simulated ones repeat exactly per seed and
#: are computed over the ops (or, for memory, the keys) of one round.
SAMPLES = {"ops_per_s": "rounds", "setup_s": "rounds",
           "peak_rss_mb": "rounds", "sim_mops": "ops", "sim_p50_us": "ops",
           "sim_p99_us": "ops", "rtt_per_op": "ops",
           "mn_bytes_per_key": "keys", "served_frac": "ops"}

#: Simulated outputs that must repeat exactly across rounds of one seed,
#: traced or not.
SIM_KEYS = ("sim_mops", "sim_p50_us", "sim_p99_us", "latency_samples",
            "rtt_per_op", "mn_bytes_per_key", "failed_frac")


def run_round(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-m", "perfbench.round", "--workload", workload,
           "--seed", str(seed)] + (["--traced"] if traced else [])
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"round of {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Rounds until ``seconds`` of wall time are used (or the minimum)."""
    rounds: list = []
    started = time.monotonic()
    pattern = (False, True) if trace else (False,)
    minimum = len(pattern) if trace else MIN_ROUNDS
    batch_walls: list = []
    while True:
        elapsed = time.monotonic() - started
        if len(rounds) >= minimum:
            expected = statistics.mean(batch_walls)
            if elapsed + expected > min(seconds, DEADLINE_S):
                break
        batch_started = time.monotonic()
        for traced in pattern:
            left = DEADLINE_S - (time.monotonic() - started)
            rounds.append(run_round(workload, seed, traced, max(left, 1)))
        batch_walls.append(time.monotonic() - batch_started)
    return rounds


def verify(rounds: list) -> list:
    """Problems with the rounds' outputs; empty when all are correct."""
    problems = [f"round {i}: {p}" for i, r in enumerate(rounds)
                for p in r["problems"]]
    first = rounds[0]
    for i, r in enumerate(rounds[1:], 1):
        for key in SIM_KEYS:
            if r["sim"][key] != first["sim"][key]:
                problems.append(
                    f"round {i} (traced={r['traced']}) simulated {key}="
                    f"{r['sim'][key]}, round 0 {first['sim'][key]}")
        if r["layer_counts"] != first["layer_counts"]:
            problems.append(f"round {i}: program counters differ")
    traced = [r for r in rounds if r["traced"]]
    for r in traced[1:]:
        for field in ("calls", "counts"):
            if r["trace"][field] != traced[0]["trace"][field]:
                problems.append(f"traced rounds differ in layer {field}")
    return problems


def end_to_end(rounds: list) -> dict:
    sim = dict(rounds[0]["sim"])
    sim["served_frac"] = 1.0 - sim["failed_frac"]
    host = {
        "ops_per_s": statistics.median(r["ops"] / r["run_s"] for r in rounds),
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return {name: host[name] if name in host else sim[name]
            for name in SAMPLES}


def per_layer(rounds: list) -> dict:
    """Per-layer metrics: self-time shares are medians over the traced
    rounds, everything else repeats exactly per seed."""
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    untraced_s = statistics.median(r["run_s"] for r in untraced)
    traced_s = statistics.median(r["run_s"] for r in traced)
    out = dict(traced[0]["layers"])
    for name in out:
        if name.endswith(".self_frac"):
            out[name] = statistics.median(r["layers"][name] for r in traced)
    out["sim.events_per_s"] = traced[0]["layer_counts"]["events"] / untraced_s
    out["trace.overhead"] = untraced_s / traced_s
    return out


def load_spec() -> dict:
    """``BENCHMARK.json`` next to this directory: workloads and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def report(workload: str, rounds: list, metrics: dict, unit_of: dict,
           trace: bool) -> None:
    """The human-readable table: every metric with unit and samples."""
    n_traced = sum(r["traced"] for r in rounds)
    sizes = {"rounds": len(rounds), "traced rounds": n_traced,
             "ops": rounds[0]["ops"], "keys": rounds[0]["live_keys"],
             "exact per seed": 1}
    print(f"{workload}: {len(rounds)} rounds ({n_traced} traced) of "
          f"{rounds[0]['ops']} ops, seed {rounds[0]['seed']}")
    for name, value in metrics.items():
        if not trace:
            source = SAMPLES[name]
        elif name.endswith(".self_frac"):
            source = "traced rounds"
        elif name in ("sim.events_per_s", "trace.overhead"):
            source = "rounds"
        else:
            source = "exact per seed"
        print(f"  {name:32s} {value:14.6g} {unit_of[name]:14s} "
              f"n={sizes[source]} ({source})")


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    rounds = measure(args.workload, args.seed, args.seconds, trace)
    problems = verify(rounds)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    metrics = per_layer(rounds) if trace else end_to_end(rounds)
    unit_of = {m["name"]: m["unit"]
               for m in spec["end_to_end"] + spec["per_layer"]}
    report(args.workload, rounds, metrics, unit_of, trace)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["ops"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
