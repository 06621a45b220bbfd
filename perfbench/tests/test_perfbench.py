"""The benchmark's own tests: tracing is invisible and its counts repeat.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

Workloads are shrunk (fewer keys and ops) so each round takes seconds;
the properties checked do not depend on size.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.layers import LAYERS, LayerTracer
from perfbench.round import run_round
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Per-workload size overrides: small, but still exercising every layer
#: the full-size workload does (the rack still joins, leaves and fails
#: over mid-run).
SMALL = {
    "point-read": {"keys": 2_000, "ops": 192 * 6},
    "scan-insert": {"keys": 2_000, "insert_pool": 200, "ops": 192},
    "rack-failover": {"keys": 1_000, "insert_pool": 100, "ops": 1_024,
                      "crash_at_verb": 2_500},
}

SEED = 5


def _shrink(monkeypatch, name):
    for attr, value in SMALL[name].items():
        monkeypatch.setattr(WORKLOADS[name], attr, value)


def _traced_in_subprocess(name: str, hash_seed: str) -> dict:
    """A traced round in a fresh interpreter with its own str-hash seed."""
    code = ("import json; from perfbench.workloads import WORKLOADS; "
            "from perfbench.round import run_round\n"
            f"for k, v in {SMALL[name]!r}.items(): "
            f"setattr(WORKLOADS[{name!r}], k, v)\n"
            f"print(json.dumps(run_round({name!r}, {SEED}, True)))")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_is_invisible(monkeypatch, name):
    _shrink(monkeypatch, name)
    plain = run_round(name, SEED, traced=False)
    traced = run_round(name, SEED, traced=True)
    assert plain["problems"] == [] and traced["problems"] == []
    assert traced["sim"] == plain["sim"]
    assert traced["layer_counts"] == plain["layer_counts"]
    assert traced["ops"] == plain["ops"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_call_counts_repeat_across_processes(name):
    first = _traced_in_subprocess(name, "1")
    second = _traced_in_subprocess(name, "2")
    assert first["trace"]["calls"] == second["trace"]["calls"]
    assert first["trace"]["counts"] == second["trace"]["counts"]
    for metric, value in first["layers"].items():
        if not metric.endswith(".self_frac"):
            assert second["layers"][metric] == value, metric


def test_workloads_separate_the_layers(monkeypatch):
    calls = {}
    for name in WORKLOADS:
        _shrink(monkeypatch, name)
        calls[name] = run_round(name, SEED, traced=True)["layers"]
    for name in ("point-read", "scan-insert"):
        for layer in ("dm.rack", "tenancy", "recover", "fault"):
            assert calls[name][f"{layer}.calls_per_op"] == 0, (name, layer)
    for layer in ("dm.rack", "tenancy", "recover", "fault"):
        assert calls["rack-failover"][f"{layer}.calls_per_op"] > 0, layer
    assert calls["scan-insert"]["filters.calls_per_op"] \
        < calls["point-read"]["filters.calls_per_op"] / 5
    assert calls["scan-insert"]["dm.rdma.batched_frac"] \
        > calls["point-read"]["dm.rdma.batched_frac"]


def test_run_refuses_a_tree_without_sources(tmp_path):
    """Without ``src/repro`` the command fails fast and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_uninstall_restores_every_callable():
    import repro.filters.hotness as hotness
    import repro.util.hashing as hashing
    original_hash = hotness.hash64
    original_contains = hotness.SuccinctFilterCache.contains
    tracer = LayerTracer()
    tracer.install()
    assert hotness.hash64 is not original_hash
    assert hotness.hash64 is hashing.hash64  # the imported copy is rebound
    tracer.uninstall()
    assert hotness.hash64 is original_hash
    assert hotness.SuccinctFilterCache.contains is original_contains


def _echo():
    """A generator exercising send, throw and a return value."""
    total = 0
    while True:
        try:
            got = yield total
        except KeyError:
            total = -1
            continue
        if got is None:
            return total
        total += got


def test_resume_wrapper_is_transparent():
    tracer = LayerTracer()
    for traced in (False, True):
        tracer.active = traced
        plain, wrapped = _echo(), tracer._resumes(_echo(), 0)
        for gen in (plain, wrapped):
            next(gen)
        for value in (3, 4):
            assert wrapped.send(value) == plain.send(value)
        assert wrapped.throw(KeyError()) == plain.throw(KeyError())
        assert wrapped.send(5) == plain.send(5)
        with pytest.raises(StopIteration) as done_plain:
            plain.send(None)
        with pytest.raises(StopIteration) as done_wrapped:
            wrapped.send(None)
        assert done_wrapped.value.value == done_plain.value.value
    tracer.active = False
    assert tracer.self_s[0] > 0 and tracer.calls == [0] * len(LAYERS)
