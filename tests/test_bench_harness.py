"""Unit tests for the benchmark harness and reporting helpers."""

import pytest

from repro.bench import (
    SYSTEMS,
    build_setup,
    format_table,
    load_dataset,
    make_index,
    ratio_summary,
    scaled_cache_bytes,
    speedup,
    timed_run,
)
from repro.bench.enginebench import PATTERNS, run_pattern
from repro.bench.harness import PAPER_CACHE_BYTES, PAPER_KEYS
from repro.dm import Cluster, ClusterConfig
from repro.errors import ConfigError


def test_scaled_cache_matches_paper_ratio():
    assert scaled_cache_bytes(PAPER_KEYS) == PAPER_CACHE_BYTES
    half = scaled_cache_bytes(PAPER_KEYS // 2)
    assert abs(half - PAPER_CACHE_BYTES // 2) < 1024
    assert scaled_cache_bytes(10) >= 4_096  # floor for tiny runs


def test_make_index_all_systems():
    for name in SYSTEMS + ("Sphinx-NoFilter",):
        cluster = Cluster(ClusterConfig(mn_capacity_bytes=1 << 24))
        index = make_index(name, cluster, 10_000)
        assert index.client(0) is index.client(0)
    with pytest.raises(ConfigError):
        make_index("nope", Cluster(ClusterConfig(mn_capacity_bytes=1 << 24)),
                   10)


def test_smart_c_gets_ten_times_the_cache():
    c1 = Cluster(ClusterConfig(mn_capacity_bytes=1 << 24))
    c2 = Cluster(ClusterConfig(mn_capacity_bytes=1 << 24))
    smart = make_index("SMART", c1, 1_000_000)
    smart_c = make_index("SMART+C", c2, 1_000_000)
    assert smart_c.config.cache_budget_bytes == \
        10 * smart.config.cache_budget_bytes


def test_build_setup_and_timed_run_smoke():
    dataset = load_dataset("u64", 2_000)
    setup = build_setup("Sphinx", dataset, mn_capacity=1 << 26)
    result = timed_run(setup, "C", workers=6, ops=300,
                       warmup_ops_per_cn=100)
    assert result.ops == 300
    assert result.system == "Sphinx"
    assert result.throughput_mops > 0


def test_load_dataset_insert_pool_fraction():
    dataset = load_dataset("email", 1_000, insert_fraction=0.5)
    assert dataset.size == 1_000
    assert len(dataset.insert_pool) == 500


def test_format_table_alignment():
    text = format_table(["a", "long_header"], [[1, 2], [333, 4]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")
    assert "long_header" in lines[0]
    widths = {len(line) for line in lines}
    assert len(widths) == 1  # perfectly rectangular


def test_speedup_and_ratio_summary():
    assert speedup(2.0, 6.0) == 3.0
    assert speedup(0.0, 1.0) == float("inf")
    ratios = ratio_summary({"Sphinx": 6.0, "ART": 2.0, "SMART": 3.0})
    assert ratios == {"ART": 3.0, "SMART": 2.0}
    assert "Sphinx" not in ratios


@pytest.mark.parametrize("value,mode", [
    ("", "fast"), ("0", "fast"), ("1", "slow"), ("true", "slow"),
])
def test_enginebench_mode_label_follows_engine(monkeypatch, value, mode):
    # Engine treats any REPRO_SIM_SLOW other than ""/"0" as slow; the
    # label must name the dispatch path that actually ran.
    monkeypatch.setenv("REPRO_SIM_SLOW", value)
    for name in PATTERNS:
        cell = run_pattern(name, 64, repeat=1)
        assert cell["engine_mode"] == mode
