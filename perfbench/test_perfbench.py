"""Tests of the benchmark itself: the tracer, the count cross-checks and the
result contract.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import voltmarket.env
import workloads
from tracer import Target, Tracer
from voltmarket import customers

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def fake_package():
    """fakepkg.inner defines leaf(); fakepkg.outer binds it by from-import."""
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")

    def leaf(x):
        return x + 1

    def root(x):
        return outer.leaf(x) + outer.leaf(x)

    inner.leaf = leaf
    outer.leaf = leaf
    outer.root = root
    modules = {"fakepkg": pkg, "fakepkg.inner": inner, "fakepkg.outer": outer}
    sys.modules.update(modules)
    yield outer
    for name in modules:
        del sys.modules[name]


def test_self_time_subtracts_child_spans(fake_package):
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer:
        tracer.install([Target("root", "fakepkg.outer:root"), Target("leaf", "fakepkg.inner:leaf")])
        assert fake_package.root(1) == 4
    # root starts at 0 and ends at 5; the two leaves take 1 tick each.
    assert tracer.stats["leaf"] == [2, 2.0, 2.0]
    assert tracer.stats["root"] == [1, 5.0, 3.0]
    assert tracer.edges[("root", "leaf")] == [2, 2.0]
    assert tracer.edges[(None, "root")] == [1, 5.0]


def test_from_import_bindings_are_wrapped_and_restored(fake_package):
    original = fake_package.leaf
    tracer = Tracer()
    tracer.install([Target("leaf", "fakepkg.inner:leaf", timed=False)])
    assert fake_package.leaf is not original
    assert sys.modules["fakepkg.inner"].leaf is fake_package.leaf
    assert tracer.bindings["leaf"] == ["fakepkg.inner.leaf", "fakepkg.outer.leaf"]
    tracer.uninstall()
    assert fake_package.leaf is original


def test_voltmarket_lookup_sites_are_wrapped():
    original = customers.storage_demand
    with Tracer() as tracer:
        tracer.install(workloads.layer_targets())
        assert voltmarket.env.storage_demand is not original
        assert "voltmarket.env.storage_demand" in tracer.bindings["customers.storage_demand"]
        assert "voltmarket.training.featurize" in tracer.bindings["agent.featurize"]
        assert "voltmarket.meta.adapt" in tracer.bindings["meta.adapt"]
    assert voltmarket.env.storage_demand is original


def test_layer_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    emitted = {name: unit for name, (_, unit) in workloads.layer_metrics(Tracer(), 1.0).items()}
    assert emitted == declared


def test_silent_layer_fails_loudly():
    tracer = Tracer()
    tracer.install(workloads.layer_targets())
    tracer.uninstall()
    assert workloads.silent_layers(tracer, {"agent.td_update"}) == [
        "agent.td_update: wrapped but read zero calls"
    ]
    assert workloads.silent_layers(tracer, {"agent.typo"}) == ["agent.typo: not an instrumented layer"]


def traced_pass(workload):
    with Tracer() as tracer:
        tracer.install(workloads.layer_targets())
        result = workload.run_pass(None)
    return tracer, result


def test_train_seeds_counts_match_analytic_values():
    workload = workloads.TrainSeeds(0)
    tracer, result = traced_pass(workload)
    assert not [p for op in result.ops for p in op.problems]
    assert tracer.calls("agent.td_update") == 10 * 40 * 168
    assert tracer.calls("env.step") == 10 * (99 + 40 * 168 + 168)
    assert workload.cross_check(tracer) == []
    assert workloads.silent_layers(tracer, workload.present) == []


def test_price_replay_violations_match_out_of_band_prices():
    workload = workloads.PriceReplay(3)
    tracer, result = traced_pass(workload)
    assert not [p for op in result.ops for p in op.problems]
    assert tracer.counters["telemetry.violations"] == workload.out_of_band > 0
    assert workload.cross_check(tracer) == []
    assert workloads.silent_layers(tracer, workload.present) == []
    workload.out_of_band += 1
    assert workload.cross_check(tracer)


def test_result_line_carries_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "price-replay", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 32 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-seeds", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
