"""Tests of the benchmark itself: tracer arithmetic and tiny smoke runs.

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from tracer import Probe, Tracer  # noqa: E402

sys.path.insert(0, os.path.join(ROOT, "src"))
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def fake_layers():
    """A module whose `outer` calls `inner` by module lookup, like octpcc does."""
    clock = FakeClock()
    mod = types.ModuleType("fake_layers")

    def inner():
        clock.advance(2.0)

    def outer():
        clock.advance(1.0)
        mod.inner()
        clock.advance(3.0)
        mod.inner()
        clock.advance(4.0)
        return "done"

    class Maker:
        @classmethod
        def make(cls):
            clock.advance(0.5)
            return cls

    mod.inner, mod.outer, mod.Maker = inner, outer, Maker
    sys.modules["fake_layers"] = mod
    yield mod, clock
    del sys.modules["fake_layers"]


def test_self_time_is_duration_minus_children(fake_layers):
    mod, clock = fake_layers
    probes = [Probe("fake_layers", "outer", "a.outer"),
              Probe("fake_layers", "inner", "b.inner"),
              Probe("fake_layers", "Maker.make", "c.make"),
              Probe("fake_layers", "gone", "d.gone")]
    with Tracer(probes, clock=clock) as tracer:
        assert mod.outer() == "done"
        assert mod.Maker.make() is mod.Maker
    summary = tracer.summary()
    assert summary["a.outer"] == {"calls": 1, "total_s": 12.0, "self_s": 8.0}
    assert summary["b.inner"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    assert summary["c.make"]["self_s"] == 0.5
    assert tracer.absent == ["d.gone"]
    assert tracer.top_level_seconds() == 12.5
    assert not hasattr(mod.outer, "__wrapped__")  # uninstalled on exit


def test_opaque_span_hides_its_callees_and_counters_add_up(fake_layers):
    mod, clock = fake_layers
    probes = [Probe("fake_layers", "outer", "a.outer", opaque=True,
                    counter=lambda result: {"results": len(result)}),
              Probe("fake_layers", "inner", "b.inner")]
    with Tracer(probes, clock=clock) as tracer:
        mod.outer()
        mod.outer()
    summary = tracer.summary()
    assert summary == {"a.outer": {"calls": 2, "total_s": 24.0, "self_s": 24.0}}
    assert tracer.counts == {"a.outer.results": 8}


def _bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_declared_metrics_match_the_runner():
    spec = _declared()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for size in workloads.SPECS.values():
        assert set(size) == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _declared()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert "0.0 ratio (0 of" in proc.stdout


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tmp*"))
    proc = _bench("codec-default", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
