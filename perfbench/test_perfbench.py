"""Tests of the benchmark's own code: span arithmetic, the tracer leaving
the program as imported, order statistics, and BENCHMARK.json agreeing
with the metrics the code reports."""

import hashlib
import inspect
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run as bench  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import child  # noqa: E402
from child import ARTIFACTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from mptrain import io_cli  # noqa: E402
from mptrain.io_cli import Config, RunConfig  # noqa: E402


def test_self_times_on_hand_built_tree():
    spans = [
        ["root", -1, 0, 100],
        ["a", 0, 10, 40],
        ["a.x", 1, 20, 30],
        ["b", 0, 50, 60],
        ["a", 0, 70, 75],
    ]
    assert tracer.child_time(spans) == [45, 10, 0, 0, 0]
    agg = tracer.summarize(spans)
    assert agg["root"] == {"calls": 1, "total_ns": 100, "self_ns": 55, "child_ns": 45}
    assert agg["a"] == {"calls": 2, "total_ns": 35, "self_ns": 25, "child_ns": 10}
    assert agg["a.x"]["self_ns"] == agg["b"]["self_ns"] == 10
    assert agg["root"]["self_ns"] + sum(
        a["self_ns"] for n, a in agg.items() if n != "root") == 100


def test_percentile_and_tail_selection():
    sample = list(range(1, 201))          # 1..200, shuffled order must not matter
    sample.reverse()
    assert stats.percentile(sample, 500) == 100
    assert stats.percentile(sample, 900) == 180
    assert stats.percentile(sample, 950) == 190
    # 200 samples: p95 leaves exactly 10 beyond, p99 only 2
    assert stats.tail_percentile(200) == (950, 10)
    assert stats.tail_percentile(199) == (900, 19)
    assert stats.tail_percentile(40) == (750, 10)
    assert stats.tail_percentile(3840) == (990, 38)
    assert stats.tail_percentile(10000) == (999, 10)
    # too few samples for any percentile to have ten beyond it
    assert stats.tail_percentile(12) == (500, 6)
    assert stats.rank(999, 1000) == 999


def test_run_plan_alternates_and_keeps_two_traced_runs():
    wl = WORKLOADS["mnist_acc16"]
    assert bench.run_plan(wl, 1, trace=False) == [False, False]
    assert bench.run_plan(wl, 1, trace=True) == [False, True, True]
    assert bench.run_plan(wl, 6.5 * 5, trace=True) == [False, True, False, True, False]


def _snapshot():
    seen = {}
    for name in tracer.MODULES:
        mod = sys.modules[f"mptrain.{name}"]
        for attr, obj in vars(mod).items():
            seen[(mod.__name__, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for cattr, cobj in vars(obj).items():
                    seen[(mod.__name__, attr, cattr)] = cobj
    return seen


def _tiny_run(out_dir):
    cfg = Config.load(os.path.join(ROOT, "configs", "underflow_rescue.cfg"))
    cfg.set("run.epochs", "1")
    cfg.set("run.output_dir", str(out_dir))
    io_cli.run(RunConfig.from_config(cfg))
    return {n: hashlib.sha256((out_dir / n).read_bytes()).hexdigest()
            for n in ARTIFACTS}


def test_traced_run_restores_every_attribute_and_keeps_artifacts(tmp_path):
    plain = _tiny_run(tmp_path / "plain")
    before = _snapshot()
    t = tracer.Tracer()
    with t:
        wrapped = [k for k, v in _snapshot().items() if before.get(k) is not v]
        traced = _tiny_run(tmp_path / "traced")
    after = _snapshot()
    assert len(wrapped) > 50
    assert ("mptrain.tensor", "matmul") in wrapped
    assert ("mptrain.nn", "Linear", "backward") in wrapped
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert traced == plain
    m = tracer.layer_metrics(t.spans, t.counts)
    assert set(m) | {"trace.overhead_pct"} == {row[0] for row in tracer.METRICS}
    assert m["nn.forward.calls"] == 16 + 4         # train steps + eval batches
    assert m["nn.predictions.calls"] == 4
    assert m["mp_engine.sync_shadow.calls_per_step"] == 6
    assert m["tensor.matmul.f16_acc32.madds"] > 0
    assert m["tensor.matmul.madds"] == sum(
        m[f"tensor.matmul.{path}.madds"] for path in tracer.MATMUL_PATHS)
    assert m["tensor.matmul.f16_acc16.calls"] == 0
    assert m["nn.activation.forward_ms"] == m["nn.Tanh.forward_ms"] > 0
    assert m["nn.loss.loss_ms"] == m["nn.MeanSquaredError.loss_ms"] > 0
    assert 90 < m["trace.coverage_pct"] <= 100


def test_probe_tracer_times_arms_and_stopped_setups(tmp_path):
    cfg = Config.load(os.path.join(ROOT, "configs", "underflow_rescue.cfg"))
    cfg.set("run.epochs", "1")
    arms = ("fp32", "mp")
    before = _snapshot()
    t = tracer.Tracer(child.PROBES)
    with t:
        wrapped = [k for k, v in _snapshot().items() if before.get(k) is not v]
        io_cli.compare(cfg, "policy.preset", list(arms), out_dir=str(tmp_path / "c"))
    assert sorted(wrapped) == [("mptrain.io_cli", "evaluate"), ("mptrain.io_cli", "run"),
                               ("mptrain.mp_engine", "train_step")]
    timings = child.arm_timings(t.spans, arms)
    assert [a["arm"] for a in timings] == list(arms)
    assert [len(a["step_ms"]) for a in timings] == [16, 16]
    assert t.counts["mp_engine.train_step.samples"] == 2 * 16 * 128
    assert t.counts["io_cli.evaluate.samples"] == 2 * 512
    assert all(a["train_loop_s"] > 0 and a["eval_s"] > 0 for a in timings)

    setups = child.setup_times(io_cli, cfg, arms, str(tmp_path / "s"), 3)
    assert list(setups) == list(arms)
    assert all(len(v) == 3 and min(v) > 0 for v in setups.values())
    # stopped at the first step: nothing was trained or written past set-up
    assert (tmp_path / "s" / "mp" / "steps.csv").read_text().count("\n") == 1
    assert not (tmp_path / "s" / "mp" / "model.ckpt").exists()
    after = _snapshot()
    assert [k for k in before if after[k] is not before[k]] == []


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == [(name, tracer.UNITS[name]) for name in tracer.LISTED]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_sizes_give_a_tail_above_the_median(name):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    wl = WORKLOADS[name]
    assert os.path.isfile(os.path.join(ROOT, wl.config))
    assert wl.n_train % wl.batch_size == 0 and wl.n_val % wl.batch_size == 0
    p10, beyond = stats.tail_percentile(wl.steps_per_arm * wl.runs_for(seconds))
    assert p10 > 500 and beyond >= stats.MIN_BEYOND
