"""The span recorder: self-time arithmetic, wrapping, and restoring."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import layers  # noqa: E402
from layers import REGISTER, WRAPPED, SpanRecorder, self_times  # noqa: E402


def test_self_times_of_a_nested_tree():
    # 0: [0, 10) with children 1: [1, 4) and 2: [5, 9); 3: [6, 7) is 2's child.
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert self_times(start, end, parent).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_self_times_sum_to_the_roots():
    rng = np.random.default_rng(0)
    # A random tree whose children lie inside their parents.
    start, end, parent = [0.0], [100.0], [-1]
    for i in range(1, 200):
        p = int(rng.integers(i))
        lo = start[p] + (end[p] - start[p]) * 0.1
        start.append(lo)
        end.append(lo + (end[p] - start[p]) * 0.01)
        parent.append(p)
    own = self_times(start, end, parent)
    assert own.sum() == pytest.approx(100.0)


def test_spans_record_parents_and_events():
    recorder = SpanRecorder()
    inner = recorder.wrap("pace.inner", lambda: "x")
    outer = recorder.wrap("ga.outer", lambda: inner())
    step = recorder.wrap("sim.step", lambda: (outer(), inner()), is_event=True)
    outer()
    recorder.begin_window()
    assert step() == ("x", "x")
    recorder.end_window()
    names = [recorder.names[i] for i in recorder.name]
    assert names == ["ga.outer", "pace.inner", "sim.step", "ga.outer", "pace.inner", "pace.inner"]
    assert list(recorder.parent) == [-1, 0, -1, 2, 3, 2]
    assert list(recorder.event) == [-1, -1, 2, 2, 2, 2]
    summary = recorder.summary()
    # Only the window counts: the two set-up spans are left out.
    assert summary["calls"] == {"ga.outer": 1, "pace.inner": 2, "sim.step": 1}
    total = sum(summary["layer_self_s"].values()) + summary["unattributed_s"]
    assert total == pytest.approx(summary["window_s"])


def test_an_exception_still_closes_the_span():
    recorder = SpanRecorder()

    def boom():
        raise KeyError("x")

    wrapped = recorder.wrap("net.boom", boom)
    with pytest.raises(KeyError):
        wrapped()
    assert recorder.end[0] >= recorder.start[0] > 0
    assert recorder._stack == []


TARGETS = [(module, cls, attr) for _, module, cls, attr in WRAPPED] + [REGISTER]


def _class_attributes():
    out = {}
    for module, cls_name, _ in TARGETS:
        cls = getattr(importlib.import_module(module), cls_name)
        out[cls] = dict(cls.__dict__)
    return out


def test_install_then_restore_leaves_every_class_attribute_identical():
    before = _class_attributes()
    recorder = SpanRecorder()
    with recorder:
        for module, cls_name, attr in TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            assert cls.__dict__[attr] is not before[cls][attr]
    after = _class_attributes()
    assert recorder.missing == []
    for cls, attrs in before.items():
        assert set(after[cls]) == set(attrs)
        for name, value in attrs.items():
            assert after[cls][name] is value, f"{cls.__name__}.{name}"


def test_a_missing_target_is_skipped(monkeypatch):
    monkeypatch.setattr(
        layers, "WRAPPED", WRAPPED + (("ga", "repro.scheduling.ga", "GAScheduler", "no_such"),)
    )
    recorder = SpanRecorder()
    with recorder:
        pass
    assert recorder.missing == ["repro.scheduling.ga.GAScheduler.no_such"]


def test_per_layer_metrics_cover_the_declared_list():
    summary = {
        "layer_self_s": {"sim": 1.0, "ga": 2.0},
        "calls": {"ga.GAScheduler.evolve": 4, "pace.EvaluationEngine.best_count": 3},
        "kinds": {"pull": 5},
        "evolve_tasks": [1, 2, 3, 6],
        "unattributed_s": 0.5,
    }
    counters = {
        "events": 100, "messages": 10, "dropped": 0, "requests": 5, "rejected": 0,
        "generations": 40, "rows_costed": 200, "rows_evaluated": 50,
        "pace_hits": 3, "pace_lookups": 4, "wait_s_p50": 1.0, "wait_s_p95": 2.0,
        "nodes_released": 0, "cross_cluster_edges": 0, "bytes_moved": 0.0,
    }
    metrics = layers.per_layer_metrics(summary, counters, 3.6, {"import": 0.2}, 3.0)
    assert list(metrics) == [name for name, _, _ in layers.PER_LAYER]
    assert metrics["ga.tasks_per_evolve"] == 3.0
    assert metrics["ga.reuse_hit_rate"] == 0.75
    assert metrics["ga.us_per_generation"] == pytest.approx(2.0 / 40 * 1e6)
    assert metrics["sim.us_per_event"] == pytest.approx(1e4)
    assert metrics["net.messages_per_request"] == 2.0
    assert metrics["trace.overhead_frac"] == pytest.approx(0.2)
