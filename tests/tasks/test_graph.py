"""Tests for the task-graph model and the workflow shape generators."""

from __future__ import annotations

import pytest

from repro.errors import TaskError
from repro.tasks.graph import (
    WORKFLOW_SHAPES,
    TaskGraph,
    b_levels,
    fork_join,
    map_reduce,
    montage,
)
from tests.oracles import edge_count, graphs_equal

APPS = ["sweep1", "sweep2", "fft"]


def diamond() -> TaskGraph:
    return TaskGraph(
        {"a": "sweep1", "b": "sweep2", "c": "fft", "d": "sweep1"},
        [("a", "b", 2.0), ("a", "c", 3.0), ("b", "d", 1.0), ("c", "d", 4.0)],
    )


class TestTaskGraph:
    def test_shape_queries(self):
        g = diamond()
        assert g.node_names == ("a", "b", "c", "d")
        assert g.roots() == ("a",)
        assert g.sinks() == ("d",)
        assert g.parents("d") == (("b", 1.0), ("c", 4.0))
        assert g.children("a") == (("b", 2.0), ("c", 3.0))
        assert g.application("c") == "fft"
        assert edge_count(g) == 4

    def test_topological_order_respects_edges(self):
        order = diamond().topological_order()
        for parent, child in [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]:
            assert order.index(parent) < order.index(child)

    def test_cycle_is_rejected(self):
        with pytest.raises(TaskError, match="cycle"):
            TaskGraph(
                {"a": "x", "b": "x"},
                [("a", "b", 1.0), ("b", "a", 1.0)],
            )

    def test_self_loop_is_rejected(self):
        with pytest.raises(TaskError, match="self-loop"):
            TaskGraph({"a": "x"}, [("a", "a", 1.0)])

    def test_unknown_node_reference_is_rejected(self):
        with pytest.raises(TaskError, match="unknown node"):
            TaskGraph({"a": "x"}, [("a", "ghost", 1.0)])

    def test_duplicate_edge_is_rejected(self):
        with pytest.raises(TaskError, match="duplicate edge"):
            TaskGraph(
                {"a": "x", "b": "x"},
                [("a", "b", 1.0), ("a", "b", 2.0)],
            )

    def test_negative_size_is_rejected(self):
        with pytest.raises(TaskError, match="negative size"):
            TaskGraph({"a": "x", "b": "x"}, [("a", "b", -1.0)])

    def test_dict_round_trip_preserves_identity(self):
        g = diamond()
        assert graphs_equal(TaskGraph.from_dict(g.to_dict()), g)

    def test_unknown_application_query_raises(self):
        with pytest.raises(TaskError, match="unknown node"):
            diamond().application("ghost")


class TestBLevels:
    def test_chain_accumulates_downstream_work(self):
        g = TaskGraph(
            {"a": "x", "b": "x", "c": "x"},
            [("a", "b", 1.0), ("b", "c", 1.0)],
        )
        levels = b_levels(g, {"a": 2.0, "b": 3.0, "c": 5.0})
        assert levels == {"a": 10.0, "b": 8.0, "c": 5.0}

    def test_diamond_takes_critical_path(self):
        levels = b_levels(
            diamond(), {"a": 1.0, "b": 2.0, "c": 10.0, "d": 1.0}
        )
        # a's b-level follows the slow arm a -> c -> d.
        assert levels["a"] == 12.0
        assert levels["c"] == 11.0
        assert levels["b"] == 3.0

    def test_missing_duration_raises(self):
        with pytest.raises(TaskError, match="no duration"):
            b_levels(diamond(), {"a": 1.0})


class TestGenerators:
    def test_fork_join_shape(self):
        g = fork_join(APPS, width=4, output_size=2.0)
        assert len(g.node_names) == 6
        assert g.roots() == ("source",)
        assert g.sinks() == ("sink",)
        assert len(g.parents("sink")) == 4
        assert all(size == 2.0 for _, size in g.parents("sink"))

    def test_map_reduce_shuffle_is_all_to_all(self):
        g = map_reduce(APPS, mappers=4, reducers=2, output_size=4.0)
        assert len(g.node_names) == 1 + 4 + 2 + 1
        for j in range(2):
            parents = g.parents(f"reduce{j}")
            assert len(parents) == 4
            # each mapper's output splits evenly across the reducers
            assert all(size == 2.0 for _, size in parents)

    def test_montage_layering(self):
        g = montage(APPS, width=3, output_size=1.0)
        assert g.roots() == ("stage",)
        assert g.sinks() == ("add",)
        # background_i joins the global fit with its own projection
        assert {p for p, _ in g.parents("background1")} == {"fit", "project1"}
        assert len(g.parents("fit")) == 2  # diff0, diff1

    def test_width_floors_are_enforced(self):
        with pytest.raises(TaskError):
            fork_join(APPS, width=0)
        with pytest.raises(TaskError):
            map_reduce(APPS, mappers=0, reducers=1)
        with pytest.raises(TaskError):
            montage(APPS, width=1)

    def test_shape_registry_is_complete(self):
        assert WORKFLOW_SHAPES == ("fork-join", "map-reduce", "montage")
