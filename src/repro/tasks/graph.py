"""Task graphs: DAG workloads with data movement between tasks.

The paper schedules *independent* tasks — each request is complete in
itself.  Real grid workloads (Montage mosaics, map-reduce analytics,
parameter-sweep fork-joins) are **workflows**: a task consumes its
parents' outputs, and when parent and child land on different clusters
the output bytes must move first.  :class:`TaskGraph` is the static
description of one such workflow:

* nodes name the tasks and bind each to a PACE application (by spec
  name, like the workload layer's :class:`~repro.experiments.workload.
  WorkloadItem`);
* edges carry the parent's **output size** toward that child, in
  abstract data units — the transfer layer charges ``size / bandwidth``
  seconds through the transport when the edge crosses clusters.

The graph is pure structure: no deadlines, no placement, no state.  The
:class:`~repro.tasks.workflow.WorkflowCoordinator` walks it at run time;
:func:`b_levels` turns it into scheduling priorities (the classic
bottom-level of list scheduling: longest downstream path including the
node's own estimated duration).

Three generator families mirror the shapes the workflow-scheduling
literature benchmarks on (fork-join, map-reduce, Montage); all are pure
functions of their arguments so scenarios stay byte-reproducible.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.errors import TaskError

__all__ = [
    "TaskGraph",
    "b_levels",
    "fork_join",
    "map_reduce",
    "montage",
    "WORKFLOW_SHAPES",
]


class TaskGraph:
    """An immutable DAG of named tasks with sized data edges.

    Parameters
    ----------
    nodes:
        ``node name -> application spec name`` in insertion order; the
        order is part of the graph's identity (release and priority ties
        break on it deterministically).
    edges:
        ``(parent, child, size)`` triples; *size* is the volume of
        parent output the child consumes, ``>= 0``.

    Raises
    ------
    TaskError
        On duplicate/unknown node references, self-loops, duplicate
        edges, negative sizes, or cycles.
    """

    def __init__(
        self,
        nodes: Mapping[str, str],
        edges: Sequence[Tuple[str, str, float]],
    ) -> None:
        if not nodes:
            raise TaskError("a task graph needs at least one node")
        for name in nodes:
            if not name:
                raise TaskError("node names must be non-empty")
        self._apps: Dict[str, str] = dict(nodes)
        self._parents: Dict[str, List[Tuple[str, float]]] = {n: [] for n in nodes}
        self._children: Dict[str, List[Tuple[str, float]]] = {n: [] for n in nodes}
        seen = set()
        for parent, child, size in edges:
            if parent not in self._apps or child not in self._apps:
                raise TaskError(f"edge ({parent!r}, {child!r}) references unknown node")
            if parent == child:
                raise TaskError(f"self-loop on node {parent!r}")
            if (parent, child) in seen:
                raise TaskError(f"duplicate edge ({parent!r}, {child!r})")
            if not (size >= 0):
                raise TaskError(f"edge ({parent!r}, {child!r}) has negative size {size}")
            seen.add((parent, child))
            self._parents[child].append((parent, float(size)))
            self._children[parent].append((child, float(size)))
        self._order = self._topological_order()  # raises on cycles

    # ------------------------------------------------------------------ shape

    @property
    def node_names(self) -> Tuple[str, ...]:
        """All node names in insertion order."""
        return tuple(self._apps)

    def application(self, node: str) -> str:
        """The application spec name bound to *node*."""
        try:
            return self._apps[node]
        except KeyError:
            raise TaskError(f"unknown node {node!r}") from None

    def parents(self, node: str) -> Tuple[Tuple[str, float], ...]:
        """``(parent, size)`` pairs feeding *node*, in edge order."""
        self.application(node)  # membership check
        return tuple(self._parents[node])

    def children(self, node: str) -> Tuple[Tuple[str, float], ...]:
        """``(child, size)`` pairs consuming *node*'s output, in edge order."""
        self.application(node)  # membership check
        return tuple(self._children[node])

    def roots(self) -> Tuple[str, ...]:
        """Nodes with no parents, in insertion order."""
        return tuple(n for n in self._apps if not self._parents[n])

    def sinks(self) -> Tuple[str, ...]:
        """Nodes with no children, in insertion order."""
        return tuple(n for n in self._apps if not self._children[n])

    def topological_order(self) -> Tuple[str, ...]:
        """A deterministic topological order (Kahn, insertion-order ties)."""
        return self._order

    def _topological_order(self) -> Tuple[str, ...]:
        pending = {n: len(self._parents[n]) for n in self._apps}
        ready = [n for n in self._apps if pending[n] == 0]
        order: List[str] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for child, _ in self._children[node]:
                pending[child] -= 1
                if pending[child] == 0:
                    ready.append(child)
        if len(order) != len(self._apps):
            cyclic = sorted(n for n, deg in pending.items() if deg > 0)
            raise TaskError(f"task graph has a cycle through {cyclic}")
        return tuple(order)

    # -------------------------------------------------------------- serialise

    def to_dict(self) -> dict:
        """A JSON-ready description (checkpoint support)."""
        return {
            "nodes": [[name, app] for name, app in self._apps.items()],
            "edges": [
                [parent, child, size]
                for parent, pairs in self._children.items()
                for child, size in pairs
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TaskGraph":
        """Rebuild a graph serialised by :meth:`to_dict`."""
        return cls(
            nodes={name: app for name, app in data["nodes"]},
            edges=[(p, c, float(s)) for p, c, s in data["edges"]],
        )


def b_levels(graph: TaskGraph, durations: Mapping[str, float]) -> Dict[str, float]:
    """Bottom levels: longest downstream path including the node itself.

    ``b(n) = t(n) + max(b(c) for children c)`` with ``b(sink) = t(sink)``
    — the classic list-scheduling priority.  *durations* maps every node
    to its estimated execution seconds (transfer costs are deliberately
    excluded: b-levels rank urgency before placement is known).
    """
    levels: Dict[str, float] = {}
    for node in reversed(graph.topological_order()):
        try:
            own = float(durations[node])
        except KeyError:
            raise TaskError(f"no duration for node {node!r}") from None
        tail = max((levels[c] for c, _ in graph.children(node)), default=0.0)
        levels[node] = own + tail
    return levels


def _cycled(values: Sequence, index: int):
    return values[index % len(values)]


def fork_join(
    apps: Sequence[str], *, width: int, output_size: float = 1.0
) -> TaskGraph:
    """``source -> branch_0..branch_{w-1} -> sink`` — the parameter sweep.

    Applications cycle through *apps* in node order; every edge carries
    *output_size* units.
    """
    if width < 1:
        raise TaskError(f"fork_join width must be >= 1, got {width}")
    _check_apps(apps)
    nodes: Dict[str, str] = {"source": _cycled(apps, 0)}
    edges: List[Tuple[str, str, float]] = []
    for i in range(width):
        name = f"branch{i}"
        nodes[name] = _cycled(apps, i + 1)
        edges.append(("source", name, output_size))
    nodes["sink"] = _cycled(apps, width + 1)
    for i in range(width):
        edges.append((f"branch{i}", "sink", output_size))
    return TaskGraph(nodes, edges)


def map_reduce(
    apps: Sequence[str],
    *,
    mappers: int,
    reducers: int,
    output_size: float = 1.0,
) -> TaskGraph:
    """``split -> map_i -> reduce_j -> merge`` with an all-to-all shuffle.

    Every mapper feeds every reducer (the shuffle) — the densest data
    movement of the three families, so it stresses the transfer model and
    the data-gravity term hardest.
    """
    if mappers < 1 or reducers < 1:
        raise TaskError(
            f"map_reduce needs mappers >= 1 and reducers >= 1, "
            f"got {mappers}/{reducers}"
        )
    _check_apps(apps)
    nodes: Dict[str, str] = {"split": _cycled(apps, 0)}
    edges: List[Tuple[str, str, float]] = []
    for i in range(mappers):
        nodes[f"map{i}"] = _cycled(apps, i + 1)
        edges.append(("split", f"map{i}", output_size))
    for j in range(reducers):
        nodes[f"reduce{j}"] = _cycled(apps, mappers + 1 + j)
        for i in range(mappers):
            # the shuffle splits each mapper's output across the reducers
            edges.append((f"map{i}", f"reduce{j}", output_size / reducers))
    nodes["merge"] = _cycled(apps, mappers + reducers + 1)
    for j in range(reducers):
        edges.append((f"reduce{j}", "merge", output_size))
    return TaskGraph(nodes, edges)


def montage(
    apps: Sequence[str], *, width: int, output_size: float = 1.0
) -> TaskGraph:
    """A simplified Montage mosaic: the benchmark's layered diamond.

    ``project_i (w) -> diff_i (w-1, consuming adjacent projections) ->
    fit (1) -> background_i (w, consuming fit AND project_i) -> add (1)``
    with a ``stage`` root fanning out to the projections so the graph
    stays single-rooted.  Mixes fan-out, pairwise joins, a global
    barrier, and a second fan-out — the least regular of the families.
    """
    if width < 2:
        raise TaskError(f"montage width must be >= 2, got {width}")
    _check_apps(apps)
    nodes: Dict[str, str] = {"stage": _cycled(apps, 0)}
    edges: List[Tuple[str, str, float]] = []
    for i in range(width):
        nodes[f"project{i}"] = _cycled(apps, i + 1)
        edges.append(("stage", f"project{i}", output_size))
    for i in range(width - 1):
        name = f"diff{i}"
        nodes[name] = _cycled(apps, width + 1 + i)
        edges.append((f"project{i}", name, output_size))
        edges.append((f"project{i + 1}", name, output_size))
    nodes["fit"] = _cycled(apps, 2 * width)
    for i in range(width - 1):
        edges.append((f"diff{i}", "fit", output_size))
    for i in range(width):
        name = f"background{i}"
        nodes[name] = _cycled(apps, 2 * width + 1 + i)
        edges.append(("fit", name, output_size))
        edges.append((f"project{i}", name, output_size))
    nodes["add"] = _cycled(apps, 3 * width + 1)
    for i in range(width):
        edges.append((f"background{i}", "add", output_size))
    return TaskGraph(nodes, edges)


def _check_apps(apps: Sequence[str]) -> None:
    if not apps:
        raise TaskError("apps must be non-empty")


#: The generator families by scenario-facing name.
WORKFLOW_SHAPES = ("fork-join", "map-reduce", "montage")
