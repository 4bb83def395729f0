"""Running task graphs through the grid: the workflow coordinator.

The grid itself stays a pure independent-task system — agents route one
request at a time, schedulers optimise one queue.  The
:class:`WorkflowCoordinator` sits beside the :class:`~repro.agents.portal.
UserPortal` and turns a static :class:`~repro.tasks.graph.TaskGraph` into
a stream of requests, each carrying a
:class:`~repro.tasks.task.WorkflowBinding` so the layers below can gate
dispatch on data arrival (see docs/workflows.md).

Two release modes:

``staged`` (the default)
    A node is submitted only once every parent has completed, and its
    binding's inputs name the *actual* resource each parent ran on — the
    receiving cluster stages remote outputs in through the transport
    (``size / bandwidth`` seconds per edge) and the scheduler holds the
    task behind a ``dag.ready`` gate until the last transfer lands.
    Works across clusters; this is the mode Experiment 7 measures.

``eager``
    The whole graph is submitted up-front with empty (``""``) input
    sources: every parent/child dependency becomes an in-scheduler
    precedence constraint, the GA optimises across the *entire* graph at
    once, and no data moves.  Only sound when every node lands on one
    cluster, so it requires a ``local_only`` target and raises
    :class:`~repro.errors.ValidationError` otherwise.

Failure propagation: a node that fails (routing rejection, crashed
cluster) permanently starves its descendants, so the coordinator cancels
them — unreleased nodes are simply never submitted; released ones are
cancelled in the scheduler (``RUNNING -> CANCELLED`` included) and their
portal requests resolved with synthetic failures so runs terminate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.errors import TaskError, ValidationError
from repro.tasks.graph import TaskGraph, b_levels
from repro.tasks.task import Environment, WorkflowBinding

__all__ = ["WorkflowRun", "WorkflowCoordinator"]

#: Minimum deadline slack stamped on a node released after its own
#: deadline already passed (requests must have deadline > submit time;
#: the grid's best-effort mode still executes such hopeless tasks).
_LATE_RELEASE_SLACK = 1e-6


@dataclass
class WorkflowRun:
    """One workflow instance's run-time state."""

    workflow_id: int
    graph: TaskGraph
    target: object  # anything portal.submit accepts (agent / server)
    deadline: float
    mode: str
    environment: Environment
    #: b-level per node (zeros in the precedence-naive baseline).
    priorities: Dict[str, float]
    #: per-node absolute deadline (all equal to ``deadline`` when naive).
    node_deadlines: Dict[str, float]
    #: node -> portal request id, for released nodes.
    released: Dict[str, int] = field(default_factory=dict)
    #: node -> resource name it completed on (successes only).
    sources: Dict[str, str] = field(default_factory=dict)
    #: nodes that failed, or were cancelled by an ancestor's failure.
    failed: Set[str] = field(default_factory=set)

    @property
    def resolved(self) -> bool:
        """Every node either completed successfully or failed/cancelled."""
        done = len(self.sources) + len(self.failed)
        return done >= len(self.graph.node_names)

    @property
    def succeeded(self) -> bool:
        """All nodes completed successfully."""
        return len(self.sources) == len(self.graph.node_names)

    def completion_time(self, results: Mapping[int, object]) -> Optional[float]:
        """Latest sink completion, or ``None`` while unresolved/failed."""
        if not self.succeeded:
            return None
        times: List[float] = []
        for node in self.graph.sinks():
            result = results.get(self.released[node])
            if result is None:
                return None
            times.append(float(result.completion_time))
        return max(times)


class WorkflowCoordinator:
    """Releases task-graph nodes through a portal as their parents finish.

    Parameters
    ----------
    portal:
        The :class:`~repro.agents.portal.UserPortal` requests go through;
        the coordinator registers itself as a result listener.
    applications:
        ``spec name -> ApplicationModel`` for the graph nodes' bindings.
    tracer:
        Optional trace sink for ``dag.release`` records.
    """

    def __init__(self, portal, applications: Mapping[str, object], *, tracer=None) -> None:
        self._portal = portal
        self._applications = dict(applications)
        self._tracer = tracer
        self._next_workflow_id = 0
        self._runs: Dict[int, WorkflowRun] = {}
        # portal request id -> (workflow id, node)
        self._request_index: Dict[int, Tuple[int, str]] = {}
        portal.add_result_listener(self._on_result)

    # ------------------------------------------------------------------ state

    @property
    def runs(self) -> Dict[int, WorkflowRun]:
        """All workflow runs by id (live view)."""
        return self._runs

    def run(self, workflow_id: int) -> WorkflowRun:
        """The run for *workflow_id*."""
        try:
            return self._runs[workflow_id]
        except KeyError:
            raise TaskError(f"unknown workflow {workflow_id}") from None

    @property
    def all_resolved(self) -> bool:
        """Whether every started workflow has resolved every node."""
        return all(run.resolved for run in self._runs.values())

    # ------------------------------------------------------------------ start

    def start_workflow(
        self,
        graph: TaskGraph,
        target,
        deadline: float,
        *,
        mode: str = "staged",
        environment: Environment = Environment.TEST,
        durations: Optional[Mapping[str, float]] = None,
    ) -> int:
        """Begin running *graph* against *target*; returns the workflow id.

        *deadline* is the absolute deadline of the whole graph.  With
        *durations* (estimated seconds per node) the coordinator stamps
        precedence-aware metadata: each binding's priority is the node's
        b-level and its request deadline is ``deadline - (b_level -
        t_node)`` — the share of the critical path that must remain when
        the node finishes.  Without durations every node gets priority
        ``0.0`` and the full graph deadline (the precedence-naive
        baseline).
        """
        if mode not in ("staged", "eager"):
            raise ValidationError(f"unknown workflow mode {mode!r}")
        for node in graph.node_names:
            app = graph.application(node)
            if app not in self._applications:
                raise ValidationError(
                    f"node {node!r} binds unknown application {app!r}"
                )
        if mode == "eager":
            config = getattr(target, "_discovery_config", None)
            if config is not None and not config.local_only:
                raise ValidationError(
                    "eager workflows require a single-cluster (local_only) "
                    "target: precedence constraints do not cross schedulers"
                )
        if durations is not None:
            levels = b_levels(graph, durations)
            priorities = {n: levels[n] for n in graph.node_names}
            node_deadlines = {
                n: deadline - (levels[n] - float(durations[n]))
                for n in graph.node_names
            }
        else:
            priorities = {n: 0.0 for n in graph.node_names}
            node_deadlines = {n: deadline for n in graph.node_names}
        workflow_id = self._next_workflow_id
        self._next_workflow_id += 1
        run = WorkflowRun(
            workflow_id=workflow_id,
            graph=graph,
            target=target,
            deadline=float(deadline),
            mode=mode,
            environment=environment,
            priorities=priorities,
            node_deadlines=node_deadlines,
        )
        self._runs[workflow_id] = run
        if mode == "eager":
            # Whole graph up-front, dependencies as "" (co-located) inputs.
            for node in graph.topological_order():
                self._release(run, node)
        else:
            for node in graph.roots():
                self._release(run, node)
        return workflow_id

    # ---------------------------------------------------------------- release

    def _release(self, run: WorkflowRun, node: str) -> None:
        """Submit one node, its binding carrying resolved input sources."""
        if run.mode == "eager":
            inputs = tuple(
                (parent, "", size) for parent, size in run.graph.parents(node)
            )
        else:
            inputs = tuple(
                (parent, run.sources.get(parent, ""), size)
                for parent, size in run.graph.parents(node)
            )
        binding = WorkflowBinding(
            workflow_id=run.workflow_id,
            node=node,
            priority=run.priorities[node],
            inputs=inputs,
        )
        now = self._portal._sim.now
        deadline = max(
            run.node_deadlines[node], now + _LATE_RELEASE_SLACK
        )
        request_id = self._portal.submit(
            run.target,
            self._applications[run.graph.application(node)],
            run.environment,
            deadline,
            workflow=binding,
        )
        run.released[node] = request_id
        self._request_index[request_id] = (run.workflow_id, node)
        if self._tracer is not None:
            from repro.obs.records import DagRelease

            self._tracer.emit(
                DagRelease(
                    t=self._portal._sim.now,
                    workflow=run.workflow_id,
                    node=node,
                    request_id=request_id,
                )
            )

    def _on_result(self, result) -> None:
        key = self._request_index.get(result.request_id)
        if key is None:
            return  # an independent task's result
        workflow_id, node = key
        run = self._runs[workflow_id]
        if node in run.sources or node in run.failed:
            return  # duplicate/late result for an already-resolved node
        if not result.success:
            run.failed.add(node)
            self._propagate_failure(run, node)
            return
        run.sources[node] = result.resource_name or ""
        if run.mode == "eager":
            return  # everything already submitted
        for child, _size in run.graph.children(node):
            if child in run.released or child in run.failed:
                continue
            if all(p in run.sources for p, _ in run.graph.parents(child)):
                self._release(run, child)

    # ---------------------------------------------------------------- failure

    def _propagate_failure(self, run: WorkflowRun, node: str) -> None:
        """Cancel every descendant of the failed *node*.

        Unreleased descendants are marked failed and never submitted.
        Released ones (eager mode submits everything up-front) are
        cancelled in the target's scheduler — covering the
        ``RUNNING -> CANCELLED`` transition — and their portal requests
        resolved with synthetic failure results so the run terminates.
        """
        scheduler = getattr(run.target, "scheduler", None)
        for descendant in run.graph.topological_order():
            if descendant in run.sources or descendant in run.failed:
                continue
            parents = run.graph.parents(descendant)
            if not parents:
                continue
            if not any(p in run.failed for p, _ in parents):
                continue
            run.failed.add(descendant)
            request_id = run.released.get(descendant)
            if request_id is None:
                continue  # staged mode: never submitted, nothing to kill
            if scheduler is not None:
                scheduler.cancel_workflow_node(run.workflow_id, descendant)
            if self._portal.result(request_id) is None:
                self._portal._record_result(
                    self._portal._failure_result(request_id), synthetic=True
                )

    # ------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> dict:
        """JSON-ready coordinator state (checkpoint support).

        Targets are recorded by name; :meth:`restore_state` resolves them
        against the rebuilt grid's agent directory.
        """
        return {
            "next_workflow_id": self._next_workflow_id,
            "runs": [
                {
                    "workflow_id": run.workflow_id,
                    "graph": run.graph.to_dict(),
                    "target": getattr(run.target, "name", ""),
                    "deadline": run.deadline,
                    "mode": run.mode,
                    "environment": run.environment.value,
                    "priorities": [
                        [n, run.priorities[n]] for n in run.graph.node_names
                    ],
                    "node_deadlines": [
                        [n, run.node_deadlines[n]] for n in run.graph.node_names
                    ],
                    "released": sorted(run.released.items()),
                    "sources": sorted(run.sources.items()),
                    "failed": sorted(run.failed),
                }
                for _, run in sorted(self._runs.items())
            ],
        }

    def restore_state(self, state: dict, *, targets: Mapping[str, object]) -> None:
        """Rebuild runs from a :meth:`snapshot_state` dict.

        *targets* maps target names to their rebuilt objects (e.g.
        ``system.agents``).
        """
        self._next_workflow_id = int(state["next_workflow_id"])
        self._runs = {}
        self._request_index = {}
        for raw in state["runs"]:
            workflow_id = int(raw["workflow_id"])
            run = WorkflowRun(
                workflow_id=workflow_id,
                graph=TaskGraph.from_dict(raw["graph"]),
                target=targets[raw["target"]],
                deadline=float(raw["deadline"]),
                mode=raw["mode"],
                environment=Environment(raw["environment"]),
                priorities={n: float(p) for n, p in raw["priorities"]},
                node_deadlines={n: float(d) for n, d in raw["node_deadlines"]},
                released={n: int(r) for n, r in raw["released"]},
                sources={n: s for n, s in raw["sources"]},
                failed=set(raw["failed"]),
            )
            self._runs[workflow_id] = run
            for node, request_id in run.released.items():
                self._request_index[request_id] = (workflow_id, node)
