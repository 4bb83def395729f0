"""Span recorder for the traced pass: per-layer wall time, outside in.

The recorder replaces a fixed set of public ``repro`` methods with
wrappers that record one span per call, runs the workload, and puts the
originals back.  Nothing under ``src/`` knows it is being measured, so
the untraced passes run the program exactly as users do.

A span records its name, start, end, parent span and event: the
enclosing ``Engine.step`` span, which is the simulation event the work
belongs to.  Spans live in flat arrays and are written out as JSON when
the pass ends.  A span's *self time* is its duration minus the durations
of its child spans; a layer's self time is the sum over its spans.  Time
under ``Engine.step`` that no wrapped call covers (event dispatch,
executor bookkeeping, the transport's delivery path) is ``sim`` self
time, and time in the drive loop outside any span is *unattributed*, so
layer self times plus unattributed time add up to the traced run time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: ``(layer, module, class, method)`` for every wrapped public call.
#: A target missing from the program is skipped and listed in
#: ``SpanRecorder.missing``, so the benchmark keeps working while the
#: code it measures is refactored.
WRAPPED: Tuple[Tuple[str, str, str, str], ...] = (
    ("sim", "repro.sim.engine", "Engine", "step"),
    ("sim", "repro.sim.reference", "SingleHeapEngine", "step"),
    ("net", "repro.net.transport", "Transport", "send"),
    ("agents", "repro.agents.agent", "Agent", "service_info"),
    ("agents", "repro.agents.agent", "Agent", "pull_neighbours"),
    ("agents", "repro.agents.agent", "Agent", "submit"),
    ("agents", "repro.agents.agent", "Agent", "forward_request"),
    ("scheduling", "repro.scheduling.scheduler", "LocalScheduler", "submit"),
    ("scheduling", "repro.scheduling.scheduler", "LocalScheduler", "freetime"),
    ("scheduling", "repro.scheduling.scheduler", "LocalScheduler", "expected_completion"),
    ("scheduling", "repro.scheduling.scheduler", "LocalScheduler", "effective_free_times"),
    ("ga", "repro.scheduling.ga", "GAScheduler", "evolve"),
    ("ga", "repro.scheduling.ga", "GAScheduler", "best_solution"),
    ("ga", "repro.scheduling.ga", "GAScheduler", "add_task"),
    ("ga", "repro.scheduling.ga", "GAScheduler", "remove_task"),
    ("pace", "repro.pace.evaluation", "EvaluationEngine", "evaluate_count"),
    ("pace", "repro.pace.evaluation", "EvaluationEngine", "evaluate_counts"),
    ("pace", "repro.pace.evaluation", "EvaluationEngine", "best_count"),
)

#: Message handlers are wrapped where they are registered, and the
#: registration call itself is not a span.
REGISTER = ("repro.net.transport", "Transport", "register")


def _layer_of_module(module: str) -> str:
    """``repro.agents.portal`` -> ``agents``: layers are ``repro`` packages."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else "other"


class SpanRecorder:
    """Records spans around the :data:`WRAPPED` calls while installed.

    Use as a context manager (or call :meth:`install` / :meth:`restore`)
    around set-up *and* run: handlers are wrapped when the grid registers
    them, and periodic processes capture bound methods when they start.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.event = array("q")
        #: Message kinds passed to ``Transport.send``.
        self.kinds: Counter = Counter()
        #: ``GAScheduler.n_tasks`` at the entry of each ``evolve`` call.
        self.evolve_tasks = array("q")
        #: ``(first span, end span, t0, t1)`` for each drive window.
        self.windows: List[Tuple[int, int, float, float]] = []
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._event = -1
        self._saved: List[Tuple[type, str, object]] = []
        self._window_open: Optional[Tuple[int, float]] = None

    # ------------------------------------------------------------ recording

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        is_event: bool = False,
        observe: Optional[Callable[[tuple], None]] = None,
    ) -> Callable:
        """*fn* wrapped so each call records one span called *name*."""
        nid = self._intern(name)
        names, starts, ends = self.name, self.start, self.end
        parents, events, stack = self.parent, self.event, self._stack
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(args)
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            if is_event:
                outer = recorder._event
                recorder._event = sid
            events.append(recorder._event)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
                if is_event:
                    recorder._event = outer

        return wrapper

    def wrap_handler(self, handler: Callable) -> Callable:
        """A message handler wrapped as a span of its owner's layer."""
        cls = type(getattr(handler, "__self__", handler))
        method = getattr(handler, "__name__", "handle").lstrip("_")
        return self.wrap(
            f"{_layer_of_module(cls.__module__)}.{cls.__name__}.{method}", handler
        )

    # ---------------------------------------------------------- install

    def install(self) -> "SpanRecorder":
        """Replace every :data:`WRAPPED` method (and handler registration)."""
        if self._saved:
            raise RuntimeError("span recorder already installed")
        for layer, module, cls_name, attr in WRAPPED:
            cls = self._resolve(module, cls_name, attr)
            if cls is None:
                continue
            original = cls.__dict__[attr]
            observe = None
            if (cls_name, attr) == ("Transport", "send"):

                def observe(args):
                    self.kinds[args[1].kind.value] += 1

            elif (cls_name, attr) == ("GAScheduler", "evolve"):

                def observe(args):
                    self.evolve_tasks.append(args[0].n_tasks)

            wrapped = self.wrap(
                f"{layer}.{cls_name}.{attr}",
                original,
                is_event=(attr == "step"),
                observe=observe,
            )
            self._saved.append((cls, attr, original))
            setattr(cls, attr, wrapped)
        cls = self._resolve(*REGISTER)
        if cls is not None:
            register = cls.__dict__[REGISTER[2]]
            recorder = self

            @functools.wraps(register)
            def wrapped_register(transport, endpoint, handler):
                return register(transport, endpoint, recorder.wrap_handler(handler))

            self._saved.append((cls, REGISTER[2], register))
            setattr(cls, REGISTER[2], wrapped_register)
        return self

    def _resolve(self, module: str, cls_name: str, attr: str) -> Optional[type]:
        try:
            cls = getattr(importlib.import_module(module), cls_name)
        except (ImportError, AttributeError):
            cls = None
        if cls is None or not callable(cls.__dict__.get(attr)):
            self.missing.append(f"{module}.{cls_name}.{attr}")
            return None
        return cls

    def restore(self) -> None:
        """Put every original method back, in reverse order of install."""
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)

    def __enter__(self) -> "SpanRecorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # ----------------------------------------------------------- windows

    def begin_window(self) -> None:
        """Mark the start of a drive loop; spans before it are set-up."""
        self._window_open = (len(self.name), time.perf_counter())

    def end_window(self) -> None:
        """Close the window :meth:`begin_window` opened."""
        if self._window_open is None:
            raise RuntimeError("no window open")
        first, t0 = self._window_open
        self.windows.append((first, len(self.name), t0, time.perf_counter()))
        self._window_open = None

    # ---------------------------------------------------------- analysis

    def arrays(self) -> Dict[str, np.ndarray]:
        """The span columns as NumPy arrays."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "event": np.frombuffer(self.event, dtype=np.int64),
        }

    def summary(self) -> dict:
        """Self time per layer, calls per span name, and the run window total."""
        cols = self.arrays()
        inside = np.zeros(len(cols["name"]), dtype=bool)
        window_s = 0.0
        for first, last, t0, t1 in self.windows:
            inside[first:last] = True
            window_s += t1 - t0
        own = self_times(cols["start"], cols["end"], cols["parent"])
        top = inside & (cols["parent"] < 0)
        top_s = float((cols["end"][top] - cols["start"][top]).sum())
        layer_self: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        per_name_self = np.bincount(
            cols["name"][inside], weights=own[inside], minlength=len(self.names)
        )
        per_name_calls = np.bincount(cols["name"][inside], minlength=len(self.names))
        for nid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + float(per_name_self[nid])
            calls[name] = int(per_name_calls[nid])
        return {
            "window_s": window_s,
            "layer_self_s": layer_self,
            "unattributed_s": window_s - top_s,
            "calls": calls,
            "kinds": dict(self.kinds),
            "evolve_tasks": list(self.evolve_tasks),
            "missing": list(self.missing),
        }

    def write_json(self, path: str) -> None:
        """Write every span, column by column, to *path*.

        Times are whole microseconds from the first span's start;
        ``windows`` holds ``[first span, end span, t0_us, t1_us]``.
        """
        cols = self.arrays()
        origin = float(cols["start"][0]) if len(cols["start"]) else 0.0

        def micros(values) -> list:
            return np.rint((np.asarray(values) - origin) * 1e6).astype(np.int64).tolist()

        doc = {
            "names": self.names,
            "columns": {
                "name": cols["name"].tolist(),
                "start_us": micros(cols["start"]),
                "end_us": micros(cols["end"]),
                "parent": cols["parent"].tolist(),
                "event": cols["event"].tolist(),
            },
            "windows": [
                [first, last, *micros([t0, t1])]
                for first, last, t0, t1 in self.windows
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


#: The per-layer metrics: ``(name, unit, better)``.  README.md maps each
#: one to the end-to-end metric and workload it should move.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("sim.events", "count", "lower"),
    ("sim.self_s", "s", "lower"),
    ("sim.us_per_event", "us", "lower"),
    ("net.messages", "count", "lower"),
    ("net.messages.pull", "count", "lower"),
    ("net.messages.advertise", "count", "lower"),
    ("net.messages.request", "count", "lower"),
    ("net.messages.transfer", "count", "lower"),
    ("net.messages_per_request", "msg/request", "lower"),
    ("net.dropped", "count", "lower"),
    ("net.self_s", "s", "lower"),
    ("agents.service_info_calls", "count", "lower"),
    ("agents.pulls", "count", "lower"),
    ("agents.forwards", "count", "lower"),
    ("agents.rejected", "count", "lower"),
    ("agents.self_s", "s", "lower"),
    ("scheduling.submits", "count", "lower"),
    ("scheduling.freetime_calls", "count", "lower"),
    ("scheduling.self_s", "s", "lower"),
    ("scheduling.wait_s_p50", "s", "lower"),
    ("scheduling.wait_s_p95", "s", "lower"),
    ("ga.evolve_calls", "count", "lower"),
    ("ga.generations", "count", "lower"),
    ("ga.tasks_per_evolve", "tasks", "lower"),
    ("ga.rows_evaluated", "count", "lower"),
    ("ga.reuse_hit_rate", "fraction", "higher"),
    ("ga.self_s", "s", "lower"),
    ("ga.us_per_generation", "us", "lower"),
    ("pace.calls", "count", "lower"),
    ("pace.cache_hit_rate", "fraction", "higher"),
    ("pace.self_s", "s", "lower"),
    ("tasks.nodes_released", "count", "lower"),
    ("tasks.cross_cluster_edges", "count", "lower"),
    ("tasks.bytes_moved", "data-units", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.generate_s", "s", "lower"),
    ("setup.build_grid_s", "s", "lower"),
    ("setup.start_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)


def per_layer_metrics(
    summary: dict,
    counters: dict,
    run_s: float,
    phases: Dict[str, float],
    untraced_run_s: Optional[float],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced unit.

    *summary* is :meth:`SpanRecorder.summary`, *counters* the unit's
    deterministic work counts, *run_s* its traced run time, and
    *untraced_run_s* the run time of the same input untraced.
    """
    own = summary["layer_self_s"]
    calls = summary["calls"]
    kinds = summary["kinds"]
    events = counters["events"]
    generations = counters["generations"]
    evolve_tasks = summary["evolve_tasks"]

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    return {
        "sim.events": events,
        "sim.self_s": own.get("sim", 0.0),
        "sim.us_per_event": ratio(own.get("sim", 0.0), events, 1e6),
        "net.messages": counters["messages"],
        "net.messages.pull": kinds.get("pull", 0),
        "net.messages.advertise": kinds.get("advertise", 0),
        "net.messages.request": kinds.get("request", 0),
        "net.messages.transfer": kinds.get("transfer", 0),
        "net.messages_per_request": ratio(counters["messages"], counters["requests"]),
        "net.dropped": counters["dropped"],
        "net.self_s": own.get("net", 0.0),
        "agents.service_info_calls": calls.get("agents.Agent.service_info", 0),
        "agents.pulls": calls.get("agents.Agent.pull_neighbours", 0),
        "agents.forwards": calls.get("agents.Agent.forward_request", 0),
        "agents.rejected": counters["rejected"],
        "agents.self_s": own.get("agents", 0.0),
        "scheduling.submits": calls.get("scheduling.LocalScheduler.submit", 0),
        "scheduling.freetime_calls": calls.get("scheduling.LocalScheduler.freetime", 0),
        "scheduling.self_s": own.get("scheduling", 0.0),
        "scheduling.wait_s_p50": counters["wait_s_p50"],
        "scheduling.wait_s_p95": counters["wait_s_p95"],
        "ga.evolve_calls": calls.get("ga.GAScheduler.evolve", 0),
        "ga.generations": generations,
        "ga.tasks_per_evolve": ratio(sum(evolve_tasks), len(evolve_tasks)),
        "ga.rows_evaluated": counters["rows_evaluated"],
        "ga.reuse_hit_rate": (
            1.0 - ratio(counters["rows_evaluated"], counters["rows_costed"])
            if counters["rows_costed"]
            else 0.0
        ),
        "ga.self_s": own.get("ga", 0.0),
        "ga.us_per_generation": ratio(own.get("ga", 0.0), generations, 1e6),
        "pace.calls": sum(n for name, n in calls.items() if name.startswith("pace.")),
        "pace.cache_hit_rate": ratio(counters["pace_hits"], counters["pace_lookups"]),
        "pace.self_s": own.get("pace", 0.0),
        "tasks.nodes_released": counters["nodes_released"],
        "tasks.cross_cluster_edges": counters["cross_cluster_edges"],
        "tasks.bytes_moved": counters["bytes_moved"],
        "setup.import_s": phases.get("import", 0.0),
        "setup.generate_s": phases.get("generate", 0.0),
        "setup.build_grid_s": phases.get("build_grid", 0.0),
        "setup.start_s": phases.get("start", 0.0),
        "trace.overhead_frac": (
            run_s / untraced_run_s - 1.0 if untraced_run_s else 0.0
        ),
        "trace.unattributed_s": summary["unattributed_s"],
    }


def self_times(
    start: Sequence[float], end: Sequence[float], parent: Sequence[int]
) -> np.ndarray:
    """Each span's duration minus the summed durations of its children."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    has_parent = parent >= 0
    children = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=duration.size
    )
    return duration - children
