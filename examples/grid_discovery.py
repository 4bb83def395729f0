#!/usr/bin/env python3
"""Agent-based service discovery across a small heterogeneous grid.

Builds a five-agent hierarchy (one fast SGI head, Ultra-class middle
agents, one slow SPARCstation leaf), floods the *slowest* agent with
requests, and traces how discovery pushes work up and across the tree —
the paper's coarse-grained, neighbour-local load-balancing effect (§3.1).

Run:  python examples/grid_discovery.py
"""

from __future__ import annotations

import numpy as np

from repro.agents.advertisement import PullRounds
from repro.agents.agent import Agent
from repro.agents.discovery import DiscoveryConfig
from repro.agents.hierarchy import wire_hierarchy
from repro.agents.portal import UserPortal
from repro.net.message import Endpoint
from repro.net.transport import Transport
from repro.pace.evaluation import EvaluationEngine
from repro.pace.hardware import DEFAULT_CATALOGUE
from repro.pace.resource import ResourceModel
from repro.pace.workloads import paper_application_specs
from repro.scheduling.scheduler import LocalScheduler, SchedulingPolicy
from repro.sim.engine import Engine
from repro.tasks.task import Environment
from repro.utils.tables import render_table

PLATFORMS = {
    "head": "SGIOrigin2000",
    "mid-a": "SunUltra10",
    "mid-b": "SunUltra5",
    "leaf-a": "SunUltra1",
    "leaf-b": "SunSPARCstation2",
}
TREE = {"head": None, "mid-a": "head", "mid-b": "head",
        "leaf-a": "mid-a", "leaf-b": "mid-b"}


def build_grid(sim: Engine):
    transport = Transport(sim)
    evaluator = EvaluationEngine()
    # One pull strategy for the whole grid, as for the transport.
    rounds = PullRounds(sim, transport, 10.0)
    agents = {}
    for i, (name, platform_name) in enumerate(PLATFORMS.items()):
        platform = DEFAULT_CATALOGUE.get(platform_name)
        scheduler = LocalScheduler(
            sim,
            ResourceModel.homogeneous(name, platform, 8),
            evaluator,
            policy=SchedulingPolicy.GA,
            rng=np.random.default_rng(50 + i),
            generations_per_event=8,
        )
        agents[name] = Agent(
            name,
            Endpoint(f"{name}.grid", 1000 + i),
            scheduler,
            transport,
            discovery_config=DiscoveryConfig(),
            advertisement=rounds,
        )
    hierarchy = wire_hierarchy(agents, TREE)
    hierarchy.start_all()
    return agents, hierarchy, UserPortal(transport, sim)


def main() -> None:
    sim = Engine()
    agents, hierarchy, portal = build_grid(sim)
    specs = paper_application_specs()
    deadline_rng = np.random.default_rng(9)

    # Flood the slowest leaf: 25 requests, one per second, tight deadlines.
    print("Flooding 'leaf-b' (SunSPARCstation2) with 25 sweep3d/jacobi requests...")
    request_ids = []
    sim.run_until(1.0)
    for i in range(25):
        app = "sweep3d" if i % 2 == 0 else "jacobi"
        low, high = specs[app].deadline_bounds
        deadline = sim.now + float(deadline_rng.uniform(low, high))
        request_ids.append(
            portal.submit(agents["leaf-b"], specs[app].model, Environment.TEST, deadline)
        )
        sim.run_until(sim.now + 1.0)

    # Drain: step until every request has produced a result.
    while portal.pending_count > 0:
        if not sim.step():
            raise RuntimeError("queue drained with requests pending")
    hierarchy.stop_all()

    # Where did the work actually run?
    placement: dict[str, int] = {}
    hop_counts: dict[int, int] = {}
    for rid in request_ids:
        result = portal.result(rid)
        placement[result.resource_name] = placement.get(result.resource_name, 0) + 1
        hops = len(result.trace) - 1
        hop_counts[hops] = hop_counts.get(hops, 0) + 1

    rows = [
        [name, PLATFORMS[name], placement.get(name, 0),
         agents[name].stats.forwarded]
        for name in PLATFORMS
    ]
    print()
    print(render_table(
        ["agent", "platform", "tasks executed", "requests forwarded"],
        rows,
        title="Dispatch outcome (all 25 requests arrived at leaf-b)",
    ))
    print()
    print("Discovery hop distribution:",
          {f"{k} hops": v for k, v in sorted(hop_counts.items())})

    met = sum(1 for rid in request_ids if portal.result(rid).met_deadline)
    print(f"Deadlines met: {met}/25")
    sample = portal.result(request_ids[5])
    print(f"Example trace for request {request_ids[5]}: {' -> '.join(sample.trace)}")


if __name__ == "__main__":
    main()
