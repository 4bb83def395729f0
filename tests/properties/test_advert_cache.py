"""Property: the cached Fig. 5 record equals a from-scratch record at every event.

``Agent.service_info`` answers every PULL (§3.1) from three caches: the
record's static part, built when the agent is; the executor's read-only
free-time vector, rebuilt after a launch, a cancel or a restore; and the
scheduler's freetime memo, dropped at every scheduling event.  None of
them may change a byte of any record.

This file keeps the uncached formula as its oracle.  Under each policy a
generated tree of at most 30 agents runs event by event with a drawn
freetime mode, advertisement strategy and runtime noise (noise makes
executor and static bookings diverge), with a node marked down and up,
one task cancelled and one checkpoint → resume at drawn steps.  After
every event, every agent's record must equal the oracle's.  Two fixed
cases pin what a drawn run can miss: a cancelled running task frees its
nodes in the very next record, and records read on a rebuilt grid before
a restore do not outlive it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.snapshot import restore_system, snapshot_system
from repro.experiments import runner
from repro.experiments.scenarios import ScenarioSpec, generate_scenario
from repro.net.message import Endpoint
from repro.net.payloads import ServiceInfo
from repro.scheduling.scheduler import SchedulingPolicy
from repro.tasks.task import Environment
from tests.oracles import policy, queued_tasks

#: Events one drawn run may fire (the periodic pulls never drain the queue).
STEP_LIMIT = 2500


def oracle_freetime(scheduler, mode: str) -> float:
    """ω exactly as the uncached scheduler computed it, from scratch."""
    now = scheduler.sim.now
    base = np.array(
        [scheduler.executor.node_free_at(n.node_id) for n in scheduler.resource.nodes]
    )
    if policy(scheduler).is_static:
        per_node = np.maximum(scheduler._static.booked_free_times, base)
    elif scheduler.queue.is_empty:
        per_node = base
    else:
        # Every scheduling event leaves an incumbent while tasks queue.
        assert scheduler._cached_node_free is not None
        per_node = np.maximum(scheduler._cached_node_free, base)
    per_node = np.maximum(per_node, now)
    if mode == "mean":
        return float(per_node.mean())
    if mode == "min":
        return float(per_node.min())
    return float(per_node.max())


def oracle_record(agent, mode: str) -> ServiceInfo:
    """The agent's Fig. 5 record, every field rebuilt from scratch."""
    scheduler = agent.scheduler
    endpoint = agent.endpoint
    return ServiceInfo(
        agent_endpoint=endpoint,
        scheduler_endpoint=Endpoint(endpoint.address, endpoint.port + 9000),
        hardware_type=scheduler.resource.slowest_platform().name,
        nproc=scheduler.resource.size,
        environments=scheduler.environments,
        freetime=oracle_freetime(scheduler, mode),
    )


def check_records(run, mode: str) -> None:
    for name, agent in sorted(run.system.agents.items()):
        got = agent.service_info()
        want = oracle_record(agent, mode)
        assert got == want, (name, run.steps, got, want)
        assert type(got.freetime) is float


def cancel_one(run, running_first: bool) -> bool:
    """Cancel one task, the first in agent order; False when none is live."""
    for _, scheduler in sorted(run.system.schedulers.items()):
        queued, running = queued_tasks(scheduler.queue), scheduler.executor.running_tasks
        tasks = running + queued if running_first else queued + running
        if tasks:
            scheduler.cancel_task(tasks[0].task_id)
            return True
    return False


scenarios = st.fixed_dictionaries(
    {
        "agents": st.integers(2, 30),
        "branching": st.integers(1, 4),
        "nproc": st.integers(1, 6),
        "requests": st.integers(2, 8),
        "seed": st.integers(0, 2**16),
        "mode": st.sampled_from(["makespan", "mean", "min"]),
        "advertisement": st.sampled_from(["pull", "push"]),
        "noise": st.sampled_from([0.0, 0.3]),
        # Push runs fire ~20-200 events, pull runs hundreds to thousands.
        "down_step": st.integers(0, 150),
        "up_after": st.integers(1, 300),
        "immediate": st.booleans(),
        "target": st.integers(0, 10**6),
        "cancel_step": st.integers(0, 150),
        "cancel_running": st.booleans(),
        "checkpoint_step": st.integers(1, 200),
    }
)


class TestCachedRecordEqualsOracle:
    @pytest.mark.parametrize("policy", list(SchedulingPolicy), ids=lambda p: p.value)
    @settings(max_examples=8, deadline=None)
    @given(draw=scenarios)
    def test_every_event(self, policy, draw, tmp_path_factory):
        spec = ScenarioSpec(
            name="advert-cache",
            agent_count=draw["agents"],
            branching=draw["branching"],
            nproc=draw["nproc"],
            request_count=draw["requests"],
            rate=2.0,
            master_seed=draw["seed"],
        )
        scenario = generate_scenario(spec)
        config = spec.config(
            policy=policy,
            freetime_mode=draw["mode"],
            advertisement=draw["advertisement"],
            runtime_noise=draw["noise"],
        )
        # The test steps the run itself so it can look between events.
        run = runner._arm(
            "strict", config, scenario.topology, list(scenario.workload), None, None
        )
        names = sorted(run.system.schedulers)
        target = run.system.schedulers[names[draw["target"] % len(names)]]
        node = draw["target"] % target.resource.size
        up_step = draw["down_step"] + draw["up_after"]
        snapshot = tmp_path_factory.mktemp("advert") / "snap.json"
        cancelled = 0
        mode = draw["mode"]
        check_records(run, mode)
        while run.steps < STEP_LIMIT:
            if run.arrived == len(run.items) and (
                run.system.portal.pending_count <= cancelled
            ):
                break
            if not run.system.sim.step():
                break
            run.steps += 1
            if run.steps == draw["down_step"]:
                target.monitor.mark_down(node, immediate=draw["immediate"])
            if run.steps == up_step:
                target.monitor.mark_up(node, immediate=draw["immediate"])
            if run.steps == draw["cancel_step"] and cancel_one(
                run, draw["cancel_running"]
            ):
                cancelled += 1
            check_records(run, mode)
            if run.steps == draw["checkpoint_step"]:
                runner._write(run, str(snapshot))
                run = runner._restore(str(snapshot), None)
                target = run.system.schedulers[target.resource.name]
                check_records(run, mode)


def running_grid(policy: SchedulingPolicy):
    """A 4-agent grid stepped until agent G1 runs one task."""
    spec = ScenarioSpec(name="running", agent_count=4, nproc=4, request_count=1)
    topology = generate_scenario(spec).topology
    config = spec.config(policy=policy)
    system = runner.build_grid(config, topology)
    system.start()
    system.portal.submit(
        system.agents["G1"], system.specs["sweep3d"].model, Environment.TEST, 500.0
    )
    while not system.schedulers["G1"].executor.running_tasks:
        assert system.sim.step()
    return config, topology, system


class TestFreeTimeVector:
    def test_vector_is_read_only(self):
        _, _, system = running_grid(SchedulingPolicy.FIFO)
        for scheduler in system.schedulers.values():
            vector = scheduler.executor.free_times
            with pytest.raises(ValueError):
                vector[0] = 1.0
            assert vector is scheduler.executor.free_times

    def test_cancelled_task_frees_its_nodes_at_once(self):
        _, _, system = running_grid(SchedulingPolicy.GA)
        agent, scheduler = system.agents["G1"], system.schedulers["G1"]
        busy = agent.service_info()
        scheduler.cancel_task(scheduler.executor.running_tasks[0].task_id)
        freed = agent.service_info()
        assert freed == oracle_record(agent, "makespan")
        assert freed.freetime < busy.freetime


class TestRestoreDropsDerivedState:
    @pytest.mark.parametrize("policy", [SchedulingPolicy.FIFO, SchedulingPolicy.GA])
    def test_records_read_before_restore_do_not_leak(self, policy):
        """A rebuilt grid whose records were read at t = 0 still restores
        to the snapshot's records, not to the ones it cached."""
        config, topology, system = running_grid(policy)
        state = snapshot_system(system)

        fresh = runner.build_grid(config, topology)
        stale = {name: agent.service_info() for name, agent in fresh.agents.items()}
        restore_system(fresh, state)
        restored = fresh.agents["G1"].service_info()
        assert restored == oracle_record(fresh.agents["G1"], "makespan")
        assert restored != stale["G1"]
