"""Property: ``GAScheduler.evolve`` is byte-identical to the reference loop.

``tests/oracles.reference_evolve`` is the generation loop with its
evaluator set up on every costing, its crossover inputs prepared per
generation (non-crossing pairs patched back afterwards) and every next
generation concatenated.  The shipped loop prepares those inputs once per
block, builds each generation in place and sets the evaluator up once per
call; none of that may change an RNG draw or a float.  Two kernels built
alike — one evolved by ``evolve``, the other by the reference — must
therefore agree after every call on the orderings, masks, cached costs,
history, reuse counters and RNG state, bit for bit, across:

* queue lengths 1–13 and resources of 1, 3 and 16 nodes;
* populations of 3 (no pairs), 4, 50 and 51 (an odd parent left over);
* every idle weighting, unit and non-unit cost weights, memetic on and
  off, warm starts on and off;
* start floors, predecessor chains and b-level priorities;
* 0, 1, 10 and 33 generations per call (33 crosses the 32-generation
  draw block);
* task churn and a snapshot → restore between calls.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.cost import CostWeights
from repro.scheduling.ga import GAConfig, GAScheduler
from tests.oracles import reference_evolve


@st.composite
def scenarios(draw):
    calls = draw(st.lists(st.sampled_from([0, 1, 10, 33]), min_size=1, max_size=3))
    return {
        "m": draw(st.integers(1, 13)),
        "n": draw(st.sampled_from([1, 3, 16])),
        "population": draw(st.sampled_from([3, 4, 50, 51])),
        "idle": draw(st.sampled_from(["linear", "uniform", "exponential"])),
        "unit_weights": draw(st.booleans()),
        "memetic": draw(st.booleans()),
        "warmstart": draw(st.sampled_from([0, 8])),
        "floors": draw(st.booleans()),
        "chains": draw(st.booleans()),
        "calls": calls,
        "between": draw(
            st.lists(
                st.sampled_from(["none", "churn", "restore"]),
                min_size=len(calls) - 1,
                max_size=len(calls) - 1,
            )
        ),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _durations(n: int):
    def row(tid: int):
        base = 20.0 * (1.0 + 0.37 * (tid % 11))
        return [base / k**0.7 + 0.5 * k for k in range(1, n + 1)]

    return row


def _kernel(sc, rng: np.random.Generator) -> GAScheduler:
    row = _durations(sc["n"])
    weights = CostWeights() if sc["unit_weights"] else CostWeights(2.0, 0.5, 1.5)
    return GAScheduler(
        sc["n"],
        lambda tid, k: row(tid)[k - 1],
        rng,
        GAConfig(
            population_size=sc["population"],
            weights=weights,
            idle_weighting=sc["idle"],
            memetic=sc["memetic"],
            warmstart_count=sc["warmstart"],
        ),
        duration_row=row,
    )


def _add(sc, kernels, tid: int) -> None:
    chained = sc["chains"] and tid % 3 != 0
    for ga in kernels:
        held = set(ga.task_ids)
        ga.add_task(
            tid,
            deadline=60.0 + 17.0 * (tid % 7),
            priority=float(20 - tid % 20) if sc["chains"] else 0.0,
            floor=3.0 * (tid % 5) if sc["floors"] and tid % 2 else None,
            predecessors=(tid - 1,) if chained and tid - 1 in held else (),
        )


def _restored(sc, ga: GAScheduler) -> GAScheduler:
    state = json.loads(json.dumps(ga.snapshot_state()))
    rng = np.random.default_rng()
    rng.bit_generator.state = ga._rng.bit_generator.state
    fresh = _kernel(sc, rng)
    fresh.restore_state(state)
    return fresh


def _same_array(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_identical(shipped: GAScheduler, reference: GAScheduler) -> None:
    assert shipped.task_ids == reference.task_ids
    assert _same_array(shipped._order, reference._order)
    assert _same_array(shipped._masks, reference._masks)
    assert _same_array(shipped._cached_costs, reference._cached_costs)
    assert shipped._cost_cache_key == reference._cost_cache_key
    assert shipped.generations == reference.generations
    assert [(g, c.hex()) for g, c in shipped.history] == [
        (g, c.hex()) for g, c in reference.history
    ]
    assert shipped.stats.snapshot_counters() == reference.stats.snapshot_counters()
    assert shipped._rng.bit_generator.state == reference._rng.bit_generator.state


class TestEvolveIdentity:
    @given(sc=scenarios())
    @settings(max_examples=40, deadline=None)
    def test_evolve_matches_reference_loop(self, sc):
        kernels = [
            _kernel(sc, np.random.default_rng(sc["seed"])) for _ in range(2)
        ]
        for tid in range(sc["m"]):
            _add(sc, kernels, tid)
        _assert_identical(*kernels)
        draws = np.random.default_rng(sc["seed"] ^ 0x5EED)
        next_id = sc["m"]
        for call, generations in enumerate(sc["calls"]):
            if call:
                step = sc["between"][call - 1]
                if step == "churn":
                    held = kernels[0].task_ids
                    gone = held[int(draws.integers(len(held)))] if held else None
                    for ga in kernels:
                        if gone is not None:
                            ga.remove_task(gone)
                    _add(sc, kernels, next_id)
                    next_id += 1
                elif step == "restore":
                    kernels = [_restored(sc, ga) for ga in kernels]
            free = list(20.0 * draws.random(sc["n"]))
            ref_time = float(draws.integers(0, 15))
            shipped, reference = kernels
            got = shipped.evolve(generations, free, ref_time)
            want = reference_evolve(reference, generations, free, ref_time)
            assert got.hex() == want.hex()
            _assert_identical(shipped, reference)
