"""The process-parallel experiment fabric.

Every entry point that re-runs the same seeded workload under many
configurations — :func:`~repro.experiments.tables.run_table3`, the
multi-seed sweep, the ablation sweeps — is embarrassingly parallel: the
experiments share *inputs* (dataclass configs, topologies, workload items)
but no runtime state, because each run builds its own discrete-event
engine, transport, schedulers and evaluation cache.  :func:`run_many`
exploits that: it fans a list of :class:`ExperimentJob` descriptions out
over a ``ProcessPoolExecutor`` and returns the results **in submission
order**, so a parallel run is result-for-result identical to the
sequential loop it replaces (each job re-seeds from its own config;
nothing about scheduling order can leak between experiments).

Spawn-safety: the worker is a module-level function taking one picklable
dataclass, so the fabric works under every multiprocessing start method —
including ``spawn``, where the child imports this module fresh.  Results
(:class:`~repro.experiments.runner.ExperimentResult`) are plain dataclasses
of dataclasses and pickle cleanly back to the parent.

``jobs=1`` (the default everywhere) bypasses the pool entirely and runs
in-process, byte-identical to the historical sequential path.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments.casestudy import GridTopology
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.experiments.workload import WorkloadItem
from repro.pace.cache import CacheStats

__all__ = [
    "ExperimentJob",
    "default_jobs",
    "job_key",
    "merge_cache_stats",
    "run_many",
]

#: Multiprocessing start method of the worker pool: the only one that
#: exists on every platform, and the one that flushes out hidden
#: unpicklable state.
MP_CONTEXT = "spawn"


@dataclass(frozen=True)
class ExperimentJob:
    """One experiment, described entirely by picklable inputs.

    ``workload`` pins the exact request sequence (the §4.1 "identical
    workload" requirement when several configs share one); ``None`` lets
    the worker regenerate it from the config's seed, which is
    deterministic and therefore equivalent for a single job.
    """

    config: ExperimentConfig
    topology: Optional[GridTopology] = None
    workload: Optional[Tuple[WorkloadItem, ...]] = None


def default_jobs() -> int:
    """A sensible worker count: ``REPRO_JOBS`` env var, else the CPU count."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _run_job(job: ExperimentJob) -> ExperimentResult:
    """Worker entry point — module-level so every start method can pickle it."""
    workload = list(job.workload) if job.workload is not None else None
    return run_experiment(job.config, job.topology, workload=workload)


def job_key(job: ExperimentJob) -> str:
    """A content hash identifying a job's *inputs* — config, topology, workload.

    Two jobs with the same key produce the same :class:`ExperimentResult`
    (runs are fully seeded), which is what lets a manifest directory reuse
    results across sweep invocations.  A ``None`` workload hashes as the
    literal ``null``: the worker regenerates it from the config's seed, so
    it is just as pinned as an explicit one.
    """
    from repro.checkpoint.snapshot import (
        encode_config,
        topology_fingerprint,
        workload_fingerprint,
    )
    from repro.experiments.casestudy import case_study_topology

    topology = job.topology if job.topology is not None else case_study_topology()
    body = json.dumps(
        {
            "config": encode_config(job.config),
            "topology": topology_fingerprint(topology),
            "workload": (
                None
                if job.workload is None
                else workload_fingerprint(job.workload)
            ),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _manifest_path(manifest_dir: str) -> str:
    return os.path.join(manifest_dir, "manifest.jsonl")


def _load_manifest(manifest_dir: str) -> Dict[str, ExperimentResult]:
    """Previously completed results, keyed by :func:`job_key`.

    Tolerant by design: a manifest line whose result pickle is missing or
    unreadable (a crash between the two writes, a partial copy) is simply
    skipped, so the job re-runs instead of failing the sweep.
    """
    done: Dict[str, ExperimentResult] = {}
    path = _manifest_path(manifest_dir)
    if not os.path.exists(path):
        return done
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                key = str(entry["key"])
                with open(os.path.join(manifest_dir, entry["result"]), "rb") as fh:
                    done[key] = pickle.load(fh)
            except (KeyError, ValueError, OSError, pickle.UnpicklingError):
                continue
    return done


def _record_result(manifest_dir: str, key: str, name: str, result: ExperimentResult) -> None:
    """Persist one finished job: result pickle first, then the manifest line.

    The pickle is written atomically (tmp + rename) and the manifest line
    appended only afterwards, so a crash at any instant leaves either a
    complete, discoverable result or no trace at all — never a manifest
    entry pointing at garbage.
    """
    filename = f"{key}.pkl"
    target = os.path.join(manifest_dir, filename)
    tmp = target + ".tmp"
    with open(tmp, "wb") as handle:
        pickle.dump(result, handle)
    os.replace(tmp, target)
    with open(_manifest_path(manifest_dir), "a", encoding="utf-8") as handle:
        handle.write(
            json.dumps({"key": key, "name": name, "result": filename}) + "\n"
        )


def run_many(
    configs: Sequence[ExperimentJob],
    *,
    jobs: int = 1,
    manifest_dir: Optional[str] = None,
) -> List[ExperimentResult]:
    """Run every experiment, optionally across worker processes; ordered results.

    Parameters
    ----------
    configs:
        Experiment descriptions, each self-contained and picklable.
    jobs:
        Worker processes.  ``1`` runs sequentially in-process (no pool, no
        pickling) — the reference path.  Larger values fan out over a
        ``ProcessPoolExecutor``; the effective worker count is clamped to
        ``min(jobs, os.cpu_count(), pending jobs)`` — oversubscribing a
        box with more processes than cores only adds scheduler churn (the
        committed ``sweep_speedup < 1`` on a 1-CPU runner is exactly that
        failure mode), and a clamp that lands on one worker short-circuits
        to the in-process path, skipping pool and pickling entirely.
        Workers start with :data:`MP_CONTEXT`.
    manifest_dir:
        When given, the sweep becomes crash-resumable: each finished job's
        result is pickled into this directory and indexed in
        ``manifest.jsonl`` under its :func:`job_key`.  A re-invocation
        loads completed results from the manifest and runs only the jobs
        that are missing — a killed sweep re-run with the same directory
        picks up where it died.  Runs are fully seeded, so a reloaded
        result is identical to a re-computed one.

    Results are returned in the order the experiments were given,
    regardless of which worker finished first, so seeded outputs are
    identical to the sequential path.
    """
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    configs = list(configs)
    if not configs:
        return []

    keys: Optional[List[str]] = None
    results: List[Optional[ExperimentResult]] = [None] * len(configs)
    pending = list(range(len(configs)))
    if manifest_dir is not None:
        os.makedirs(manifest_dir, exist_ok=True)
        keys = [job_key(job) for job in configs]
        done = _load_manifest(manifest_dir)
        pending = []
        for index, key in enumerate(keys):
            if key in done:
                results[index] = done[key]
            else:
                pending.append(index)

    def finish(index: int, result: ExperimentResult) -> None:
        results[index] = result
        if manifest_dir is not None and keys is not None:
            _record_result(
                manifest_dir, keys[index], configs[index].config.name, result
            )

    workers = min(jobs, os.cpu_count() or 1, len(pending))
    if workers <= 1:
        for index in pending:
            finish(index, _run_job(configs[index]))
    else:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=get_context(MP_CONTEXT)
        ) as pool:
            futures = [(index, pool.submit(_run_job, configs[index])) for index in pending]
            # Collect in submission order — deterministic regardless of
            # completion order; exceptions propagate with their tracebacks.
            for index, future in futures:
                finish(index, future.result())
    return [result for result in results if result is not None]


def merge_cache_stats(results: Sequence[ExperimentResult]) -> CacheStats:
    """Aggregate per-experiment evaluation-cache statistics.

    Each experiment owns one evaluation cache (per worker process in a
    parallel run); :class:`CacheStats` is mergeable, so the grid-wide
    redundancy figure of §2.2 is just the sum.
    """
    total = CacheStats()
    for result in results:
        total += result.cache_stats
    return total
