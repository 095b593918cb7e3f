"""Process-pool execution of run plans, with graceful serial fallback.

The scheduler executes a :class:`~repro.runtime.jobs.RunPlan` as a dependency
wavefront over a ``concurrent.futures`` process pool: simulation jobs run
first (they have no dependencies), each experiment job is submitted as soon as
the simulation jobs it depends on have populated the shared on-disk cache, and
results are reassembled in the caller's order so a parallel run is
indistinguishable from a serial one.

Fallbacks keep the engine dependable everywhere:

* ``jobs <= 1`` runs everything in-process (no pool, no pickling);
* without a *persistent* cache (``--no-cache`` or a memory-only session)
  simulation jobs cannot hand results to experiment workers, so the plan
  degrades to experiment-level parallelism with self-contained jobs;
* if the platform cannot create a process pool at all, the run silently
  degrades to serial execution and says so in the report.

``docs/runtime.md`` describes the scheduler's place in the job model;
``docs/architecture.md`` walks a request through the whole stack.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import time
from dataclasses import dataclass, field

from repro.experiments.base import ExperimentResult, Preset, get_preset
from repro.runtime.engine import analyze, simulate
from repro.runtime.jobs import (
    ExperimentJob,
    RunPlan,
    SimulationJob,
    StatisticsJob,
    build_plan,
)
from repro.runtime.session import (
    RunStats,
    RuntimeSession,
    SessionSpec,
    build_session,
    current_session,
    use_session,
)

__all__ = ["RunReport", "run_experiments"]


@dataclass
class RunReport:
    """Everything a run produced: results, statistics, and how it executed."""

    results: dict[str, ExperimentResult]
    stats: RunStats
    preset: str
    seed: int
    jobs: int
    simulation_jobs: int
    planned_cache_hits: int
    elapsed_seconds: float
    mode: str  # "parallel" | "serial" | "serial-fallback"
    cache_dir: str | None = None
    statistics_jobs: int = 0
    cache_entries: int = 0
    cache_disk_bytes: int = 0
    trace_dir: str | None = None

    def summary(self) -> str:
        """Multi-line, human-readable run summary (printed by the CLI)."""
        cache_line = f"cache dir: {self.cache_dir or '(memory only)'}"
        if self.cache_dir is not None:
            cache_line += (
                f"  ({self.cache_entries} entries, {self.cache_disk_bytes} bytes)"
            )
        cache_line += f"  trace dir: {self.trace_dir or '(memory only)'}"
        lines = [
            "== run summary ==",
            f"experiments: {len(self.results)}  preset: {self.preset}  seed: {self.seed}",
            f"mode: {self.mode}  jobs: {self.jobs}  "
            f"simulation jobs: {self.simulation_jobs}  "
            f"statistics jobs: {self.statistics_jobs}  "
            f"planned cache hits: {self.planned_cache_hits}",
            f"{self.stats.summary()}",
            cache_line,
            f"elapsed: {self.elapsed_seconds:.1f}s",
        ]
        return "\n".join(lines)


# --------------------------------------------------------------------- workers
#: The pool worker's session, built once per process by :func:`_init_worker`.
_WORKER_SESSION: RuntimeSession | None = None


def _init_worker(spec: SessionSpec) -> None:
    """Pool initializer: rebuild the parent's session from its spec."""
    global _WORKER_SESSION
    _WORKER_SESSION = build_session(spec)


def _execute_job(
    job: SimulationJob | StatisticsJob | ExperimentJob,
) -> tuple[str, ExperimentResult | None, dict]:
    """Run one job in the worker's session; returns (job id, result, stats delta).

    A worker runs many jobs in one long-lived session, so each reports only
    the counts gained while it ran.
    """
    session = _WORKER_SESSION
    start = session.stats()
    result: ExperimentResult | None = None
    with use_session(session):
        if isinstance(job, SimulationJob):
            simulate(job.request, session=session)
        elif isinstance(job, StatisticsJob):
            analyze(job.request, session=session)
        else:
            from repro.experiments.runner import run_experiment

            result = run_experiment(job.experiment, preset=job.preset, seed=job.seed)
    return job.job_id, result, session.stats().minus(start).as_dict()


# ------------------------------------------------------------------ execution
def _run_serial(
    names: list[str], preset: Preset, seed: int, session: RuntimeSession
) -> dict[str, ExperimentResult]:
    """In-process execution; the shared session already provides all reuse."""
    from repro.experiments.runner import run_experiment

    with use_session(session):
        return {name: run_experiment(name, preset=preset, seed=seed) for name in names}


def _run_parallel(
    plan: RunPlan, jobs: int, spec: SessionSpec, stats: RunStats
) -> dict[str, ExperimentResult]:
    """Dependency-wavefront execution over a process pool of ``spec`` sessions."""
    context = multiprocessing.get_context("spawn")
    results: dict[str, ExperimentResult] = {}
    waiting = list(plan.jobs())
    done_ids: set[str] = set()

    try:
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=context,
            initializer=_init_worker,
            initargs=(spec,),
        )
    except (OSError, PermissionError) as error:
        # Normalize "cannot create a pool at all" to the executor failure the
        # caller handles with the serial fallback.
        raise concurrent.futures.BrokenExecutor(
            f"could not create process pool: {error}"
        ) from error
    try:
        running: dict[concurrent.futures.Future, str] = {}
        while waiting or running:
            ready = [job for job in waiting if all(dep in done_ids for dep in job.deps)]
            waiting = [job for job in waiting if not all(dep in done_ids for dep in job.deps)]
            for job in ready:
                running[pool.submit(_execute_job, job)] = job.job_id
            if not running:
                raise RuntimeError(
                    "run plan deadlocked: jobs "
                    f"{[job.job_id for job in waiting]} have unsatisfiable dependencies"
                )
            finished, _ = concurrent.futures.wait(
                running, return_when=concurrent.futures.FIRST_COMPLETED
            )
            for future in finished:
                running.pop(future)
                job_id, result, job_stats = future.result()
                done_ids.add(job_id)
                stats.merge(job_stats)
                if result is not None:
                    results[job_id.removeprefix("exp:")] = result
    except BaseException:
        # A failing job must fail the run *now*: drop everything still queued
        # and don't wait for sibling futures already executing — they write
        # only to the shared cache, which tolerates abandoned writers.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    return results


def run_experiments(
    names: list[str],
    preset: str | Preset = "fast",
    seed: int = 0,
    jobs: int = 1,
    storage: SessionSpec | None = None,
) -> RunReport:
    """Run experiments through the runtime and reassemble results deterministically.

    Parameters
    ----------
    names:
        Experiment ids, in the order results should be reported.
    preset, seed:
        Forwarded to every experiment.
    jobs:
        Worker processes; ``1`` (the default) runs serially in-process.
    storage:
        When given, the run gets its own session from
        :func:`~repro.runtime.session.build_session`; otherwise it uses the
        caller's active session (so one installed with
        :func:`~repro.runtime.session.use_session` is honored).  Pool workers
        rebuild the session from its spec: a ``cache_backend`` must be a URI
        spec, since a backend instance cannot cross a process spawn.
    """
    preset = get_preset(preset)
    started = time.perf_counter()
    session = build_session(storage) if storage is not None else current_session()
    start = session.stats()
    stats = RunStats()
    mode = "serial"
    plan = build_plan(names, preset, seed, session)
    if jobs > 1 and not (session.spec is not None and session.cache.persistent):
        # Simulation/statistics jobs cannot hand results to sibling processes
        # without a shared on-disk cache the workers rebuild from the session's
        # spec; run self-contained experiment jobs only.
        plan = RunPlan(
            simulations=[],
            statistics=[],
            experiments=[
                ExperimentJob(
                    job_id=job.job_id,
                    experiment=job.experiment,
                    preset=job.preset,
                    seed=job.seed,
                )
                for job in plan.experiments
            ],
            planned_hits=plan.planned_hits,
        )

    if jobs > 1:
        try:
            unordered = _run_parallel(plan, jobs, session.spec or SessionSpec(), stats)
            results = {name: unordered[name] for name in names}
            mode = "parallel"
        except concurrent.futures.BrokenExecutor:
            # The platform cannot sustain a worker pool (spawn blocked, workers
            # killed): degrade gracefully.  Genuine exceptions raised *by* an
            # experiment or simulation propagate to the caller instead.
            stats = RunStats()  # discard partial worker counters
            results = _run_serial(names, preset, seed, session)
            mode = "serial-fallback"
    else:
        results = _run_serial(names, preset, seed, session)

    stats.merge(session.stats().minus(start))
    if mode == "parallel" and session.cache.manifest is not None:
        session.cache.manifest.refresh()  # pool workers wrote the shared index
    usage = session.cache.usage()
    artifacts = getattr(session.traces, "artifacts", None)
    return RunReport(
        results=results,
        stats=stats,
        preset=preset.name,
        seed=seed,
        jobs=jobs,
        simulation_jobs=len(plan.simulations),
        planned_cache_hits=plan.planned_hits,
        elapsed_seconds=time.perf_counter() - started,
        mode=mode,
        cache_dir=str(session.cache.directory) if session.cache.directory else None,
        statistics_jobs=len(plan.statistics),
        cache_entries=usage.get("entries", 0),
        cache_disk_bytes=usage.get("disk_bytes", 0) or 0,
        trace_dir=str(artifacts.directory) if artifacts is not None else None,
    )
