"""The bounded worker pool: executing serve jobs against one shared session.

Each worker is an asyncio task that pulls jobs off the
:class:`~repro.serve.queue.RequestQueue` and executes them on a thread
(``asyncio.to_thread``), so the event loop stays responsive while numpy does
the heavy lifting.  Every job runs under a *stats view* of the shared
:class:`~repro.runtime.session.RuntimeSession`: a private session whose cache
and trace store delegate to the shared ones (so all jobs reuse one warm
``ResultCache`` + ``TraceStore``) but count hits/misses/stores, sweep work and
trace builds into per-job counters — which is how each response can report
exactly what *its* request cost.  Thread-scoped session activation (see
:mod:`repro.runtime.session`) keeps concurrent jobs from interfering.

``docs/serving.md`` describes the execution model; ``docs/runtime.md`` the
session semantics underneath it.
"""

from __future__ import annotations

import asyncio

from repro.core.progress import ProgressToken, SweepCancelled
from repro.runtime import RuntimeSession, simulate, use_session
from repro.runtime.cache import CacheStats
from repro.runtime.serialization import network_result_to_dict
from repro.serve.protocol import (
    ExperimentRequest,
    RunAllRequest,
    ServeRequest,
    SimulateRequest,
)
from repro.serve.queue import RequestQueue

__all__ = ["WorkerPool", "execute_request", "job_session"]


class _CacheView:
    """Per-job counting facade over the shared :class:`ResultCache`."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.stats = CacheStats()

    @property
    def directory(self):
        return self._inner.directory

    @property
    def enabled(self) -> bool:
        return self._inner.enabled

    @property
    def persistent(self) -> bool:
        return self._inner.persistent

    def _delegate(self, operation, *args, **kwargs):
        """Run an inner-cache call, attributing its error delta to this view."""
        before = self._inner.stats.errors
        result = operation(*args, **kwargs)
        self.stats.errors += max(0, self._inner.stats.errors - before)
        return result

    def get(self, key: str, kind: str = "network_result"):
        payload = self._delegate(self._inner.get, key, kind=kind)
        if payload is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return payload

    def contains(self, key: str, kind: str = "network_result") -> bool:
        return self._delegate(self._inner.contains, key, kind=kind)

    def put(self, key: str, payload: dict, kind: str = "network_result") -> None:
        self._delegate(self._inner.put, key, payload, kind=kind)
        self.stats.stores += 1

    def __len__(self) -> int:
        return len(self._inner)


class _TraceView:
    """Per-job counting facade over the shared :class:`TraceStore`."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.builds = 0
        self.reuses = 0

    def get(self, spec):
        trace, built = self._inner.fetch(spec)
        if built:
            self.builds += 1
        else:
            self.reuses += 1
        return trace

    def __len__(self) -> int:
        return len(self._inner)


def job_session(
    shared: RuntimeSession, progress: ProgressToken | None = None
) -> RuntimeSession:
    """A stats view of ``shared``: same cache and traces, private counters.

    Public because every executor variant (the default one below, the cluster
    worker's internal-op executor) builds its per-job session this way.
    """
    return RuntimeSession(
        cache=_CacheView(shared.cache),
        traces=_TraceView(shared.traces),
        progress=progress,
    )


def execute_request(
    request: ServeRequest,
    shared: RuntimeSession,
    progress: ProgressToken | None = None,
) -> tuple[dict, dict]:
    """Execute one typed request against the shared session (worker thread).

    Returns ``(result payload, per-request RunStats dict)``.  The payload is
    JSON-ready: experiment results via ``ExperimentResult.to_dict``, raw
    simulations via :func:`network_result_to_dict`.

    ``progress`` (the job's :class:`ProgressToken`) rides the per-job session
    view down into the runtime funnels: the sweep checks it at cooperative
    checkpoints (raising :class:`SweepCancelled` once the last interested
    ticket cancelled) and per-layer/per-network progress events flow back
    through it.  ``run_all`` additionally emits one ``experiment_done`` event
    with the partial result after each experiment completes.
    """
    from repro.experiments.runner import EXPERIMENTS, run_experiment

    if progress is not None:
        progress.checkpoint()
    view = job_session(shared, progress)
    with use_session(view):
        if isinstance(request, ExperimentRequest):
            result = run_experiment(
                request.experiment, preset=request.resolved_preset(), seed=request.seed
            )
            payload = {"kind": "experiment", "experiment": result.to_dict()}
        elif isinstance(request, RunAllRequest):
            preset = request.resolved_preset()
            results = {}
            for index, name in enumerate(EXPERIMENTS):
                results[name] = run_experiment(
                    name, preset=preset, seed=request.seed
                ).to_dict()
                if progress is not None:
                    progress.emit(
                        {
                            "stage": "experiment_done",
                            "experiment": name,
                            "completed": index + 1,
                            "total": len(EXPERIMENTS),
                            "result": results[name],
                        }
                    )
            payload = {"kind": "run_all", "experiments": results}
        elif isinstance(request, SimulateRequest):
            results = simulate(request.simulation_request())
            payload = {
                "kind": "simulation",
                "results": {
                    label: network_result_to_dict(result)
                    for label, result in results.items()
                },
            }
        else:  # pragma: no cover - parse_request guards this
            raise TypeError(f"unsupported request type {type(request).__name__}")
    return payload, view.stats().as_dict()


class WorkerPool:
    """``workers`` asyncio tasks executing queue jobs.

    ``executor`` decides *how* a job runs and defaults to
    :func:`execute_request` on a thread (``asyncio.to_thread``), keeping the
    event loop responsive while numpy works.  An ``async def`` executor is
    awaited on the loop instead — that is how the cluster coordinator
    substitutes its network-bound sharding dispatcher (``docs/cluster.md``)
    without changing the queue, ticketing, or cancellation machinery.  Either
    way the signature is ``executor(request, session, token) -> (payload,
    stats_dict)`` and a cancelled execution raises :class:`SweepCancelled`.
    """

    def __init__(
        self,
        queue: RequestQueue,
        session: RuntimeSession,
        workers: int = 2,
        executor=None,
    ) -> None:
        if workers < 1:
            raise ValueError("worker pool needs at least one worker")
        self.queue = queue
        self.session = session
        self.workers = workers
        self.executor = executor if executor is not None else execute_request
        self._tasks: list[asyncio.Task] = []

    async def start(self) -> None:
        """Spawn the worker tasks (idempotent)."""
        if self._tasks:
            return
        self._tasks = [
            asyncio.create_task(self._worker(index), name=f"repro-serve-worker-{index}")
            for index in range(self.workers)
        ]

    async def stop(self) -> None:
        """Drain-free shutdown: running jobs complete, queued jobs are failed.

        Workers finish the job they are currently executing (a simulation on
        a thread cannot be interrupted) but pull nothing further; every job
        still waiting in the queue is completed with an error so its tickets
        unblock instead of hanging.
        """
        self.queue.stop_workers(len(self._tasks))
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        self.queue.abandon_pending()

    async def _worker(self, index: int) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self.queue.next_job()
            if job is None:
                return
            # Progress events originate on the simulating thread; marshal
            # them onto the event loop before they touch queue/ticket state.
            job.token.on_progress = (
                lambda payload, job=job: loop.call_soon_threadsafe(
                    self.queue.deliver_progress, job, payload
                )
            )
            self.queue.mark_running(job)
            try:
                if asyncio.iscoroutinefunction(self.executor):
                    payload, stats = await self.executor(
                        job.request, self.session, job.token
                    )
                else:
                    payload, stats = await asyncio.to_thread(
                        self.executor, job.request, self.session, job.token
                    )
            except asyncio.CancelledError:
                self.queue.finish(job, error="worker cancelled")
                raise
            except SweepCancelled:
                # Every interested ticket is gone; the checkpoint freed us.
                self.queue.finish(
                    job, error="cancelled at a cooperative checkpoint", cancelled=True
                )
            except Exception as error:  # noqa: BLE001 - failures become responses
                self.queue.finish(job, error=f"{type(error).__name__}: {error}")
            else:
                self.queue.finish(job, result=payload, stats=stats)
