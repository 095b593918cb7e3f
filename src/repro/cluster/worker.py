"""Worker mode: a serve process that executes planned jobs for a coordinator.

``python -m repro serve --worker`` runs a :class:`WorkerService` — the plain
:class:`~repro.serve.service.ExperimentService` (same queue, same worker
pool, same public protocol) extended with the cluster-facing surface
(``docs/cluster.md``):

* a **registration handshake**: after authenticating (worker mode *requires*
  a shared auth token), a coordinator sends ``{"op": "register"}`` and gets
  back the worker's identity (pid, capacity).  Only registered connections
  may submit the internal job ops — a client that somehow reaches a worker's
  port can speak the public protocol but cannot inject planned jobs.
* the **internal job ops** ``sim_job``/``stat_job``
  (:mod:`repro.cluster.plan`): primitive planned jobs whose results travel
  through the shared cache backend, not the wire — the response carries only
  per-job ``RunStats`` counters for the coordinator to merge.
* a **shared-directory cache**: worker mode stores results through
  :class:`~repro.runtime.backends.SharedDirectoryBackend`
  (``SessionSpec(shared=True)``), so sibling workers and
  warm-assembly experiment jobs observe each other's stores.

Everything else — coalescing, priorities, streaming progress, cooperative
cancellation — is inherited unchanged, which is the point: a worker is just a
serve process that learned two more ops.
"""

from __future__ import annotations

import asyncio
import os

from repro.runtime import RuntimeSession, simulate
from repro.runtime.engine import analyze
from repro.runtime.session import use_session
from repro.serve.protocol import JOB_OPS, ProtocolError, ServeRequest
from repro.serve.service import ConnectionContext, ExperimentService
from repro.serve.workers import execute_request, job_session
from repro.cluster.plan import (
    INTERNAL_JOB_OPS,
    SimulationJobRequest,
    StatisticsJobRequest,
    parse_internal_request,
)

__all__ = ["WorkerService", "execute_worker_request"]


def execute_worker_request(request, shared: RuntimeSession, progress=None):
    """Execute one request, including the internal planned-job types.

    ``sim_job``/``stat_job`` run through the exact engine funnels the local
    scheduler uses (:func:`~repro.runtime.engine.simulate` /
    :func:`~repro.runtime.engine.analyze`), under a per-job stats view of the
    shared session — results land in the shared cache under their planned
    keys and only the counters travel back.  Everything else falls through to
    the standard :func:`~repro.serve.workers.execute_request`.
    """
    if isinstance(request, SimulationJobRequest):
        if progress is not None:
            progress.checkpoint()
        view = job_session(shared, progress)
        with use_session(view):
            results = simulate(request.request, session=view)
        payload = {
            "kind": "sim_job",
            "network": request.request.trace.network,
            "configs": len(results),
        }
        return payload, view.stats().as_dict()
    if isinstance(request, StatisticsJobRequest):
        if progress is not None:
            progress.checkpoint()
        view = job_session(shared, progress)
        with use_session(view):
            analyze(request.request, session=view)
        payload = {
            "kind": "stat_job",
            "statistic": request.request.statistic,
            "network": request.request.trace.network,
        }
        return payload, view.stats().as_dict()
    return execute_request(request, shared, progress)


class WorkerService(ExperimentService):
    """An :class:`ExperimentService` that also executes planned cluster jobs.

    Parameters mirror the base service; ``auth_token`` is **mandatory** —
    worker registration is the trust boundary of the cluster, and an
    unauthenticated worker would accept planned jobs from anyone who can
    reach its port.
    """

    job_ops = JOB_OPS + INTERNAL_JOB_OPS

    def __init__(self, *args, auth_token: str | None = None, **kwargs) -> None:
        if not auth_token:
            raise ValueError(
                "worker mode requires an auth token "
                "(--auth-token or REPRO_SERVE_TOKEN)"
            )
        kwargs.setdefault("executor", execute_worker_request)
        super().__init__(*args, auth_token=auth_token, **kwargs)
        self.registrations = 0

    def parse_job(self, message: dict) -> ServeRequest:
        if message.get("op") in INTERNAL_JOB_OPS:
            return parse_internal_request(message)
        return super().parse_job(message)

    def registration_info(self) -> dict:
        """The identity payload a registering coordinator receives."""
        return {
            "event": "registered",
            "pid": os.getpid(),
            "workers": self.pool.workers,
            "cache_dir": str(self.session.cache.directory)
            if self.session.cache.directory
            else None,
        }

    async def handle_message(
        self, message: dict, send, tickets: list | None = None,
        context: ConnectionContext | None = None,
    ) -> bool:
        if context is None:
            context = ConnectionContext.local()
            if tickets is not None:
                context.tickets = tickets
        op = message.get("op")
        client_id = message.get("id")

        def reply(payload: dict) -> None:
            send({"id": client_id, **payload} if client_id is not None else payload)

        if not context.authenticated:
            # Let the base service run the auth gate (it closes the
            # connection on anything but a valid ``auth`` op) — registration
            # and internal ops are only reachable once that passed.
            return await super().handle_message(message, send, context=context)
        if op == "register":
            context.registered = True
            self.registrations += 1
            reply(self.registration_info())
            return True
        if op == "prewarm":
            if not context.registered:
                reply({"event": "error", "error": "prewarm requires a registered coordinator"})
                return True
            artifacts = getattr(self.session.traces, "artifacts", None)
            warmed = {"tensors": 0, "calibrations": 0}
            if artifacts is not None:
                # Manifest refresh + mmap opens are blocking I/O; keep the
                # event loop responsive while the fabric warms.
                warmed = await asyncio.to_thread(artifacts.prewarm)
            reply({"event": "prewarmed", **warmed})
            return True
        if op in INTERNAL_JOB_OPS and not context.registered:
            reply({"event": "error", "error": f"{op} requires a registered coordinator"})
            return True
        return await super().handle_message(message, send, context=context)
