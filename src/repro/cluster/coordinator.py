"""The cluster coordinator: shard planned jobs across worker processes.

:class:`ClusterService` speaks the *unchanged* public serve protocol to
clients — it **is** an :class:`~repro.serve.service.ExperimentService`, with
the local thread executor swapped for a sharding dispatcher.  One client
request flows through the coordinator like this (``docs/cluster.md`` walks
the full lifecycle):

1. the request enters the inherited queue (coalescing identical in-flight
   client requests exactly as a single serve process would);
2. the executor plans it with the existing job graph
   (:func:`repro.runtime.jobs.build_plan`), pruning units the shared cache
   already holds;
3. each primitive simulation/statistics job becomes a **flight** routed to a
   worker by rendezvous hash of its content key
   (:mod:`repro.cluster.hashing`) — stable shards keep per-worker trace
   stores and memos warm, and identical jobs needed by concurrent client
   requests coalesce onto one flight cluster-wide;
4. once an experiment's dependency flights land, its assembly
   (``run_experiment``) is dispatched at a raised priority — every input is
   a warm cache hit by then, so assembly is cheap presentation logic;
5. per-worker ``RunStats`` come back on each flight and are merged by
   their declared rules; streamed progress events hop worker →
   coordinator → client, and a client's cancel hops the other way through
   :attr:`~repro.core.progress.ProgressToken.on_cancel`.

Worker death is handled by requeueing: a flight whose worker connection
drops walks its rendezvous preference order onto the next live worker.
Everything the dead worker completed is already in the shared cache backend,
so a requeued flight only recomputes the remainder.

Membership is **elastic** (``docs/cluster.md``): a background monitor task
auto-respawns spawned workers that die (relaunch + re-register under the same
worker id, so subsequent rendezvous walks see the replacement), and recycles
workers after ``max_jobs_per_worker`` completed jobs to bound long-run memory
growth.  Joining workers — initial, respawned or recycled — are sent a
``prewarm`` op right after registration so the zero-copy trace fabric is
mapped before the first flight lands.  Pending flights need no special
handling on membership changes: every dispatch re-walks the rendezvous rank
over the *currently* live links, which is exactly the reshuffle.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import os
import secrets
import shutil
import sys
import tempfile

from repro.core.progress import SweepCancelled
from repro.runtime import RunStats
from repro.runtime.jobs import build_plan
from repro.runtime.session import SessionSpec, build_session
from repro.serve.client import ServeClient
from repro.serve.protocol import (
    ExperimentRequest,
    RunAllRequest,
    SimulateRequest,
)
from repro.serve.service import ExperimentService
from repro.cluster.hashing import rendezvous_rank
from repro.cluster.plan import SimulationJobRequest, StatisticsJobRequest

__all__ = ["ClusterError", "WorkerDied", "WorkerLink", "ClusterService"]

#: Seconds allowed for a spawned worker to print its listening endpoint.
SPAWN_TIMEOUT = 60.0

#: Seconds allowed for the auth + register handshake with one worker.
HANDSHAKE_TIMEOUT = 30.0

#: Per-worker bound on the (concurrent) stats fan-out of the ``stats`` op.
STATS_TIMEOUT = 5.0

#: Poll cadence of the membership monitor (death detection + recycling).
MONITOR_INTERVAL = 0.25

#: A flight gives up after this many worker deaths (each one requeues).
MAX_FLIGHT_REQUEUES = 8


class ClusterError(RuntimeError):
    """A cluster-level failure (no live workers, handshake failure, ...)."""


class WorkerDied(ClusterError):
    """The worker connection dropped while a flight was assigned to it."""


class _FlightFailed(ClusterError):
    """A worker reported a genuine job failure (not a death)."""


class WorkerLink:
    """Coordinator-side handle of one worker: connection, identity, process."""

    def __init__(
        self,
        worker_id: str,
        host: str,
        port: int,
        client: ServeClient,
        info: dict,
        process: asyncio.subprocess.Process | None = None,
    ) -> None:
        self.worker_id = worker_id
        self.host = host
        self.port = port
        self.client = client
        self.info = info
        self.process = process
        self.dispatched = 0
        self.completed = 0
        #: Flights currently executing on this worker — recycling waits for
        #: zero so an in-flight job is never yanked from under a client.
        self.inflight = 0

    @property
    def alive(self) -> bool:
        return not self.client.closed.is_set()

    @property
    def pid(self) -> int | None:
        return self.info.get("pid")

    def describe(self) -> dict:
        return {
            "worker": self.worker_id,
            "endpoint": f"{self.host}:{self.port}",
            "pid": self.pid,
            "alive": self.alive,
            "spawned": self.process is not None,
            "dispatched": self.dispatched,
            "completed": self.completed,
            "inflight": self.inflight,
        }

    async def close(self) -> None:
        with contextlib.suppress(Exception):
            await self.client.close()
        if self.process is not None:
            if self.process.returncode is None:
                with contextlib.suppress(ProcessLookupError):
                    self.process.terminate()
            with contextlib.suppress(Exception):
                await asyncio.wait_for(self.process.wait(), timeout=10)
            if self.process.returncode is None:  # pragma: no cover - last resort
                with contextlib.suppress(ProcessLookupError):
                    self.process.kill()
                with contextlib.suppress(Exception):
                    await self.process.wait()


class _Flight:
    """One planned job in flight cluster-wide (1..N client jobs share it)."""

    def __init__(self, key: str, message: dict, priority: int) -> None:
        self.key = key
        self.message = message
        self.priority = priority
        self.future: asyncio.Future = asyncio.get_running_loop().create_future()
        #: Client-job contexts awaiting this flight; the first is the
        #: initiator, whose stats the flight's counters are credited to.
        self.interested: list["_JobContext"] = []
        self.link: WorkerLink | None = None
        self.ticket: str | None = None
        self.requeues = 0
        self.cancelled = False

    def emit_progress(self, payload: dict) -> None:
        for ctx in list(self.interested):
            ctx.token.emit(payload)


class _JobContext:
    """Cluster-side execution state of one client job."""

    def __init__(self, token) -> None:
        self.token = token
        self.cancelled = asyncio.Event()
        self.stats = RunStats()
        self.flights: list[_Flight] = []
        #: Flights whose stats were already folded into this job — several
        #: assemblies of one run_all await the same shared dependency flight,
        #: and its counters must be credited exactly once.
        self._credited: set[int] = set()
        self.planned_units = 0
        self.planned_hits = 0
        #: Summed worker-side execution seconds of this job's flights — the
        #: ``timings`` blocks the workers report, forwarded so a client sees
        #: the cluster-wide compute its request cost (not just coordinator
        #: wall time, which overlaps flights).
        self.worker_execution_seconds = 0.0

    def credit_flight(self, flight: "_Flight", payload: dict) -> None:
        """Fold one flight's stats and worker timings into this job, once."""
        if id(flight) in self._credited:
            return
        self._credited.add(id(flight))
        stats = payload.get("stats")
        if stats:
            self.stats.merge(stats)
        timings = payload.get("timings") or {}
        self.worker_execution_seconds += timings.get("execution_seconds", 0.0)


class ClusterService(ExperimentService):
    """Serve-protocol front-end that shards execution across worker processes.

    Parameters
    ----------
    spawn_workers:
        Number of local worker processes to spawn on :meth:`start` (each is
        ``python -m repro serve --worker`` sharing ``storage``).
    connect:
        ``(host, port)`` endpoints of pre-started workers to attach
        (``repro cluster --connect``); they must share a cache backend with
        each other for cross-worker reuse to function.
    storage:
        The :class:`~repro.runtime.session.SessionSpec` every spawned worker
        gets as flags and the coordinator plans against, both through the
        shared backend.  Without a ``cache_dir`` the cluster makes a private
        temporary directory (removed on :meth:`stop`) — right for a
        self-contained local cluster; a real deployment points every worker
        at one shared path.  The trace fabric beside it makes N workers on a
        host materialize each trace tensor once (``docs/cluster.md``); a
        ``cache_backend`` (``docs/cachenet.md``) moves only the result tier.
        ``no_cache`` is refused: workers exchange results through the cache.
    worker_processes:
        ``--workers`` passed to each spawned worker (its own job-execution
        bound).
    concurrent_requests:
        Bound on client jobs the coordinator plans/dispatches concurrently
        (the inherited pool size).
    worker_token:
        Shared secret for worker registration; generated when omitted.
        Spawned workers receive it via ``REPRO_SERVE_TOKEN`` in their
        environment, never on their command line.
    auth_token:
        Optional client-facing shared secret (same semantics as
        ``repro serve --auth-token``).
    max_jobs_per_worker:
        Recycle a spawned worker (terminate + relaunch + re-register) once
        it has completed this many jobs, bounding per-process memory growth
        over long serving runs.  ``None`` disables recycling.
    """

    def __init__(
        self,
        spawn_workers: int = 0,
        connect: list[tuple[str, int]] | None = None,
        storage: SessionSpec = SessionSpec(),
        worker_processes: int = 2,
        concurrent_requests: int = 4,
        worker_token: str | None = None,
        auth_token: str | None = None,
        max_jobs_per_worker: int | None = None,
    ) -> None:
        if spawn_workers < 0:
            raise ValueError("spawn_workers must be non-negative")
        if spawn_workers == 0 and not connect:
            raise ValueError("a cluster needs spawned workers and/or --connect endpoints")
        if max_jobs_per_worker is not None and max_jobs_per_worker < 1:
            raise ValueError("max_jobs_per_worker must be positive")
        if storage.no_cache:
            raise ValueError("a cluster needs the shared cache (no_cache is unsupported)")
        self._own_cache_dir = storage.cache_dir is None
        if self._own_cache_dir:
            storage = dataclasses.replace(
                storage, cache_dir=tempfile.mkdtemp(prefix="repro-cluster-cache-")
            )
        # The coordinator's own session exists to *plan* (cache probes prune
        # warm units) and must see the workers' stores: same shared backend.
        super().__init__(
            session=build_session(dataclasses.replace(storage, shared=True)),
            workers=concurrent_requests,
            auth_token=auth_token,
        )
        self.pool.executor = self._execute_cluster
        self.max_jobs_per_worker = max_jobs_per_worker
        self.spawn_workers = spawn_workers
        self.connect_endpoints = list(connect or [])
        self.worker_processes = worker_processes
        self.worker_token = worker_token or secrets.token_hex(16)
        self.links: dict[str, WorkerLink] = {}
        self._flights: dict[str, _Flight] = {}
        self._flight_tasks: set[asyncio.Task] = set()
        self._monitor_task: asyncio.Task | None = None
        #: Cluster-level counters surfaced by the ``stats`` op.
        self.flights_dispatched = 0
        self.flights_coalesced = 0
        self.flights_requeued = 0
        self.workers_respawned = 0
        self.workers_recycled = 0
        self.respawn_failures = 0

    # ----------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        first_start = not self.links
        await super().start()
        if first_start:
            spawned = [
                self._spawn_worker(f"w{index}") for index in range(self.spawn_workers)
            ]
            attached = [
                self._attach_worker(f"c{index}", host, port)
                for index, (host, port) in enumerate(self.connect_endpoints)
            ]
            outcomes = await asyncio.gather(*spawned, *attached, return_exceptions=True)
            failures = [o for o in outcomes if isinstance(o, BaseException)]
            links = [o for o in outcomes if isinstance(o, WorkerLink)]
            if failures:
                # A partial fleet must not leak: close (and terminate) every
                # worker that *did* come up before surfacing the failure.
                await asyncio.gather(
                    *(link.close() for link in links), return_exceptions=True
                )
                raise failures[0]
            for link in links:
                self.links[link.worker_id] = link
            self._monitor_task = asyncio.create_task(
                self._monitor(), name="repro-cluster-monitor"
            )

    async def stop(self) -> None:
        await super().stop()  # drain running client jobs first: they need links
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._monitor_task
            self._monitor_task = None
        for task in list(self._flight_tasks):
            task.cancel()
        if self._flight_tasks:
            await asyncio.gather(*self._flight_tasks, return_exceptions=True)
        await asyncio.gather(*(link.close() for link in self.links.values()))
        if self._own_cache_dir:
            shutil.rmtree(self.session.spec.cache_dir, ignore_errors=True)

    async def _spawn_worker(self, worker_id: str) -> WorkerLink:
        """Start one local worker process and complete the handshake."""
        env = dict(os.environ)
        env["REPRO_SERVE_TOKEN"] = self.worker_token
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--worker",
            "--worker-endpoint",
            "127.0.0.1:0",
            "--workers",
            str(self.worker_processes),
            *self.session.spec.argv(),
        ]
        process = await asyncio.create_subprocess_exec(
            *argv,
            env=env,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.DEVNULL,
        )
        try:
            line = await asyncio.wait_for(process.stdout.readline(), SPAWN_TIMEOUT)
            ready = json.loads(line)
            if ready.get("event") != "worker-listening":
                raise ClusterError(f"unexpected worker banner: {ready!r}")
            host, port = ready["host"], int(ready["port"])
            return await self._handshake(worker_id, host, port, process)
        except BaseException:
            if process.returncode is None:
                with contextlib.suppress(ProcessLookupError):
                    process.terminate()
            raise

    async def _attach_worker(self, worker_id: str, host: str, port: int) -> WorkerLink:
        """Connect and register with a pre-started worker."""
        return await self._handshake(worker_id, host, port, process=None)

    async def _handshake(
        self,
        worker_id: str,
        host: str,
        port: int,
        process: asyncio.subprocess.Process | None,
    ) -> WorkerLink:
        async def shake() -> WorkerLink:
            client = await ServeClient.connect(host, port, auth_token=self.worker_token)
            try:
                info = await client._roundtrip({"op": "register"})
                if info.get("event") != "registered":
                    raise ClusterError(
                        f"worker {host}:{port} rejected registration: "
                        f"{info.get('error', info)}"
                    )
                # Pre-warm the zero-copy trace fabric on join (initial,
                # respawned and recycled workers alike): the manifest and
                # tensor mmaps are mapped before the first flight lands.
                # Best-effort — a worker without a fabric simply reports
                # zero artifacts, and a prewarm failure must not fail the
                # handshake.
                with contextlib.suppress(Exception):
                    warmed = await client._roundtrip({"op": "prewarm"})
                    if warmed.get("event") == "prewarmed":
                        info["prewarmed"] = {
                            "tensors": warmed.get("tensors", 0),
                            "calibrations": warmed.get("calibrations", 0),
                        }
            except BaseException:
                await client.close()
                raise
            return WorkerLink(worker_id, host, port, client, info, process)

        try:
            return await asyncio.wait_for(shake(), HANDSHAKE_TIMEOUT)
        except asyncio.TimeoutError as error:
            raise ClusterError(f"worker {host}:{port} handshake timed out") from error

    # --------------------------------------------------------------- membership
    async def _monitor(self) -> None:
        """Elastic-membership loop: respawn dead spawned workers, recycle old.

        Only *spawned* links are managed — an attached (``--connect``) worker
        belongs to whoever started it, so its death merely removes it from
        the live set (flights requeue onto survivors via the rendezvous
        walk).  Recycling waits for a link to go idle so no in-flight job is
        interrupted; the flights it already completed live in the shared
        cache backend either way.
        """
        while True:
            await asyncio.sleep(MONITOR_INTERVAL)
            for worker_id, link in list(self.links.items()):
                if link.process is None or self.links.get(worker_id) is not link:
                    continue
                if not link.alive:
                    await self._replace(worker_id, link)
                elif (
                    self.max_jobs_per_worker is not None
                    and link.completed >= self.max_jobs_per_worker
                    and link.inflight == 0
                ):
                    await self._replace(worker_id, link)

    async def _replace(self, worker_id: str, old: WorkerLink) -> None:
        """Install a freshly spawned worker under ``old``'s id.

        The replacement re-registers (and pre-warms) through the normal
        handshake, so from the routing layer's point of view a respawned
        worker is indistinguishable from a new join: the next rendezvous
        walk simply sees a live link under the same id again.  A live
        ``old`` (a recycle) keeps serving until its replacement has
        registered and is closed once the jobs it still runs finish, so
        recycling never leaves its slot without a live worker.
        """
        try:
            fresh = await self._spawn_worker(worker_id)
        except Exception:
            # Leave the old link in place: a dead one keeps the loss visible
            # in stats, and the monitor retries on its next pass.
            self.respawn_failures += 1
            return
        if self.links.get(worker_id) is not old:  # pragma: no cover - lost a replace race
            await fresh.close()
            return
        self.links[worker_id] = fresh
        try:
            if old.alive:
                self.workers_recycled += 1
                while old.inflight and old.alive:
                    await asyncio.sleep(MONITOR_INTERVAL)
            else:  # died, possibly while its replacement was spawning
                self.workers_respawned += 1
        finally:
            await old.close()

    # ------------------------------------------------------------------ routing
    def live_links(self) -> list[WorkerLink]:
        return [link for link in self.links.values() if link.alive]

    # ------------------------------------------------------------------ flights
    def _join_flight(self, ctx: _JobContext, key: str, message: dict, priority: int) -> _Flight:
        """The in-flight dispatch of ``key``, creating (and launching) it if new.

        Identical planned jobs needed by concurrent client requests coalesce
        here — the cluster-wide analogue of the queue's ticket coalescing.
        """
        flight = self._flights.get(key)
        if flight is not None and flight.cancelled:
            # A doomed flight (cancel sent, worker not yet confirmed) must
            # not adopt a fresh client — it will only ever terminate
            # cancelled.  Start a new flight; the old one's cleanup is
            # identity-guarded, so overwriting the key is safe.
            flight = None
        if flight is None:
            flight = _Flight(key, message, priority)
            self._flights[key] = flight
            task = asyncio.create_task(self._fly(flight), name=f"repro-flight-{key[:8]}")
            self._flight_tasks.add(task)
            task.add_done_callback(self._flight_tasks.discard)
            self.flights_dispatched += 1
        else:
            self.flights_coalesced += 1
        flight.interested.append(ctx)
        ctx.flights.append(flight)
        return flight

    def _leave_flight(self, ctx: _JobContext, flight: _Flight) -> None:
        """Detach a (cancelled) client job; a flight nobody wants is cancelled."""
        if ctx in flight.interested:
            flight.interested.remove(ctx)
        if flight.interested or flight.future.done() or flight.cancelled:
            return
        flight.cancelled = True
        if flight.link is not None and flight.ticket is not None and flight.link.alive:
            cancel = asyncio.create_task(
                self._cancel_on_worker(flight.link, flight.ticket),
                name="repro-flight-cancel",
            )
            self._flight_tasks.add(cancel)
            cancel.add_done_callback(self._flight_tasks.discard)

    @staticmethod
    async def _cancel_on_worker(link: WorkerLink, ticket: str) -> None:
        with contextlib.suppress(Exception):
            await link.client.cancel(ticket)

    async def _fly(self, flight: _Flight) -> None:
        """Run one flight to a terminal state, walking survivors on death."""
        tried: set[str] = set()
        try:
            while True:
                live = [link.worker_id for link in self.live_links()]
                candidates = [
                    worker_id
                    for worker_id in rendezvous_rank(flight.key, live)
                    if worker_id not in tried
                ]
                if not candidates:
                    if live and flight.requeues < MAX_FLIGHT_REQUEUES:
                        # Every live id was already tried, but membership is
                        # elastic: a live link under a tried id is a *fresh*
                        # process the monitor respawned (or recycled) since.
                        # Give the monitor a beat and walk the rank again —
                        # the requeue cap bounds this, since every tried id
                        # corresponds to a dispatch that died.
                        tried.clear()
                        await asyncio.sleep(MONITOR_INTERVAL)
                        continue
                    raise ClusterError(
                        "no live workers left for this job "
                        f"({len(tried)} tried, {len(live)} alive, "
                        f"{flight.requeues} requeue(s))"
                    )
                worker_id = candidates[0]
                link = self.links[worker_id]
                tried.add(worker_id)
                try:
                    payload = await self._run_on(link, flight)
                except WorkerDied:
                    self.flights_requeued += 1
                    flight.requeues += 1
                    continue
                if not flight.future.done():
                    flight.future.set_result(payload)
                return
        except asyncio.CancelledError:
            if not flight.future.done():
                flight.future.set_exception(ClusterError("coordinator shutting down"))
            raise
        except BaseException as error:
            if not flight.future.done():
                flight.future.set_exception(error)
        finally:
            if self._flights.get(flight.key) is flight:
                del self._flights[flight.key]
            # A future nobody awaits anymore (all interested jobs cancelled)
            # must not warn about unretrieved exceptions.
            if flight.future.done() and not flight.interested:
                flight.future.exception()

    async def _run_on(self, link: WorkerLink, flight: _Flight) -> dict:
        """Execute a flight on one worker; returns the terminal ``done`` payload.

        Progress events stream back to every interested client job as they
        arrive.  Raises :class:`WorkerDied` when the link drops (requeue),
        :class:`_FlightFailed` on a genuine job failure, and
        :class:`SweepCancelled` when the flight was cancelled on the worker
        (because every interested client job cancelled).
        """
        link.dispatched += 1
        link.inflight += 1
        message = dict(flight.message)
        if flight.priority:
            message["priority"] = flight.priority
        try:
            async for event in link.client.stream(message):
                name = event.get("event")
                if name in ("queued", "running"):
                    flight.link = link
                    flight.ticket = event.get("ticket", flight.ticket)
                elif name == "progress":
                    flight.emit_progress(
                        {**event.get("progress", {}), "worker": link.worker_id}
                    )
                elif name == "done":
                    link.completed += 1
                    return event
                elif name == "cancelled":
                    raise SweepCancelled("cancelled on worker")
                elif name in ("failed", "error"):
                    error = event.get("error", "worker failure")
                    if not link.alive:
                        raise WorkerDied(f"worker {link.worker_id} died: {error}")
                    raise _FlightFailed(f"worker {link.worker_id}: {error}")
        finally:
            link.inflight -= 1
        # Stream ended without a terminal event: the connection is gone.
        raise WorkerDied(f"worker {link.worker_id} stream ended unexpectedly")

    # ---------------------------------------------------------------- execution
    async def _await_flight(self, ctx: _JobContext, flight: _Flight) -> dict:
        """Wait for a flight (or this job's cancellation, whichever first)."""
        cancel_wait = asyncio.ensure_future(ctx.cancelled.wait())
        try:
            done, _ = await asyncio.wait(
                {flight.future, cancel_wait}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            cancel_wait.cancel()
        if flight.future not in done:
            raise SweepCancelled("cancelled while awaiting a flight")
        payload = flight.future.result()  # raises the flight's failure if any
        # A flight shared across client jobs is credited to its initiator
        # only, so cluster totals never double-count one execution.
        if ctx is (flight.interested[0] if flight.interested else None):
            ctx.credit_flight(flight, payload)
        return payload

    @staticmethod
    def _planning_info(ctx: _JobContext) -> dict:
        """Additive payload section describing how the request was sharded.

        ``planned_units`` is the number of distinct simulation units the plan
        dispatched — on a cold cache with no worker deaths, the merged
        ``sweep.configs_simulated`` must equal it (each simulation performed
        exactly once cluster-wide); warm, both are zero.
        """
        return {
            "planned_units": ctx.planned_units,
            "planned_hits": ctx.planned_hits,
            "worker_execution_seconds": round(ctx.worker_execution_seconds, 6),
        }

    def _checkpoint(self, ctx: _JobContext) -> None:
        if ctx.cancelled.is_set() or ctx.token.cancelled:
            raise SweepCancelled("cluster job cancelled")

    @staticmethod
    def _overrides_wire(request) -> dict | None:
        overrides = {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in request.overrides
        }
        return overrides or None

    def _assembly_message(self, request, experiment: str) -> dict:
        # Assemblies outrank primitive flights (the flight carries
        # ``priority + 1``): their inputs are warm, so finishing them frees
        # client responses without delaying sweeps.
        message = {
            "op": "run_experiment",
            "experiment": experiment,
            "preset": request.preset,
            "seed": request.seed,
        }
        overrides = self._overrides_wire(request)
        if overrides:
            message["overrides"] = overrides
        return message

    async def _execute_cluster(self, request, session, token):
        """The coordinator's executor: plan, shard, dispatch, reassemble.

        Same contract as :func:`repro.serve.workers.execute_request` — returns
        ``(payload, stats_dict)``, raises :class:`SweepCancelled` when the
        client job was cancelled cooperatively.
        """
        loop = asyncio.get_running_loop()
        ctx = _JobContext(token)
        token.on_cancel = lambda: loop.call_soon_threadsafe(ctx.cancelled.set)
        try:
            if token.cancelled:
                raise SweepCancelled("cancelled before dispatch")
            if not self.live_links():
                raise ClusterError("no live workers")
            priority = self.queue._inflight.get(request.key(), None)
            priority = priority.priority if priority is not None else 0
            if isinstance(request, SimulateRequest):
                payload = await self._execute_passthrough(ctx, request, priority)
            elif isinstance(request, ExperimentRequest):
                payload = await self._execute_experiments(
                    ctx, request, [request.experiment], priority
                )
                payload = {
                    "kind": "experiment",
                    "experiment": payload[request.experiment],
                    "cluster": self._planning_info(ctx),
                }
            elif isinstance(request, RunAllRequest):
                from repro.experiments.runner import EXPERIMENTS

                results = await self._execute_experiments(
                    ctx, request, list(EXPERIMENTS), priority
                )
                payload = {
                    "kind": "run_all",
                    "experiments": results,
                    "cluster": self._planning_info(ctx),
                }
            else:  # pragma: no cover - parse_request guards this
                raise TypeError(f"unsupported request type {type(request).__name__}")
            return payload, ctx.stats.as_dict()
        except (SweepCancelled, asyncio.CancelledError):
            for flight in list(ctx.flights):
                self._leave_flight(ctx, flight)
            raise
        finally:
            token.on_cancel = None

    async def _execute_passthrough(self, ctx, request: SimulateRequest, priority: int) -> dict:
        """Route a single-network ``simulate`` request to its shard whole."""
        message = {
            "op": "simulate",
            "network": request.network,
            "variants": request.variants,
            "representation": request.representation,
            "encoding": request.encoding,
            "preset": request.preset,
            "seed": request.seed,
        }
        overrides = self._overrides_wire(request)
        if overrides:
            message["overrides"] = overrides
        flight = self._join_flight(ctx, request.key(), message, priority)
        terminal = await self._await_flight(ctx, flight)
        return terminal["result"]

    async def _execute_experiments(
        self, ctx, request, names: list[str], priority: int
    ) -> dict:
        """Shard one or many experiments: primitives first, then assemblies."""
        plan = await asyncio.to_thread(
            build_plan, names, request.resolved_preset(), request.seed, self.session
        )
        self._checkpoint(ctx)
        ctx.planned_hits = plan.planned_hits
        ctx.planned_units = sum(len(job.request.configs) for job in plan.simulations)
        dep_flights: dict[str, _Flight] = {}
        for job in plan.simulations:
            wire = SimulationJobRequest(job.request)
            dep_flights[job.job_id] = self._join_flight(
                ctx, wire.key(), wire.to_message(), priority
            )
        for job in plan.statistics:
            wire = StatisticsJobRequest(job.request)
            dep_flights[job.job_id] = self._join_flight(
                ctx, wire.key(), wire.to_message(), priority
            )

        async def assemble(exp_job) -> tuple[str, dict]:
            for dep in exp_job.deps:
                await self._await_flight(ctx, dep_flights[dep])
            self._checkpoint(ctx)
            message = self._assembly_message(request, exp_job.experiment)
            # Key the assembly by the equivalent single-experiment request, so
            # a run_all and a direct run_experiment of the same experiment
            # coalesce onto one assembly flight cluster-wide.
            assembly_key = ExperimentRequest(
                experiment=exp_job.experiment,
                preset=request.preset,
                seed=request.seed,
                overrides=request.overrides,
            ).key()
            flight = self._join_flight(ctx, assembly_key, message, priority + 1)
            terminal = await self._await_flight(ctx, flight)
            return exp_job.experiment, terminal["result"]["experiment"]

        results: dict[str, dict] = {}
        assemblies = [asyncio.ensure_future(assemble(job)) for job in plan.experiments]
        try:
            for index, pending in enumerate(assemblies):
                name, result = await pending
                results[name] = result
                if len(plan.experiments) > 1:
                    ctx.token.emit(
                        {
                            "stage": "experiment_done",
                            "experiment": name,
                            "completed": index + 1,
                            "total": len(plan.experiments),
                            "result": result,
                        }
                    )
        except BaseException:
            for pending in assemblies:
                pending.cancel()
            await asyncio.gather(*assemblies, return_exceptions=True)
            raise
        return {name: results[name] for name in names}

    # -------------------------------------------------------------------- stats
    def stats(self) -> dict:
        payload = super().stats()
        storage = self.session.spec
        trace_dir = storage.trace_directory()
        flight_joins = self.flights_dispatched + self.flights_coalesced
        payload["cluster"] = {
            "workers": [link.describe() for link in self.links.values()],
            "flights_dispatched": self.flights_dispatched,
            "flights_coalesced": self.flights_coalesced,
            "flights_requeued": self.flights_requeued,
            "flights_inflight": len(self._flights),
            "workers_lost": sum(1 for link in self.links.values() if not link.alive),
            "workers_respawned": self.workers_respawned,
            "workers_recycled": self.workers_recycled,
            "respawn_failures": self.respawn_failures,
            "max_jobs_per_worker": self.max_jobs_per_worker,
            "cache_backend": storage.cache_backend,
            "cache_dir": str(storage.cache_dir),
            "trace_dir": None if trace_dir is None else str(trace_dir),
            # Cluster-wide coalescing effectiveness: the queue-level section
            # (payload["coalescing"]) counts client tickets per client job;
            # this one counts planned jobs per executed flight.
            "coalescing": {
                "flight_joins": flight_joins,
                "flights_coalesced": self.flights_coalesced,
                "flights_executed": self.flights_dispatched,
                "hit_rate": round(self.flights_coalesced / flight_joins, 6)
                if flight_joins
                else 0.0,
            },
        }
        return payload

    async def cluster_stats(self) -> dict:
        """The ``stats`` payload plus live per-worker stats, merged.

        Queries every live worker's ``stats`` op and folds their lifetime
        ``RunStats`` into a ``fleet`` section: counters and per-process memo
        sizes sum, while a shared tier's disk gauges (the shared directory,
        the network cache) count once (see
        :class:`~repro.runtime.cache.CacheStats`).
        """
        payload = self.stats()
        fleet = RunStats()
        per_worker: dict[str, dict] = {}
        links = self.live_links()

        async def query(link: WorkerLink) -> dict | None:
            try:
                return await asyncio.wait_for(link.client.stats(), STATS_TIMEOUT)
            except Exception:
                return None  # a hung worker must not stall the stats op

        answers = await asyncio.gather(*(query(link) for link in links))
        for link, answer in zip(links, answers):
            if answer is None:
                continue
            stats = answer.get("stats", {})
            per_worker[link.worker_id] = stats
            fleet.merge(stats)
        payload["cluster"]["fleet"] = fleet.as_dict()
        payload["cluster"]["per_worker_stats"] = per_worker
        return payload

    async def handle_message(self, message, send, tickets=None, context=None) -> bool:
        # Intercept ``stats`` only for authenticated (or local) callers — the
        # base auth gate must keep rejecting everything else first, or an
        # unauthenticated connection could read fleet topology.
        authenticated = context is None or context.authenticated
        if message.get("op") == "stats" and authenticated:
            client_id = message.get("id")
            payload = await self.cluster_stats()
            send({"id": client_id, **payload} if client_id is not None else payload)
            return True
        return await super().handle_message(message, send, tickets=tickets, context=context)
