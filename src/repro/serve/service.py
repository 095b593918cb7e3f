"""The experiment-serving service: one warm session, many concurrent clients.

:class:`ExperimentService` owns a single long-lived
:class:`~repro.runtime.session.RuntimeSession` (shared ``ResultCache`` +
``TraceStore``), an async :class:`~repro.serve.queue.RequestQueue` and a
bounded :class:`~repro.serve.workers.WorkerPool`.  Clients reach it three
ways, all speaking the same typed requests:

* **in process** — ``await service.submit(request)`` / ``await service.wait``,
  used by tests and embedders;
* **TCP** — :meth:`ExperimentService.serve_tcp`, line-delimited JSON
  (:mod:`repro.serve.protocol`) for many concurrent remote clients;
* **stdio** — :meth:`ExperimentService.run_stdio`, the same protocol over
  stdin/stdout for single-operator and subprocess use.

The request lifecycle (``queued → running → done/failed/cancelled``,
coalescing, cooperative cancellation of running jobs, ``stream`` progress
events, background cache GC) is documented in ``docs/serving.md``; the
architecture map in ``docs/architecture.md`` places this layer at the top of
the stack.
"""

from __future__ import annotations

import asyncio
import contextlib
import hmac
import sys
from dataclasses import dataclass, field

from repro.runtime import RunStats, RuntimeSession
from repro.runtime.session import build_session
from repro.serve.protocol import (
    CONTROL_OPS,
    JOB_OPS,
    MAX_LINE_BYTES,
    ProtocolError,
    ServeRequest,
    decode,
    encode,
    parse_request,
    read_line,
)
from repro.serve.queue import RequestQueue, Ticket
from repro.serve.workers import WorkerPool

__all__ = ["ConnectionContext", "ExperimentService"]

#: Upper bound on flushing a closing connection's outbox (seconds).  A peer
#: that disconnected or stopped reading cannot hold the close path hostage.
CLOSE_DRAIN_TIMEOUT = 5.0


@dataclass
class ConnectionContext:
    """Per-connection state threaded through :meth:`ExperimentService.handle_message`.

    ``tickets`` collects the live jobs the connection submitted (disowned on
    disconnect).  ``authenticated`` starts ``False`` on TCP connections of a
    token-protected service and flips after a valid ``auth`` op; in-process
    and stdio callers are local operators and start authenticated.
    ``registered`` marks a worker-mode connection whose peer completed the
    ``register`` handshake (see ``docs/cluster.md``) and is therefore allowed
    to submit internal cluster job ops.
    """

    tickets: list[Ticket] = field(default_factory=list)
    authenticated: bool = True
    registered: bool = False
    peer: str = "local"

    @classmethod
    def local(cls) -> "ConnectionContext":
        """A fully-trusted context for in-process and stdio callers."""
        return cls(authenticated=True, registered=True)


class ExperimentService:
    """Async front-end serving experiment/simulation requests.

    Parameters
    ----------
    session:
        The session to serve from, made by
        :func:`~repro.runtime.session.build_session` (result cache + trace
        fabric).  ``None`` serves from a fresh memory-only session, still
        shared across every request of this service.
    workers:
        Bound on concurrently executing jobs.
    gc_interval:
        Period, in seconds, of the automatic background garbage collection of
        the shared disk cache.  ``None`` (default) disables the task; when
        set, at least one of ``gc_max_bytes``/``gc_max_age`` is required.
        The task only runs against a persistent cache.
    gc_max_bytes / gc_max_age:
        Bounds enforced by each background GC pass (LRU-first), exactly like
        the ``gc`` wire op and the ``--cache-gc`` CLI verb.
    auth_token:
        Optional shared secret.  When set, TCP connections must authenticate
        (``{"op": "auth", "token": ...}``, constant-time compare) before any
        other message reaches the queue; unauthenticated or wrong-token
        connections are closed.  Stdio and in-process callers are the local
        operator and are never challenged.
    executor:
        Override for how jobs execute (see :class:`~repro.serve.workers.WorkerPool`);
        the cluster coordinator substitutes its sharding dispatcher here.
    """

    #: Wire ops this service parses into queue jobs (subclasses may extend).
    job_ops: tuple[str, ...] = JOB_OPS

    def __init__(
        self,
        session: RuntimeSession | None = None,
        workers: int = 2,
        gc_interval: float | None = None,
        gc_max_bytes: int | None = None,
        gc_max_age: float | None = None,
        auth_token: str | None = None,
        executor=None,
    ) -> None:
        if session is None:
            session = build_session()
        self.session = session
        self.auth_token = auth_token
        self.queue = RequestQueue()
        self.queue.on_finish = self._on_job_finish
        self.pool = WorkerPool(self.queue, session, workers=workers, executor=executor)
        self.totals = RunStats()
        self._started = False
        self._shutdown = asyncio.Event()
        # Background GC of the shared disk cache (long-lived servers).
        if gc_interval is not None and gc_interval <= 0:
            raise ValueError("gc_interval must be positive")
        if gc_interval is not None and gc_max_bytes is None and gc_max_age is None:
            raise ValueError("background GC needs gc_max_bytes and/or gc_max_age")
        self.gc_interval = gc_interval
        self.gc_max_bytes = gc_max_bytes
        self.gc_max_age = gc_max_age
        self.gc_runs = 0
        self.gc_removed_entries = 0
        self._gc_task: asyncio.Task | None = None

    def _on_job_finish(self, job) -> None:
        """Fold one finished job's per-request counters into service totals."""
        if job.stats:
            self.totals.merge(job.stats)

    # ----------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Start the worker pool and the background GC task (idempotent)."""
        await self.pool.start()
        self._started = True
        if self.gc_interval is not None and self._gc_task is None and self.session.cache.persistent:
            self._gc_task = asyncio.create_task(
                self._gc_loop(), name="repro-serve-gc"
            )

    async def stop(self) -> None:
        """Stop the workers; queued jobs are abandoned."""
        if self._gc_task is not None:
            self._gc_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._gc_task
            self._gc_task = None
        if self._started:
            await self.pool.stop()
            self._started = False
        self._shutdown.set()

    async def _gc_loop(self) -> None:
        """Periodically collect the shared disk cache (LRU-first, bounded).

        GC does disk I/O, so each pass runs on a thread; a failing pass is
        logged into the error counter of the next ``stats`` reply rather than
        allowed to kill the loop.
        """
        while True:
            await asyncio.sleep(self.gc_interval)
            try:
                result = await asyncio.to_thread(
                    self.session.cache.gc,
                    max_bytes=self.gc_max_bytes,
                    max_age=self.gc_max_age,
                )
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - GC must never kill the server
                self.totals.cache.errors += 1
            else:
                self.gc_runs += 1
                self.gc_removed_entries += result.removed_entries

    async def __aenter__(self) -> "ExperimentService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def wait_shutdown(self) -> None:
        """Block until a ``shutdown`` op arrives (or :meth:`stop` is called).

        TCP front-ends await this instead of ``serve_forever`` so a client's
        ``shutdown`` request actually stops the server.
        """
        await self._shutdown.wait()

    # ----------------------------------------------------------------- requests
    async def submit(
        self, request: ServeRequest, on_event=None, on_progress=None, priority: int = 0
    ) -> Ticket:
        """Enqueue a typed request; returns its ticket immediately.

        ``on_progress(ticket, payload)`` — when given — receives every
        structured progress event the job's execution emits (per-layer,
        per-network, per-experiment), in order, before the terminal event.
        ``priority`` orders queued jobs (highest first, FIFO within a level);
        coalescing onto a queued job raises its priority when this one is
        higher.

        After :meth:`stop` the queue is stopping: the request is not enqueued
        (and the worker pool is *not* restarted) — the returned ticket fails
        immediately so the caller's wait resolves instead of hanging.
        """
        if not self._started and not self.queue.stopping:
            await self.start()
        return self.queue.submit(
            request, on_event=on_event, on_progress=on_progress, priority=priority
        )

    async def wait(self, ticket: Ticket) -> dict:
        """Wait for a ticket's job and return its terminal response payload."""
        await ticket.job.done.wait()
        return self.response(ticket)

    def response(self, ticket: Ticket) -> dict:
        """The terminal protocol payload of a finished (or cancelled) ticket."""
        job = ticket.job
        payload = {
            "event": ticket.state,
            "ticket": ticket.ticket_id,
            "coalesced": ticket.coalesced,
            "request": job.request.describe(),
        }
        if job.elapsed is not None:
            payload["elapsed_seconds"] = round(job.elapsed, 6)
        timings = job.timings()
        if timings is not None:
            payload["timings"] = timings
        if ticket.state == "done":
            payload["result"] = job.result
            payload["stats"] = job.stats
        elif ticket.state == "failed":
            payload["error"] = job.error
        return payload

    # ----------------------------------------------------------------- control
    def status(self, ticket_id: str) -> dict:
        ticket = self.queue.get(ticket_id)
        if ticket is None:
            return {"event": "error", "error": f"unknown ticket {ticket_id!r}"}
        return {
            "event": "status",
            "ticket": ticket.ticket_id,
            "state": ticket.state,
            "coalesced": ticket.coalesced,
            "request": ticket.job.request.describe(),
        }

    def cancel(self, ticket_id: str) -> dict:
        try:
            changed, state = self.queue.cancel(ticket_id)
        except KeyError as error:
            return {"event": "error", "error": str(error)}
        return {"event": "cancelled", "ticket": ticket_id, "changed": changed, "state": state}

    def stats(self) -> dict:
        cache = self.session.cache
        usage = cache.usage()
        # Lifetime counters plus the cache's current state gauges; the
        # trace-fabric counters live on the shared artifact store (per-job
        # views report 0 for them), so they fold in at their lifetime values.
        totals = RunStats(cache=cache.gauges())
        totals.merge(self.totals)
        artifacts = self.session.traces.artifacts
        trace_cache = None
        if artifacts is not None:
            totals.merge(artifacts.counters())
            trace_cache = artifacts.usage()
        return {
            "event": "stats",
            "stats": totals.as_dict(),
            "queue": self.queue.depth(),
            "coalescing": self.coalescing_stats(),
            "cache_dir": usage["directory"],
            "cache_entries": usage["entries"],
            "cache": usage,
            "traces": len(self.session.traces),
            "trace_cache": trace_cache,
            "workers": self.pool.workers,
            "background_gc": (
                None
                if self.gc_interval is None
                else {
                    "interval_seconds": self.gc_interval,
                    "max_bytes": self.gc_max_bytes,
                    "max_age_seconds": self.gc_max_age,
                    "runs": self.gc_runs,
                    "removed_entries": self.gc_removed_entries,
                }
            ),
        }

    def coalescing_stats(self) -> dict:
        """Coalescing effectiveness since service start (the ``stats`` op).

        ``tickets_attached`` counts every submitted client request,
        ``jobs_executed`` the executions actually performed for them
        (completed + failed + interrupted-while-running); the difference is
        work the coalescer absorbed.  ``hit_rate`` is the fraction of tickets
        that attached to an already-in-flight job.
        """
        depth = self.queue.depth()
        attached = depth["submitted"]
        coalesced = depth["coalesced"]
        return {
            "tickets_attached": attached,
            "tickets_coalesced": coalesced,
            "jobs_executed": depth["completed"] + depth["failed"] + depth["interrupted"],
            "hit_rate": round(coalesced / attached, 6) if attached else 0.0,
        }

    def collect_garbage(self, max_bytes: int | None = None, max_age: float | None = None) -> dict:
        """Garbage-collect the shared disk cache (the ``gc`` op)."""
        cache = self.session.cache
        if not cache.persistent:
            return {"event": "error", "error": "no disk cache to garbage-collect"}
        result = cache.gc(max_bytes=max_bytes, max_age=max_age)
        return {
            "event": "gc",
            "removed_entries": result.removed_entries,
            "removed_bytes": result.removed_bytes,
            "remaining_entries": result.remaining_entries,
            "remaining_bytes": result.remaining_bytes,
        }

    def list_experiments(self) -> dict:
        from repro.experiments.base import PRESETS
        from repro.experiments.runner import EXPERIMENTS, experiment_description

        return {
            "event": "experiments",
            "experiments": [
                {"name": name, "description": experiment_description(name)}
                for name in EXPERIMENTS
            ],
            "presets": sorted(PRESETS),
        }

    # ----------------------------------------------------------------- protocol
    def parse_job(self, message: dict) -> ServeRequest:
        """Parse a job-submitting message into a typed request.

        Subclasses extending :attr:`job_ops` (the cluster worker mode)
        override this to parse their additional ops.
        """
        return parse_request(message)

    def check_auth(self, message: dict) -> bool:
        """Whether an ``auth`` op's token matches (constant-time compare)."""
        token = message.get("token")
        if self.auth_token is None:
            return True
        if not isinstance(token, str):
            return False
        return hmac.compare_digest(token.encode("utf-8"), self.auth_token.encode("utf-8"))

    async def handle_message(
        self, message: dict, send, tickets: list | None = None,
        context: ConnectionContext | None = None,
    ) -> bool:
        """Dispatch one decoded protocol message; ``False`` requests shutdown.

        ``send`` is a callable taking one response dict; job lifecycle events
        are delivered through it as they happen.  A job op with a truthy
        ``stream`` field additionally receives one ``progress`` event per
        structured progress report, before the terminal event.  ``context``
        carries per-connection state (auth, registration, submitted tickets);
        in-process callers may omit it (fully trusted) or pass the legacy
        ``tickets`` list to collect live jobs for disconnect disowning.
        """
        if context is None:
            context = ConnectionContext.local()
            if tickets is not None:
                context.tickets = tickets
        client_id = message.get("id")

        def reply(payload: dict) -> None:
            if client_id is not None:
                payload = {"id": client_id, **payload}
            send(payload)

        op = message.get("op")
        if not context.authenticated:
            # Nothing — not even ping — reaches the queue before auth.
            if op != "auth":
                reply({"event": "error", "error": "authentication required"})
                return False
            if not self.check_auth(message):
                reply({"event": "error", "error": "invalid auth token"})
                return False
            context.authenticated = True
            reply({"event": "authenticated"})
            return True
        if op == "auth":
            # Authenticating an already-trusted connection (or a service
            # without a token) is a harmless no-op handshake.
            if not self.check_auth(message):
                reply({"event": "error", "error": "invalid auth token"})
                return False
            reply({"event": "authenticated"})
        elif op == "ping":
            reply({"event": "pong"})
        elif op == "list":
            reply(self.list_experiments())
        elif op == "stats":
            reply(self.stats())
        elif op == "gc":
            bounds = {}
            for name in ("max_bytes", "max_age"):
                value = message.get(name)
                if value is not None and (
                    not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0
                ):
                    reply({"event": "error", "error": f"{name} must be a non-negative number"})
                    return True
                bounds[name] = value
            reply(self.collect_garbage(**bounds))
        elif op == "status":
            reply(self.status(str(message.get("ticket", ""))))
        elif op == "cancel":
            reply(self.cancel(str(message.get("ticket", ""))))
        elif op == "shutdown":
            reply({"event": "shutdown"})
            self._shutdown.set()  # wakes wait_shutdown() (TCP front-ends)
            return False
        elif op in self.job_ops:
            priority = message.get("priority", 0)
            if not isinstance(priority, int) or isinstance(priority, bool):
                reply({"event": "error", "error": "priority must be an integer"})
                return True
            try:
                request = self.parse_job(message)
            except ProtocolError as error:
                reply({"event": "error", "error": str(error)})
                return True

            def on_event(ticket: Ticket, event: str) -> None:
                if event in ("done", "failed", "cancelled"):
                    reply(self.response(ticket))
                else:
                    reply(
                        {
                            "event": event,
                            "ticket": ticket.ticket_id,
                            "coalesced": ticket.coalesced,
                        }
                    )

            on_progress = None
            if message.get("stream"):

                def on_progress(ticket: Ticket, payload: dict) -> None:
                    reply(
                        {
                            "event": "progress",
                            "ticket": ticket.ticket_id,
                            "progress": payload,
                        }
                    )

            ticket = await self.submit(
                request, on_event=on_event, on_progress=on_progress, priority=priority
            )
            # Drop tickets that already reached a terminal state so a
            # long-lived connection doesn't pin every result payload it
            # ever received (only live jobs need disowning on disconnect).
            context.tickets[:] = [t for t in context.tickets if not t.retired]
            context.tickets.append(ticket)
        else:
            reply(
                {
                    "event": "error",
                    "error": f"unknown op {op!r}; ops: {', '.join(self.job_ops + CONTROL_OPS)}",
                }
            )
        return True

    def _disown_connection_tickets(self, tickets: list[Ticket]) -> None:
        """Detach a dead connection from every job it submitted.

        Without this, the per-ticket event callbacks keep appending to the
        closed connection's outbox for as long as their jobs live — a slow
        leak in a long-lived server.  Each ticket is neutralized and then
        cancelled: a sole-ticket job is dropped (queued) or cooperatively
        interrupted (running); a job shared with other connections keeps
        running and only this connection's ticket detaches.
        """
        for ticket in tickets:
            ticket.on_event = None
            ticket.on_progress = None
            if ticket.cancelled or ticket.job.state in ("done", "failed", "cancelled"):
                continue
            with contextlib.suppress(KeyError):
                self.queue.cancel(ticket.ticket_id)

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one TCP client: JSON lines in, event lines out.

        On a token-protected service the connection starts unauthenticated:
        the first message must be a valid ``auth`` op, and anything else
        closes the connection before it can touch the queue.
        """
        outbox: asyncio.Queue[dict | None] = asyncio.Queue()
        peername = writer.get_extra_info("peername")
        context = ConnectionContext(
            authenticated=self.auth_token is None,
            peer=str(peername) if peername else "tcp",
        )
        tickets = context.tickets

        async def drain_outbox() -> None:
            while True:
                payload = await outbox.get()
                if payload is None:
                    break
                writer.write(encode(payload))
                try:
                    await writer.drain()
                except (ConnectionError, RuntimeError):
                    break

        sender = asyncio.create_task(drain_outbox())
        try:
            while True:
                try:
                    line = await read_line(reader)
                    if not line:
                        break
                    if not line.strip():
                        continue
                    message = decode(line)
                except ProtocolError as error:
                    outbox.put_nowait({"event": "error", "error": str(error)})
                    continue
                if not await self.handle_message(
                    message, outbox.put_nowait, context=context
                ):
                    break
        except asyncio.CancelledError:
            pass  # server shutting down mid-connection; fall through to cleanup
        finally:
            self._disown_connection_tickets(tickets)
            outbox.put_nowait(None)
            # Bound the final drain: a peer that stopped reading must not be
            # able to hang connection close on writer.drain() forever.
            # wait_for cancels the sender on timeout.
            with contextlib.suppress(asyncio.TimeoutError, asyncio.CancelledError):
                await asyncio.wait_for(sender, timeout=CLOSE_DRAIN_TIMEOUT)
            writer.close()
            with contextlib.suppress(ConnectionError, OSError, asyncio.CancelledError):
                await writer.wait_closed()

    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0) -> asyncio.Server:
        """Listen for protocol connections; returns the (started) server."""
        await self.start()
        return await asyncio.start_server(
            self.handle_connection, host, port, limit=MAX_LINE_BYTES
        )

    async def run_stdio(self, stdin=None, stdout=None) -> None:
        """Speak the protocol over stdin/stdout until EOF or ``shutdown``."""
        stdin = stdin if stdin is not None else sys.stdin
        stdout = stdout if stdout is not None else sys.stdout
        await self.start()
        loop = asyncio.get_running_loop()
        # Stdio is the local operator: trusted, never challenged for a token.
        context = ConnectionContext.local()

        def send(payload: dict) -> None:
            stdout.write(encode(payload).decode("utf-8"))
            stdout.flush()

        while True:
            line = await loop.run_in_executor(None, stdin.readline)
            if not line:
                break
            if not line.strip():
                continue
            try:
                message = decode(line)
            except ProtocolError as error:
                send({"event": "error", "error": str(error)})
                continue
            if not await self.handle_message(message, send, context=context):
                break
        await self.stop()
