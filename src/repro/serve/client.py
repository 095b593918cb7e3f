"""Async TCP client for the ``repro serve`` protocol.

:class:`ServeClient` multiplexes any number of concurrent requests over one
connection: each request gets a client-side correlation id, a background
reader task routes incoming event lines by that id, and the awaiting
coroutine collects lifecycle events until the terminal one arrives.  The
terminal event is returned as a :class:`ServeResponse` whose ``stats`` is a
real :class:`~repro.runtime.session.RunStats` (rebuilt from the wire dict via
``RunStats.merge``), so callers can assert cache/sweep counters directly.
:meth:`ServeClient.stream` (and the ``stream_experiment``/``stream_run_all``
helpers) instead expose a job as an async iterator of events, including the
incremental ``progress`` reports of a ``stream: true`` request — see
``examples/serve_client.py`` and ``docs/serving.md``.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field

from repro.runtime import RunStats
from repro.serve.protocol import MAX_LINE_BYTES, ProtocolError, decode, encode

__all__ = ["ServeResponse", "ServeClient"]


@dataclass
class ServeResponse:
    """Terminal outcome of one served request."""

    state: str  # "done" | "failed" | "cancelled"
    ticket: str | None
    coalesced: bool
    result: dict | None
    stats: RunStats
    error: str | None = None
    elapsed_seconds: float | None = None
    #: Server-side wall-clock breakdown (queue-wait / execution / total), when
    #: the server reported one (see ``Job.timings`` in ``repro.serve.queue``).
    timings: dict | None = None
    events: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.state == "done"


def _response_from(payload: dict, events: list[str]) -> ServeResponse:
    stats = RunStats()
    stats.merge(payload.get("stats", {}))
    return ServeResponse(
        state=payload.get("event", "failed"),
        ticket=payload.get("ticket"),
        coalesced=bool(payload.get("coalesced", False)),
        result=payload.get("result"),
        stats=stats,
        error=payload.get("error"),
        elapsed_seconds=payload.get("elapsed_seconds"),
        timings=payload.get("timings"),
        events=events,
    )


class ServeClient:
    """One protocol connection; safe for concurrent requests via ``gather``."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._counter = itertools.count(1)
        self._routes: dict[str, asyncio.Queue[dict]] = {}
        #: Set once the connection is gone (EOF, reset, reader error).  The
        #: cluster coordinator watches this to detect worker death.
        self.closed = asyncio.Event()
        self._reader_task = asyncio.create_task(self._read_loop(), name="repro-serve-client")

    @classmethod
    async def connect(
        cls, host: str = "127.0.0.1", port: int = 0, auth_token: str | None = None
    ) -> "ServeClient":
        """Open a connection, authenticating first when ``auth_token`` is given."""
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_LINE_BYTES
        )
        client = cls(reader, writer)
        if auth_token is not None:
            try:
                await client.auth(auth_token)
            except BaseException:
                await client.close()
                raise
        return client

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    payload = decode(line)
                except ProtocolError:
                    continue  # skip garbage (e.g. a truncated final line)
                route = self._routes.get(str(payload.get("id")))
                if route is not None:
                    route.put_nowait(payload)
        finally:
            # Connection gone (EOF, reset, or reader error): unblock every
            # waiter with a synthetic failure instead of hanging forever.
            self.closed.set()
            for route in self._routes.values():
                route.put_nowait({"event": "failed", "error": "connection closed"})

    async def _send(self, message: dict) -> tuple[str, asyncio.Queue]:
        client_id = f"c{next(self._counter)}"
        route: asyncio.Queue[dict] = asyncio.Queue()
        self._routes[client_id] = route
        self._writer.write(encode({"id": client_id, **message}))
        await self._writer.drain()
        return client_id, route

    async def _roundtrip(self, message: dict) -> dict:
        """Send a control op and return its single response."""
        client_id, route = await self._send(message)
        payload = await route.get()
        self._routes.pop(client_id, None)
        return payload

    async def job(self, message: dict, on_event=None) -> ServeResponse:
        """Send any job-op message and await its terminal event.

        The typed helpers below build on this; the cluster coordinator uses
        it directly for internal worker ops.
        """
        return await self._job(message, on_event=on_event)

    async def _job(self, message: dict, on_event=None) -> ServeResponse:
        """Send a job op and await its terminal event."""
        client_id, route = await self._send(message)
        events: list[str] = []
        try:
            while True:
                payload = await route.get()
                event = payload.get("event", "")
                events.append(event)
                if on_event is not None:
                    on_event(payload)
                if event in ("done", "failed", "cancelled", "error"):
                    if event == "error":
                        return ServeResponse(
                            state="failed",
                            ticket=None,
                            coalesced=False,
                            result=None,
                            stats=RunStats(),
                            error=payload.get("error"),
                            events=events,
                        )
                    return _response_from(payload, events)
        finally:
            self._routes.pop(client_id, None)

    # ---------------------------------------------------------------- streaming
    async def stream(self, message: dict):
        """Submit a job op with ``stream: true``; async-iterate its events.

        Yields every event payload for the request in order — ``queued``,
        ``running``, any number of ``progress`` events (each carrying the
        structured report under ``"progress"`` and the ticket id under
        ``"ticket"``), then exactly one terminal ``done``/``failed``/
        ``cancelled``/``error`` — and stops after the terminal event.  Pass
        the ticket id of an event to :meth:`cancel` to cancel mid-stream::

            async for event in client.stream({"op": "run_all", "preset": "fast"}):
                if event["event"] == "progress":
                    print(event["progress"])
        """
        client_id, route = await self._send({**message, "stream": True})
        try:
            while True:
                payload = await route.get()
                yield payload
                if payload.get("event") in ("done", "failed", "cancelled", "error"):
                    return
        finally:
            self._routes.pop(client_id, None)

    def stream_experiment(
        self, experiment: str, preset: str = "fast", seed: int = 0, overrides: dict | None = None
    ):
        """Async iterator over one ``run_experiment`` job's event stream."""
        message = {"op": "run_experiment", "experiment": experiment, "preset": preset, "seed": seed}
        if overrides:
            message["overrides"] = overrides
        return self.stream(message)

    def stream_run_all(
        self, preset: str = "fast", seed: int = 0, overrides: dict | None = None
    ):
        """Async iterator over one ``run_all`` job's event stream."""
        message = {"op": "run_all", "preset": preset, "seed": seed}
        if overrides:
            message["overrides"] = overrides
        return self.stream(message)

    # ------------------------------------------------------------------ job ops
    async def run_experiment(
        self,
        experiment: str,
        preset: str = "fast",
        seed: int = 0,
        overrides: dict | None = None,
        on_event=None,
        priority: int = 0,
    ) -> ServeResponse:
        message = {"op": "run_experiment", "experiment": experiment, "preset": preset, "seed": seed}
        if overrides:
            message["overrides"] = overrides
        if priority:
            message["priority"] = priority
        return await self._job(message, on_event=on_event)

    async def run_all(
        self,
        preset: str = "fast",
        seed: int = 0,
        overrides: dict | None = None,
        on_event=None,
        priority: int = 0,
    ) -> ServeResponse:
        message = {"op": "run_all", "preset": preset, "seed": seed}
        if overrides:
            message["overrides"] = overrides
        if priority:
            message["priority"] = priority
        return await self._job(message, on_event=on_event)

    async def simulate(
        self,
        network: str,
        variants: str = "fig9",
        representation: str = "fixed16",
        encoding: str = "positional",
        preset: str = "fast",
        seed: int = 0,
        overrides: dict | None = None,
        on_event=None,
        priority: int = 0,
    ) -> ServeResponse:
        message = {
            "op": "simulate",
            "network": network,
            "variants": variants,
            "representation": representation,
            "encoding": encoding,
            "preset": preset,
            "seed": seed,
        }
        if overrides:
            message["overrides"] = overrides
        if priority:
            message["priority"] = priority
        return await self._job(message, on_event=on_event)

    # -------------------------------------------------------------- control ops
    async def auth(self, token: str) -> None:
        """Authenticate this connection; raises ``PermissionError`` on rejection."""
        payload = await self._roundtrip({"op": "auth", "token": token})
        if payload.get("event") != "authenticated":
            raise PermissionError(payload.get("error", "authentication failed"))

    async def ping(self) -> bool:
        return (await self._roundtrip({"op": "ping"})).get("event") == "pong"

    async def stats(self) -> dict:
        return await self._roundtrip({"op": "stats"})

    async def gc(self, max_bytes: int | None = None, max_age: float | None = None) -> dict:
        """Garbage-collect the server's disk cache (LRU-first, bounded)."""
        message: dict = {"op": "gc"}
        if max_bytes is not None:
            message["max_bytes"] = max_bytes
        if max_age is not None:
            message["max_age"] = max_age
        return await self._roundtrip(message)

    async def list_experiments(self) -> dict:
        return await self._roundtrip({"op": "list"})

    async def status(self, ticket: str) -> dict:
        return await self._roundtrip({"op": "status", "ticket": ticket})

    async def cancel(self, ticket: str) -> dict:
        return await self._roundtrip({"op": "cancel", "ticket": ticket})

    async def shutdown(self) -> None:
        """Ask the server to shut down (also closes this connection)."""
        try:
            await self._roundtrip({"op": "shutdown"})
        finally:
            await self.close()

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
