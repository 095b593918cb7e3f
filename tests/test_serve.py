"""Tests for the serving layer: protocol, queue, service, concurrency.

The serving contract: many concurrent clients share one warm session;
identical in-flight requests coalesce onto one job; per-request ``RunStats``
counters prove exactly how much work each answer cost (a warm-cache answer
reports ``simulated 0 configs``).
"""

import asyncio
import io
import json
from dataclasses import dataclass

import pytest

from repro.serve import (
    ExperimentRequest,
    ExperimentService,
    ProtocolError,
    RunAllRequest,
    ServeClient,
    SimulateRequest,
    parse_request,
)
from repro.runtime.session import SessionSpec, build_session
from repro.serve.cli import main as serve_main
from repro.serve.protocol import MAX_LINE_BYTES, decode, encode
from repro.serve.queue import RequestQueue

#: Tiny fast-preset override so served simulations take seconds.
TINY = {"networks": ["alexnet"], "max_pallets": 2, "samples_per_layer": 1500}


def run(coro):
    return asyncio.run(coro)


# --------------------------------------------------------------------- protocol
class TestProtocol:
    def test_parse_run_experiment(self):
        request = parse_request(
            {"op": "run_experiment", "experiment": "fig9", "preset": "smoke", "seed": 3}
        )
        assert isinstance(request, ExperimentRequest)
        assert request.experiment == "fig9"
        assert request.resolved_preset().name == "smoke"

    def test_parse_rejects_unknowns(self):
        with pytest.raises(ProtocolError):
            parse_request({"op": "run_experiment", "experiment": "fig99"})
        with pytest.raises(ProtocolError):
            parse_request({"op": "run_experiment", "experiment": "fig9", "preset": "huge"})
        with pytest.raises(ProtocolError):
            parse_request({"op": "explode"})
        with pytest.raises(ProtocolError):
            parse_request({"op": "simulate"})  # missing network
        with pytest.raises(ProtocolError):
            parse_request(
                {"op": "simulate", "network": "alexnet", "variants": "fig99"}
            )

    def test_overrides_validated_and_canonicalized(self):
        base = {"op": "run_experiment", "experiment": "fig9"}
        with pytest.raises(ProtocolError):
            parse_request({**base, "overrides": {"pallets": 2}})
        with pytest.raises(ProtocolError):
            parse_request({**base, "overrides": {"max_pallets": 0}})
        with pytest.raises(ProtocolError):
            parse_request({**base, "overrides": {"networks": "alexnet"}})
        a = parse_request({**base, "overrides": {"max_pallets": 2, "networks": ["alexnet"]}})
        b = parse_request({**base, "overrides": {"networks": ["alexnet"], "max_pallets": 2}})
        assert a == b  # key order canonicalized
        assert a.resolved_preset().max_pallets == 2
        assert a.resolved_preset().networks == ("alexnet",)

    def test_request_keys_dedup_identical_content(self):
        message = {"op": "run_experiment", "experiment": "fig9", "preset": "fast"}
        assert parse_request(message).key() == parse_request(dict(message)).key()
        assert (
            parse_request(message).key()
            != parse_request({**message, "seed": 1}).key()
        )
        assert (
            parse_request(message).key()
            != parse_request({**message, "experiment": "fig10"}).key()
        )

    def test_run_all_and_simulate_parse(self):
        assert isinstance(parse_request({"op": "run_all", "preset": "smoke"}), RunAllRequest)
        simulate = parse_request({"op": "simulate", "network": "alexnet"})
        assert isinstance(simulate, SimulateRequest)
        assert len(simulate.simulation_request().configs) == 5  # fig9 variants

    def test_simulate_encoding_field(self):
        """The encoding param is validated at the protocol edge and applied
        to every config of the chosen variant group."""
        request = parse_request(
            {"op": "simulate", "network": "alexnet", "encoding": "csd"}
        )
        assert isinstance(request, SimulateRequest)
        assert request.encoding == "csd"
        for _, config in request.simulation_request().configs:
            assert config.encoding == "csd"
        # Unknown encodings and junk values are rejected eagerly, before the
        # request ever reaches the queue.
        with pytest.raises(ProtocolError):
            parse_request(
                {"op": "simulate", "network": "alexnet", "encoding": "gray-code"}
            )
        with pytest.raises(ProtocolError):
            parse_request({"op": "simulate", "network": "alexnet", "encoding": ""})
        with pytest.raises(ProtocolError):
            parse_request({"op": "simulate", "network": "alexnet", "encoding": 7})

    def test_simulate_encodings_variant_group(self):
        """variants=encodings spans the registry; combining it with a pinned
        non-default encoding is contradictory and rejected."""
        from repro.numerics.encodings import encoding_names

        request = parse_request(
            {"op": "simulate", "network": "alexnet", "variants": "encodings"}
        )
        configs = request.simulation_request().configs
        assert tuple(name for name, _ in configs) == encoding_names()
        with pytest.raises(ProtocolError, match="spans every encoding"):
            parse_request(
                {
                    "op": "simulate",
                    "network": "alexnet",
                    "variants": "encodings",
                    "encoding": "csd",
                }
            )

    def test_simulate_keys_differ_per_encoding(self):
        message = {"op": "simulate", "network": "alexnet"}
        assert (
            parse_request(message).key()
            != parse_request({**message, "encoding": "hese"}).key()
        )
        # Explicit positional is the default: same key, same coalescing.
        assert (
            parse_request(message).key()
            == parse_request({**message, "encoding": "positional"}).key()
        )

    def test_encode_decode_round_trip(self):
        message = {"id": "c1", "op": "ping"}
        line = encode(message)
        assert line.endswith(b"\n")
        assert decode(line) == message
        with pytest.raises(ProtocolError):
            decode(b"not json\n")
        with pytest.raises(ProtocolError):
            decode(b"[1, 2]\n")


# ------------------------------------------------------------------------ queue
@dataclass(frozen=True)
class StubRequest:
    """Queue-only request: a fixed key and description."""

    name: str

    def key(self) -> str:
        return f"stub:{self.name}"

    def describe(self) -> str:
        return f"stub {self.name}"


class TestRequestQueue:
    def test_identical_inflight_requests_share_one_job(self):
        async def scenario():
            queue = RequestQueue()
            first = queue.submit(StubRequest("a"))
            second = queue.submit(StubRequest("a"))
            third = queue.submit(StubRequest("b"))
            assert first.job is second.job
            assert not first.coalesced and second.coalesced
            assert third.job is not first.job
            assert queue.depth()["submitted"] == 3
            assert queue.depth()["coalesced"] == 1
            # Only two jobs were actually enqueued.
            assert await queue.next_job() is first.job
            assert await queue.next_job() is third.job

        run(scenario())

    def test_finished_jobs_do_not_coalesce_new_requests(self):
        async def scenario():
            queue = RequestQueue()
            first = queue.submit(StubRequest("a"))
            job = await queue.next_job()
            queue.mark_running(job)
            queue.finish(job, result={"ok": 1}, stats={})
            again = queue.submit(StubRequest("a"))
            assert again.job is not first.job
            assert not again.coalesced

        run(scenario())

    def test_cancelling_the_only_ticket_drops_a_queued_job(self):
        async def scenario():
            queue = RequestQueue()
            ticket = queue.submit(StubRequest("a"))
            survivor = queue.submit(StubRequest("b"))
            changed, state = queue.cancel(ticket.ticket_id)
            assert changed and state == "cancelled"
            assert ticket.job.state == "cancelled"
            # next_job skips the cancelled job entirely.
            assert await queue.next_job() is survivor.job

        run(scenario())

    def test_cancelling_one_of_two_tickets_keeps_the_job(self):
        async def scenario():
            queue = RequestQueue()
            first = queue.submit(StubRequest("a"))
            second = queue.submit(StubRequest("a"))
            queue.cancel(second.ticket_id)
            assert first.job.state == "queued"
            assert second.state == "cancelled"
            job = await queue.next_job()
            queue.mark_running(job)
            queue.finish(job, result={}, stats={})
            assert first.state == "done"
            assert second.state == "cancelled"

        run(scenario())

    def test_unknown_ticket_raises(self):
        queue = RequestQueue()
        with pytest.raises(KeyError):
            queue.cancel("t999")

    def test_stop_abandons_the_backlog_instead_of_draining_it(self):
        async def scenario():
            queue = RequestQueue()
            first = queue.submit(StubRequest("a"))
            second = queue.submit(StubRequest("b"))
            queue.stop_workers(1)
            # Workers get None immediately; the backlog is not executed.
            assert await queue.next_job() is None
            assert queue.abandon_pending() == 2
            for ticket in (first, second):
                assert ticket.state == "failed"
                assert "service stopped" in ticket.job.error
                assert ticket.job.done.is_set()

        run(scenario())

    def test_submit_on_a_stopping_queue_fails_fast(self):
        # Regression: a submission after stop_workers()/abandon_pending() was
        # enqueued behind drained workers and its ticket hung forever.
        async def scenario():
            queue = RequestQueue()
            queue.stop_workers(1)
            queue.abandon_pending()
            events = []
            ticket = queue.submit(
                StubRequest("late"), on_event=lambda t, event: events.append(event)
            )
            assert ticket.state == "failed"
            assert ticket.job.done.is_set()  # waiters resolve immediately
            assert "rejected" in ticket.job.error
            assert events == ["failed"]
            assert queue.depth()["failed"] == 1
            assert queue.depth()["queued"] == 0  # nothing was enqueued
            # Workers woken afterwards still see the stop sentinel.
            assert await queue.next_job() is None

        run(scenario())

    def test_cancelling_last_ticket_of_running_job_cancels_its_token(self):
        async def scenario():
            queue = RequestQueue()
            ticket = queue.submit(StubRequest("a"))
            job = await queue.next_job()
            queue.mark_running(job)
            changed, state = queue.cancel(ticket.ticket_id)
            assert changed and state == "cancelled"
            # The job is doomed but still unwinding on its worker thread —
            # and still counted as running (it occupies real capacity).
            assert job.token.cancelled
            assert job.state == "running"
            assert queue.depth()["running"] == 1
            # An identical request submitted now starts fresh instead of
            # coalescing onto the job that will never produce a result.
            again = queue.submit(StubRequest("a"))
            assert again.job is not job and not again.coalesced
            # The worker observes the checkpoint and reports the interruption.
            queue.finish(job, error="cancelled at a cooperative checkpoint", cancelled=True)
            assert job.state == "cancelled"
            assert job.done.is_set()
            assert queue.depth()["interrupted"] == 1
            assert queue.depth()["running"] == 0  # worker capacity released
            # finish() must not evict the *fresh* job from the in-flight index.
            assert (await queue.next_job()) is again.job

        run(scenario())

    def test_cancelling_one_of_two_running_tickets_detaches_only(self):
        async def scenario():
            queue = RequestQueue()
            first = queue.submit(StubRequest("a"))
            second = queue.submit(StubRequest("a"))
            job = await queue.next_job()
            queue.mark_running(job)
            queue.cancel(second.ticket_id)
            assert not job.token.cancelled  # a live ticket still wants the result
            queue.finish(job, result={}, stats={})
            assert first.state == "done"
            assert second.state == "cancelled"
            assert queue.depth()["interrupted"] == 0

        run(scenario())

    def test_progress_fans_out_to_streaming_live_tickets_only(self):
        async def scenario():
            queue = RequestQueue()
            got = []
            streaming = queue.submit(
                StubRequest("a"), on_progress=lambda t, p: got.append(("s", p))
            )
            queue.submit(StubRequest("a"))  # no on_progress: never notified
            doomed = queue.submit(
                StubRequest("a"), on_progress=lambda t, p: got.append(("d", p))
            )
            job = await queue.next_job()
            queue.mark_running(job)
            queue.cancel(doomed.ticket_id)  # detaches: stops receiving progress
            queue.deliver_progress(job, {"stage": "layer", "index": 0})
            assert got == [("s", {"stage": "layer", "index": 0})]
            queue.finish(job, result={}, stats={})
            queue.deliver_progress(job, {"stage": "layer", "index": 1})
            assert len(got) == 1  # post-terminal events are dropped
            assert streaming.state == "done"

        run(scenario())

    def test_finished_tickets_are_evicted_beyond_the_history_bound(self, monkeypatch):
        # A long-lived server must not retain every result payload forever.
        import repro.serve.queue as queue_module

        monkeypatch.setattr(queue_module, "FINISHED_TICKET_HISTORY", 3)

        async def scenario():
            queue = RequestQueue()
            tickets = []
            for index in range(5):
                ticket = queue.submit(StubRequest(str(index)))
                tickets.append(ticket)
                job = await queue.next_job()
                queue.mark_running(job)
                queue.finish(job, result={"payload": index}, stats={})
            # Only the 3 most recent finished tickets remain resolvable.
            assert queue.get(tickets[0].ticket_id) is None
            assert queue.get(tickets[1].ticket_id) is None
            for ticket in tickets[2:]:
                assert queue.get(ticket.ticket_id) is ticket
            # Held Ticket objects keep working regardless of eviction.
            assert tickets[0].state == "done"

        run(scenario())


# ------------------------------------------------------------------ priorities
class TestRequestQueuePriorities:
    def test_pops_highest_priority_then_fifo(self):
        async def scenario():
            queue = RequestQueue()
            queue.submit(StubRequest("low"))
            queue.submit(StubRequest("high"), priority=5)
            queue.submit(StubRequest("mid-a"), priority=1)
            queue.submit(StubRequest("mid-b"), priority=1)
            order = [(await queue.next_job()).request.name for _ in range(4)]
            assert order == ["high", "mid-a", "mid-b", "low"]

        run(scenario())

    def test_default_priority_preserves_fifo(self):
        async def scenario():
            queue = RequestQueue()
            for name in ("a", "b", "c"):
                queue.submit(StubRequest(name))
            order = [(await queue.next_job()).request.name for _ in range(3)]
            assert order == ["a", "b", "c"]

        run(scenario())

    def test_coalesced_ticket_raises_pending_job_priority(self):
        async def scenario():
            queue = RequestQueue()
            first = queue.submit(StubRequest("a"))
            queue.submit(StubRequest("b"))
            # A second client wants "a" urgently: same job, higher priority.
            boost = queue.submit(StubRequest("a"), priority=10)
            assert boost.coalesced and boost.job is first.job
            assert first.job.priority == 10
            order = [(await queue.next_job()).request.name for _ in range(2)]
            assert order == ["a", "b"]  # "a" jumped the line
            assert queue.coalesced == 1  # coalescing semantics preserved

        run(scenario())

    def test_coalescing_never_lowers_priority(self):
        async def scenario():
            queue = RequestQueue()
            urgent = queue.submit(StubRequest("a"), priority=10)
            lazy = queue.submit(StubRequest("a"), priority=1)
            assert lazy.job is urgent.job
            assert urgent.job.priority == 10

        run(scenario())

    def test_stale_heap_entries_are_skipped(self):
        async def scenario():
            queue = RequestQueue()
            ticket = queue.submit(StubRequest("a"))
            queue.submit(StubRequest("a"), priority=3)
            queue.submit(StubRequest("a"), priority=7)  # two raises → 3 entries
            job = await queue.next_job()
            assert job is ticket.job
            queue.mark_running(job)
            queue.finish(job, result={}, stats={})
            # The two stale entries must not resurface the finished job.
            follow = queue.submit(StubRequest("b"))
            assert (await queue.next_job()) is follow.job

        run(scenario())

    def test_priority_field_validated_on_the_wire(self, tmp_path):
        async def scenario():
            service = ExperimentService(workers=1)
            sent = []
            await service.handle_message(
                {"op": "run_experiment", "experiment": "table3", "priority": "high"},
                sent.append,
            )
            assert "priority must be an integer" in sent[-1]["error"]
            await service.stop()

        run(scenario())


# ------------------------------------------------------------------------ auth
class TestServeAuth:
    def test_tcp_requires_token_before_anything(self):
        async def scenario():
            service = ExperimentService(workers=1, auth_token="s3cret")
            async with service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    # No token: the first non-auth op closes the connection
                    # before it can reach the queue.
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                    writer.write(encode({"id": "c1", "op": "ping"}))
                    await writer.drain()
                    line = await reader.readline()
                    assert decode(line)["error"] == "authentication required"
                    assert await reader.readline() == b""  # connection closed
                    writer.close()
                    assert service.queue.submitted == 0
                    # Wrong token: rejected and closed (constant-time compare).
                    with pytest.raises(PermissionError):
                        await ServeClient.connect(
                            "127.0.0.1", port, auth_token="wrong"
                        )
                    # Right token: full service.
                    client = await ServeClient.connect(
                        "127.0.0.1", port, auth_token="s3cret"
                    )
                    try:
                        assert await client.ping()
                        response = await client.run_experiment("table3", preset="smoke")
                        assert response.ok
                    finally:
                        await client.close()

        run(scenario())

    def test_tokenless_service_never_challenges(self):
        async def scenario():
            service = ExperimentService(workers=1)
            async with service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    client = await ServeClient.connect("127.0.0.1", port)
                    try:
                        assert await client.ping()
                        listing = await client.list_experiments()
                        names = [entry["name"] for entry in listing["experiments"]]
                        assert "fig9" in names
                        # Explicit auth against a tokenless server is a no-op.
                        await client.auth("anything")
                    finally:
                        await client.close()

        run(scenario())

    def test_in_process_and_stdio_are_trusted(self):
        async def scenario():
            service = ExperimentService(workers=1, auth_token="s3cret")
            sent = []
            # In-process handle_message without a context is the trusted path.
            await service.handle_message({"op": "ping"}, sent.append)
            assert sent[-1]["event"] == "pong"
            await service.stop()

        run(scenario())


# ----------------------------------------------------------------- stats views
class TestStatsViews:
    def test_cache_view_counts_corruption_errors(self, tmp_path):
        from repro.runtime.cache import ResultCache
        from repro.serve.workers import _CacheView

        seed = ResultCache(directory=tmp_path)
        seed.put("deadbeef", {"x": 1})
        (tmp_path / "deadbeef.json.gz").write_text("garbage", encoding="utf-8")
        # Fresh inner cache (no in-process memo) behind a per-request view.
        view = _CacheView(ResultCache(directory=tmp_path))
        assert view.get("deadbeef") is None
        assert view.stats.errors == 1  # corruption recovery is visible per request
        assert view.stats.misses == 1

    def test_trace_view_counts_builds_exactly_once(self):
        from repro.runtime import TraceStore, TraceSpec
        from repro.serve.workers import _TraceView

        store = TraceStore()
        spec = TraceSpec(network="alexnet")
        first, second = _TraceView(store), _TraceView(store)
        first.get(spec)
        second.get(spec)
        assert (first.builds, first.reuses) == (1, 0)
        assert (second.builds, second.reuses) == (0, 1)
        assert (store.builds, store.reuses) == (1, 1)


# ---------------------------------------------------------------------- service
class TestServiceInProcess:
    def test_submit_wait_round_trip(self):
        async def scenario():
            async with ExperimentService(workers=1) as service:
                ticket = await service.submit(ExperimentRequest("table3", preset="smoke"))
                response = await service.wait(ticket)
                assert response["event"] == "done"
                assert response["result"]["kind"] == "experiment"
                assert response["result"]["experiment"]["experiment"] == "table3"
                assert "stats" in response
                assert service.queue.depth()["completed"] == 1

        run(scenario())

    def test_failed_jobs_report_the_error(self):
        async def scenario():
            async with ExperimentService(workers=1) as service:
                # Parses fine, but the network does not exist: fails at run time.
                ticket = await service.submit(
                    SimulateRequest(network="resnet9000", preset="smoke")
                )
                response = await service.wait(ticket)
                assert response["event"] == "failed"
                assert "resnet9000" in response["error"]
                assert service.queue.depth()["failed"] == 1

        run(scenario())

    def test_stats_and_listing_ops(self):
        async def scenario():
            async with ExperimentService(workers=1) as service:
                listing = service.list_experiments()
                names = [entry["name"] for entry in listing["experiments"]]
                assert "fig9" in names and "table1" in names
                ticket = await service.submit(ExperimentRequest("table4", preset="smoke"))
                await service.wait(ticket)
                stats = service.stats()
                assert stats["queue"]["completed"] == 1
                assert stats["workers"] == 1
                # The richer cache section is always present (memory mode here).
                assert stats["cache"]["memo_entries"] >= 0
                assert stats["cache"]["disk_bytes"] == 0
                assert stats["cache"]["directory"] is None

        run(scenario())

    def test_stats_op_reports_manifest_backed_disk_usage(self, tmp_path):
        async def scenario():
            session = build_session(SessionSpec(cache_dir=tmp_path))
            async with ExperimentService(session=session, workers=1) as service:
                service.session.cache.put("deadbeef", {"x": 1})
                stats = service.stats()
                assert stats["cache_dir"] == str(tmp_path)
                assert stats["cache_entries"] == 1
                assert stats["cache"]["entries"] == 1
                assert stats["cache"]["disk_bytes"] > 0
                assert stats["cache"]["memo_entries"] == 1
                assert stats["cache"]["oldest_age_seconds"] is not None

        run(scenario())

    def test_gc_op_collects_the_shared_disk_cache(self, tmp_path):
        async def scenario():
            session = build_session(SessionSpec(cache_dir=tmp_path))
            async with ExperimentService(session=session, workers=1) as service:
                service.session.cache.put("deadbeef", {"x": 1})
                sent = []
                keep = await service.handle_message({"op": "gc"}, sent.append)
                assert keep and sent[-1]["event"] == "gc"
                assert sent[-1]["removed_entries"] == 0  # no bounds: no-op
                await service.handle_message({"op": "gc", "max_bytes": 0}, sent.append)
                assert sent[-1]["event"] == "gc"
                assert sent[-1]["removed_entries"] == 1
                assert sent[-1]["remaining_bytes"] == 0
                assert len(service.session.cache) == 0
                await service.handle_message({"op": "gc", "max_bytes": -3}, sent.append)
                assert sent[-1]["event"] == "error"

        run(scenario())

    def test_gc_op_without_a_disk_cache_is_an_error(self):
        async def scenario():
            async with ExperimentService(workers=1) as service:
                sent = []
                await service.handle_message({"op": "gc", "max_bytes": 0}, sent.append)
                assert sent[-1]["event"] == "error"
                assert "no disk cache" in sent[-1]["error"]

        run(scenario())

    def test_submit_after_stop_fails_fast_instead_of_hanging(self):
        # Regression: ServeService.submit ignored queue.stopping, restarted
        # the pool, and the late ticket hung with no worker to fail it.
        async def scenario():
            service = ExperimentService(workers=1)
            await service.start()
            await service.stop()
            ticket = await service.submit(ExperimentRequest("table3", preset="smoke"))
            response = await asyncio.wait_for(service.wait(ticket), timeout=5)
            assert response["event"] == "failed"
            assert "rejected" in response["error"]
            assert not service._started  # the pool was not restarted

        run(scenario())


# ------------------------------------------------------------------ concurrency
class TestConcurrentServing:
    def test_identical_concurrent_requests_coalesce_to_one_execution(self):
        async def scenario():
            async with ExperimentService(workers=2) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    clients = [await ServeClient.connect("127.0.0.1", port) for _ in range(3)]
                    responses = await asyncio.gather(
                        *[
                            client.run_experiment("fig9", preset="fast", overrides=TINY)
                            for client in clients
                        ]
                    )
                    assert all(response.ok for response in responses)
                    assert sorted(r.coalesced for r in responses) == [False, True, True]
                    # One execution: its 5 simulated configs are reported to
                    # every ticket of the coalesced job, and the server-side
                    # totals confirm nothing ran twice.
                    assert {r.stats.sweep.configs_simulated for r in responses} == {5}
                    assert len({r.ticket for r in responses}) == 3  # tickets stay distinct
                    stats = await clients[0].stats()
                    assert stats["queue"]["submitted"] == 3
                    assert stats["queue"]["coalesced"] == 2
                    assert stats["queue"]["completed"] == 1
                    assert stats["stats"]["sweep"]["configs_simulated"] == 5
                    for client in clients:
                        await client.close()

        run(scenario())

    def test_overlapping_design_points_simulate_exactly_once(self):
        async def scenario():
            # workers=1 keeps execution serial so the cache (not luck) carries
            # the overlap between *different* request types.
            async with ExperimentService(workers=1) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    clients = [await ServeClient.connect("127.0.0.1", port) for _ in range(4)]
                    responses = await asyncio.gather(
                        clients[0].run_experiment("fig9", preset="fast", overrides=TINY),
                        clients[1].run_experiment("fig9", preset="fast", overrides=TINY),
                        clients[2].simulate(
                            "alexnet", variants="fig9", preset="fast",
                            overrides={"max_pallets": 2},
                        ),
                        clients[3].simulate(
                            "alexnet", variants="fig9", preset="fast",
                            overrides={"max_pallets": 2},
                        ),
                    )
                    assert all(response.ok for response in responses)
                    # fig9 over alexnet needs 5 design points; the simulate op
                    # requests the same 5 units.  Each identical pair coalesced
                    # onto one job, and whichever unique job ran second found
                    # the first one's entries: across the run, each unique
                    # simulation ran exactly once.
                    executed = [r for r in responses if not r.coalesced]
                    assert len(executed) == 2
                    total = sum(r.stats.sweep.configs_simulated for r in executed)
                    assert total == 5
                    stats = await clients[0].stats()
                    assert stats["stats"]["sweep"]["configs_simulated"] == 5
                    assert stats["queue"]["coalesced"] == 2  # one per identical pair
                    for client in clients:
                        await client.close()

        run(scenario())

    @pytest.mark.slow
    def test_warm_server_answers_concurrent_fig9_fast_without_recompute(self, tmp_path):
        """Acceptance: two concurrent identical ``fig9 --preset fast`` requests
        against a warm-cache server cost exactly one cached, zero-recompute
        simulation pass, proven by the RunStats counters in the responses."""

        async def scenario():
            session = build_session(SessionSpec(cache_dir=tmp_path))
            async with ExperimentService(session=session, workers=2) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    client = await ServeClient.connect("127.0.0.1", port)
                    other = await ServeClient.connect("127.0.0.1", port)
                    # Warm the shared cache through the server itself.
                    cold = await client.run_experiment("fig9", preset="fast")
                    assert cold.ok and cold.stats.sweep.configs_simulated > 0
                    # Two concurrent identical requests: one job, zero recompute.
                    a, b = await asyncio.gather(
                        client.run_experiment("fig9", preset="fast"),
                        other.run_experiment("fig9", preset="fast"),
                    )
                    assert a.ok and b.ok
                    assert sorted((a.coalesced, b.coalesced)) == [False, True]
                    for response in (a, b):
                        assert response.stats.sweep.configs_simulated == 0
                        assert response.stats.cache.misses == 0
                        assert response.stats.cache.hits > 0
                    assert a.result == cold.result == b.result
                    stats = await client.stats()
                    assert stats["queue"]["submitted"] == 3
                    assert stats["queue"]["completed"] == 2  # cold + one warm job
                    await client.close()
                    await other.close()

        run(scenario())


# -------------------------------------------------------- cancellation/streaming
#: Two-network tiny workload for streaming acceptance tests.
TINY2 = {"networks": ["alexnet", "vgg_m"], "max_pallets": 2, "samples_per_layer": 1500}


class TestRunningCancellation:
    def test_cancel_running_sole_ticket_frees_worker_before_completion(self):
        """Acceptance: cancelling the only ticket of a running multi-network
        job frees its worker before the job would have finished — proven by
        event ordering: the interrupted job saw only a fraction of its
        experiments, and a job submitted *after* the cancel completes on the
        single worker."""

        async def scenario():
            async with ExperimentService(workers=1) as service:
                events = []
                first_progress = asyncio.Event()

                def on_event(ticket, event):
                    events.append(("slow", event))

                def on_progress(ticket, payload):
                    events.append(("slow", f"progress:{payload['stage']}"))
                    first_progress.set()

                request = parse_request(
                    {"op": "run_all", "preset": "fast", "overrides": TINY2}
                )
                ticket = await service.submit(
                    request, on_event=on_event, on_progress=on_progress
                )
                await asyncio.wait_for(first_progress.wait(), timeout=60)
                response = service.cancel(ticket.ticket_id)
                assert response["event"] == "cancelled" and response["changed"]
                assert ticket.job.token.cancelled
                # The worker observes the next cooperative checkpoint and frees up.
                await asyncio.wait_for(ticket.job.done.wait(), timeout=60)
                assert ticket.job.state == "cancelled"
                assert service.queue.depth()["interrupted"] == 1
                # Far fewer experiments completed than run_all executes in full.
                done_experiments = [
                    e for e in events if e[1] == "progress:experiment_done"
                ]
                from repro.experiments.runner import EXPERIMENTS

                assert len(done_experiments) < len(EXPERIMENTS)
                # The freed worker picks up new work submitted after the cancel.
                quick = await service.submit(
                    ExperimentRequest("table3", preset="smoke"),
                    on_event=lambda t, e: events.append(("quick", e)),
                )
                result = await asyncio.wait_for(service.wait(quick), timeout=60)
                assert result["event"] == "done"
                # Wire-order: the slow job's cancelled strictly precedes the
                # quick job's done.
                assert events.index(("slow", "cancelled")) < events.index(
                    ("quick", "done")
                )
                assert ("slow", "done") not in events

        run(scenario())

    def test_cancel_with_surviving_coalesced_ticket_keeps_job_running(self):
        async def scenario():
            async with ExperimentService(workers=1) as service:
                running = asyncio.Event()
                message = {
                    "op": "run_experiment",
                    "experiment": "fig9",
                    "preset": "fast",
                    "overrides": TINY,
                }
                first = await service.submit(
                    parse_request(message),
                    on_event=lambda t, e: running.set() if e == "running" else None,
                )
                second = await service.submit(parse_request(dict(message)))
                assert second.job is first.job and second.coalesced
                await asyncio.wait_for(running.wait(), timeout=30)
                changed, state = service.queue.cancel(second.ticket_id)
                assert changed and state == "cancelled"
                # Detach-only: a live ticket still wants the result.
                assert not first.job.token.cancelled
                response = await asyncio.wait_for(service.wait(first), timeout=60)
                assert response["event"] == "done"
                assert response["stats"]["sweep"]["configs_simulated"] == 5
                assert second.state == "cancelled"
                assert service.queue.depth()["interrupted"] == 0

        run(scenario())

    def test_cancel_then_result_ordering_on_the_wire(self):
        """After the terminal ``cancelled`` event, nothing else arrives for
        that request id — in particular no late ``done`` once the worker
        unwinds."""

        async def scenario():
            async with ExperimentService(workers=1) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    client = await ServeClient.connect("127.0.0.1", port)
                    events = []
                    ticket_id = None
                    async for event in client.stream_run_all(
                        preset="fast", overrides=TINY2
                    ):
                        events.append(event["event"])
                        if event["event"] == "progress" and ticket_id is None:
                            ticket_id = event["ticket"]
                            ack = await client.cancel(ticket_id)
                            assert ack["event"] == "cancelled" and ack["changed"]
                    assert events[-1] == "cancelled"
                    assert "done" not in events and "failed" not in events
                    # Wait out the worker's unwind, then prove no stray event
                    # arrived for the cancelled request: ping round-trips on
                    # the same ordered connection.
                    ticket = service.queue.get(ticket_id)
                    await asyncio.wait_for(ticket.job.done.wait(), timeout=60)
                    assert ticket.job.state == "cancelled"
                    assert await client.ping()
                    # The cooperative cancellation freed the only worker: a
                    # real request on the same connection completes.
                    follow_up = await asyncio.wait_for(
                        client.run_experiment("table3", preset="smoke"), timeout=60
                    )
                    assert follow_up.ok, follow_up.error
                    await client.close()

        run(scenario())


class TestStreaming:
    def test_stream_run_all_yields_progress_per_network_before_done(self):
        """Acceptance: a ``stream: true`` run_all emits at least one progress
        event per network before the terminal done."""

        async def scenario():
            async with ExperimentService(workers=1) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    client = await ServeClient.connect("127.0.0.1", port)
                    events = []
                    async for event in client.stream_run_all(
                        preset="fast", overrides=TINY2
                    ):
                        events.append(event)
                    assert events[-1]["event"] == "done"
                    progress = [e for e in events if e["event"] == "progress"]
                    assert progress, "no progress events on a streamed run_all"
                    networks = {
                        e["progress"].get("network")
                        for e in progress
                        if e["progress"]["stage"] in ("network", "layer", "statistics")
                    }
                    assert {"alexnet", "vgg_m"} <= networks
                    # Partial results stream per completed experiment.
                    partials = [
                        e["progress"]
                        for e in progress
                        if e["progress"]["stage"] == "experiment_done"
                    ]
                    assert partials and all("result" in p for p in partials)
                    assert events.index(
                        next(e for e in events if e["event"] == "progress")
                    ) < events.index(events[-1])
                    await client.close()

        run(scenario())

    def test_unstreamed_requests_receive_no_progress_events(self):
        async def scenario():
            async with ExperimentService(workers=1) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    client = await ServeClient.connect("127.0.0.1", port)
                    response = await client.run_experiment(
                        "fig9", preset="fast", overrides=TINY
                    )
                    assert response.ok
                    assert "progress" not in response.events
                    await client.close()

        run(scenario())

    def test_stream_events_interleave_cleanly_under_two_clients(self):
        async def scenario():
            async with ExperimentService(workers=2) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    one = await ServeClient.connect("127.0.0.1", port)
                    two = await ServeClient.connect("127.0.0.1", port)

                    async def consume(stream):
                        return [event async for event in stream]

                    first, second = await asyncio.gather(
                        consume(one.stream_experiment("fig9", overrides=TINY)),
                        consume(two.stream_experiment("fig10", overrides=TINY)),
                    )
                    # Per-network progress reaches the client before done.
                    assert any(
                        e["event"] == "progress"
                        and e["progress"].get("stage") == "network"
                        and e["progress"].get("network") == "alexnet"
                        for e in first
                    )
                    tickets = set()
                    for events in (first, second):
                        assert events[-1]["event"] == "done"
                        progress = [e for e in events if e["event"] == "progress"]
                        assert progress  # both streams saw incremental events
                        # Every event of one stream belongs to exactly one job.
                        own = {e["ticket"] for e in events if "ticket" in e}
                        assert len(own) == 1
                        tickets |= own
                    assert len(tickets) == 2  # no cross-talk between clients
                    await one.close()
                    await two.close()

        run(scenario())


# ------------------------------------------------------------------ line limit
class TestLineLimit:
    def test_oversize_lines_are_refused_and_the_connection_survives(self):
        """A line over MAX_LINE_BYTES gets an ``error`` and the connection
        keeps serving; requests and replies over asyncio's 64 KiB default
        stream limit get through."""
        big_result = {"blob": "x" * (200 * 1024)}

        def executor(request, session, token):
            return big_result, {}

        async def scenario():
            service = ExperimentService(workers=1, executor=executor)
            async with service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                    oversize = b'{"id": "big", "op": "ping", "pad": "'
                    writer.write(oversize + b"x" * MAX_LINE_BYTES + b'"}\n')
                    writer.write(encode({"id": "p1", "op": "ping", "pad": "y" * 100_000}))
                    await writer.drain()
                    refused = decode(await reader.readline())
                    assert refused["event"] == "error"
                    assert str(MAX_LINE_BYTES) in refused["error"]
                    assert decode(await reader.readline()) == {"id": "p1", "event": "pong"}
                    writer.close()
                    client = await ServeClient.connect("127.0.0.1", port)
                    try:
                        response = await client.run_experiment("table3", preset="smoke")
                        assert response.ok, response.error
                        assert response.result == big_result
                    finally:
                        await client.close()

        run(scenario())


# ------------------------------------------------------------------ disconnects
class TestDisconnectCleanup:
    def test_disconnect_cancels_sole_ticket_running_job_and_frees_worker(self):
        async def scenario():
            async with ExperimentService(workers=1) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                    writer.write(
                        encode(
                            {
                                "id": "c1",
                                "op": "run_all",
                                "preset": "fast",
                                "overrides": TINY2,
                                "stream": True,
                            }
                        )
                    )
                    await writer.drain()
                    ticket_id = None
                    while True:
                        payload = decode(await asyncio.wait_for(reader.readline(), 30))
                        if payload["event"] == "queued":
                            ticket_id = payload["ticket"]
                        if payload["event"] == "progress":
                            break  # the job is demonstrably mid-execution
                    ticket = service.queue.get(ticket_id)
                    writer.close()  # abrupt disconnect, no cancel op sent
                    # The server disowns the connection: callbacks neutralized,
                    # the sole-ticket job cooperatively cancelled, worker freed.
                    await asyncio.wait_for(ticket.job.done.wait(), timeout=60)
                    assert ticket.job.state == "cancelled"
                    assert ticket.on_event is None and ticket.on_progress is None
                    assert service.queue.depth()["interrupted"] == 1
                    follow_up = await service.submit(
                        ExperimentRequest("table3", preset="smoke")
                    )
                    result = await asyncio.wait_for(service.wait(follow_up), timeout=60)
                    assert result["event"] == "done"

        run(scenario())

    def test_connection_ticket_list_drops_finished_tickets(self):
        # Regression: the per-connection disown list must not pin every
        # finished job's result payload for the connection's lifetime.
        async def scenario():
            async with ExperimentService(workers=1) as service:
                sent: list = []
                tickets: list = []
                for seed in (0, 1, 2):
                    await service.handle_message(
                        {
                            "op": "run_experiment",
                            "experiment": "table3",
                            "preset": "smoke",
                            "seed": seed,
                        },
                        sent.append,
                        tickets,
                    )
                    await asyncio.wait_for(tickets[-1].job.done.wait(), timeout=30)
                # Each new submission pruned the finished predecessors.
                assert len(tickets) == 1
                assert [e["event"] for e in sent].count("done") == 3

        run(scenario())

    def test_disconnect_detaches_but_keeps_jobs_shared_with_others(self):
        async def scenario():
            async with ExperimentService(workers=1) as service:
                running = asyncio.Event()
                message = {
                    "op": "run_experiment",
                    "experiment": "fig9",
                    "preset": "fast",
                    "overrides": TINY,
                }
                survivor = await service.submit(
                    parse_request(message),
                    on_event=lambda t, e: running.set() if e == "running" else None,
                )
                # A second "connection" submits the identical request...
                sent: list = []
                tickets: list = []
                await service.handle_message(
                    {**message, "id": "c9"}, sent.append, tickets
                )
                assert len(tickets) == 1 and tickets[0].job is survivor.job
                await asyncio.wait_for(running.wait(), timeout=30)
                # ... then dies.  Its ticket detaches; the shared job survives.
                service._disown_connection_tickets(tickets)
                assert tickets[0].cancelled
                assert not survivor.job.token.cancelled
                response = await asyncio.wait_for(service.wait(survivor), timeout=60)
                assert response["event"] == "done"

        run(scenario())


# ---------------------------------------------------------------- background GC
class TestBackgroundGC:
    def test_gc_task_collects_the_disk_cache_periodically(self, tmp_path):
        async def scenario():
            service = ExperimentService(
                session=build_session(SessionSpec(cache_dir=tmp_path)),
                workers=1,
                gc_interval=0.05,
                gc_max_bytes=0,
            )
            async with service:
                service.session.cache.put("deadbeef", {"x": 1})
                assert len(service.session.cache) == 1
                for _ in range(100):
                    await asyncio.sleep(0.05)
                    if service.gc_runs and len(service.session.cache) == 0:
                        break
                assert service.gc_runs >= 1
                assert service.gc_removed_entries >= 1
                assert len(service.session.cache) == 0
                stats = service.stats()
                assert stats["background_gc"]["runs"] >= 1
                assert stats["background_gc"]["max_bytes"] == 0
            assert service._gc_task is None  # stop() tears the task down

        run(scenario())

    def test_gc_configuration_is_validated(self, tmp_path):
        session = build_session(SessionSpec(cache_dir=tmp_path))
        with pytest.raises(ValueError):
            ExperimentService(session=session, gc_interval=60)  # no bounds
        with pytest.raises(ValueError):
            ExperimentService(session=session, gc_interval=0, gc_max_bytes=1)

    def test_gc_task_not_started_without_a_disk_cache(self):
        async def scenario():
            service = ExperimentService(workers=1, gc_interval=0.05, gc_max_bytes=0)
            async with service:
                assert service._gc_task is None  # memory cache: nothing to collect
                stats = service.stats()
                assert stats["background_gc"]["runs"] == 0

        run(scenario())


# ---------------------------------------------------------------------- fronts
class TestFrontEnds:
    def test_stdio_protocol_round_trip(self):
        lines = [
            {"id": "1", "op": "ping"},
            {"id": "2", "op": "run_experiment", "experiment": "table3", "preset": "smoke"},
            {"op": "shutdown"},
        ]
        stdin = io.StringIO("".join(json.dumps(line) + "\n" for line in lines))
        stdout = io.StringIO()

        async def scenario():
            service = ExperimentService(workers=1)
            await service.run_stdio(stdin=stdin, stdout=stdout)

        run(scenario())
        events = [json.loads(line) for line in stdout.getvalue().splitlines()]
        by_id = {}
        for event in events:
            by_id.setdefault(event.get("id"), []).append(event["event"])
        assert by_id["1"] == ["pong"]
        assert by_id["2"] == ["queued", "running", "done"]
        assert by_id[None] == ["shutdown"]
        done = [e for e in events if e["event"] == "done"][0]
        assert done["result"]["experiment"]["experiment"] == "table3"

    def test_cli_rejects_bad_arguments(self):
        with pytest.raises(SystemExit):
            serve_main(["--workers", "0", "--stdio"])
        with pytest.raises(SystemExit):
            serve_main(["--tcp", "nonsense"])
        with pytest.raises(SystemExit):
            serve_main(["--gc-interval", "60"])  # needs a GC bound
        with pytest.raises(SystemExit):
            serve_main(["--gc-interval", "0", "--gc-max-bytes", "1"])
        with pytest.raises(SystemExit):
            serve_main(["--gc-interval", "60", "--gc-max-bytes", "1", "--no-cache"])

    def test_shutdown_op_stops_a_tcp_server(self):
        async def scenario():
            async with ExperimentService(workers=1) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    client = await ServeClient.connect("127.0.0.1", port)
                    await client.shutdown()
                    # The front-end's wait returns promptly after the op.
                    await asyncio.wait_for(service.wait_shutdown(), timeout=5)
                    await client.close()

        run(scenario())

    def test_client_waiters_fail_fast_when_the_connection_dies(self):
        async def scenario():
            async with ExperimentService(workers=1) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    # Pin the only worker with a long multi-experiment job so
                    # the client's request is still queued when its connection
                    # dies (single experiments finish too fast to race against).
                    running = asyncio.Event()
                    blocker = await service.submit(
                        parse_request(
                            {"op": "run_all", "preset": "fast", "overrides": TINY2}
                        ),
                        on_event=lambda t, e: running.set() if e == "running" else None,
                    )
                    await asyncio.wait_for(running.wait(), timeout=30)
                    client = await ServeClient.connect("127.0.0.1", port)
                    waiter = asyncio.create_task(
                        client.run_experiment("fig9", preset="fast", overrides=TINY)
                    )
                    await asyncio.sleep(0.1)  # request in flight (queued)
                    server.close()  # kill the transport under the client
                    client._writer.transport.abort()
                    response = await asyncio.wait_for(waiter, timeout=10)
                    assert not response.ok
                    assert response.error == "connection closed"
                    await client.close()
                    service.cancel(blocker.ticket_id)

        run(scenario())
