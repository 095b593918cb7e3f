"""Tests for repro.cluster: routing, wire codec, worker mode, coordinator.

The end-to-end tests run a real coordinator against *in-process* worker
services connected over loopback TCP — separate ``WorkerService`` instances
with separate sessions sharing one ``SharedDirectoryBackend`` directory, the
exact topology of a local cluster minus the subprocess spawn (which
``python -m pytest tests/e2e -q`` exercises with real worker processes and a
real mid-run kill).
"""

import asyncio
import json

import pytest

from repro.cluster import (
    ClusterService,
    SimulationJobRequest,
    StatisticsJobRequest,
    WorkerService,
    parse_internal_request,
    rendezvous_owner,
    rendezvous_rank,
)
from repro.cluster.plan import (
    simulation_request_from_wire,
    simulation_request_to_wire,
    statistics_request_from_wire,
    statistics_request_to_wire,
)
from repro.core.variants import fig9_variants
from repro.experiments.base import get_preset
from repro.runtime import (
    ResultCache,
    SimulationRequest,
    StatisticsRequest,
    SessionSpec,
    TraceSpec,
    build_session,
)
from repro.serve.protocol import ExperimentRequest, ProtocolError
from repro.serve.service import ConnectionContext

#: Tiny fast-preset override so cluster simulations take seconds.
TINY = {"networks": ["alexnet"], "max_pallets": 2, "samples_per_layer": 1500}

TOKEN = "cluster-test-token"


def run(coro):
    return asyncio.run(coro)


# ------------------------------------------------------------------- rendezvous
class TestRendezvousHashing:
    def test_deterministic_and_complete(self):
        members = [f"w{i}" for i in range(5)]
        ranked = rendezvous_rank("some-content-key", members)
        assert sorted(ranked) == sorted(members)
        assert ranked == rendezvous_rank("some-content-key", members)
        assert rendezvous_owner("some-content-key", members) == ranked[0]

    def test_distributes_keys(self):
        members = ["w0", "w1", "w2"]
        owners = {rendezvous_owner(f"key-{i}", members) for i in range(64)}
        assert owners == set(members)  # every worker owns something

    def test_minimal_disruption_on_member_loss(self):
        """Removing one member only moves the keys that member owned."""
        members = ["w0", "w1", "w2", "w3"]
        keys = [f"key-{i}" for i in range(128)]
        before = {key: rendezvous_owner(key, members) for key in keys}
        survivors = [m for m in members if m != "w1"]
        for key in keys:
            after = rendezvous_owner(key, survivors)
            if before[key] != "w1":
                assert after == before[key]  # unaffected keys keep their shard
            else:
                assert after in survivors

    def test_empty_membership_rejected(self):
        with pytest.raises(ValueError):
            rendezvous_owner("key", [])


# ------------------------------------------------------------------- wire codec
class TestPlanWireCodec:
    def _simulation_request(self):
        preset = get_preset("smoke")
        return SimulationRequest(
            trace=TraceSpec(network="alexnet", precisions=(9, 8, 5)),
            configs=tuple(fig9_variants().items()),
            sampling=preset.sampling(),
        )

    def test_simulation_round_trip_preserves_cache_keys(self):
        request = self._simulation_request()
        wire = json.loads(json.dumps(simulation_request_to_wire(request)))
        rebuilt = simulation_request_from_wire(wire)
        assert rebuilt == request
        assert rebuilt.keys() == request.keys()  # byte-identical fingerprints

    def test_encoding_round_trips_and_defaults(self):
        """Non-default encodings survive the wire; old wire payloads that
        predate the field decode as positional."""
        from repro.core.variants import encoding_variants

        preset = get_preset("smoke")
        request = SimulationRequest(
            trace=TraceSpec(network="alexnet"),
            configs=tuple(encoding_variants().items()),
            sampling=preset.sampling(),
        )
        wire = json.loads(json.dumps(simulation_request_to_wire(request)))
        rebuilt = simulation_request_from_wire(wire)
        assert rebuilt == request
        assert rebuilt.keys() == request.keys()
        assert [config.encoding for _, config in rebuilt.configs] == [
            name for name, _ in request.configs
        ]
        # A pre-encoding wire dict (no "encoding" key) decodes to positional.
        legacy = json.loads(json.dumps(simulation_request_to_wire(request)))
        for _, config_wire in legacy["configs"]:
            config_wire.pop("encoding")
        from_legacy = simulation_request_from_wire(legacy)
        assert all(c.encoding == "positional" for _, c in from_legacy.configs)

    def test_statistics_round_trip(self):
        request = StatisticsRequest(
            statistic="fig2_terms",
            trace=TraceSpec(network="vgg_m", seed=3),
            samples_per_layer=1234,
        )
        wire = json.loads(json.dumps(statistics_request_to_wire(request)))
        rebuilt = statistics_request_from_wire(wire)
        assert rebuilt == request
        assert rebuilt.key() == request.key()

    def test_internal_requests_have_stable_keys(self):
        request = self._simulation_request()
        a = SimulationJobRequest(request)
        b = SimulationJobRequest(simulation_request_from_wire(
            simulation_request_to_wire(request)
        ))
        assert a.key() == b.key()
        assert "alexnet" in a.describe()

    def test_parse_internal_request(self):
        request = self._simulation_request()
        parsed = parse_internal_request(SimulationJobRequest(request).to_message())
        assert isinstance(parsed, SimulationJobRequest)
        assert parsed.request == request
        stat = StatisticsRequest(statistic="fig3_terms", trace=TraceSpec(network="alexnet"))
        parsed = parse_internal_request(StatisticsJobRequest(stat).to_message())
        assert isinstance(parsed, StatisticsJobRequest)

    def test_parse_rejects_malformed(self):
        with pytest.raises(ProtocolError):
            parse_internal_request({"op": "sim_job"})  # no request object
        with pytest.raises(ProtocolError):
            parse_internal_request({"op": "sim_job", "request": {"trace": {}}})
        with pytest.raises(ProtocolError):
            parse_internal_request({"op": "unknown_job", "request": {}})
        with pytest.raises(ProtocolError):
            parse_internal_request(
                {
                    "op": "stat_job",
                    "request": statistics_request_to_wire(
                        StatisticsRequest(
                            statistic="no_such_statistic",
                            trace=TraceSpec(network="alexnet"),
                        )
                    ),
                }
            )


# ------------------------------------------------------------------ worker mode
class TestWorkerService:
    def test_worker_requires_auth_token(self, tmp_path):
        with pytest.raises(ValueError):
            WorkerService(session=build_session(SessionSpec(cache_dir=tmp_path, shared=True)))

    def test_internal_ops_gated_on_registration(self, tmp_path):
        async def scenario():
            service = WorkerService(
                session=build_session(SessionSpec(cache_dir=tmp_path, shared=True)),
                workers=1,
                auth_token=TOKEN,
            )
            sent = []
            context = ConnectionContext(authenticated=True)  # authed, unregistered
            message = SimulationJobRequest(
                SimulationRequest(
                    trace=TraceSpec(network="alexnet"),
                    configs=tuple(fig9_variants().items()),
                )
            ).to_message()
            await service.handle_message(message, sent.append, context=context)
            assert "registered coordinator" in sent[-1]["error"]
            # Registration unlocks the op (and reports identity).
            await service.handle_message({"op": "register"}, sent.append, context=context)
            assert sent[-1]["event"] == "registered"
            assert context.registered
            await service.stop()

        run(scenario())

    def test_unauthenticated_connection_rejected_before_queue(self, tmp_path):
        async def scenario():
            service = WorkerService(
                session=build_session(SessionSpec(cache_dir=tmp_path, shared=True)),
                workers=1,
                auth_token=TOKEN,
            )
            sent = []
            context = ConnectionContext(authenticated=False)
            keep = await service.handle_message(
                {"op": "run_experiment", "experiment": "fig9"}, sent.append,
                context=context,
            )
            assert keep is False  # connection closed
            assert sent[-1]["error"] == "authentication required"
            assert service.queue.submitted == 0  # nothing reached the queue
            # Wrong token also closes.
            keep = await service.handle_message(
                {"op": "auth", "token": "wrong"}, sent.append,
                context=ConnectionContext(authenticated=False),
            )
            assert keep is False
            # The right token authenticates.
            context = ConnectionContext(authenticated=False)
            keep = await service.handle_message(
                {"op": "auth", "token": TOKEN}, sent.append, context=context
            )
            assert keep is True and context.authenticated
            await service.stop()

        run(scenario())


# ------------------------------------------------------------------ end to end
class _Cluster:
    """A coordinator plus N in-process workers over loopback TCP."""

    def __init__(self, cache_dir, workers=2):
        self.cache_dir = cache_dir
        self.worker_count = workers
        self.workers = []
        self.servers = []
        self.coordinator = None

    async def __aenter__(self):
        endpoints = []
        for _ in range(self.worker_count):
            service = WorkerService(
                session=build_session(SessionSpec(cache_dir=self.cache_dir, shared=True)),
                workers=2,
                auth_token=TOKEN,
            )
            server = await service.serve_tcp("127.0.0.1", 0)
            endpoints.append(("127.0.0.1", server.sockets[0].getsockname()[1]))
            self.workers.append(service)
            self.servers.append(server)
        self.coordinator = ClusterService(
            spawn_workers=0,
            connect=endpoints,
            storage=SessionSpec(cache_dir=self.cache_dir),
            worker_token=TOKEN,
        )
        await self.coordinator.start()
        return self

    async def __aexit__(self, *exc_info):
        await self.coordinator.stop()
        for server in self.servers:
            server.close()
            await server.wait_closed()
        for worker in self.workers:
            await worker.stop()


class TestClusterExecution:
    def test_sharded_experiment_exactly_once_and_warm_rerun(self, tmp_path):
        async def scenario():
            async with _Cluster(tmp_path / "cache") as cluster:
                coordinator = cluster.coordinator
                request = ExperimentRequest(
                    experiment="fig9",
                    overrides=(("max_pallets", 2), ("networks", ("alexnet",)),
                               ("samples_per_layer", 1500)),
                )
                ticket = await coordinator.submit(request)
                response = await coordinator.wait(ticket)
                assert response["event"] == "done", response.get("error")
                planned = response["result"]["cluster"]["planned_units"]
                assert planned == 5  # the fig9 design points of one network
                assert response["stats"]["sweep"]["configs_simulated"] == planned
                assert response["result"]["experiment"]["rows"]
                # Warm rerun: planner prunes everything, nothing re-simulates
                # anywhere in the cluster.
                ticket = await coordinator.submit(request)
                warm = await coordinator.wait(ticket)
                assert warm["event"] == "done"
                assert warm["result"]["cluster"]["planned_units"] == 0
                assert warm["stats"]["sweep"]["configs_simulated"] == 0
                assert warm["result"]["experiment"] == response["result"]["experiment"]

        run(scenario())

    def test_cross_client_flight_coalescing(self, tmp_path):
        """Overlapping requests from different clients share flights."""

        async def scenario():
            async with _Cluster(tmp_path / "cache") as cluster:
                coordinator = cluster.coordinator
                narrow = ExperimentRequest(
                    experiment="fig9",
                    overrides=(("max_pallets", 2), ("networks", ("alexnet",)),
                               ("samples_per_layer", 1500)),
                )
                wide = ExperimentRequest(
                    experiment="fig9",
                    overrides=(("max_pallets", 2),
                               ("networks", ("alexnet", "vgg_m")),
                               ("samples_per_layer", 1500)),
                )
                assert narrow.key() != wide.key()  # distinct client requests
                tickets = await asyncio.gather(
                    coordinator.submit(narrow), coordinator.submit(wide)
                )
                responses = await asyncio.gather(
                    *(coordinator.wait(t) for t in tickets)
                )
                assert all(r["event"] == "done" for r in responses)
                # The alexnet unit flight is shared: the cluster dispatched
                # fewer flights than the two requests would need in isolation.
                assert coordinator.flights_coalesced >= 1
                # Exactly once cluster-wide: 5 alexnet + 5 vgg_m units, even
                # though alexnet units were planned by both requests.
                total = sum(
                    r["stats"]["sweep"]["configs_simulated"] for r in responses
                )
                assert total == 10

        run(scenario())

    def test_worker_death_requeues_onto_survivor(self, tmp_path):
        async def scenario():
            async with _Cluster(tmp_path / "cache") as cluster:
                coordinator = cluster.coordinator
                request = ExperimentRequest(
                    experiment="fig9",
                    seed=7,  # fresh trace spec: cold even if other tests ran
                    overrides=(("max_pallets", 2), ("networks", ("alexnet",)),
                               ("samples_per_layer", 1500)),
                )
                killed = []

                def on_progress(ticket, payload):
                    worker_id = payload.get("worker")
                    link = coordinator.links.get(worker_id)
                    if not killed and link is not None:
                        killed.append(worker_id)
                        # Dropping the link is exactly what a worker crash
                        # looks like from the coordinator's side.
                        asyncio.ensure_future(link.client.close())

                ticket = await coordinator.submit(request, on_progress=on_progress)
                response = await coordinator.wait(ticket)
                assert killed, "no progress event ever identified a worker"
                assert response["event"] == "done", response.get("error")
                assert coordinator.flights_requeued >= 1
                assert response["result"]["experiment"]["rows"]
                stats = coordinator.stats()
                assert stats["cluster"]["workers_lost"] == 1
                assert stats["cluster"]["flights_requeued"] >= 1

        run(scenario())

    def test_streamed_cancellation_reaches_the_worker(self, tmp_path):
        async def scenario():
            async with _Cluster(tmp_path / "cache") as cluster:
                coordinator = cluster.coordinator
                request = ExperimentRequest(
                    experiment="fig10",
                    seed=11,
                    overrides=(("max_pallets", 2), ("networks", ("alexnet",)),
                               ("samples_per_layer", 1500)),
                )
                events = []
                cancelled = []

                def on_event(ticket, event):
                    events.append(event)

                def on_progress(ticket, payload):
                    if not cancelled:
                        cancelled.append(True)
                        coordinator.cancel(ticket.ticket_id)

                ticket = await coordinator.submit(
                    request, on_event=on_event, on_progress=on_progress
                )
                await ticket.job.done.wait()
                assert cancelled, "no progress to cancel on"
                assert ticket.state == "cancelled"
                # The worker-side job must actually unwind: the coordinator's
                # flight table drains instead of leaking a running flight.
                async def no_flights():
                    while coordinator._flights:
                        await asyncio.sleep(0.05)

                await asyncio.wait_for(no_flights(), timeout=30)
                # And the cluster still serves: a follow-up request lands.
                follow_up = await coordinator.submit(
                    ExperimentRequest(experiment="table3", preset="smoke")
                )
                done = await coordinator.wait(follow_up)
                assert done["event"] == "done"

        run(scenario())

    def test_cluster_stats_merge_fleet_distinct(self, tmp_path):
        async def scenario():
            async with _Cluster(tmp_path / "cache") as cluster:
                coordinator = cluster.coordinator
                request = ExperimentRequest(
                    experiment="fig9",
                    overrides=(("max_pallets", 2), ("networks", ("alexnet",)),
                               ("samples_per_layer", 1500)),
                )
                ticket = await coordinator.submit(request)
                response = await coordinator.wait(ticket)
                assert response["event"] == "done"
                # Worker-side compute is forwarded: the response's cluster
                # section sums the execution_seconds its flights reported.
                assert response["result"]["cluster"]["worker_execution_seconds"] > 0
                payload = await coordinator.cluster_stats()
                cluster_section = payload["cluster"]
                assert len(cluster_section["workers"]) == 2
                assert cluster_section["flights_dispatched"] >= 2
                # Cluster-wide coalescing effectiveness (the stats satellite):
                # one isolated request joins every flight fresh.
                coalescing = cluster_section["coalescing"]
                assert coalescing["flights_executed"] == cluster_section["flights_dispatched"]
                assert coalescing["flight_joins"] >= coalescing["flights_executed"]
                assert 0.0 <= coalescing["hit_rate"] <= 1.0
                fleet = cluster_section["fleet"]
                # The fleet section saw the simulations the workers ran.
                assert fleet["sweep"]["configs_simulated"] == 5
                # Both workers mount one shared directory: the fleet counts
                # its entries once, not once per worker.
                assert fleet["cache"]["shared_gauges"] is True
                shared = ResultCache(directory=tmp_path / "cache")
                assert fleet["cache"]["disk_entries"] == len(shared)
                per_worker = cluster_section["per_worker_stats"]
                assert set(per_worker) <= {"w0", "w1", "c0", "c1"}

        run(scenario())

    def test_no_live_workers_fails_cleanly(self, tmp_path):
        async def scenario():
            async with _Cluster(tmp_path / "cache", workers=1) as cluster:
                coordinator = cluster.coordinator
                for link in coordinator.links.values():
                    await link.client.close()
                ticket = await coordinator.submit(
                    ExperimentRequest(experiment="table3", preset="smoke")
                )
                response = await coordinator.wait(ticket)
                assert response["event"] == "failed"
                assert "no live workers" in response["error"]

        run(scenario())
