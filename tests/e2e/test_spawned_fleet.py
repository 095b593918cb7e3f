"""End-to-end checks against real spawned worker processes.

``tests/test_cluster.py`` runs the coordinator against in-process workers;
the checks here need what only separate processes have: a shared on-disk
trace fabric, a SIGTERM'd worker and its respawn, cancellation crossing a
process boundary, recycling after ``max_jobs_per_worker`` jobs, and a
network cache tier that outlives (and dies under) whole clusters.  Each
fleet is a coordinator serving TCP plus two ``repro serve --worker``
subprocesses, driven through a :class:`~repro.serve.ServeClient` exactly
like a ``python -m repro cluster --tcp`` deployment (``docs/cluster.md``,
``docs/cachenet.md``).

Run with ``python -m pytest tests/e2e -q``.
"""

import asyncio

import pytest

from repro.cachenet.backend import RemoteBackend
from repro.cachenet.server import CacheServer
from repro.cluster import ClusterService
from repro.runtime import ResultCache, SessionSpec, TraceArtifactStore
from repro.serve import ServeClient
from repro.serve.protocol import parse_request

pytestmark = pytest.mark.slow

#: Two networks, so sharding and the fabric see more than one trace.
WORKLOAD = {"networks": ["alexnet", "vgg_m"], "max_pallets": 2, "samples_per_layer": 1500}

#: Bound on one test's coroutine: a hung fleet fails instead of stalling CI.
TIMEOUT = 300.0

TERMINAL = ("done", "failed", "cancelled", "error")


class SpawnedFleet:
    """A TCP coordinator over two spawned workers, on a private event loop.

    The loop outlives single tests so one fleet can serve a module; each
    :meth:`run` drives it until the given coroutine finishes.
    """

    def __init__(self, **options) -> None:
        self.loop = asyncio.new_event_loop()
        self.run(self._start(options))

    async def _start(self, options) -> None:
        self.service = ClusterService(spawn_workers=2, **options)
        await self.service.start()
        self.server = await self.service.serve_tcp("127.0.0.1", 0)
        self.client = await ServeClient.connect(
            "127.0.0.1", self.server.sockets[0].getsockname()[1]
        )

    async def _stop(self) -> None:
        await self.client.close()
        self.server.close()
        await self.server.wait_closed()
        await self.service.stop()

    def run(self, coro):
        return self.loop.run_until_complete(asyncio.wait_for(coro, TIMEOUT))

    def close(self) -> None:
        self.run(self._stop())
        self.loop.close()


@pytest.fixture(scope="module")
def fleet():
    spawned = SpawnedFleet()
    yield spawned
    spawned.close()


@pytest.fixture(scope="module")
def recycling_fleet():
    spawned = SpawnedFleet(max_jobs_per_worker=1)
    yield spawned
    spawned.close()


async def _until(condition, seconds: float = 90.0) -> None:
    deadline = asyncio.get_running_loop().time() + seconds
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "condition timed out"
        await asyncio.sleep(0.2)


async def _kill_mid_run(fleet: SpawnedFleet) -> None:
    """SIGTERM the worker reporting progress: requeue, complete, respawn."""
    service = fleet.service
    killed = []
    terminal: dict = {}
    # A fresh seed keeps this run cold, so there is progress to kill on.
    message = {
        "op": "run_experiment",
        "experiment": "fig10",
        "seed": 1,
        "overrides": WORKLOAD,
    }
    async for event in fleet.client.stream(message):
        if event.get("event") == "progress" and not killed:
            worker_id = event.get("progress", {}).get("worker")
            link = service.links.get(worker_id)
            if link is not None and link.process is not None:
                killed.append(worker_id)
                link.process.terminate()
        if event.get("event") in TERMINAL:
            terminal = event
    assert killed, "no worker progress observed to kill on"
    assert terminal.get("event") == "done", terminal.get("error")
    assert service.flights_requeued >= 1
    await _until(
        lambda: service.workers_respawned >= 1
        and (link := service.links.get(killed[0])) is not None
        and link.alive
    )


# Order matters: the fabric check reads every worker's counters, which a
# killed worker takes with it.
def test_trace_fabric_builds_each_artifact_once(fleet):
    async def scenario():
        response = await fleet.client.run_experiment("fig9", overrides=WORKLOAD)
        assert response.ok, response.error
        payload = await fleet.service.cluster_stats()
        counters = payload["cluster"]["fleet"]
        usage = TraceArtifactStore(payload["cluster"]["trace_dir"]).usage()
        assert usage["calibrations"] > 0
        # Rendezvous routing gives each network to one worker; the sibling
        # maps the shared artifacts instead of rebuilding them.
        assert counters["trace_calibrations_computed"] == usage["calibrations"]
        assert counters["trace_tensors_built"] == usage["tensors"]
        # Both workers mount one shared directory: the fleet counts its
        # entries once, not once per worker.
        assert counters["cache"]["shared_gauges"] is True
        shared = ResultCache(directory=payload["cluster"]["cache_dir"])
        assert counters["cache"]["disk_entries"] == len(shared)

    fleet.run(scenario())


def test_killed_worker_is_requeued_and_respawned(fleet):
    fleet.run(_kill_mid_run(fleet))


def test_cancellation_interrupts_the_worker_process(fleet):
    async def scenario():
        cancelled = False
        terminal = None
        message = {
            "op": "run_experiment",
            "experiment": "fig12",
            "seed": 2,
            "overrides": WORKLOAD,
        }
        async for event in fleet.client.stream(message):
            if event.get("event") == "progress" and not cancelled:
                cancelled = True
                await fleet.client.cancel(event["ticket"])
            if event.get("event") in TERMINAL:
                terminal = event["event"]
        assert cancelled, "no progress to cancel on"
        assert terminal == "cancelled"
        follow_up = await asyncio.wait_for(
            fleet.client.run_experiment("table3", preset="smoke"), timeout=60
        )
        assert follow_up.ok, follow_up.error

    fleet.run(scenario())


def test_recycled_fleet_serves_a_warm_rerun(recycling_fleet):
    async def scenario():
        service, client = recycling_fleet.service, recycling_fleet.client
        response = await client.run_experiment("fig9", seed=4, overrides=WORKLOAD)
        assert response.ok, response.error
        await _until(lambda: service.workers_recycled >= 1)
        # Fresh processes answer entirely from the shared cache.
        warm = await client.run_experiment("fig9", seed=4, overrides=WORKLOAD)
        assert warm.ok, warm.error
        assert warm.stats.sweep.configs_simulated == 0

    recycling_fleet.run(scenario())


def test_recycling_fleet_requeues_and_respawns_a_killed_worker(recycling_fleet):
    recycling_fleet.run(_kill_mid_run(recycling_fleet))


async def _remote_tier_run(spec: str) -> dict:
    """A fresh 2-worker cluster's fig9 run whose only result cache is ``spec``."""
    service = ClusterService(spawn_workers=2, storage=SessionSpec(cache_backend=spec))
    request = parse_request(
        {"op": "run_experiment", "experiment": "fig9", "overrides": WORKLOAD}
    )
    async with service:
        local_dirs = [link.info.get("cache_dir") for link in service.links.values()]
        response = await service.wait(await service.submit(request))
        usage = service.session.cache.usage()
    assert response["event"] == "done", response.get("error")
    assert local_dirs == [None, None]  # no local filesystem result cache
    return {
        "simulated": response["stats"]["sweep"]["configs_simulated"],
        "planned": response["result"].get("cluster", {}).get("planned_units", 0),
        "remote_degraded": usage.get("remote_degraded", 0),
    }


def test_remote_cache_tier_cold_then_host_fresh_warm_then_degraded(tmp_path):
    server = CacheServer(directory=tmp_path / "cache")
    host, port = server.start()
    spec = f"remote://{host}:{port}"
    try:
        cold = asyncio.run(_remote_tier_run(spec))
        assert cold["simulated"] == cold["planned"] > 0
        assert len(server.backend) > 0  # the entries landed server-side

        # Fresh processes, fresh private directories: warm from the network.
        warm = asyncio.run(_remote_tier_run(spec))
        assert warm["simulated"] == 0

        server.stop()
        probe = RemoteBackend(host, port, connect_timeout=1.0, retries=0)
        assert probe.load("0" * 16, "network_result") is None
        assert probe.remote_degraded >= 1
        probe.close()
        # The dead tier degrades to recomputation: the run still completes.
        degraded = asyncio.run(_remote_tier_run(spec))
        assert degraded["simulated"] >= degraded["planned"]
        assert degraded["simulated"] > 0
        assert degraded["remote_degraded"] >= 1
    finally:
        server.stop()
