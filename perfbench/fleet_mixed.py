"""``fleet_mixed``: ``simulate`` traffic through a cluster on a network cache.

The workload spawns ``repro cacheserve`` and ``repro cluster --workers 2
--cache-backend remote://...`` and pre-warms a hot pool (one ``fig10``
``simulate`` per network) during set-up.  It then measures two closed-loop
phases, each with one request outstanding per connection:

* hot: only hot-pool requests, answered from the workers' results;
* mixed: one request in :data:`COLD_EVERY` carries a fresh trace seed.  Each
  of those builds a new trace, runs a sweep on a worker and writes to the
  remote cache, competing with the hot requests for workers and cores.

The program's cost is taken as the CPU seconds its processes use in each
phase (``/proc``), scaled by a :class:`HostGauge` run beside it: on a
shared host the wall-clock latency of a few-millisecond request measures
the scheduler more than the program, so latencies are reported on the info
line only.

It drives the program only through its wire protocol, from one asyncio
process over at most ``nproc`` connections, using the program's own
``ServeClient``.  All inputs come from ``--seed``: the hot pool's trace seed,
the order of the requests, which are cold, and the cold requests' networks
and trace seeds.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import time
from pathlib import Path

from common import (
    WORK, HostGauge, Spawned, cpu_seconds, peak_rss_mb, percentile, program_env, python_module, trace_seed,
)
from layers import fabric_metrics, layer_self_seconds, load_spans, span_metrics, timing_metrics

from repro.analysis.speedup import geometric_mean
from repro.experiments import fig10
from repro.nn.networks import NETWORK_NAMES
from repro.runtime import isolated_session, simulate
from repro.runtime.serialization import network_result_from_dict, network_result_to_dict
from repro.serve.client import ServeClient
from repro.serve.protocol import parse_request

#: Share of the measured time spent in the hot phase; the mixed phase follows.
HOT_SHARE = 0.5
#: One request in ``COLD_EVERY`` of the mixed phase is cold.
COLD_EVERY = 10
#: Cold requests use the 5-layer networks at 2 sampled pallets per layer, so
#: one costs about 0.1 s of worker time on an idle 2-core host.
COLD_NETWORKS = ("alexnet", "vgg_m", "vgg_s")
COLD_OVERRIDES = {"max_pallets": 2}
#: Cold trace seeds start here; hot pool seeds stay below.
COLD_SEED_BASE = 1_000_000
#: Length of each phase's seeded request sequence (phases end on time, long
#: before a sequence runs out).
SEQUENCE = {"hot": 40_000, "mixed": 10_000}
REQUEST_TIMEOUT_S = 30.0
#: Set-ups per run (the median is reported).
SETUPS = 3
CONNECTIONS = max(1, min(2, len(os.sched_getaffinity(0))))

BANNER = r"listening on ([\d.]+):(\d+)"
CLUSTER_BANNER = r"coordinator on ([\d.]+):(\d+)"


def simulate_message(network: str, seed: int, **extra) -> dict:
    return {"op": "simulate", "network": network, "variants": "fig10", "preset": "fast", "seed": seed, **extra}


def hot_pool(seed: int) -> list[dict]:
    return [simulate_message(network, trace_seed(seed)) for network in NETWORK_NAMES]


def cold_message(network: str, seed: int, index: int) -> dict:
    """A request no cache holds: its trace seed is fresh for every index."""
    return simulate_message(
        network, COLD_SEED_BASE + trace_seed(seed) * 100_000 + index, overrides=COLD_OVERRIDES
    )


def is_cold(message: dict) -> bool:
    return "overrides" in message


def balanced(rng: random.Random, items: list, count: int) -> list:
    """``count`` draws from ``items`` in shuffled rounds, so every item is used
    equally often (up to one round) whatever the seed."""
    drawn: list = []
    while len(drawn) < count:
        round_ = list(items)
        rng.shuffle(round_)
        drawn.extend(round_)
    return drawn[:count]


def sequences(seed: int) -> dict[str, list[dict]]:
    """Each phase's requests in sending order, from ``seed``.

    The mixed phase has one cold request at a seeded place in every block of
    :data:`COLD_EVERY`, so any prefix of it holds the same share of cold
    requests; networks are drawn in shuffled rounds.  Seeds change order
    and trace values, not the amount of work.
    """
    rng = random.Random(f"fleet-{seed}")
    hot = balanced(rng, hot_pool(seed), SEQUENCE["hot"])
    count = SEQUENCE["mixed"]
    blocks = count // COLD_EVERY
    cold = {block * COLD_EVERY + rng.randrange(COLD_EVERY) for block in range(blocks)}
    mixed_hot = iter(balanced(rng, hot_pool(seed), count - blocks))
    networks = iter(balanced(rng, list(COLD_NETWORKS), blocks))
    mixed = [cold_message(next(networks), seed, i) if i in cold else next(mixed_hot) for i in range(count)]
    return {"hot": hot, "mixed": mixed}


def digest(phases: dict[str, list[dict]]) -> str:
    text = json.dumps(phases, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def expected_result(message: dict) -> dict:
    """The in-process ``simulate()`` result of a request, in wire form."""
    with isolated_session():
        results = simulate(parse_request(message).simulation_request())
    return json.loads(json.dumps({label: network_result_to_dict(r) for label, r in results.items()}))


class Deployment:
    """The program processes of one set-up, and connections to the front
    one: the process that takes requests and is shut down through the
    protocol.  Here that is a cluster on a cacheserve."""

    def __init__(self, directory: Path, span_dir: Path | None) -> None:
        self.directory = directory
        self.span_dir = span_dir
        self.cache: Spawned | None = None
        self.front: Spawned | None = None
        self.clients: list[ServeClient] = []

    async def spawn(self, argv: list[str], banner: str) -> Spawned:
        env = program_env(self.span_dir)
        return await asyncio.get_running_loop().run_in_executor(None, Spawned, argv, env, banner)

    async def start(self) -> None:
        self.cache = await self.spawn(
            python_module("cacheserve", "--tcp", "127.0.0.1:0", "--cache-dir", str(self.directory / "remote")), BANNER
        )
        host, port = self.cache.endpoint
        cluster_argv = python_module(
            "cluster", "--tcp", "127.0.0.1:0", "--workers", "2",
            "--cache-backend", f"remote://{host}:{port}", "--cache-dir", str(self.directory / "fabric"),
        )
        self.front = await self.spawn(cluster_argv, CLUSTER_BANNER)
        await self.connect()

    async def connect(self) -> None:
        self.clients = [await ServeClient.connect(*self.front.endpoint) for _ in range(CONNECTIONS)]

    def pids(self) -> list[int]:
        return [pid for process in (self.cache, self.front) if process for pid in process.tree()]

    async def stats(self) -> dict:
        return await self.clients[0].stats()

    async def collect_spans(self) -> None:
        """Ask every program process to write its spans, and wait for them."""
        pids = self.pids()
        for pid in pids:
            os.kill(pid, signal.SIGUSR1)
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            if all((self.span_dir / f"spans-{pid}.jsonl").exists() for pid in pids):
                return
            await asyncio.sleep(0.05)
        raise RuntimeError("spawned processes did not write their spans")

    async def stop(self) -> None:
        """Shut the front process down through its protocol and cacheserve
        by SIGINT, and wait for every process to exit."""
        for client in self.clients[1:]:
            await client.close()
        if self.clients:
            with contextlib.suppress(Exception):
                await asyncio.wait_for(self.clients[0].shutdown(), 10)
        loop = asyncio.get_running_loop()
        if self.front:
            await loop.run_in_executor(None, self.front.stop)
        if self.cache:
            self.cache.process.send_signal(signal.SIGINT)
            await loop.run_in_executor(None, self.cache.stop)


class Checker:
    """Keeps the first result of each distinct request; every later reply to
    it must be equal.  Replies are checked as they arrive, so the client never
    holds thousands of result payloads (whose garbage collection would stall
    it and inflate the latencies it measures)."""

    def __init__(self) -> None:
        self.first: dict[str, dict] = {}
        self.failures: list[str] = []
        self.attempted = 0

    def check(self, message: dict, response) -> int:
        """Record ``response``; returns the layer results it delivered."""
        if not response.ok:
            self.failures.append(f"request failed: {response.error}")
            return 0
        results = response.result["results"]
        key = json.dumps(message, sort_keys=True)
        if self.first.setdefault(key, results) != results:
            self.failures.append(f"inconsistent result for {key}")
        return sum(len(result["layers"]) for result in results.values())


async def send(client: ServeClient, message: dict, checker: Checker) -> dict:
    """One request, timed from when it was sent."""
    loop = asyncio.get_running_loop()
    checker.attempted += 1
    sent = loop.time()
    try:
        response = await asyncio.wait_for(client.job(message), REQUEST_TIMEOUT_S)
    except (asyncio.TimeoutError, ConnectionError, OSError) as error:
        checker.failures.append(f"request failed: {error!r}")
        return {"ok": False, "message": message, "latency_ms": REQUEST_TIMEOUT_S * 1e3, "layers": 0}
    return {
        "ok": response.ok,
        "message": message,
        "latency_ms": (loop.time() - sent) * 1e3,
        "timings": response.timings,
        "layers": checker.check(message, response),
    }


async def setup(deployment: Deployment, pool: list[dict], checker: Checker) -> tuple[float, float]:
    """Start ``deployment`` and pre-warm the hot pool; the CPU seconds its
    processes used until started, and until warm.  The pool is sent one
    request at a time, so which computations overlap (and with them the
    peak memory) does not depend on timing."""
    try:
        await deployment.start()
        started = cpu_seconds(deployment.pids())
        for message in pool:
            await send(deployment.clients[0], message, checker)
    except BaseException:
        await deployment.stop()
        raise
    return started, cpu_seconds(deployment.pids())


async def closed_loop(deployment: Deployment, requests: list[dict], seconds: float, checker: Checker) -> dict:
    """Send ``requests`` in order, one outstanding per connection, until
    ``seconds`` have passed; the phase's replies, ``perf_counter`` window,
    wall time and program CPU."""
    loop = asyncio.get_running_loop()
    pending = iter(requests)
    replies: list[dict] = []

    async def connection(client: ServeClient) -> None:
        for message in pending:
            replies.append(await send(client, message, checker))
            if loop.time() >= deadline:
                return

    pids = deployment.pids()
    cpu_before, wall_before = cpu_seconds(pids), time.perf_counter()
    deadline = loop.time() + seconds
    await asyncio.gather(*(connection(client) for client in deployment.clients))
    wall_after = time.perf_counter()
    return {"replies": replies, "window": (wall_before, wall_after), "wall": wall_after - wall_before,
            "cpu": cpu_seconds(pids) - cpu_before}


async def measure(seed: int, seconds: float, run_dir: Path, span_dir: Path | None, setups: int) -> dict:
    """Set up ``setups`` times, measure both phases on the last, tear down."""
    pool = hot_pool(seed)
    phases = sequences(seed)
    checker = Checker()
    with HostGauge() as gauge:
        setup_cpu = []
        for index in range(setups):
            deployment = Deployment(run_dir / f"setup{index}", span_dir)
            began = time.perf_counter()
            setup_cpu.append(((await setup(deployment, pool, checker))[1], (began, time.perf_counter())))
            if index < setups - 1:
                await deployment.stop()
        try:
            before = await deployment.stats()
            measured = {}
            # The client's own collector pauses would stall the closed loops.
            gc.collect()
            gc.freeze()
            gc.disable()
            try:
                window_start = time.perf_counter_ns()
                for name, share in (("hot", HOT_SHARE), ("mixed", 1 - HOT_SHARE)):
                    measured[name] = await closed_loop(deployment, phases[name], seconds * share, checker)
                window_end = time.perf_counter_ns()
            finally:
                gc.enable()
                gc.unfreeze()
            after = await deployment.stats()
            rss = peak_rss_mb(deployment.pids())
            if span_dir is not None:
                await deployment.collect_spans()
        finally:
            await deployment.stop()
    return {
        "setup_cpu": setup_cpu, "phases": phases, "measured": measured, "gauge": gauge,
        "replies": measured["hot"]["replies"] + measured["mixed"]["replies"],
        "before": before, "after": after, "rss": rss, "window": (window_start, window_end),
        "canonical": checker.first, "failures": checker.failures, "attempted": checker.attempted,
    }


def verify(canonical: dict, failures: list[str]) -> None:
    """Every distinct request's served result must equal in-process ``simulate()``."""
    for key, served in canonical.items():
        if served != expected_result(json.loads(key)):
            failures.append(f"served result differs from in-process simulate() for {key}")


def paper_err(canonical: dict, seed: int) -> float:
    """Error of the served fig10 geomeans (hot pool) against the paper's."""
    served = [canonical[json.dumps(message, sort_keys=True)] for message in hot_pool(seed)]
    errors = []
    for label, paper in fig10.PAPER_GEOMEANS.items():
        speedups = [network_result_from_dict(result[label]).speedup for result in served]
        errors.append(abs(geometric_mean(speedups) / paper - 1))
    return sum(errors) / len(errors)


def scaled_cpu(m: dict, name: str) -> float:
    """A phase's program CPU seconds, scaled by the gauge rounds of the phase."""
    phase = m["measured"][name]
    return phase["cpu"] * m["gauge"].scale(*phase["window"])


def cpu_costs(m: dict) -> tuple[float, float]:
    """Scaled program CPU seconds per hot request (hot phase) and per cold
    request (the mixed phase's CPU less its hot requests at the hot-phase
    cost)."""
    hot, mixed = m["measured"]["hot"], m["measured"]["mixed"]
    per_hot = scaled_cpu(m, "hot") / len(hot["replies"])
    cold = sum(1 for r in mixed["replies"] if is_cold(r["message"]))
    return per_hot, (scaled_cpu(m, "mixed") - (len(mixed["replies"]) - cold) * per_hot) / max(cold, 1)


def end_to_end(m: dict, seed: int) -> dict:
    per_hot, per_cold = cpu_costs(m)
    layers = sum(r["layers"] for phase in m["measured"].values() for r in phase["replies"] if r["ok"])
    return {
        "setup_s": statistics.median(cpu * m["gauge"].scale(*window) for cpu, window in m["setup_cpu"]),
        "layers_per_s": layers / (scaled_cpu(m, "hot") + scaled_cpu(m, "mixed")),
        "paper_err": paper_err(m["canonical"], seed),
        "cpu_ms": per_hot * 1e3,
        "cold_cpu_ms": per_cold * 1e3,
        "peak_rss_mb": m["rss"],
    }


def wall_summary(m: dict) -> dict:
    """Client-side wall figures of each phase (information, not metrics)."""
    summary = {}
    for name, phase in m["measured"].items():
        replies = phase["replies"]
        hot = [r["latency_ms"] for r in replies if not is_cold(r["message"])]
        cold = [r["latency_ms"] for r in replies if is_cold(r["message"])]
        summary[name] = {
            "requests": len(replies), "cold": len(cold), "rps": round(len(replies) / phase["wall"], 2),
            "cpu_s": round(phase["cpu"], 3), "hot_p50_ms": percentile(hot, 50), "hot_p99_ms": percentile(hot, 99),
            "cold_p50_ms": percentile(cold, 50),
        }
    return summary


def layer_values(m: dict, spans: list[tuple]) -> dict:
    """Per-layer metrics of the measured window (set-up spans excluded)."""
    window_start, window_end = m["window"]
    inside = [s for s in spans if window_start <= s[4] and s[5] <= window_end]
    values = span_metrics(inside)
    values.update(timing_metrics(m["replies"]))
    before, after = m["before"], m["after"]
    attached = after["coalescing"]["tickets_attached"] - before["coalescing"]["tickets_attached"]
    coalesced = after["coalescing"]["tickets_coalesced"] - before["coalescing"]["tickets_coalesced"]
    values["serve.coalesced_ratio"] = coalesced / attached if attached else 0.0
    cb, ca = before["cluster"], after["cluster"]
    values.update(fabric_metrics(cb["fleet"], ca["fleet"]))
    joins = ca["coalescing"]["flight_joins"] - cb["coalescing"]["flight_joins"]
    flights_coalesced = ca["coalescing"]["flights_coalesced"] - cb["coalescing"]["flights_coalesced"]
    values["cluster.flight_coalesced_ratio"] = flights_coalesced / joins if joins else 0.0
    values["cluster.respawns"] = ca["workers_respawned"]
    # A passthrough simulate reply carries no cluster section, so worker time
    # comes from the workers' execute_request spans.
    worker_ms = [(s[5] - s[4]) / 1e6 for s in inside if s[3] == "serve.execute"]
    totals = [r["timings"]["total_seconds"] * 1e3 for r in m["replies"] if r["ok"]]
    values["cluster.worker_execution_ms.p50"] = percentile(worker_ms, 50)
    values["cluster.coordinator_ms.p50"] = percentile(totals, 50) - percentile(worker_ms, 50)
    values["trace.self_time_frac"] = layer_self_seconds(inside) / ((window_end - window_start) / 1e9)
    return values


def run(seed: int, seconds: float, traced: bool):
    run_dir = WORK / f"fleet_mixed-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if traced:
            # Same seed twice: untraced then traced, one set-up each.
            plain = asyncio.run(measure(seed, seconds, run_dir / "plain", None, 1))
            span_dir = run_dir / "spans"
            span_dir.mkdir()
            m = asyncio.run(measure(seed, seconds, run_dir / "traced", span_dir, 1))
            spans = load_spans(span_dir)
            failures = plain["failures"] + m["failures"]
            attempted = plain["attempted"] + m["attempted"]
        else:
            m = asyncio.run(measure(seed, seconds, run_dir, None, SETUPS))
            failures, attempted = m["failures"], m["attempted"]
        verify(m["canonical"], failures)
        info = {
            "setup_cpu_s": [round(cpu, 3) for cpu, _ in m["setup_cpu"]],
            "host_scale": round(m["gauge"].scale(), 4),
            "schedule_digest": digest(m["phases"]),
            "phases": wall_summary(m),
            "failures": failures[:10],
        }
        if traced:
            values = layer_values(m, spans)
            values["trace.overhead_frac"] = cpu_costs(m)[0] / cpu_costs(plain)[0] - 1
            info["spans"] = spans
            return not failures, attempted, len(failures), values, info
        return not failures, attempted, len(failures), end_to_end(m, seed), info
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
