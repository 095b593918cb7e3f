"""``serve_hot``: cache-hit ``simulate`` traffic to one ``repro serve``.

The workload spawns ``repro serve --tcp`` on a private on-disk cache and
pre-warms the hot pool (one ``fig10`` ``simulate`` per network) during
set-up.  It then measures one closed loop of hot-pool requests, one
outstanding per connection, for ``--seconds``.  Every measured request is a
cache hit, so the time goes to the wire, the serve queue, coalescing and
cache reads, and the kernels do no work.

Cost is taken as in ``fleet_mixed``: CPU seconds of the server process,
scaled by a :class:`HostGauge`.  The pre-warm's requests are the workload's
cold requests.  All inputs come from ``--seed``: the hot pool's trace seed
and the order of the requests.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import shutil
import statistics
import time

from common import WORK, HostGauge, peak_rss_mb, percentile, python_module
from fleet_mixed import (
    BANNER, SETUPS, Checker, Deployment, balanced, closed_loop, digest, hot_pool, paper_err, setup, verify,
)
from layers import fabric_metrics, layer_self_seconds, load_spans, span_metrics, timing_metrics

#: Length of the seeded request sequence (the loop ends on time, long before).
SEQUENCE = 80_000


class ServeDeployment(Deployment):
    """One ``repro serve`` on a private on-disk cache."""

    async def start(self) -> None:
        argv = python_module("serve", "--tcp", "127.0.0.1:0", "--cache-dir", str(self.directory / "cache"))
        self.front = await self.spawn(argv, BANNER)
        await self.connect()


def sequence(seed: int) -> list[dict]:
    """Hot-pool requests in sending order, networks drawn in shuffled rounds."""
    return balanced(random.Random(f"serve-{seed}"), hot_pool(seed), SEQUENCE)


async def measure(seed: int, seconds: float, run_dir, span_dir, setups: int) -> dict:
    """Set up ``setups`` times, measure the closed loop on the last, tear down."""
    pool = hot_pool(seed)
    requests = sequence(seed)
    checker = Checker()
    with HostGauge() as gauge:
        setup_cpu, warm_cpu = [], []
        for index in range(setups):
            deployment = ServeDeployment(run_dir / f"setup{index}", span_dir)
            began = time.perf_counter()
            started, warm = await setup(deployment, pool, checker)
            window = (began, time.perf_counter())
            setup_cpu.append((warm, window))
            warm_cpu.append((warm - started, window))
            if index < setups - 1:
                await deployment.stop()
        try:
            before = await deployment.stats()
            gc.collect()
            gc.freeze()
            gc.disable()
            try:
                window_start = time.perf_counter_ns()
                phase = await closed_loop(deployment, requests, seconds, checker)
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
        "setup_cpu": setup_cpu, "warm_cpu": warm_cpu, "pool": len(pool), "requests": requests, "phase": phase,
        "gauge": gauge, "before": before, "after": after, "rss": rss, "window": (window_start, window_end),
        "canonical": checker.first, "failures": checker.failures, "attempted": checker.attempted,
    }


def scaled_cpu(m: dict) -> float:
    """The loop's server CPU seconds, scaled by the gauge rounds of the loop."""
    return m["phase"]["cpu"] * m["gauge"].scale(*m["phase"]["window"])


def cpu_per_request(m: dict) -> float:
    return scaled_cpu(m) / len(m["phase"]["replies"])


def end_to_end(m: dict, seed: int) -> dict:
    layers = sum(r["layers"] for r in m["phase"]["replies"] if r["ok"])

    def per_setup(values):
        return statistics.median(cpu * m["gauge"].scale(*window) for cpu, window in values)

    return {
        "setup_s": per_setup(m["setup_cpu"]),
        "layers_per_s": layers / scaled_cpu(m),
        "paper_err": paper_err(m["canonical"], seed),
        "cpu_ms": cpu_per_request(m) * 1e3,
        "cold_cpu_ms": per_setup(m["warm_cpu"]) / m["pool"] * 1e3,
        "peak_rss_mb": m["rss"],
    }


def layer_values(m: dict, spans: list[tuple]) -> dict:
    """Per-layer metrics of the measured window (set-up spans excluded)."""
    window_start, window_end = m["window"]
    inside = [s for s in spans if window_start <= s[4] and s[5] <= window_end]
    values = span_metrics(inside)
    values.update(timing_metrics(m["phase"]["replies"]))
    before, after = m["before"]["coalescing"], m["after"]["coalescing"]
    attached = after["tickets_attached"] - before["tickets_attached"]
    coalesced = after["tickets_coalesced"] - before["tickets_coalesced"]
    values["serve.coalesced_ratio"] = coalesced / attached if attached else 0.0
    values.update(fabric_metrics(m["before"]["stats"], m["after"]["stats"]))
    values["trace.self_time_frac"] = layer_self_seconds(inside) / ((window_end - window_start) / 1e9)
    return values


def run(seed: int, seconds: float, traced: bool):
    run_dir = WORK / f"serve_hot-{seed}-{os.getpid()}"
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
        phase = m["phase"]
        latencies = [r["latency_ms"] for r in phase["replies"]]
        info = {
            "setup_cpu_s": [round(cpu, 3) for cpu, _ in m["setup_cpu"]],
            "host_scale": round(m["gauge"].scale(), 4),
            "schedule_digest": digest({"hot": m["requests"]}),
            "requests": len(latencies), "rps": round(len(latencies) / phase["wall"], 2),
            "cpu_s": round(phase["cpu"], 3), "p50_ms": percentile(latencies, 50), "p99_ms": percentile(latencies, 99),
            "failures": failures[:10],
        }
        if traced:
            values = layer_values(m, spans)
            values["trace.overhead_frac"] = cpu_per_request(m) / cpu_per_request(plain) - 1
            info["spans"] = spans
            return not failures, attempted, len(failures), values, info
        return not failures, attempted, len(failures), end_to_end(m, seed), info
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
