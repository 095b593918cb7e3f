"""Per-layer metrics of a traced run, from spans and program counters."""

from __future__ import annotations

import collections
import json
from pathlib import Path

from common import percentile

def load_spans(directory: Path) -> list[tuple]:
    """Every span written by spawned processes into ``directory``."""
    spans = []
    for path in sorted(directory.glob("spans-*.jsonl")):
        with open(path) as handle:
            spans.extend(tuple(json.loads(line)) for line in handle)
    return spans


def write_spans(path: Path, spans: list[tuple]) -> None:
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Span id -> seconds of its duration not covered by its children."""
    children = collections.defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append((span[4], span[5]))
    result = {}
    for span_id, _, _, _, start, end, _ in spans:
        covered, cursor = 0, start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span_id] = (end - start - covered) / 1e9
    return result


def span_metrics(spans: list[tuple]) -> dict[str, float]:
    """The span-derived layer metrics (sums over ``spans``)."""
    by_name = collections.defaultdict(list)
    for span in spans:
        by_name[span[3]].append(span)
    selfs = self_times(spans)

    def seconds(name):
        return sum(span[5] - span[4] for span in by_name[name]) / 1e9

    def attr_sum(name, key):
        return sum((span[6] or {}).get(key, 0) for span in by_name[name])

    drain_s, columns = seconds("core.kernels.drain"), attr_sum("core.kernels.drain", "columns")
    remote = by_name["cachenet.load"]
    hits = sum(1 for span in remote if span[6]["hit"])
    return {
        "nn.calibration.calls": attr_sum("nn.calibration.calibrate", "computed"),
        "nn.calibration.s": seconds("nn.calibration.calibrate"),
        "arch.tiling.sample.s": seconds("arch.tiling.sample"),
        "arch.tiling.sample.values": attr_sum("arch.tiling.sample", "values"),
        "core.scheduling.masks.s": seconds("core.scheduling.masks"),
        "core.kernels.drain.calls": len(by_name["core.kernels.drain"]),
        "core.kernels.drain.s": drain_s,
        "core.kernels.drain.columns": columns,
        "core.kernels.drain.ns_per_column": drain_s * 1e9 / columns if columns else 0.0,
        "core.sweep.ssr.s": seconds("core.sweep.ssr"),
        "core.sweep.self_s": sum(selfs[span[0]] for span in by_name["core.sweep.sweep"]),
        "runtime.engine.simulate.calls": len(by_name["runtime.engine.simulate"]),
        "runtime.engine.simulate.s": seconds("runtime.engine.simulate"),
        "runtime.cache.get.calls": len(by_name["runtime.cache.get"]),
        "runtime.cache.get.hits": sum(1 for span in by_name["runtime.cache.get"] if span[6]["hit"]),
        "runtime.cache.get.s": seconds("runtime.cache.get"),
        "runtime.cache.put.calls": len(by_name["runtime.cache.put"]),
        "runtime.cache.put.s": seconds("runtime.cache.put"),
        "cachenet.hits": hits,
        "cachenet.misses": len(remote) - hits,
        "cachenet.degraded": attr_sum("cachenet.load", "degraded") + attr_sum("cachenet.store", "degraded"),
        "cachenet.hit_ratio": hits / len(remote) if remote else 0.0,
    }


def layer_self_seconds(spans: list[tuple]) -> float:
    """Summed self time of the program's layer spans (the benchmark's own
    ``bench.*`` root spans excluded)."""
    selfs = self_times(spans)
    return sum(selfs[span[0]] for span in spans if not span[3].startswith("bench."))


def timing_metrics(responses: list[dict]) -> dict[str, float]:
    """Serve-layer metrics from the ``timings`` of terminal responses.

    Each response dict carries ``timings`` (server side) and ``latency_ms``
    measured by the client from the moment it wrote the request.
    """
    waits = [r["timings"]["queue_wait_seconds"] * 1e3 for r in responses if r.get("timings")]
    execs = [r["timings"]["execution_seconds"] * 1e3 for r in responses if r.get("timings")]
    wire = [
        r["latency_ms"] - r["timings"]["total_seconds"] * 1e3 for r in responses if r.get("timings")
    ]
    return {
        "serve.queue_wait_ms.p50": percentile(waits, 50),
        "serve.queue_wait_ms.p99": percentile(waits, 99),
        "serve.execution_ms.p50": percentile(execs, 50),
        "serve.wire_ms.p50": percentile(wire, 50),
    }


def fabric_metrics(before: dict, after: dict) -> dict[str, float]:
    """Trace-fabric counters gained between two ``RunStats`` dicts (the
    ``stats`` op overlays the fabric's lifetime counters; per-request stats
    views carry none)."""
    def gained(name):
        return after.get(name, 0) - before.get(name, 0)

    return {
        "runtime.trace_cache.calibrations_computed": gained("trace_calibrations_computed"),
        "runtime.trace_cache.calibrations_loaded": gained("trace_calibrations_loaded"),
        "runtime.trace_cache.tensors_built": gained("trace_tensors_built"),
        "runtime.trace_cache.mmaps": gained("traces_mapped"),
    }
