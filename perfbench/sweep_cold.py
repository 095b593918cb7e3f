"""``sweep_cold``: regenerate Figures 9 and 10 in-process from nothing.

One sweep simulates the ``fig9`` and ``fig10`` variant groups over all six
networks at ``fast`` sampling, through ``runtime.engine.simulate``, in a
fresh ``isolated_session()`` (memory-only result cache, no trace fabric)
with the process-wide calibration memo cleared, so every sweep pays
calibration, pallet sampling, mask packing, the drain kernel and assembly.
Sweeps repeat for about ``--seconds`` (see :func:`run`).  Their cost is
taken in CPU seconds of this process, each sweep scaled by the rounds a
:class:`HostGauge` timed while it ran.
"""

from __future__ import annotations

import contextlib
import os
import random
import statistics
import sys
import time

import tracer
from common import SRC, HostGauge, child_cpu_seconds, peak_rss_mb, program_env, trace_seed
from layers import layer_self_seconds, span_metrics

from repro.analysis.speedup import geometric_mean, stripes_result
from repro.core.accelerator import PragmaticAccelerator
from repro.core.progress import ProgressToken
from repro.core.variants import fig9_variants, fig10_variants
from repro.experiments import fig9, fig10
from repro.experiments.base import get_preset
from repro.nn.networks import NETWORK_NAMES
from repro.runtime import SimulationRequest, TraceSpec, engine, isolated_session

GROUPS = {"fig9": fig9_variants, "fig10": fig10_variants}
#: (network, config) pairs re-simulated through ``PragmaticAccelerator``.
ORACLE_PAIRS = 3
#: Set-ups timed per run (the median is reported).
SETUPS = 5
SETUP_PROBE = (
    "import repro.runtime.engine, repro.core.sweep, repro.experiments.fig9, "
    "repro.experiments.fig10; from repro.runtime import isolated_session\n"
    "with isolated_session(): pass"
)


def time_setup() -> float:
    """CPU seconds from interpreter start until the workload could start
    measuring (median over fresh interpreters)."""
    argv = [sys.executable, "-c", SETUP_PROBE]
    return statistics.median(child_cpu_seconds(argv, env=program_env(), cwd=SRC.parent) for _ in range(SETUPS))


def one_sweep(spec_seed: int, traced: bool = False) -> dict:
    """One cold sweep; returns its timings, results and traces.

    ``seconds`` is wall time; ``cpu``, ``calls`` and ``steps`` (the gaps
    between per-layer progress events) are CPU seconds of this process.
    """
    tracer.original("nn.calibration.calibrate").cache_clear()
    sampling = get_preset("fast").sampling()
    layer_marks: list[float] = []
    token = ProgressToken(
        lambda event: layer_marks.append(time.process_time()) if event["stage"] == "layer" else None
    )
    calls, steps, results = [], [], {}
    layers = 0
    start, start_cpu = time.perf_counter(), time.process_time()
    with isolated_session() as session:
        session.progress = token
        for network in NETWORK_NAMES:
            spec = TraceSpec(network=network, seed=spec_seed)
            for group, variants in GROUPS.items():
                request = SimulationRequest(trace=spec, configs=tuple(variants().items()), sampling=sampling)
                begun = time.process_time()
                layer_marks.clear()
                with tracer.span_context("bench.simulate") if traced else contextlib.nullcontext():
                    # Looked up per call, so the traced run sees the wrapped function.
                    results[network, group] = engine.simulate(request)
                calls.append(time.process_time() - begun)
                steps.extend(b - a for a, b in zip([begun, *layer_marks], layer_marks))
                layers += sum(len(r.layers) for r in results[network, group].values())
        elapsed, cpu = time.perf_counter() - start, time.process_time() - start_cpu
        traces = {network: session.trace(TraceSpec(network=network, seed=spec_seed)) for network in NETWORK_NAMES}
    return {"seconds": elapsed, "window": (start, start + elapsed), "cpu": cpu, "calls": calls, "steps": steps, "layers": layers,
            "results": results, "traces": traces}


def check(sweep: dict, seed: int) -> tuple[list[str], float]:
    """Correctness failures of one sweep, and its error against the paper."""
    failures = []
    geo = {}
    for group, variants in GROUPS.items():
        speedups = {label: [] for label in ("Stripes", *variants())}
        for network in NETWORK_NAMES:
            speedups["Stripes"].append(stripes_result(sweep["traces"][network]).speedup)
            for label, result in sweep["results"][network, group].items():
                speedups[label].append(result.speedup)
        geo[group] = {label: geometric_mean(values) for label, values in speedups.items()}
    g9, g10 = geo["fig9"], geo["fig10"]
    # The shape claims benchmarks/test_bench_fig9.py and test_bench_fig10.py assert.
    claims = {
        "fig9 Stripes < 0-bit": 1.0 < g9["Stripes"] < g9["0-bit"],
        "fig9 monotone": g9["0-bit"] <= g9["1-bit"] <= g9["2-bit"] <= g9["4-bit"] * 1.001,
        "fig9 2-bit ~ 4-bit": abs(g9["2-bit"] / g9["4-bit"] - 1) <= 0.02,
        "fig9 Stripes range": 1.3 <= g9["Stripes"] <= 2.4,
        "fig9 4-bit range": 2.0 <= g9["4-bit"] <= 3.5,
        "fig9 0-bit beats Stripes": g9["0-bit"] / g9["Stripes"] > 1.1,
        "fig10 monotone": g10["1-reg"] <= g10["4-regs"] <= g10["16-regs"] <= g10["perCol-ideal"] * 1.001,
        "fig10 1-reg share": g10["1-reg"] >= 0.85 * g10["perCol-ideal"],
        "fig10 beats Stripes": g10["1-reg"] > g10["Stripes"],
        "fig10 1-reg range": 2.4 <= g10["1-reg"] <= 4.2,
        "fig10 16-regs ~ ideal": abs(g10["perCol-ideal"] / g10["16-regs"] - 1) <= 0.05,
    }
    failures += [f"shape claim failed: {name}" for name, ok in claims.items() if not ok]

    # Bit-identity against the per-configuration oracle on a seeded sample.
    sampling = get_preset("fast").sampling()
    pairs = [(network, group, label) for (network, group) in sweep["results"]
             for label in GROUPS[group]()]
    for network, group, label in random.Random(seed).sample(pairs, ORACLE_PAIRS):
        config = GROUPS[group]()[label]
        direct = PragmaticAccelerator(config).simulate_network(sweep["traces"][network], sampling)
        if direct.layers != sweep["results"][network, group][label].layers:
            failures.append(f"{network}/{label}: sweep differs from PragmaticAccelerator")

    errors = [abs(g9[label] / paper - 1) for label, paper in fig9.PAPER_GEOMEANS.items()]
    errors += [abs(g10[label] / paper - 1) for label, paper in fig10.PAPER_GEOMEANS.items()]
    return failures, sum(errors) / len(errors)


def sweeps(spec_seed: int, seconds: float, traced: bool) -> tuple[list, list, list]:
    """Untraced sweeps, traced sweeps and the latter's spans, for about
    ``seconds``."""
    untraced, traced_sweeps, sweep_spans = [], [], []
    began = time.perf_counter()

    def more() -> bool:
        # Another sweep only if, judged by the last one, it ends within 1.25
        # x --seconds: a run measures whole sweeps for about --seconds.  A
        # traced run needs two sweeps of each kind for its overhead.
        if not untraced or (traced and len(traced_sweeps) < 2):
            return True
        elapsed = time.perf_counter() - began
        return elapsed + untraced[-1]["seconds"] <= 1.25 * seconds

    # A traced run alternates untraced and traced sweeps, so the overhead is
    # measured on the same host state; an untraced run only does the former.
    while more():
        if traced and len(traced_sweeps) < len(untraced):
            tracer.install()
            try:
                traced_sweeps.append(one_sweep(spec_seed, traced=True))
            finally:
                tracer.uninstall()
            sweep_spans.append(tracer.take_spans())
        else:
            untraced.append(one_sweep(spec_seed))
    return untraced, traced_sweeps, sweep_spans


def run(seed: int, seconds: float, traced: bool) -> tuple[bool, int, int, dict, dict]:
    # The sweep and the gauge share one core: a neighbour's load on the
    # host slows the two cores of the VM unequally.
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    with HostGauge(core) as gauge:
        setup_start = time.perf_counter()
        setup_s = None if traced else time_setup()
        setup_window = (setup_start, time.perf_counter())
        untraced, traced_sweeps, sweep_spans = sweeps(trace_seed(seed), seconds, traced)
    last = untraced[-1]
    failures, paper_err = check(last, seed)
    for other in untraced[:-1] + traced_sweeps:
        if any(other["results"][key] != last["results"][key] for key in last["results"]):
            failures.append("repeated sweeps of one seed disagree")
            break
    attempted = sum(len(s["calls"]) for s in untraced + traced_sweeps) + ORACLE_PAIRS
    info = {"sweeps": len(untraced), "traced_sweeps": len(traced_sweeps),
            "layer_steps": sum(len(s["steps"]) for s in untraced),
            "sweep_wall_s": [round(s["seconds"], 3) for s in untraced],
            "sweep_cpu_s": [round(s["cpu"], 3) for s in untraced],
            "host_scale": round(gauge.scale(), 4), "failures": failures}
    if traced:
        wall_u = statistics.median(s["seconds"] for s in untraced)
        wall_t = statistics.median(s["seconds"] for s in traced_sweeps)
        # Per-layer values of one sweep: the median over the traced sweeps.
        per_sweep = [span_metrics(spans) for spans in sweep_spans]
        values = {name: statistics.median(m[name] for m in per_sweep) for name in per_sweep[0]}
        values["trace.overhead_frac"] = wall_t / wall_u - 1
        self_s = statistics.median(layer_self_seconds(spans) for spans in sweep_spans)
        values["trace.self_time_frac"] = self_s / wall_u
        info["accounted"] = abs(values["trace.self_time_frac"] - 1) <= abs(values["trace.overhead_frac"])
        info["coverage"] = self_s / wall_t
        info["spans"] = [span for spans in sweep_spans for span in spans]
        return not failures, attempted, len(failures), values, info
    # Each sweep is scaled by the gauge rounds taken while it ran.
    scales = [gauge.scale(*sweep["window"]) for sweep in untraced]
    metrics = {
        "setup_s": setup_s * gauge.scale(*setup_window),
        "layers_per_s": statistics.median(s["layers"] / s["cpu"] / k for s, k in zip(untraced, scales)),
        "paper_err": paper_err,
        "cpu_ms": statistics.median(statistics.fmean(s["steps"]) * 1e3 * k for s, k in zip(untraced, scales)),
        "cold_cpu_ms": statistics.median(statistics.fmean(s["calls"]) * 1e3 * k for s, k in zip(untraced, scales)),
        "peak_rss_mb": peak_rss_mb([os.getpid()]),
    }
    return not failures, attempted, len(failures), metrics, info
