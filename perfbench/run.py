"""Benchmark of the Pragmatic simulator and its serving stack.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 12 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload untraced and traced and prints the per-layer metrics, writing the
spans to ``.bench_build/perfbench/spans-<workload>-<seed>.jsonl``.  The last
line of standard output is the result object; the line before it carries
the host identity, the run's inputs and its checks.  A failed correctness
check exits with code 1.  See ``perfbench/README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # never rewrite the repository's tracked .pyc files

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import SRC, WORK, host_identity  # noqa: E402
from layers import write_spans  # noqa: E402

#: Each workload is the module of that name, with ``run(seed, seconds, traced)``.
WORKLOADS = ("sweep_cold", "serve_hot", "fleet_mixed")


def import_program() -> None:
    """Import the simulator from this checkout's ``src/`` (and only there)."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import the program from {SRC}: {error}")
    if Path(repro.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    started = time.perf_counter()
    workload = importlib.import_module(args.workload)
    correct, attempted, failed, values, info = workload.run(args.seed, args.seconds, bool(args.trace))
    spans = info.pop("spans", None)
    if spans is not None:
        WORK.mkdir(parents=True, exist_ok=True)
        path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        write_spans(path, spans)
        info["span_file"] = str(path.relative_to(SRC.parent))
        info["span_count"] = len(spans)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                wall_s=round(time.perf_counter() - started, 3), host=host_identity(info["host_scale"]))
    print(json.dumps(info), flush=True)
    # Units are declared once, in BENCHMARK.json.  Every end-to-end metric
    # must be measured; a layer a workload never reaches reports 0.
    declared = json.loads((SRC.parent / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    names = {metric["name"] for metric in declared}
    if not set(values) <= names or (not args.trace and set(values) != names):
        raise SystemExit(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {
        metric["name"]: {"value": float(values.get(metric["name"], 0.0)), "unit": metric["unit"]}
        for metric in declared
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
