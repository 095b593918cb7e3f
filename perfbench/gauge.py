"""Host speed reference: times a fixed task at intervals until told to stop.

    python3 perfbench/gauge.py INTERVAL_S

runs one round of :func:`reference_round` every ``INTERVAL_S`` seconds
until its standard input closes, then prints a JSON list of
``[end, cpu]`` pairs: when each round ended (``time.perf_counter``, which
every process on the host shares) and its thread CPU time, in seconds.  ``common.HostGauge`` runs it beside a
workload, so the rounds sample the host over the same time as the
measurement, at a duty cycle of a few percent.
"""

import json
import select
import sys
import time

import numpy as np

DOC = {"op": "simulate", "layers": [{"cycles": i, "terms": 3 * i} for i in range(40)]}


def reference_round(words: np.ndarray) -> int:
    """About 1.5 ms of fixed work in the program's mix: interpreter loops,
    JSON, and small-array numpy bit arithmetic."""
    acc, table = 0, {}
    for i in range(3000):
        key = i & 255
        table[key] = table.get(key, 0) + (i ^ key)
        acc += len(str(i))
    for _ in range(6):
        json.loads(json.dumps(DOC))
    for _ in range(40):
        masked = (words >> 3) & 0x1FF
        acc += int(np.cumsum(masked, dtype=np.uint64)[-1] & 0xFF) + int(np.sort(masked)[2048])
    return acc


def main() -> None:
    interval = float(sys.argv[1])
    words = np.random.default_rng(0).integers(0, 1 << 16, 4096, dtype=np.uint32)
    reference_round(words)
    times = []
    while True:
        start = time.thread_time()
        reference_round(words)
        times.append((time.perf_counter(), time.thread_time() - start))
        if select.select([sys.stdin], [], [], interval)[0]:
            break
    print(json.dumps(times))


if __name__ == "__main__":
    main()
