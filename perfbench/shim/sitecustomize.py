"""Loads the benchmark's span tracer into every spawned program process.

The traced run puts this directory on the children's ``PYTHONPATH``, so each
Python process the program starts (serve, cluster coordinator and workers,
cacheserve) imports it at start-up.  It wraps the layer functions and writes
the process's spans to ``$PERFBENCH_SPAN_DIR/spans-<pid>.jsonl`` on
``SIGUSR1`` (sent by the benchmark before shutdown) and at normal exit.
"""

import os

if os.environ.get("PERFBENCH_SPAN_DIR"):
    import atexit
    import signal
    import sys

    sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import tracer

    tracer.install()
    _path = os.path.join(os.environ["PERFBENCH_SPAN_DIR"], f"spans-{os.getpid()}.jsonl")
    signal.signal(signal.SIGUSR1, lambda *_: tracer.dump(_path))
    atexit.register(tracer.dump, _path)
