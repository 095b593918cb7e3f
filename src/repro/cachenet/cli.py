"""``python -m repro cacheserve`` — the standalone network cache server.

Serves the length-prefixed JSON frame protocol of ``docs/cachenet.md`` on
``--tcp HOST:PORT`` (default ``127.0.0.1:0``) until interrupted or a client
sends the ``shutdown`` op.  The bound endpoint is announced on stderr
(``cacheserve listening on HOST:PORT``), so port ``0`` works in scripts.

``--cache-dir`` names the entry directory (the standard gzip entry files plus
the lifecycle manifest — a cache server can adopt any existing cache
directory).  ``--auth-token`` (or ``REPRO_CACHE_TOKEN``) demands a
constant-time-compared shared secret from every connection.  ``--gc-max-age``
is the TTL: with ``--gc-interval`` a background thread evicts entries older
than it; ``--gc-max-bytes`` caps the store LRU-first, same spellings as the
batch CLI's ``--cache-gc``.  The cold / host-fresh warm / degraded ladder
against a 2-worker cluster runs as ``python -m pytest tests/e2e -q``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.experiments.base import parse_age, parse_endpoint, parse_size
from repro.runtime.session import default_cache_dir

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro cacheserve",
        description="Serve one shared result-cache tier to remote backends over TCP.",
    )
    parser.add_argument(
        "--tcp",
        type=parse_endpoint,
        default=("127.0.0.1", 0),
        metavar="HOST:PORT",
        help="endpoint to listen on (default: 127.0.0.1:0, ephemeral)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="entry directory to serve (default: ~/.cache/repro-pragmatic "
        "or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--auth-token",
        default=None,
        metavar="TOKEN",
        help="require clients to authenticate with this shared secret "
        "(default: $REPRO_CACHE_TOKEN)",
    )
    gc = parser.add_argument_group("background GC / TTL")
    gc.add_argument(
        "--gc-interval",
        type=parse_age,
        default=60.0,
        metavar="AGE",
        help="seconds between background GC passes (default: 60)",
    )
    gc.add_argument(
        "--gc-max-bytes",
        type=parse_size,
        default=None,
        metavar="SIZE",
        help="byte cap enforced LRU-first by each background pass (e.g. 500M)",
    )
    gc.add_argument(
        "--gc-max-age",
        "--ttl",
        type=parse_age,
        default=None,
        metavar="AGE",
        dest="gc_max_age",
        help="TTL: evict entries unused for AGE (e.g. 30d)",
    )
    args = parser.parse_args(argv)

    if args.auth_token is None:
        args.auth_token = os.environ.get("REPRO_CACHE_TOKEN") or None

    from repro.cachenet.server import CacheServer

    server = CacheServer(
        args.cache_dir or default_cache_dir(),
        auth_token=args.auth_token,
        gc_max_bytes=args.gc_max_bytes,
        gc_max_age=args.gc_max_age,
        gc_interval=args.gc_interval,
    )
    host, port = server.start(*args.tcp)
    print(
        f"repro cacheserve: listening on {host}:{port} "
        f"(cache dir: {server.directory})",
        file=sys.stderr,
        flush=True,
    )
    try:
        # serve_forever runs on the daemon thread; park until interrupted or
        # a client's shutdown op stops the server from within.
        while not server.wait_stopped(timeout=0.5):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
