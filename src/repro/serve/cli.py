"""``python -m repro serve`` — command-line entry of the serving front-end.

Modes:

* ``--stdio`` (default) — speak the line-delimited JSON protocol over
  stdin/stdout until EOF or a ``shutdown`` op.
* ``--tcp HOST:PORT`` — listen for concurrent protocol connections
  (``PORT 0`` picks an ephemeral port, printed on startup).
* ``--worker`` — cluster worker mode (``docs/cluster.md``): a TCP service
  with the registration handshake and internal job ops a
  ``python -m repro cluster`` coordinator drives, storing through the
  multi-process-safe shared cache backend.  Requires an auth token and
  prints a one-line JSON banner (bound host/port/pid) on stdout.

``--workers`` bounds concurrent job execution; ``--cache-dir``/``--no-cache``
select the shared result cache exactly like the batch CLI.  ``--auth-token``
(or ``REPRO_SERVE_TOKEN``) demands a constant-time-compared shared secret
from every TCP connection before anything reaches the queue.  Long-lived
servers can enable automatic background cache GC with ``--gc-interval`` plus
``--gc-max-bytes`` and/or ``--gc-max-age`` (same size/age spellings as the
batch CLI's ``--cache-gc``).  See ``docs/serving.md`` for the protocol and
examples; ``python -m pytest tests/e2e -q`` drives it end to end through
spawned worker processes.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import sys

from repro.experiments.base import parse_age, parse_endpoint, parse_size
from repro.runtime.session import SessionSpec, build_session, default_cache_dir

__all__ = ["main"]


def _parse_interval(value: str) -> float:
    seconds = parse_age(value)
    if seconds <= 0:
        raise argparse.ArgumentTypeError("--gc-interval must be positive")
    return seconds


async def _run_worker(args, storage: SessionSpec) -> int:
    """Cluster worker mode: a WorkerService plus a machine-readable banner.

    The coordinator spawns this subprocess, reads one JSON line from stdout
    to learn the bound endpoint, then connects, authenticates and registers
    (see ``docs/cluster.md``).
    """
    from repro.cluster.worker import WorkerService

    # A worker always anchors its trace fabric in a directory, even when
    # results live behind a --cache-backend.
    storage = dataclasses.replace(
        storage, cache_dir=storage.cache_dir or default_cache_dir(), shared=True
    )
    try:
        service = WorkerService(
            session=build_session(storage),
            workers=args.workers,
            auth_token=args.auth_token,
            gc_interval=args.gc_interval,
            gc_max_bytes=args.gc_max_bytes,
            gc_max_age=args.gc_max_age,
        )
    except ValueError as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 2
    async with service:
        server = await service.serve_tcp(*args.worker_endpoint)
        bound = server.sockets[0].getsockname()
        print(
            json.dumps(
                {
                    "event": "worker-listening",
                    "host": bound[0],
                    "port": bound[1],
                    "pid": os.getpid(),
                    "cache_dir": str(storage.cache_dir),
                    "trace_dir": str(storage.trace_directory()),
                }
            ),
            flush=True,
        )
        async with server:
            await service.wait_shutdown()
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve experiment/simulation requests from one warm runtime session.",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--stdio",
        action="store_true",
        help="speak the JSON-lines protocol over stdin/stdout (default)",
    )
    mode.add_argument(
        "--tcp",
        type=parse_endpoint,
        metavar="HOST:PORT",
        help="listen for protocol connections on HOST:PORT (port 0 = ephemeral)",
    )
    mode.add_argument(
        "--worker",
        action="store_true",
        help="cluster worker mode: TCP service with a registration handshake "
        "and a multi-process-safe shared cache (requires an auth token; "
        "prints a JSON banner with the bound endpoint on stdout)",
    )
    parser.add_argument(
        "--worker-endpoint",
        type=parse_endpoint,
        default=("127.0.0.1", 0),
        metavar="HOST:PORT",
        help="endpoint of --worker mode (default: 127.0.0.1:0, ephemeral)",
    )
    parser.add_argument(
        "--auth-token",
        default=None,
        metavar="TOKEN",
        help="require TCP clients to authenticate with this shared secret "
        "before anything reaches the queue (default: $REPRO_SERVE_TOKEN; "
        "mandatory in --worker mode)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="bound on concurrently executing jobs (default: 2)",
    )
    gc = parser.add_argument_group("background cache GC")
    gc.add_argument(
        "--gc-interval",
        type=_parse_interval,
        default=None,
        metavar="AGE",
        help="collect the disk cache every AGE (e.g. 900 or 15m); requires "
        "--gc-max-bytes and/or --gc-max-age",
    )
    gc.add_argument(
        "--gc-max-bytes",
        type=parse_size,
        default=None,
        metavar="SIZE",
        help="byte cap enforced by each background GC pass (e.g. 500M)",
    )
    gc.add_argument(
        "--gc-max-age",
        type=parse_age,
        default=None,
        metavar="AGE",
        help="evict entries unused for AGE on each background GC pass (e.g. 30d)",
    )
    SessionSpec.add_arguments(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    storage = SessionSpec.from_args(args, default_cache_dir())
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.gc_interval is not None and args.gc_max_bytes is None and args.gc_max_age is None:
        parser.error("--gc-interval needs --gc-max-bytes and/or --gc-max-age")
    if args.gc_interval is not None and args.no_cache:
        parser.error("background GC requires a disk cache (drop --no-cache)")

    if args.auth_token is None:
        args.auth_token = os.environ.get("REPRO_SERVE_TOKEN") or None

    if args.worker:
        if args.no_cache:
            parser.error("--worker needs the shared cache (drop --no-cache)")
        return asyncio.run(_run_worker(args, storage))

    from repro.serve.service import ExperimentService

    service = ExperimentService(
        session=build_session(storage),
        workers=args.workers,
        gc_interval=args.gc_interval,
        gc_max_bytes=args.gc_max_bytes,
        gc_max_age=args.gc_max_age,
        auth_token=args.auth_token,
    )

    async def run_tcp(host: str, port: int) -> None:
        async with service:
            server = await service.serve_tcp(host, port)
            bound = server.sockets[0].getsockname()
            print(f"repro serve: listening on {bound[0]}:{bound[1]}", file=sys.stderr)
            async with server:
                # Returns when a client sends the shutdown op (or on ^C).
                await service.wait_shutdown()

    try:
        if args.tcp:
            asyncio.run(run_tcp(*args.tcp))
        else:
            asyncio.run(service.run_stdio())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
