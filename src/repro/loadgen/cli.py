"""``python -m repro loadgen`` — drive sustained traffic, report, and gate.

Modes:

* **run** (default) — replay a seeded request mix against a serve-protocol
  endpoint and emit the report: human-readable text on stderr, schema-checked
  JSON on stdout (or ``--json FILE``).  The target is either an existing
  server (``--connect HOST:PORT``) or — for hermetic runs — a target this
  command spawns and tears down itself: ``--spawn serve`` (one process,
  ``--workers`` execution slots, private temp cache) or ``--spawn cluster``
  (a coordinator over ``--workers`` worker processes, private temp cache).
* ``--gate [FILE]`` — the CI regression gate: compare the two newest records
  of the perf trajectory (default ``benchmarks/reports/bench_summary.json``)
  and exit non-zero on any >``--gate-threshold`` regression of an experiment
  wall time or a loadgen p95 (policy in ``docs/loadgen.md``).

The mix comes from ``--mix FILE`` (JSON, see ``docs/loadgen.md``) with
individual flags overriding single fields; every run is deterministic in its
``--seed``.  ``--append-trajectory`` records the run's percentiles into the
trajectory under the current git sha, which is how each PR's loadgen baseline
lands next to its benchmark wall times.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import re
import sys
import tempfile
from pathlib import Path

from repro.loadgen.gate import DEFAULT_MIN_SECONDS, DEFAULT_THRESHOLD, check_gate_file
from repro.loadgen.mix import MixError, MixSpec
from repro.loadgen.report import validate_report
from repro.loadgen.swarm import LoadSwarm
from repro.loadgen.trajectory import append_loadgen_section, current_git_sha

__all__ = ["main", "DEFAULT_TRAJECTORY"]

#: The repo's perf trajectory (resolved relative to this checkout; falls back
#: to a cwd-relative path when running from an installed package).
_REPO_ROOT = Path(__file__).resolve().parents[3]
DEFAULT_TRAJECTORY = (
    _REPO_ROOT / "benchmarks" / "reports" / "bench_summary.json"
    if (_REPO_ROOT / "benchmarks").is_dir()
    else Path("benchmarks/reports/bench_summary.json")
)

#: Endpoint banners of the spawnable targets (both print to stderr).
_BANNER = re.compile(r"(?:listening on|coordinator on) ([\d.]+):(\d+)")

#: Seconds allowed for a spawned target to print its endpoint banner
#: (cluster startup includes per-worker spawn + handshake).
SPAWN_TIMEOUT = 180.0

#: Bytes of a spawned target's later stderr kept for diagnostics.
STDERR_TAIL_BYTES = 64 * 1024


class SpawnError(RuntimeError):
    """The spawned target never became ready."""


class _SpawnedTarget:
    """A serve/cluster subprocess owned by this load run (hermetic)."""

    def __init__(
        self,
        kind: str,
        workers: int,
        worker_processes: int,
        cache_backend: str | None = None,
    ) -> None:
        self.kind = kind
        self.workers = workers
        self.worker_processes = worker_processes
        self.cache_backend = cache_backend
        self.process: asyncio.subprocess.Process | None = None
        self.host: str | None = None
        self.port: int | None = None
        self._tmp: tempfile.TemporaryDirectory | None = None
        #: The last :data:`STDERR_TAIL_BYTES` the target wrote after its banner.
        self.stderr_tail = b""
        self._drain: asyncio.Task | None = None

    def _command(self) -> list[str]:
        from repro.runtime.session import SessionSpec

        if self.kind == "serve":
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-loadgen-cache-")
            command = [
                sys.executable, "-m", "repro", "serve",
                "--tcp", "127.0.0.1:0",
                "--workers", str(self.workers),
            ]
            storage = SessionSpec(cache_dir=self._tmp.name, cache_backend=self.cache_backend)
        else:
            # Cluster: cache_dir omitted on purpose — the coordinator creates
            # and removes a private shared directory itself.
            command = [
                sys.executable, "-m", "repro", "cluster",
                "--tcp", "127.0.0.1:0",
                "--workers", str(self.workers),
                "--worker-processes", str(self.worker_processes),
            ]
            storage = SessionSpec(cache_backend=self.cache_backend)
        return command + storage.argv()

    async def __aenter__(self) -> "_SpawnedTarget":
        self.process = await asyncio.create_subprocess_exec(
            *self._command(),
            stdout=asyncio.subprocess.DEVNULL,
            stderr=asyncio.subprocess.PIPE,
        )
        try:
            await asyncio.wait_for(self._await_banner(), SPAWN_TIMEOUT)
        except asyncio.TimeoutError:
            await self._terminate()
            raise SpawnError(
                f"spawned {self.kind} produced no endpoint banner within {SPAWN_TIMEOUT:.0f}s"
            ) from None
        except BaseException:
            await self._terminate()
            raise
        self._drain = asyncio.create_task(self._drain_stderr())
        return self

    async def _await_banner(self) -> None:
        assert self.process is not None and self.process.stderr is not None
        while True:
            line = await self.process.stderr.readline()
            if not line:
                code = await self.process.wait()
                raise SpawnError(f"spawned {self.kind} exited early (code {code})")
            match = _BANNER.search(line.decode("utf-8", "replace"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return

    async def _drain_stderr(self) -> None:
        """Read the target's stderr to EOF: a target blocked writing to a
        full pipe would stall the whole load run."""
        while chunk := await self.process.stderr.read(STDERR_TAIL_BYTES):
            self.stderr_tail = (self.stderr_tail + chunk)[-STDERR_TAIL_BYTES:]

    async def __aexit__(self, *exc_info) -> None:
        await self._shutdown()

    async def _shutdown(self) -> None:
        """Ask the target to shut down via the protocol; escalate if deaf."""
        from repro.serve.client import ServeClient

        if self.process is not None and self.process.returncode is None and self.port:
            with contextlib.suppress(Exception):
                client = await ServeClient.connect(self.host, self.port)
                await asyncio.wait_for(client.shutdown(), timeout=15)
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self.process.wait(), timeout=30)
        await self._terminate()
        if self._drain is not None:
            self._drain.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._drain
        if self._tmp is not None:
            self._tmp.cleanup()

    async def _terminate(self) -> None:
        if self.process is None or self.process.returncode is not None:
            return
        with contextlib.suppress(ProcessLookupError):
            self.process.terminate()
        try:
            await asyncio.wait_for(self.process.wait(), timeout=10)
        except asyncio.TimeoutError:  # pragma: no cover - last resort
            with contextlib.suppress(ProcessLookupError):
                self.process.kill()
            await self.process.wait()


def _parse_weights(text: str, what: str) -> dict:
    """``name=3,other`` → ``{"name": 3.0, "other": 1.0}`` (validated later)."""
    weights: dict = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, weight = chunk.partition("=")
        try:
            weights[name.strip()] = float(weight) if weight else 1.0
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad {what} weight {chunk!r} (expected name or name=weight)"
            ) from None
    if not weights:
        raise argparse.ArgumentTypeError(f"empty {what} list")
    return weights


def _build_mix(args) -> MixSpec:
    """Mix file (if any) + CLI field overrides → a validated MixSpec."""
    data: dict = {}
    if args.mix:
        data = json.loads(Path(args.mix).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise MixError("mix spec must be a JSON object")
    for name in (
        "requests", "clients", "seed", "hot_ratio", "stream_ratio",
        "cancel_rate", "ramp_seconds", "think_seconds",
    ):
        value = getattr(args, name)
        if value is not None:
            data[name] = value
    if args.experiments is not None:
        data["experiments"] = args.experiments
    if args.presets is not None:
        data["presets"] = args.presets
    if args.overrides is not None:
        data["overrides"] = json.loads(args.overrides)
    return MixSpec.from_dict(data)


async def _run(args, mix: MixSpec) -> int:
    if args.spawn:
        async with _SpawnedTarget(
            args.spawn, args.workers, args.worker_processes,
            cache_backend=args.cache_backend,
        ) as target:
            swarm = LoadSwarm(
                mix, target.host, target.port, auth_token=args.auth_token, target=args.spawn
            )
            report = await swarm.run()
    else:
        host, port = args.connect
        swarm = LoadSwarm(mix, host, port, auth_token=args.auth_token, target="connect")
        report = await swarm.run()

    payload = report.to_dict()
    validate_report(payload)  # a malformed report must fail loudly, not ship
    print(report.to_text(), file=sys.stderr)
    rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.json:
        Path(args.json).write_text(rendered, encoding="utf-8")
        print(f"loadgen: report written to {args.json}", file=sys.stderr)
    else:
        sys.stdout.write(rendered)
    if args.append_trajectory is not None:
        path = args.append_trajectory or DEFAULT_TRAJECTORY
        record = append_loadgen_section(
            path,
            target=args.spawn or "connect",
            section=report.trajectory_section(),
            git_sha=current_git_sha(_REPO_ROOT),
            label=args.label,
        )
        print(
            f"loadgen: trajectory record {record['index']} updated in {path}",
            file=sys.stderr,
        )
    if report.done == 0:
        print("loadgen: no request completed", file=sys.stderr)
        return 1
    if report.failed:
        print(f"loadgen: {report.failed} request(s) failed", file=sys.stderr)
        return 1
    return 0


def _run_gate(args) -> int:
    path = args.gate or DEFAULT_TRAJECTORY
    result = check_gate_file(
        path, threshold=args.gate_threshold, min_seconds=args.gate_min_seconds
    )
    print(result.describe())
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    from repro.experiments.base import parse_endpoint

    parser = argparse.ArgumentParser(
        prog="repro loadgen",
        description="Sustained-traffic load harness, perf trajectory and regression gate.",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--connect", type=parse_endpoint, metavar="HOST:PORT",
        help="load an already-running serve/cluster endpoint",
    )
    mode.add_argument(
        "--spawn", choices=("serve", "cluster"),
        help="spawn the target for a hermetic run (private temp cache), "
        "tear it down afterwards",
    )
    mode.add_argument(
        "--gate", nargs="?", const="", metavar="FILE",
        help="regression-gate the perf trajectory (default: "
        "benchmarks/reports/bench_summary.json) and exit",
    )
    parser.add_argument("--auth-token", default=None, help="shared secret of the target")
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="--spawn serve: execution slots; --spawn cluster: worker processes "
        "(default: 2)",
    )
    parser.add_argument(
        "--worker-processes", type=int, default=2, metavar="K",
        help="--spawn cluster: concurrent jobs per worker (default: 2)",
    )
    parser.add_argument(
        "--cache-backend", default=None, metavar="SPEC",
        help="--spawn: mount a result-cache backend spec on the target "
        "(e.g. remote://HOST:PORT, docs/cachenet.md) instead of its "
        "private temp cache; the report then carries a remote_cache block",
    )
    mix_group = parser.add_argument_group("request mix (see docs/loadgen.md)")
    mix_group.add_argument("--mix", metavar="FILE", help="JSON mix spec (flags override fields)")
    mix_group.add_argument("--requests", type=int, default=None, metavar="N")
    mix_group.add_argument("--clients", type=int, default=None, metavar="N")
    mix_group.add_argument("--seed", type=int, default=None, metavar="N")
    mix_group.add_argument("--hot-ratio", type=float, default=None, metavar="F")
    mix_group.add_argument("--stream-ratio", type=float, default=None, metavar="F")
    mix_group.add_argument("--cancel-rate", type=float, default=None, metavar="F")
    mix_group.add_argument("--ramp-seconds", type=float, default=None, metavar="S")
    mix_group.add_argument("--think-seconds", type=float, default=None, metavar="S")
    mix_group.add_argument(
        "--experiments", type=lambda text: _parse_weights(text, "experiments"),
        default=None, metavar="NAME[=W],...",
    )
    mix_group.add_argument(
        "--presets", type=lambda text: _parse_weights(text, "presets"),
        default=None, metavar="NAME[=W],...",
    )
    mix_group.add_argument(
        "--overrides", default=None, metavar="JSON",
        help='preset overrides for every request, e.g. \'{"networks": ["alexnet"]}\'',
    )
    out = parser.add_argument_group("output")
    out.add_argument("--json", metavar="FILE", help="write the JSON report here instead of stdout")
    out.add_argument(
        "--append-trajectory", nargs="?", const="", default=None, metavar="FILE",
        help="record this run's percentiles into the perf trajectory "
        "(default file: benchmarks/reports/bench_summary.json)",
    )
    out.add_argument("--label", default=None, help="label for the trajectory record (e.g. 'PR 6')")
    gate_group = parser.add_argument_group("gate policy")
    gate_group.add_argument(
        "--gate-threshold", type=float, default=DEFAULT_THRESHOLD, metavar="F",
        help=f"maximum tolerated relative slowdown (default: {DEFAULT_THRESHOLD})",
    )
    gate_group.add_argument(
        "--gate-min-seconds", type=float, default=DEFAULT_MIN_SECONDS, metavar="S",
        help=f"skip metrics with a baseline below S seconds (default: {DEFAULT_MIN_SECONDS})",
    )
    args = parser.parse_args(argv)

    if args.gate is not None:
        return _run_gate(args)
    if not args.spawn and not args.connect:
        parser.error("pick a target: --spawn serve|cluster or --connect HOST:PORT")
    if args.workers < 1 or args.worker_processes < 1:
        parser.error("--workers and --worker-processes must be at least 1")
    if args.cache_backend and not args.spawn:
        parser.error("--cache-backend requires --spawn (a connected target "
                     "already chose its backend)")
    try:
        mix = _build_mix(args)
    except (MixError, ValueError) as error:
        parser.error(str(error))
    try:
        return asyncio.run(_run(args, mix))
    except SpawnError as error:
        print(f"loadgen: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
