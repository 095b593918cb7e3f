"""Tests for sessions and run statistics.

The serving layer reports per-request stats as dicts over the wire and
rebuilds them with ``RunStats.merge``, so the dict path and the
merge-after-``as_dict`` round trip are load-bearing contracts here.
"""

import threading

import pytest

from repro.runtime import (
    DEFAULT_CACHE_DIR,
    RunStats,
    RuntimeSession,
    SessionSpec,
    build_session,
    current_session,
    default_cache_dir,
    use_session,
)


def stats_with(hits=0, misses=0, stores=0, errors=0, sims=0, drains=0, built=0, reused=0):
    stats = RunStats()
    stats.cache.hits = hits
    stats.cache.misses = misses
    stats.cache.stores = stores
    stats.cache.errors = errors
    stats.sweep.configs_simulated = sims
    stats.sweep.drain_groups_computed = drains
    stats.traces_built = built
    stats.traces_reused = reused
    return stats


class TestRunStatsMerge:
    def test_merge_accepts_runstats(self):
        total = stats_with(hits=1, sims=2, built=1)
        total.merge(stats_with(hits=2, misses=3, sims=4, reused=5))
        assert total.cache.hits == 3
        assert total.cache.misses == 3
        assert total.sweep.configs_simulated == 6
        assert total.traces_built == 1
        assert total.traces_reused == 5

    def test_merge_accepts_dict(self):
        # The wire path: workers and serve responses ship as_dict() payloads.
        total = stats_with(stores=1, drains=2)
        total.merge(
            {
                "cache": {"hits": 4, "stores": 1},
                "sweep": {"drain_groups_computed": 3},
                "traces_built": 2,
                "traces_reused": 7,
            }
        )
        assert total.cache.hits == 4
        assert total.cache.stores == 2
        assert total.sweep.drain_groups_computed == 5
        assert total.traces_built == 2
        assert total.traces_reused == 7

    def test_merge_accepts_partial_and_empty_dicts(self):
        total = stats_with(hits=1, sims=1)
        total.merge({})
        total.merge({"cache": {}})
        assert total.cache.hits == 1
        assert total.sweep.configs_simulated == 1

    def test_merge_after_as_dict_round_trip(self):
        original = stats_with(hits=3, misses=2, stores=1, errors=1, sims=9, drains=4, built=2, reused=6)
        rebuilt = RunStats()
        rebuilt.merge(original.as_dict())
        assert rebuilt.as_dict() == original.as_dict()
        # Merging the round-tripped dict again doubles every counter.
        rebuilt.merge(original.as_dict())
        assert rebuilt.cache.hits == 6
        assert rebuilt.sweep.configs_simulated == 18
        assert rebuilt.traces_reused == 12

    def test_wire_form_keys_are_pinned(self):
        # perfbench, loadgen and CI read these names: same keys, same order.
        wire = RunStats().as_dict()
        assert list(wire) == [
            "cache",
            "sweep",
            "traces_built",
            "traces_reused",
            "trace_tensors_built",
            "traces_mapped",
            "trace_bytes_shared",
            "trace_calibrations_computed",
            "trace_calibrations_loaded",
        ]
        assert list(wire["cache"]) == [
            "hits",
            "misses",
            "stores",
            "errors",
            "disk_entries",
            "disk_bytes",
            "memo_entries",
            "oldest_age_seconds",
            "shared_gauges",
        ]
        assert list(wire["sweep"]) == ["configs_simulated", "drain_groups_computed"]

    def test_minus_subtracts_counters_and_keeps_gauges(self):
        start = stats_with(hits=2, sims=3, built=1)
        end = stats_with(hits=5, sims=3, built=4)
        end.trace_tensors_built = 2
        end.cache.oldest_age_seconds = 9.0
        end.cache.shared_gauges = True
        delta = end.minus(start)
        assert delta.cache.hits == 3
        assert delta.sweep.configs_simulated == 0
        assert delta.traces_built == 3
        assert delta.trace_tensors_built == 2
        assert delta.cache.oldest_age_seconds == 9.0
        assert delta.cache.shared_gauges is True

    def test_summary_mentions_every_counter_family(self):
        text = stats_with(hits=1, sims=2, built=3).summary()
        assert "cache 1 hits" in text
        assert "simulated 2 configs" in text
        assert "traces 3 built" in text


class TestThreadScopedSessions:
    def test_use_session_overrides_only_the_calling_thread(self):
        outer = current_session()
        inner = RuntimeSession()
        seen_in_thread = []

        def observe():
            seen_in_thread.append(current_session())

        with use_session(inner):
            assert current_session() is inner
            worker = threading.Thread(target=observe)
            worker.start()
            worker.join()
        assert current_session() is outer
        # The other thread saw the process default, not this thread's override.
        assert seen_in_thread == [outer]

    def test_use_session_nests(self):
        first, second = RuntimeSession(), RuntimeSession()
        with use_session(first):
            with use_session(second):
                assert current_session() is second
            assert current_session() is first

    def test_concurrent_threads_hold_distinct_sessions(self):
        sessions = [RuntimeSession() for _ in range(4)]
        observed = {}
        barrier = threading.Barrier(len(sessions))

        def work(index):
            with use_session(sessions[index]):
                barrier.wait()  # all overrides active simultaneously
                observed[index] = current_session()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(sessions))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(observed[i] is sessions[i] for i in range(len(sessions)))


# ------------------------------------------------------------- session specs
#: Storage-flag combinations every CLI must spell back out losslessly.
STORAGE_ARGVS = [
    [],
    ["--cache-dir", "/srv/cache"],
    ["--no-cache"],
    ["--no-cache", "--trace-dir", "/srv/traces"],
    ["--cache-dir", "/srv/cache", "--trace-dir", "/srv/traces", "--no-trace-cache"],
    ["--cache-backend", "remote://127.0.0.1:9"],
    ["--cache-backend", "remote://127.0.0.1:9", "--cache-dir", "/srv/fabric"],
]


def _cli_parsers():
    from repro.cluster.cli import _parser as cluster_parser
    from repro.experiments.runner import _parser as runner_parser
    from repro.serve.cli import _parser as serve_parser

    return {"runner": runner_parser, "serve": serve_parser, "cluster": cluster_parser}


def _parse_spec(cli: str, argv: list[str]) -> SessionSpec:
    """``argv`` read back the way ``cli`` reads it (the cluster has no default dir)."""
    args = _cli_parsers()[cli]().parse_args(argv)
    return SessionSpec.from_args(args, None if cli == "cluster" else default_cache_dir())


class _Captured(Exception):
    """Stops a CLI once it has handed over its spec."""


class TestSessionSpec:
    @pytest.mark.parametrize(
        "cli, argv",
        [
            (cli, argv)
            for cli in ("runner", "serve", "cluster")
            for argv in STORAGE_ARGVS
            if not (cli == "cluster" and "--no-cache" in argv)
        ],
    )
    def test_argv_round_trips_through_every_parser(self, cli, argv):
        spec = _parse_spec(cli, argv)
        assert _parse_spec(cli, spec.argv()) == spec

    def test_argv_spells_out_every_setting(self):
        spec = SessionSpec("/c", True, "/t", True, "remote://h:1", shared=True)
        assert spec.argv() == [
            "--cache-dir", "/c", "--no-cache", "--trace-dir", "/t",
            "--no-trace-cache", "--cache-backend", "remote://h:1",
        ]
        assert SessionSpec().argv() == []

    def test_build_session_records_its_spec(self, tmp_path):
        spec = SessionSpec(cache_dir=tmp_path)
        session = build_session(spec)
        assert session.spec is spec
        assert session.cache.directory == tmp_path
        assert session.traces.artifacts.directory == tmp_path / "traces"

    @pytest.mark.parametrize("cli", ["runner", "serve"])
    def test_runner_and_serve_default_to_the_cli_cache_dir(self, cli, monkeypatch, tmp_path):
        import repro.runtime
        import repro.serve.cli

        seen = []

        def capture(*args, **kwargs):
            seen.append(kwargs.get("storage") or args[0])
            raise _Captured

        if cli == "runner":
            from repro.experiments.runner import main

            monkeypatch.setattr(repro.runtime, "run_experiments", capture)
            base = ["--experiment", "table3"]
        else:
            from repro.serve.cli import main

            monkeypatch.setattr(repro.serve.cli, "build_session", capture)
            base = ["--stdio"]
        for env, argv in (
            (None, []),
            (str(tmp_path), []),
            (str(tmp_path), ["--cache-backend", "memory://"]),
        ):
            if env is None:
                monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
            else:
                monkeypatch.setenv("REPRO_CACHE_DIR", env)
            with pytest.raises(_Captured):
                main(base + argv)
        assert [spec.cache_dir for spec in seen] == [DEFAULT_CACHE_DIR, tmp_path, None]
        assert seen[2].cache_backend == "memory://"

    def test_cluster_defaults_to_a_private_dir_removed_on_stop(self):
        import asyncio

        from repro.cluster.cli import _cluster_service, _parser

        args = _parser().parse_args(["--workers", "0", "--connect", "127.0.0.1:1"])
        service = _cluster_service(args)
        directory = service.session.spec.cache_dir
        assert directory.is_dir()
        assert directory.name.startswith("repro-cluster-cache-")
        assert service.session.spec.shared
        asyncio.run(service.stop())
        assert not directory.exists()

    def test_cluster_refuses_no_cache(self, capsys):
        from repro.cluster.cli import main

        with pytest.raises(SystemExit) as error:
            main(["--run", "table3", "--no-cache"])
        assert error.value.code == 2
        assert "--no-cache" in capsys.readouterr().err
