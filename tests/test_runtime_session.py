"""Tests for sessions and run statistics.

The serving layer reports per-request stats as dicts over the wire and
rebuilds them with ``RunStats.merge``, so the dict path and the
merge-after-``as_dict`` round trip are load-bearing contracts here.
"""

import threading

from repro.runtime import RunStats, RuntimeSession, current_session, use_session


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
