"""Tests for the load harness: mixes, metrics, trajectory, gate, swarm.

The loadgen contract: a mix spec compiles into a byte-identical schedule for
the same seed (two PRs replay the same traffic), percentiles come back within
the histogram's configured relative error, the perf trajectory only ever
appends (one record per git sha), and the regression gate fails on a >20%
slowdown of any comparable metric while refusing to compare noise or
different workloads.
"""

import asyncio
import hashlib
import json
import math
import pathlib
import random
import sys

import pytest

from repro.loadgen import (
    LatencyHistogram,
    LoadSwarm,
    MixError,
    MixSpec,
    check_gate,
    load_trajectory,
    save_trajectory,
    upsert_record,
    validate_report,
)
from repro.loadgen.gate import check_gate_file
from repro.loadgen.trajectory import (
    TRAJECTORY_SCHEMA,
    append_experiment_measurement,
    append_loadgen_section,
)
from repro.serve import ExperimentService, ServeClient


def run(coro):
    return asyncio.run(coro)


# ------------------------------------------------------------------- mix specs
class TestMixSpec:
    def test_defaults_round_trip(self):
        mix = MixSpec.from_dict(MixSpec().to_dict())
        assert mix == MixSpec()

    def test_rejects_unknown_fields(self):
        with pytest.raises(MixError, match="unknown mix field"):
            MixSpec.from_dict({"requets": 10})

    def test_rejects_unknown_experiment(self):
        with pytest.raises(MixError, match="unknown experiment"):
            MixSpec.from_dict({"experiments": {"not_an_experiment": 1}})

    def test_rejects_unknown_preset(self):
        with pytest.raises(MixError, match="unknown preset"):
            MixSpec.from_dict({"presets": {"turbo": 1}})

    def test_rejects_out_of_range_ratio(self):
        with pytest.raises(MixError, match="hot_ratio"):
            MixSpec.from_dict({"hot_ratio": 1.5})

    def test_rejects_non_positive_weight(self):
        with pytest.raises(MixError, match="weight"):
            MixSpec.from_dict({"experiments": {"table1": 0}})

    def test_rejects_bool_masquerading_as_number(self):
        with pytest.raises(MixError):
            MixSpec.from_dict({"requests": True})

    def test_rejects_bad_overrides(self):
        with pytest.raises(MixError, match="overrides"):
            MixSpec.from_dict({"overrides": ["networks"]})

    def test_rejects_unknown_network(self):
        with pytest.raises(MixError, match="unknown network"):
            MixSpec.from_dict({"networks": {"resnet50": 1}})

    def test_rejects_unknown_variants_group(self):
        with pytest.raises(MixError, match="unknown variants group"):
            MixSpec.from_dict({"variants": "fig99"})

    def test_rejects_unknown_encoding(self):
        with pytest.raises(MixError, match="unknown encoding"):
            MixSpec.from_dict({"encodings": {"gray-code": 1}})

    def test_rejects_encodings_group_with_pinned_encodings(self):
        """variants=encodings already spans the registry; weighting other
        encodings on top of it is contradictory."""
        with pytest.raises(MixError, match="spans every encoding"):
            MixSpec.from_dict({"variants": "encodings", "encodings": {"csd": 1}})
        # Positional-only (the default) and an explicit default are fine.
        MixSpec.from_dict({"variants": "encodings"})
        MixSpec.from_dict({"variants": "encodings", "encodings": {"positional": 1}})

    def test_simulate_fields_round_trip(self):
        spec = {
            "simulate_ratio": 0.5,
            "networks": {"alexnet": 2, "vgg_m": 1},
            "variants": "fig10",
            "encodings": {"csd": 1, "hese": 2},
        }
        mix = MixSpec.from_dict(spec)
        assert mix.simulate_ratio == 0.5
        assert dict(mix.networks) == {"alexnet": 2.0, "vgg_m": 1.0}
        assert mix.variants == "fig10"
        assert dict(mix.encodings) == {"csd": 1.0, "hese": 2.0}
        assert MixSpec.from_dict(mix.to_dict()) == mix

    def test_from_file(self, tmp_path):
        path = tmp_path / "mix.json"
        path.write_text(json.dumps({"requests": 5, "seed": 42, "hot_ratio": 1.0}))
        mix = MixSpec.from_file(path)
        assert (mix.requests, mix.seed, mix.hot_ratio) == (5, 42, 1.0)

    def test_from_file_missing(self, tmp_path):
        with pytest.raises(MixError, match="cannot read"):
            MixSpec.from_file(tmp_path / "absent.json")


class TestCommittedMixes:
    """Every mix spec checked into benchmarks/mixes must stay loadable."""

    def mix_files(self):
        mixes = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "mixes"
        files = sorted(mixes.glob("*.json"))
        assert files, "benchmarks/mixes must contain at least the soak mix"
        return files

    def test_all_committed_mixes_load_and_schedule(self):
        for path in self.mix_files():
            mix = MixSpec.from_file(path)
            schedule = mix.schedule()
            assert len(schedule) == mix.requests
            assert schedule == MixSpec.from_file(path).schedule()

    def test_sweep_soak_schedule_unchanged_by_simulate_fields(self):
        """The simulate/encoding mix fields added no RNG draws to specs that
        leave them defaulted: the committed soak's compiled schedule is still
        byte-identical to the pre-encoding format (pinned by hash)."""
        path = next(p for p in self.mix_files() if p.name == "sweep_soak.json")
        schedule = MixSpec.from_file(path).schedule()
        payload = json.dumps(
            [planned.__dict__ for planned in schedule], sort_keys=True, default=str
        )
        digest = hashlib.sha256(payload.encode()).hexdigest()
        assert digest == (
            "b6e6f4f8492a6acc2e8d84ef1b6ba88aaa8cb12a856f66d82060748d647cec03"
        )

    def test_encoding_mix_reaches_every_encoding(self):
        """The committed mixed-encoding mix schedules simulate traffic under
        all four registered encodings, deterministically."""
        from repro.numerics.encodings import encoding_names

        path = next(p for p in self.mix_files() if p.name == "encoding_mix.json")
        mix = MixSpec.from_file(path)
        assert set(dict(mix.encodings)) == set(encoding_names())
        schedule = mix.schedule()
        simulate = [p for p in schedule if p.message["op"] == "simulate"]
        assert simulate, "the encoding mix must carry simulate traffic"
        seen = {p.message.get("encoding", "positional") for p in simulate}
        assert seen == set(encoding_names())
        # positional ops omit the field entirely (wire compat with servers
        # that predate it).
        assert all("encoding" not in p.message or
                   p.message["encoding"] != "positional" for p in simulate)
        assert schedule == MixSpec.from_file(path).schedule()

    def test_sweep_soak_targets_the_sweep_engine(self):
        path = next(p for p in self.mix_files() if p.name == "sweep_soak.json")
        mix = MixSpec.from_file(path)
        weights = dict(mix.experiments)
        # The soak exists to hold the batched drain kernel under sustained
        # sweep traffic: the sweep-heavy figures must dominate the mix.
        sweep_heavy = weights.get("fig9", 0) + weights.get("fig10", 0) + \
            weights.get("fig11", 0) + weights.get("table5", 0)
        assert sweep_heavy > sum(weights.values()) / 2
        assert dict(mix.presets) == {"fast": 1.0}
        assert mix.requests >= 1000


class TestSchedule:
    def test_same_seed_identical_schedule(self):
        mix = MixSpec(requests=40, seed=3)
        assert mix.schedule() == mix.schedule()

    def test_different_seed_differs(self):
        base = MixSpec(requests=40, seed=3).schedule()
        other = MixSpec(requests=40, seed=4).schedule()
        assert base != other

    def test_hot_requests_draw_from_small_pool(self):
        mix = MixSpec(requests=60, hot_ratio=1.0, hot_pool=3, seed=0)
        schedule = mix.schedule()
        assert all(planned.hot for planned in schedule)
        shapes = {json.dumps(planned.message, sort_keys=True) for planned in schedule}
        assert len(shapes) <= 3
        assert all(planned.message["seed"] < 3 for planned in schedule)

    def test_cold_requests_never_collide(self):
        mix = MixSpec(requests=60, hot_ratio=0.0, seed=0)
        schedule = mix.schedule()
        assert not any(planned.hot for planned in schedule)
        seeds = [planned.message["seed"] for planned in schedule]
        assert len(set(seeds)) == len(seeds)
        assert min(seeds) >= 1000  # disjoint from the hot pool's small seeds

    def test_clients_assigned_round_robin(self):
        schedule = MixSpec(requests=10, clients=3).schedule()
        assert [planned.client for planned in schedule] == [
            index % 3 for index in range(10)
        ]

    def test_simulate_free_specs_ignore_simulate_field_values(self):
        """With simulate_ratio left at 0, the simulate-only fields never touch
        the RNG: schedules are identical whatever they hold."""
        base = MixSpec(requests=40, seed=3).schedule()
        redecorated = MixSpec(
            requests=40,
            seed=3,
            networks=(("vgg_m", 1.0),),
            variants="fig12",
            encodings=(("hese", 1.0),),
        ).schedule()
        assert base == redecorated
        assert not any(p.message["op"] == "simulate" for p in base)

    def test_simulate_ratio_emits_cold_simulate_ops(self):
        mix = MixSpec(
            requests=60,
            hot_ratio=0.0,
            simulate_ratio=1.0,
            seed=2,
            encodings=(("csd", 1.0), ("positional", 1.0)),
        )
        schedule = mix.schedule()
        assert all(p.message["op"] == "simulate" for p in schedule)
        assert all(p.message["variants"] == "fig9" for p in schedule)
        seeds = [p.message["seed"] for p in schedule]
        assert len(set(seeds)) == len(seeds)
        assert {p.message.get("encoding", "positional") for p in schedule} == {
            "csd",
            "positional",
        }
        assert schedule == mix.schedule()

    def test_think_times_deterministic_and_nonnegative(self):
        mix = MixSpec(requests=20, think_seconds=0.05, seed=9)
        first = [planned.think_seconds for planned in mix.schedule()]
        second = [planned.think_seconds for planned in mix.schedule()]
        assert first == second
        assert all(think >= 0 for think in first)
        assert any(think > 0 for think in first)


# ----------------------------------------------------------------- percentiles
class TestLatencyHistogram:
    def test_percentiles_within_configured_precision(self):
        histogram = LatencyHistogram(precision=0.02)
        rng = random.Random(0)
        samples = [rng.uniform(0.001, 2.0) for _ in range(5000)]
        for sample in samples:
            histogram.record(sample)
        samples.sort()
        for p in (50, 95, 99):
            exact = samples[max(0, math.ceil(len(samples) * p / 100.0) - 1)]
            got = histogram.percentile(p)
            assert abs(got - exact) / exact <= 0.02 + 1e-9

    def test_known_small_sample(self):
        histogram = LatencyHistogram()
        for sample in (0.010, 0.020, 0.030, 0.040, 1.0):
            histogram.record(sample)
        assert histogram.count == 5
        assert histogram.min == pytest.approx(0.010)
        assert histogram.max == pytest.approx(1.0)
        assert histogram.percentile(50) == pytest.approx(0.030, rel=0.03)
        assert histogram.percentile(100) == pytest.approx(1.0)
        assert histogram.mean == pytest.approx(0.220, rel=1e-6)

    def test_empty_summary(self):
        summary = LatencyHistogram().summary()
        assert summary["count"] == 0
        assert summary["p95_seconds"] is None

    def test_merge_equals_union(self):
        left, right, union = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        for index, sample in enumerate(x / 100 for x in range(1, 101)):
            (left if index % 2 else right).record(sample)
            union.record(sample)
        left.merge(right)
        assert left.summary() == union.summary()

    def test_merge_rejects_mismatched_precision(self):
        with pytest.raises(ValueError, match="precision"):
            LatencyHistogram(0.02).merge(LatencyHistogram(0.05))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(float("nan"))


# ------------------------------------------------------------------ trajectory
class TestTrajectory:
    def test_migrates_schema1_snapshot_as_record_zero(self, tmp_path):
        path = tmp_path / "bench_summary.json"
        path.write_text(json.dumps({
            "schema": 1,
            "experiments": {"fig9": {"preset": "fast", "wall_seconds": 34.7}},
        }))
        trajectory = load_trajectory(path)
        assert trajectory["schema"] == TRAJECTORY_SCHEMA
        record = trajectory["records"][0]
        assert record["index"] == 0
        assert record["git_sha"] is None
        assert record["experiments"]["fig9"]["wall_seconds"] == 34.7

    def test_missing_or_corrupt_restarts_empty(self, tmp_path):
        assert load_trajectory(tmp_path / "absent.json")["records"] == []
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert load_trajectory(bad)["records"] == []

    def test_round_trip(self, tmp_path):
        path = tmp_path / "trajectory.json"
        trajectory = load_trajectory(path)
        upsert_record(trajectory, "sha-a", label="PR 1")
        save_trajectory(path, trajectory)
        assert load_trajectory(path) == trajectory

    def test_upsert_reuses_head_only_for_same_sha(self):
        trajectory = {"schema": TRAJECTORY_SCHEMA, "records": []}
        first = upsert_record(trajectory, "sha-a", label="PR 1")
        again = upsert_record(trajectory, "sha-a")
        assert again is first and len(trajectory["records"]) == 1
        assert first["label"] == "PR 1"  # label survives a label-less upsert
        second = upsert_record(trajectory, "sha-b", label="PR 2")
        assert second is not first
        assert [record["index"] for record in trajectory["records"]] == [0, 1]

    def test_append_only_older_records_untouched(self, tmp_path):
        path = tmp_path / "trajectory.json"
        append_experiment_measurement(path, "fig9", "fast", 30.0, git_sha="sha-a")
        frozen = json.loads(json.dumps(load_trajectory(path)["records"][0]))
        append_experiment_measurement(path, "fig9", "fast", 99.0, git_sha="sha-b")
        records = load_trajectory(path)["records"]
        assert len(records) == 2
        assert records[0] == frozen  # strictly append-only
        assert records[1]["experiments"]["fig9"]["wall_seconds"] == 99.0

    def test_benchmark_and_loadgen_share_one_record_per_sha(self, tmp_path):
        path = tmp_path / "trajectory.json"
        append_experiment_measurement(path, "fig9", "fast", 30.0, git_sha="sha-a")
        append_loadgen_section(
            path, "serve", {"p95_seconds": 0.4}, git_sha="sha-a", label="PR 6"
        )
        records = load_trajectory(path)["records"]
        assert len(records) == 1
        assert records[0]["experiments"]["fig9"]["wall_seconds"] == 30.0
        assert records[0]["loadgen"]["serve"]["p95_seconds"] == 0.4


# ------------------------------------------------------------------------ gate
def _trajectory(*records):
    return {"schema": TRAJECTORY_SCHEMA, "records": list(records)}


def _record(index, experiments=None, loadgen=None):
    record = {"index": index, "git_sha": f"sha-{index}"}
    if experiments is not None:
        record["experiments"] = experiments
    if loadgen is not None:
        record["loadgen"] = loadgen
    return record


class TestGate:
    def test_no_baseline_passes_explicitly(self):
        result = check_gate(_trajectory(_record(0)))
        assert result.status == "no-baseline" and result.ok
        assert "no baseline" in result.describe()

    def test_within_threshold_passes(self):
        result = check_gate(_trajectory(
            _record(0, experiments={"fig9": {"preset": "fast", "wall_seconds": 30.0}}),
            _record(1, experiments={"fig9": {"preset": "fast", "wall_seconds": 35.0}}),
        ))
        assert result.status == "pass" and result.ok
        assert not result.regressions

    def test_synthetic_regression_fails(self):
        """The acceptance check: a >20% slowdown must fail the gate."""
        result = check_gate(_trajectory(
            _record(0, experiments={"fig9": {"preset": "fast", "wall_seconds": 30.0}}),
            _record(1, experiments={"fig9": {"preset": "fast", "wall_seconds": 36.1}}),
        ))
        assert result.status == "fail" and not result.ok
        assert [finding.metric for finding in result.regressions] == ["experiment:fig9"]
        assert "FAIL" in result.describe()

    def test_loadgen_p95_regression_fails(self):
        result = check_gate(_trajectory(
            _record(0, loadgen={"serve": {"p95_seconds": 0.5}}),
            _record(1, loadgen={"serve": {"p95_seconds": 0.9}}),
        ))
        assert result.status == "fail"
        assert result.regressions[0].metric == "loadgen:serve:p95"

    def test_noise_floor_skips_sub_100ms_baselines(self):
        result = check_gate(_trajectory(
            _record(0, experiments={"table3": {"preset": "fast", "wall_seconds": 0.0}}),
            _record(1, experiments={"table3": {"preset": "fast", "wall_seconds": 0.09}}),
        ))
        assert result.status == "pass"
        assert result.findings[0].skipped
        assert "SKIP" in result.describe()

    def test_preset_change_is_not_compared(self):
        result = check_gate(_trajectory(
            _record(0, experiments={"fig9": {"preset": "smoke", "wall_seconds": 1.0}}),
            _record(1, experiments={"fig9": {"preset": "full", "wall_seconds": 90.0}}),
        ))
        assert result.status == "pass" and not result.findings

    def test_metric_in_only_one_record_skipped(self):
        result = check_gate(_trajectory(
            _record(0, experiments={"fig9": {"preset": "fast", "wall_seconds": 30.0}}),
            _record(1, loadgen={"serve": {"p95_seconds": 0.4}}),
        ))
        assert result.status == "pass" and not result.findings

    def test_gate_file_entry_point(self, tmp_path):
        path = tmp_path / "trajectory.json"
        save_trajectory(path, _trajectory(
            _record(0, experiments={"fig9": {"preset": "fast", "wall_seconds": 30.0}}),
            _record(1, experiments={"fig9": {"preset": "fast", "wall_seconds": 90.0}}),
        ))
        assert not check_gate_file(path).ok
        assert check_gate_file(tmp_path / "absent.json").status == "no-baseline"

    def test_rejects_non_positive_threshold(self):
        with pytest.raises(ValueError):
            check_gate(_trajectory(), threshold=0.0)


# ------------------------------------------------------- serve timings satellite
class TestServeTimings:
    def test_response_carries_wall_clock_breakdown(self):
        async def scenario():
            async with ExperimentService(workers=1) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    async with await ServeClient.connect("127.0.0.1", port) as client:
                        response = await client.run_experiment("table1", preset="smoke")
                        assert response.ok
                        timings = response.timings
                        assert timings is not None
                        for key in ("queue_wait_seconds", "execution_seconds", "total_seconds"):
                            assert timings[key] >= 0.0
                        assert timings["total_seconds"] >= timings["execution_seconds"]
                        assert timings["total_seconds"] == pytest.approx(
                            timings["queue_wait_seconds"] + timings["execution_seconds"],
                            abs=0.05,
                        )

        run(scenario())

    def test_stats_exposes_coalescing_effectiveness(self):
        async def scenario():
            async with ExperimentService(workers=1) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    async with await ServeClient.connect("127.0.0.1", port) as client:
                        await client.run_experiment("table1", preset="smoke")
                        stats = await client.stats()
                        coalescing = stats["coalescing"]
                        assert coalescing["tickets_attached"] == 1
                        assert coalescing["tickets_coalesced"] == 0
                        assert coalescing["jobs_executed"] == 1
                        assert coalescing["hit_rate"] == 0.0

        run(scenario())


# ----------------------------------------------------------------- swarm e2e
class TestLoadSwarm:
    def test_seeded_mixed_run_against_in_process_serve(self):
        """End to end: hot+cold, stream+batch, cancels, report well-formed."""

        async def scenario():
            async with ExperimentService(workers=2) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    mix = MixSpec(
                        requests=12, clients=3, seed=6,
                        hot_ratio=0.5, stream_ratio=0.3, cancel_rate=0.2,
                    )
                    swarm = LoadSwarm(mix, "127.0.0.1", port, target="serve")
                    return mix, await swarm.run()

        mix, report = run(scenario())
        schedule = mix.schedule()
        assert report.issued == 12
        assert report.done + report.failed + report.cancelled == 12
        assert report.failed == 0, report.errors
        assert report.done > 0
        assert report.hot_issued == sum(1 for planned in schedule if planned.hot)
        assert report.streamed == sum(
            1 for planned in schedule if planned.stream or planned.cancel
        )
        assert report.latency.count == report.done
        assert report.server_coalescing["tickets_attached"] == 12
        payload = report.to_dict()
        validate_report(payload)  # the smoke-step assertion, exercised here
        assert payload["latency"]["p95_seconds"] is not None
        assert payload["throughput_rps"] > 0
        section = report.trajectory_section()
        assert section["mix_seed"] == 6
        assert section["p99_seconds"] >= section["p50_seconds"]


# ------------------------------------------------------------- spawned target
#: A target that announces itself, then writes four pipe buffers to stderr.
CHATTY_TARGET = (
    "import sys\n"
    "sys.stderr.write('repro serve: listening on 127.0.0.1:1\\n')\n"
    "sys.stderr.flush()\n"
    "sys.stderr.write('x' * 256 * 1024)\n"
    "sys.stderr.flush()\n"
)


class TestSpawnedTarget:
    def test_chatty_target_never_blocks_on_its_stderr_pipe(self, monkeypatch):
        from repro.loadgen.cli import _SpawnedTarget

        monkeypatch.setattr(
            _SpawnedTarget, "_command", lambda self: [sys.executable, "-c", CHATTY_TARGET]
        )

        async def scenario():
            async with _SpawnedTarget("serve", workers=1, worker_processes=1) as target:
                assert (target.host, target.port) == ("127.0.0.1", 1)
                code = await asyncio.wait_for(target.process.wait(), timeout=10)
                return code, target.stderr_tail

        code, tail = run(scenario())
        assert code == 0
        assert 0 < len(tail) <= 64 * 1024


# ----------------------------------------------------------------- report schema
class TestValidateReport:
    def _good(self):
        from repro.loadgen.report import LoadReport

        load = LoadReport(
            target="serve", mix=MixSpec().to_dict(), duration_seconds=1.0,
            latency=LatencyHistogram(), queue_wait=LatencyHistogram(),
            execution=LatencyHistogram(),
        )
        load.issued = load.done = 1
        load.latency.record(0.1)
        return load.to_dict()

    def test_good_report_passes(self):
        validate_report(self._good())

    def test_wrong_schema_rejected(self):
        payload = self._good()
        payload["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            validate_report(payload)

    def test_missing_percentiles_rejected(self):
        payload = self._good()
        del payload["latency"]["p95_seconds"]
        with pytest.raises(ValueError, match="p95"):
            validate_report(payload)

    def test_unaccounted_outcomes_rejected(self):
        payload = self._good()
        payload["requests"]["issued"] = 5
        with pytest.raises(ValueError, match="accounts for"):
            validate_report(payload)
