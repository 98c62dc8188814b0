"""Tests for the execution-engine subsystem and deterministic seeding."""

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignRunner,
    MultiprocessEngine,
    ResultStore,
    SerialEngine,
)
from repro.campaign.engine import run_experiment_batch
from repro.errors import AnalysisError, ConfigurationError
from repro.frontend import compile_program
from repro.injection import ExperimentRunner
from repro.injection.faultmodel import win_size_by_index
from repro.injection.techniques import technique_by_name


TINY_PROGRAM = '''
def main() -> "i64":
    total = 0
    for i in range(12):
        scratch[i % 4] = i * 7
        total += scratch[i % 4]
    output(total)
    return total
'''


@pytest.fixture(scope="module")
def tiny_runner():
    program = compile_program("tiny", [TINY_PROGRAM], {"scratch": ("i32", [0, 0, 0, 0])})
    return ExperimentRunner(program)


@pytest.fixture(scope="module")
def tiny_provider(tiny_runner):
    def provider(name):
        assert name == "tiny"
        return tiny_runner

    return provider


def tiny_config(**overrides):
    defaults = dict(
        program="tiny",
        technique="inject-on-write",
        max_mbf=3,
        win_size=win_size_by_index("w4"),
        experiments=32,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def result_signature(result):
    return (
        result.resolved_win_size,
        result.outcome_counts.as_dict(),
        result.activated_histogram,
        [record.to_tuple() for record in result.records],
    )


class TestSeeding:
    def test_experiment_seed_is_deterministic_and_index_sensitive(self):
        config = tiny_config()
        seeds = [config.experiment_seed(i) for i in range(100)]
        assert seeds == [config.experiment_seed(i) for i in range(100)]
        assert len(set(seeds)) == 100

    def test_experiment_seed_depends_on_campaign_identity(self):
        assert tiny_config().experiment_seed(0) != tiny_config(max_mbf=2).experiment_seed(0)
        assert (
            tiny_config().experiment_seed(0)
            != tiny_config(master_seed=99).experiment_seed(0)
        )

    def test_experiment_seed_rejects_negative_index(self):
        with pytest.raises(ConfigurationError):
            tiny_config().experiment_seed(-1)

    def test_resolve_win_size_is_stable_and_in_range(self):
        config = tiny_config(win_size=win_size_by_index("w6"))
        resolved = config.resolve_win_size()
        assert resolved == config.resolve_win_size()
        assert 11 <= resolved <= 100
        assert tiny_config(win_size=win_size_by_index("w7")).resolve_win_size() == 100

    def test_experiment_replayable_in_isolation_by_index(self, tiny_runner):
        """Any experiment of a campaign can be re-run alone from its index."""
        config = tiny_config(experiments=12)
        campaign = SerialEngine().run(config, provider=lambda name: tiny_runner)
        technique = technique_by_name(config.technique)
        for index in (0, 5, 11):
            replay = tiny_runner.run_seeded(
                technique,
                max_mbf=config.max_mbf,
                win_size=campaign.resolved_win_size,
                seed=config.experiment_seed(index),
            )
            record = campaign.records[index]
            assert replay.spec.first_dynamic_index == record.first_dynamic_index
            assert replay.spec.first_slot == record.first_slot
            assert replay.outcome == record.outcome
            assert replay.activated_errors == record.activated_errors


class TestEngineEquivalence:
    def test_serial_and_multiprocess_results_identical(self, tiny_provider):
        """Same seed through both engines: identical counts, histograms, records."""
        config = tiny_config(experiments=48)
        serial = SerialEngine().run(config, provider=tiny_provider)
        parallel = MultiprocessEngine(jobs=4, chunk_size=5).run(
            config, provider=tiny_provider
        )
        assert result_signature(serial) == result_signature(parallel)

    def test_chunking_does_not_change_results(self, tiny_provider):
        config = tiny_config(experiments=20)
        coarse = MultiprocessEngine(jobs=2, chunk_size=20).run(config, provider=tiny_provider)
        fine = MultiprocessEngine(jobs=2, chunk_size=3).run(config, provider=tiny_provider)
        assert result_signature(coarse) == result_signature(fine)

    def test_batch_union_matches_full_run(self, tiny_provider):
        """Partial batches merged in order equal the one-shot serial result."""
        config = tiny_config(experiments=21)
        runner = tiny_provider("tiny")
        win = config.resolve_win_size()
        merged = run_experiment_batch(runner, config, win, 0, 8)
        merged.merge(run_experiment_batch(runner, config, win, 8, 8))
        merged.merge(run_experiment_batch(runner, config, win, 16, 5))
        full = SerialEngine().run(config, provider=tiny_provider)
        assert result_signature(merged) == result_signature(full)

    def test_batch_executes_tick_sorted_but_aggregates_in_index_order(self, tiny_runner):
        """The batch runs experiments by injection tick, results stay indexed."""
        config = tiny_config(experiments=24)
        win = config.resolve_win_size()
        executed = []
        original_run_spec = tiny_runner.run_spec

        class Recording:
            def __getattr__(self, attribute):
                return getattr(tiny_runner, attribute)

            def run_spec(self, spec, **kwargs):
                executed.append(spec.first_dynamic_index)
                return original_run_spec(spec, **kwargs)

        partial = run_experiment_batch(Recording(), config, win, 0, 24)
        assert executed == sorted(executed), "batch must execute in tick order"
        technique = technique_by_name(config.technique)
        submitted = [
            tiny_runner.seeded_spec(
                technique,
                max_mbf=config.max_mbf,
                win_size=win,
                seed=config.experiment_seed(index),
            ).first_dynamic_index
            for index in range(24)
        ]
        assert sorted(submitted) == executed
        assert [record.first_dynamic_index for record in partial.records] == submitted

    def test_merge_rejects_mismatched_campaigns(self, tiny_provider):
        a = SerialEngine().run(tiny_config(experiments=4), provider=tiny_provider)
        b = SerialEngine().run(
            tiny_config(experiments=4, max_mbf=2), provider=tiny_provider
        )
        with pytest.raises(AnalysisError):
            a.merge(b)

    def test_engine_validation(self):
        with pytest.raises(ConfigurationError):
            MultiprocessEngine(jobs=0)
        with pytest.raises(ConfigurationError):
            MultiprocessEngine(jobs=2, chunk_size=0)
        with pytest.raises(ConfigurationError):
            SerialEngine(progress_interval=0)


class TestArtifactCacheWarmup:
    """Worker warm-up must route through the persistent artifact cache."""

    @pytest.fixture(autouse=True)
    def reset_cache_config(self):
        from repro import artifacts

        yield
        artifacts.configure(None)

    def _clear_registry_caches(self):
        from repro.programs import registry

        registry.build_program.cache_clear()
        registry.get_decoded_program.cache_clear()
        registry.get_defuse_index.cache_clear()
        registry.get_experiment_runner.cache_clear()

    def test_warm_cache_yields_zero_rederivations(self, tmp_path, monkeypatch):
        """Cold: exactly one golden derivation per host. Warm: exactly zero —
        in fresh in-process builds and in spawned workers alike."""
        from repro.campaign.engine import MultiprocessEngine, RegistryProvider
        from repro.errorspace import enumerate_error_space
        from repro.programs.registry import get_experiment_runner

        log = tmp_path / "derivations.log"
        cache_dir = tmp_path / "artifacts"
        monkeypatch.setenv("REPRO_DERIVATION_LOG", str(log))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        provider = RegistryProvider(cache_dir=str(cache_dir))

        def derivations():
            # Golden derivations only; codegen logs its own "codegen:" lines.
            if not log.exists():
                return 0
            return sum(
                1 for line in log.read_text().splitlines() if " codegen:" not in line
            )

        # Cold host: building the workload derives the golden trace once and
        # persists it.
        self._clear_registry_caches()
        runner = get_experiment_runner("crc32")
        assert derivations() == 1
        errors = [
            (error.dynamic_index, error.slot, error.bit)
            for error, _ in zip(
                enumerate_error_space(runner.golden, "inject-on-read").iter_errors(),
                range(8),
            )
        ]

        # Warm host, fresh process state: loading replaces deriving.
        self._clear_registry_caches()
        warm_runner = get_experiment_runner("crc32")
        assert derivations() == 1, "warm in-process build re-derived the golden trace"
        assert warm_runner.golden.records == runner.golden.records

        # Spawned workers share nothing but the disk: with a warm cache they
        # must come up without a single re-derivation.
        with MultiprocessEngine(2, chunk_size=4, start_method="spawn") as engine:
            outcomes = engine.run_errors(
                "crc32", "inject-on-read", errors, provider=provider
            )
        assert len(outcomes) == len(errors)
        assert derivations() == 1, "spawned workers re-derived despite a warm cache"

    def test_parallel_plan_inference_matches_serial(self, tmp_path):
        """plan_infer_map fans inference out; the plan stays bit-identical."""
        from repro import artifacts
        from repro.campaign.engine import MultiprocessEngine, RegistryProvider
        from repro.errorspace import build_pruned_plan, enumerate_error_space
        from repro.programs.registry import get_defuse_index, get_experiment_runner

        artifacts.configure(tmp_path / "artifacts")
        runner = get_experiment_runner("bfs")
        index = get_defuse_index("bfs")
        space = enumerate_error_space(runner.golden, "inject-on-read")
        serial_plan = build_pruned_plan(space, index)
        provider = RegistryProvider(cache_dir=str(tmp_path / "artifacts"))
        with MultiprocessEngine(2) as engine:
            infer_map = engine.plan_infer_map("bfs", provider=provider)
            assert infer_map is not None
            parallel_plan = build_pruned_plan(space, index, infer_map=infer_map)
        assert parallel_plan.matches(serial_plan)


class TestProgress:
    @pytest.mark.parametrize(
        "engine_factory",
        [
            lambda: SerialEngine(progress_interval=7),
            lambda: MultiprocessEngine(jobs=2, chunk_size=7),
        ],
        ids=["serial", "multiprocess"],
    )
    def test_progress_reaches_total_monotonically(self, tiny_provider, engine_factory):
        config = tiny_config(experiments=30)
        events = []
        engine_factory().run(config, provider=tiny_provider, on_progress=events.append)
        assert events, "engine emitted no progress"
        done_values = [event.done for event in events]
        assert done_values == sorted(done_values)
        assert done_values[-1] == 30
        final = events[-1]
        assert final.total == 30
        assert final.campaign_id == config.campaign_id
        assert final.fraction == pytest.approx(1.0)
        assert final.experiments_per_second >= 0.0


class TestRunnerIntegration:
    def test_runner_with_multiprocess_engine(self, tiny_provider):
        serial = CampaignRunner(tiny_provider).run_campaign(tiny_config())
        parallel = CampaignRunner(
            tiny_provider, engine=MultiprocessEngine(jobs=3, chunk_size=4)
        ).run_campaign(tiny_config())
        assert result_signature(serial) == result_signature(parallel)

    def test_keep_records_false_propagates_to_workers(self, tiny_provider):
        runner = CampaignRunner(
            tiny_provider,
            engine=MultiprocessEngine(jobs=2, chunk_size=4),
            keep_records=False,
        )
        result = runner.run_campaign(tiny_config(experiments=12))
        assert result.experiments == 12
        assert result.records == []

    def test_mid_sweep_checkpointing_and_streaming(self, tiny_provider, tmp_path):
        checkpoint = tmp_path / "sweep" / "checkpoint.json"
        configs = [tiny_config(experiments=6), tiny_config(experiments=6, max_mbf=2)]
        checkpoint_sizes = []

        def on_result(result):
            # The checkpoint covering this campaign is on disk by the time the
            # result streams out — an interrupted sweep resumes from here.
            checkpoint_sizes.append(len(ResultStore.load(checkpoint)))

        runner = CampaignRunner(tiny_provider)
        store = runner.run_campaigns(
            configs, checkpoint_path=checkpoint, on_result=on_result
        )
        assert checkpoint_sizes == [1, 2]
        reloaded = ResultStore.load(checkpoint)
        assert set(reloaded.campaign_ids()) == set(store.campaign_ids())

    def test_caching_provider_is_picklable_with_empty_cache(self):
        """Spawn-based pools pickle the provider; the heavy cache must drop."""
        import pickle

        from repro.campaign.engine import CachingProvider, registry_provider

        provider = CachingProvider(registry_provider)
        provider._cache["sentinel"] = object()  # unpicklable cache entry
        clone = pickle.loads(pickle.dumps(provider))
        assert clone._cache == {}
        assert clone._provider is registry_provider

    def test_checkpoint_every_batches_saves(self, tiny_provider, tmp_path):
        checkpoint = tmp_path / "checkpoint.json"
        configs = [
            tiny_config(experiments=5),
            tiny_config(experiments=5, max_mbf=2),
            tiny_config(experiments=5, max_mbf=4),
        ]
        seen = []

        def on_result(result):
            seen.append(checkpoint.exists())

        CampaignRunner(tiny_provider).run_campaigns(
            configs, checkpoint_path=checkpoint, checkpoint_every=2, on_result=on_result
        )
        # No checkpoint after the first campaign, one after the second, and a
        # final flush covers the trailing odd campaign.
        assert seen == [False, True, True]
        assert len(ResultStore.load(checkpoint)) == 3
