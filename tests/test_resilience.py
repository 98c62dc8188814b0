"""Chaos tests for fault-tolerant campaign execution.

Covers the supervised dispatch layer (worker SIGKILL, hung workers, poisoned
experiments, degradation to serial), the durable chunk ledger (resume after
interrupt, torn appends, key mismatches) and the end-to-end guarantee that a
killed-and-resumed run produces byte-identical results to an uninterrupted
one.
"""

import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignConfig,
    ChunkLedger,
    MultiprocessEngine,
    SerialEngine,
)
from repro.campaign.ledger import chunk_intervals, missing_intervals
from repro.campaign.supervisor import ChunkSupervisor, ChunkTask
from repro.errors import CampaignExecutionError, CampaignInterrupted, ConfigurationError
from repro.frontend import compile_program
from repro.injection import ExperimentRunner
from repro.injection.faultmodel import win_size_by_index
from repro.injection.outcome import Outcome, OutcomeCounts

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


class _FlakyRunner:
    """Wraps a real runner; raises on experiments whose spec seed is poisoned."""

    def __init__(self, runner, poison_seeds):
        self._runner = runner
        self._poison = frozenset(poison_seeds)

    def __getattr__(self, name):
        return getattr(self._runner, name)

    def run_spec(self, spec, **kwargs):
        if spec.seed in self._poison:
            raise RuntimeError("poisoned experiment")
        return self._runner.run_spec(spec, **kwargs)


def poison_seed_for(runner, config, index):
    """The derived spec seed of experiment ``index`` (what _FlakyRunner keys on)."""
    from repro.injection.techniques import technique_by_name

    spec = runner.seeded_spec(
        technique_by_name(config.technique),
        max_mbf=config.max_mbf,
        win_size=config.resolve_win_size(),
        seed=config.experiment_seed(index),
    )
    return spec.seed


# -- chunk-interval helpers ---------------------------------------------------------


class TestIntervals:
    def test_missing_intervals_complement(self):
        assert missing_intervals(10, []) == [(0, 10)]
        assert missing_intervals(10, [(0, 10)]) == []
        assert missing_intervals(10, [(0, 3), (7, 3)]) == [(3, 4)]
        assert missing_intervals(10, [(4, 2)]) == [(0, 4), (6, 4)]

    def test_missing_intervals_tolerates_overlap_and_disorder(self):
        assert missing_intervals(10, [(6, 4), (0, 2), (1, 3)]) == [(4, 2)]
        assert missing_intervals(5, [(0, 99)]) == []

    def test_chunk_intervals_splits_to_chunk_size(self):
        assert chunk_intervals([(0, 10)], 4) == [(0, 4), (4, 4), (8, 2)]
        assert chunk_intervals([(3, 2), (9, 1)], 4) == [(3, 2), (9, 1)]
        assert chunk_intervals([(0, 3)], 0) == [(0, 1), (1, 1), (2, 1)]


# -- the ledger ---------------------------------------------------------------------


class TestChunkLedger:
    def test_round_trip_resume(self, tmp_path):
        with ChunkLedger.open(tmp_path, "k1", total=20, meta={"kind": "t"}) as ledger:
            ledger.record_grant(0, 8)
            ledger.record_done(0, 8, {"outcomes": ["benign"] * 8})
            ledger.record_done(8, 8, {"outcomes": ["sdc"] * 8})
        resumed = ChunkLedger.open(tmp_path, "k1", total=20, resume=True)
        assert resumed.loaded_units == 16
        assert sorted(resumed.completed) == [0, 8]
        assert resumed.completed[8]["outcomes"] == ["sdc"] * 8
        assert resumed.missing(8) == [(16, 4)]
        resumed.close()

    def test_open_without_resume_truncates(self, tmp_path):
        with ChunkLedger.open(tmp_path, "k1", total=8) as ledger:
            ledger.record_done(0, 8, {"outcomes": []})
        with ChunkLedger.open(tmp_path, "k1", total=8) as fresh:
            assert fresh.completed == {}
            assert fresh.missing(8) == [(0, 8)]
        reread = ChunkLedger.open(tmp_path, "k1", total=8, resume=True)
        assert reread.completed == {}
        reread.close()

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        with ChunkLedger.open(tmp_path, "k1", total=16) as ledger:
            ledger.record_done(0, 8, {"outcomes": ["benign"] * 8})
        path = tmp_path / "k1.jsonl"
        with open(path, "a") as handle:
            handle.write('{"type": "done", "chunk": 8, "cou')  # killed mid-append
        resumed = ChunkLedger.open(tmp_path, "k1", total=16, resume=True)
        assert sorted(resumed.completed) == [0]
        assert resumed.missing(8) == [(8, 8)]
        resumed.close()

    def test_mid_file_corruption_discards_ledger(self, tmp_path):
        with ChunkLedger.open(tmp_path, "k1", total=16) as ledger:
            ledger.record_done(0, 8, {"outcomes": ["benign"] * 8})
        path = tmp_path / "k1.jsonl"
        lines = path.read_text().splitlines()
        lines.insert(1, "garbage not json")
        path.write_text("\n".join(lines) + "\n")
        resumed = ChunkLedger.open(tmp_path, "k1", total=16, resume=True)
        assert resumed.completed == {}
        resumed.close()

    def test_key_or_total_mismatch_starts_fresh(self, tmp_path):
        with ChunkLedger.open(tmp_path, "k1", total=16) as ledger:
            ledger.record_done(0, 16, {"outcomes": []})
        mismatched = ChunkLedger.open(tmp_path, "k1", total=32, resume=True)
        assert mismatched.completed == {}
        mismatched.close()
        # The fresh file was rewritten with the new header, so a matching
        # resume trusts it again.
        header = json.loads((tmp_path / "k1.jsonl").read_text().splitlines()[0])
        assert header["total"] == 32

    def test_compact_rewrites_to_merged_records_and_resumes(self, tmp_path):
        with ChunkLedger.open(tmp_path, "k1", total=16) as ledger:
            for chunk in range(0, 16, 2):
                ledger.record_grant(chunk, 2)
                ledger.record_done(chunk, 2, {"outcomes": ["benign"] * 2})
        before = (tmp_path / "k1.jsonl").stat().st_size
        assert ledger.compact([(0, 16, {"outcomes": ["benign"] * 16})])
        after = (tmp_path / "k1.jsonl").stat().st_size
        assert after < before
        lines = (tmp_path / "k1.jsonl").read_text().splitlines()
        assert json.loads(lines[-1]) == {"type": "finished"}
        assert len(lines) == 3  # header + one merged done + finished marker
        resumed = ChunkLedger.open(tmp_path, "k1", total=16, resume=True)
        assert resumed.loaded_units == 16
        assert resumed.missing(4) == []
        resumed.close()

    def test_sweeper_prunes_only_old_finished_ledgers(self, tmp_path):
        from repro.campaign.ledger import sweep_finished_ledgers

        def make(key, total, finish):
            with ChunkLedger.open(tmp_path, key, total=total) as ledger:
                ledger.record_done(0, total, {"outcomes": ["benign"] * total})
            if finish:
                ledger.compact([(0, total, {"outcomes": ["benign"] * total})])

        make("old-finished", 4, finish=True)
        make("young-finished", 4, finish=True)
        make("old-unfinished", 4, finish=False)
        stale = time.time() - 48 * 3600
        os.utime(tmp_path / "old-finished.jsonl", (stale, stale))
        os.utime(tmp_path / "old-unfinished.jsonl", (stale, stale))
        assert sweep_finished_ledgers(tmp_path) == 1
        assert not (tmp_path / "old-finished.jsonl").exists()
        assert (tmp_path / "young-finished.jsonl").exists()
        assert (tmp_path / "old-unfinished.jsonl").exists()

    def test_clean_engine_finish_leaves_compacted_ledger(
        self, tiny_provider, tmp_path
    ):
        config = tiny_config(experiments=16)
        ledger_dir = tmp_path / "ledger"
        engine = MultiprocessEngine(jobs=2, chunk_size=4, ledger_dir=str(ledger_dir))
        engine.run(config, provider=tiny_provider)
        ledger_path = Path(engine.supervision["ledger_path"])
        lines = ledger_path.read_text().splitlines()
        assert json.loads(lines[-1]) == {"type": "finished"}
        assert len(lines) == 3


# -- the supervisor -----------------------------------------------------------------


def _echo_init():
    return "state"


def _echo_chunk(state, payload):
    assert state == "state"
    if payload == "sleep":
        time.sleep(60.0)
    if payload == "raise":
        raise RuntimeError("chunk failure")
    return payload


class TestChunkSupervisor:
    def _supervisor(self, **overrides):
        options = dict(
            jobs=2,
            context=multiprocessing.get_context("fork"),
            initializer=_echo_init,
            max_retries=1,
            backoff_base=0.01,
        )
        options.update(overrides)
        return ChunkSupervisor(**options)

    def test_dispatches_and_merges_by_chunk_id(self):
        tasks = [ChunkTask(i * 4, _echo_chunk, f"payload-{i}", 4) for i in range(5)]
        run = self._supervisor().run(tasks)
        assert run.results == {i * 4: f"payload-{i}" for i in range(5)}
        assert not run.quarantined and not run.unfinished
        assert run.stats.chunks_completed == 5

    def test_hung_worker_is_killed_and_chunk_quarantined(self):
        tasks = [
            ChunkTask(0, _echo_chunk, "ok", 1),
            ChunkTask(1, _echo_chunk, "sleep", 1),
        ]
        run = self._supervisor(chunk_timeout=0.5, max_retries=1).run(tasks)
        assert run.results[0] == "ok"
        assert run.stats.timeouts >= 2  # initial attempt + retry both timed out
        assert run.stats.worker_restarts >= 2
        assert [q.task.chunk_id for q in run.quarantined] == [1]

    def test_failing_chunk_bisects_to_single_unit(self):
        calls = []
        tasks = [ChunkTask(0, _echo_chunk, "raise", 4)]

        def split(task):
            half = task.size // 2
            calls.append(task.size)
            return [
                ChunkTask(task.chunk_id, task.fn, "raise", half),
                ChunkTask(task.chunk_id + half, task.fn, "raise", task.size - half),
            ]

        run = self._supervisor(max_retries=0).run(tasks, split=split)
        assert calls == [4, 2, 2]
        assert sorted(q.task.chunk_id for q in run.quarantined) == [0, 1, 2, 3]
        assert run.stats.quarantined_units == 4

    def test_no_quarantine_raises(self):
        tasks = [ChunkTask(0, _echo_chunk, "raise", 1)]
        with pytest.raises(CampaignExecutionError):
            self._supervisor(max_retries=0, quarantine=False).run(tasks)


# -- supervised campaign engine: crashes, quarantine, degradation -------------------


class TestSupervisedCampaigns:
    def test_sigkilled_workers_lose_no_experiments(self, tiny_provider, monkeypatch):
        """Workers SIGKILL themselves every third chunk; the campaign still
        completes with every experiment accounted for, bit-identical to a
        serial run."""
        config = tiny_config(experiments=32)
        serial = SerialEngine().run(config, provider=tiny_provider)
        monkeypatch.setenv("REPRO_CHAOS_KILL_NTH_CHUNK", "3")
        engine = MultiprocessEngine(jobs=2, chunk_size=4)
        survived = engine.run(config, provider=tiny_provider)
        assert result_signature(survived) == result_signature(serial)
        assert survived.experiments == config.experiments
        assert engine.supervision["worker_restarts"] >= 1
        assert engine.supervision["quarantined_units"] == 0

    def test_total_worker_loss_degrades_to_serial(self, tiny_provider, monkeypatch):
        """Every worker dies on its first chunk: the pool degrades and the
        engine finishes the whole campaign serially in-process."""
        config = tiny_config(experiments=16)
        serial = SerialEngine().run(config, provider=tiny_provider)
        monkeypatch.setenv("REPRO_CHAOS_KILL_NTH_CHUNK", "1")
        engine = MultiprocessEngine(jobs=2, chunk_size=4, max_retries=1)
        with pytest.warns(RuntimeWarning, match="degraded"):
            survived = engine.run(config, provider=tiny_provider)
        assert result_signature(survived) == result_signature(serial)
        assert engine.supervision["degraded"] is True
        assert engine.supervision["serial_fallback_units"] == config.experiments

    def test_poisoned_experiment_is_bisected_and_quarantined(
        self, tiny_runner, tiny_provider
    ):
        config = tiny_config(experiments=16)
        serial = SerialEngine().run(config, provider=tiny_provider)
        poison = {poison_seed_for(tiny_runner, config, 7)}
        flaky_provider = lambda name: _FlakyRunner(tiny_runner, poison)  # noqa: E731
        engine = MultiprocessEngine(jobs=2, chunk_size=8, max_retries=0)
        result = engine.run(config, provider=flaky_provider)
        assert result.experiments == config.experiments
        assert result.outcome_counts.count(Outcome.CRASHED) == 1
        assert result.records[7].outcome is Outcome.CRASHED
        # The quarantined record still carries the real injection location.
        assert (
            result.records[7].first_dynamic_index
            == serial.records[7].first_dynamic_index
        )
        for index in range(16):
            if index != 7:
                assert result.records[index] == serial.records[index]
        assert engine.supervision["quarantined_units"] == 1
        assert engine.supervision["bisections"] >= 1

    def test_serial_engine_quarantines_identically(self, tiny_runner, tiny_provider):
        config = tiny_config(experiments=16)
        poison = {poison_seed_for(tiny_runner, config, 7)}
        flaky_provider = lambda name: _FlakyRunner(tiny_runner, poison)  # noqa: E731
        parallel = MultiprocessEngine(jobs=2, chunk_size=8, max_retries=0).run(
            config, provider=flaky_provider
        )
        serial_engine = SerialEngine()
        serial = serial_engine.run(config, provider=flaky_provider)
        assert result_signature(serial) == result_signature(parallel)
        assert serial_engine.supervision["quarantined_units"] == 1

    def test_no_quarantine_aborts_the_run(self, tiny_runner, tiny_provider):
        config = tiny_config(experiments=8)
        poison = {poison_seed_for(tiny_runner, config, 3)}
        flaky_provider = lambda name: _FlakyRunner(tiny_runner, poison)  # noqa: E731
        with pytest.raises(CampaignExecutionError):
            SerialEngine(quarantine=False).run(config, provider=flaky_provider)
        with pytest.raises(CampaignExecutionError):
            MultiprocessEngine(jobs=2, chunk_size=4, max_retries=0, quarantine=False).run(
                config, provider=flaky_provider
            )

    def test_crashed_outcome_stays_out_of_legacy_serialization(self):
        counts = OutcomeCounts()
        counts.add(Outcome.BENIGN, 3)
        assert "crashed" not in counts.as_dict()
        counts.add(Outcome.CRASHED)
        assert counts.as_dict()["crashed"] == 1

    def test_engine_knob_validation(self):
        with pytest.raises(ConfigurationError):
            MultiprocessEngine(jobs=2, max_retries=-1)
        with pytest.raises(ConfigurationError):
            MultiprocessEngine(jobs=2, chunk_timeout=0.0)
        with pytest.raises(ConfigurationError):
            MultiprocessEngine(jobs=2, resume=True)
        with pytest.raises(ConfigurationError):
            SerialEngine(resume=True)


# -- interrupt + resume -------------------------------------------------------------


class TestResume:
    def test_multiprocess_interrupt_then_resume_is_bit_identical(
        self, tiny_provider, tmp_path, monkeypatch
    ):
        config = tiny_config(experiments=32)
        serial = SerialEngine().run(config, provider=tiny_provider)
        ledger_dir = str(tmp_path / "ledger")

        monkeypatch.setenv("REPRO_CHAOS_ABORT_AFTER_CHUNKS", "2")
        first = MultiprocessEngine(jobs=2, chunk_size=4, ledger_dir=ledger_dir)
        with pytest.raises(CampaignInterrupted) as interrupted:
            first.run(config, provider=tiny_provider)
        assert interrupted.value.resumable
        assert 0 < interrupted.value.done < config.experiments
        monkeypatch.delenv("REPRO_CHAOS_ABORT_AFTER_CHUNKS")

        # Resume with a *different* chunk grid and job count: the ledger
        # stores intervals, not grids, so the merge is still byte-identical.
        second = MultiprocessEngine(
            jobs=3, chunk_size=5, ledger_dir=ledger_dir, resume=True
        )
        resumed = second.run(config, provider=tiny_provider)
        assert result_signature(resumed) == result_signature(serial)
        assert second.supervision["ledger_loaded_units"] == interrupted.value.done

    def test_serial_interrupt_then_resume_is_bit_identical(
        self, tiny_provider, tmp_path, monkeypatch
    ):
        config = tiny_config(experiments=30)
        baseline = SerialEngine(progress_interval=6).run(config, provider=tiny_provider)
        ledger_dir = str(tmp_path / "ledger")

        monkeypatch.setenv("REPRO_CHAOS_ABORT_AFTER_CHUNKS", "2")
        with pytest.raises(CampaignInterrupted) as interrupted:
            SerialEngine(progress_interval=6, ledger_dir=ledger_dir).run(
                config, provider=tiny_provider
            )
        assert interrupted.value.done == 12
        monkeypatch.delenv("REPRO_CHAOS_ABORT_AFTER_CHUNKS")

        engine = SerialEngine(progress_interval=6, ledger_dir=ledger_dir, resume=True)
        resumed = engine.run(config, provider=tiny_provider)
        assert result_signature(resumed) == result_signature(baseline)
        assert engine.supervision["ledger_loaded_units"] == 12

    def test_resume_with_completed_ledger_executes_nothing(
        self, tiny_runner, tiny_provider, tmp_path
    ):
        config = tiny_config(experiments=12)
        ledger_dir = str(tmp_path / "ledger")
        full = SerialEngine(progress_interval=4, ledger_dir=ledger_dir).run(
            config, provider=tiny_provider
        )

        class Exploding:
            def __getattr__(self, name):
                if name in ("program", "seeded_spec"):
                    return getattr(tiny_runner, name)
                raise AssertionError("resume of a complete run must not execute")

        engine = SerialEngine(progress_interval=4, ledger_dir=ledger_dir, resume=True)
        resumed = engine.run(config, provider=lambda name: Exploding())
        assert result_signature(resumed) == result_signature(full)
        assert engine.supervision["ledger_loaded_units"] == config.experiments

    def test_error_space_interrupt_then_resume(
        self, tiny_runner, tiny_provider, tmp_path, monkeypatch
    ):
        from repro.errorspace import enumerate_error_space

        space = enumerate_error_space(tiny_runner.golden, "inject-on-write")
        errors = [
            (e.dynamic_index, e.slot, e.bit)
            for e, _ in zip(space.iter_errors(), range(48))
        ]
        plain = MultiprocessEngine(jobs=2, chunk_size=16).run_errors(
            "tiny", "inject-on-write", errors, provider=tiny_provider
        )
        ledger_dir = str(tmp_path / "ledger")

        monkeypatch.setenv("REPRO_CHAOS_ABORT_AFTER_CHUNKS", "1")
        with pytest.raises(CampaignInterrupted) as interrupted:
            MultiprocessEngine(
                jobs=2, chunk_size=16, ledger_dir=ledger_dir
            ).run_errors("tiny", "inject-on-write", errors, provider=tiny_provider)
        assert interrupted.value.resumable
        monkeypatch.delenv("REPRO_CHAOS_ABORT_AFTER_CHUNKS")

        engine = MultiprocessEngine(
            jobs=2, chunk_size=12, ledger_dir=ledger_dir, resume=True
        )
        resumed = engine.run_errors(
            "tiny", "inject-on-write", errors, provider=tiny_provider
        )
        assert resumed == plain
        assert engine.supervision["ledger_loaded_units"] == interrupted.value.done


# -- end-to-end: session stores survive a kill byte-for-byte ------------------------


class TestSessionResume:
    @pytest.fixture(autouse=True)
    def reset_cache_config(self):
        from repro import artifacts

        yield
        artifacts.configure(None)

    @pytest.mark.parametrize("backend", ["compiled", "reference"])
    def test_interrupted_session_resumes_to_identical_store_bytes(
        self, tmp_path, monkeypatch, backend
    ):
        from repro.campaign import ExperimentScale
        from repro.experiments import ExperimentSession

        config = CampaignConfig(
            program="crc32",
            technique="inject-on-write",
            max_mbf=3,
            win_size=win_size_by_index("w3"),
            experiments=12,
        )
        scale = ExperimentScale("test", experiments_per_campaign=12)
        ledger_dir = str(tmp_path / "ledger")

        def session(cache_name, **engine_kwargs):
            return ExperimentSession(
                scale=scale,
                cache_path=tmp_path / cache_name,
                cache_dir=tmp_path / "artifacts",
                backend=backend,
                engine=SerialEngine(progress_interval=4, **engine_kwargs),
            )

        session("baseline.json").ensure([config])
        baseline_bytes = (tmp_path / "baseline.json").read_bytes()

        monkeypatch.setenv("REPRO_CHAOS_ABORT_AFTER_CHUNKS", "1")
        with pytest.raises(CampaignInterrupted):
            session("resumed.json", ledger_dir=ledger_dir).ensure([config])
        assert not (tmp_path / "resumed.json").exists()
        monkeypatch.delenv("REPRO_CHAOS_ABORT_AFTER_CHUNKS")

        session("resumed.json", ledger_dir=ledger_dir, resume=True).ensure([config])
        assert (tmp_path / "resumed.json").read_bytes() == baseline_bytes

    def test_session_resume_requires_a_ledger(self):
        from repro.experiments import ExperimentSession

        with pytest.raises(ConfigurationError):
            ExperimentSession(resume=True)
