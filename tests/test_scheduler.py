"""Unit tests for the dispatch policy every chunk transport shares.

:class:`~repro.campaign.scheduler.ChunkScheduler` is driven here by a fake
transport and a fake clock — no processes, no sockets — so deadline,
backoff, escalation, first-write-wins and chaos-abort policy is pinned
without the subprocess suites' timing.
"""

import pytest

from repro.campaign.scheduler import (
    BACKOFF_BASE,
    ChunkScheduler,
    ChunkTask,
)
from repro.errors import CampaignExecutionError


def _task(chunk_id, size=4, payload=None):
    return ChunkTask(chunk_id, _never_called, payload, size)


def _never_called(state, payload):  # pragma: no cover - tasks only carry it
    raise AssertionError("the scheduler never executes chunks")


def _halves(task):
    half = task.size // 2
    return [_task(task.chunk_id, half), _task(task.chunk_id + half, task.size - half)]


class FakeTransport:
    """One fake worker: grants one eligible task per poll and reports a
    scripted verdict for it."""

    def __init__(self, scheduler, verdict):
        self.scheduler = scheduler
        self.verdict = verdict  # task -> ("ok", body) | ("fail", error) | ("crash", error)
        self.granted = []

    def drive(self, clock):
        with self.scheduler:
            while not self.scheduler.finished(in_flight=False):
                now = clock()
                for task in self.scheduler.eligible(now)[:1]:
                    self.scheduler.grant(task, now)
                    self.granted.append((task.chunk_id, task.size))
                    kind, detail = self.verdict(task)
                    if kind == "ok":
                        self.scheduler.complete(task, detail, elapsed=1.0)
                    else:
                        self.scheduler.fail(task, detail, now, crashed=kind == "crash")
        return self.scheduler.result()


class FakeClock:
    def __init__(self, step=10.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step  # every backoff has expired by the next poll
        return self.now


# -- deadlines ------------------------------------------------------------------------


class TestDeadlines:
    def test_initial_deadline_before_any_observation(self):
        scheduler = ChunkScheduler([_task(0, size=4)])
        assert scheduler.grant(scheduler.pending[0], now=100.0) == pytest.approx(220.0)

    def test_ewma_deadline_scales_with_size_and_batch(self):
        scheduler = ChunkScheduler([_task(0, size=4), _task(4, size=2), _task(6, size=2)])
        first = scheduler.pending[0]
        scheduler.grant(first, now=0.0)
        scheduler.complete(first, "body", elapsed=2.0)  # 0.5 s/unit
        assert scheduler.deadline_seconds(_task(8, size=2)) == pytest.approx(8.0)
        # A host granted three chunks at once may run them back to back.
        assert scheduler.deadline_seconds(_task(8, size=2), batch=3) == pytest.approx(24.0)
        assert scheduler.grant(scheduler.pending[0], now=10.0, batch=3) == pytest.approx(34.0)

    def test_deadline_floor_and_ewma_update(self):
        scheduler = ChunkScheduler([_task(0, size=1), _task(1, size=1)])
        a, b = scheduler.pending
        scheduler.complete(a, "a", elapsed=0.01)
        assert scheduler.deadline_seconds(_task(2, size=1)) == pytest.approx(5.0)
        scheduler.complete(b, "b", elapsed=1.01)
        # 0.01 + 0.3 * (1.01 - 0.01) = 0.31 s/unit; 8 x 0.31 x 4 units.
        assert scheduler.deadline_seconds(_task(2, size=4)) == pytest.approx(9.92)

    def test_chunk_timeout_pins_every_deadline(self):
        scheduler = ChunkScheduler([_task(0)], chunk_timeout=1.5)
        assert scheduler.deadline_seconds(_task(0, size=100), batch=9) == 1.5


# -- backoff and escalation -----------------------------------------------------------


class TestEscalation:
    def test_backoff_doubles_and_caps(self):
        scheduler = ChunkScheduler([_task(0)], max_retries=9)
        task = scheduler.pending[0]
        delays = []
        for _ in range(9):
            scheduler.grant(task, now=1000.0)
            scheduler.fail(task, "boom", now=1000.0)
            delays.append(round(task.not_before - 1000.0, 6))
        assert delays == [0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 5.0, 5.0, 5.0]
        assert BACKOFF_BASE == 0.1
        assert scheduler.stats.retries == 9

    def test_backed_off_task_is_not_eligible_until_due(self):
        scheduler = ChunkScheduler([_task(0), _task(4)], max_retries=1)
        first = scheduler.pending[0]
        scheduler.grant(first, now=0.0)
        scheduler.fail(first, "boom", now=0.0)
        assert [t.chunk_id for t in scheduler.eligible(0.05)] == [4]
        assert [t.chunk_id for t in scheduler.eligible(0.1)] == [0, 4]
        assert scheduler.next_wakeup(0.05, cap=0.5) == pytest.approx(0.05)

    def test_retry_then_bisect_then_quarantine(self):
        events = []
        scheduler = ChunkScheduler(
            [_task(0, size=2)],
            max_retries=1,
            split=_halves,
            on_event=lambda kind, **fields: events.append((kind, fields["chunk"])),
        )
        transport = FakeTransport(
            scheduler, lambda task: ("ok", "fine") if task.chunk_id == 0 and task.size == 1
            else ("fail", "poisoned")
        )
        run = transport.drive(FakeClock())
        assert events == [
            ("chunk_retried", 0),
            ("chunk_bisected", 0),
            ("chunk_retried", 1),
            ("quarantine", 1),
        ]
        assert transport.granted == [(0, 2), (0, 2), (0, 1), (1, 1), (1, 1)]
        assert run.results == {0: "fine"}
        assert [(q.task.chunk_id, q.error) for q in run.quarantined] == [(1, "poisoned")]
        assert run.stats.bisections == 1 and run.stats.quarantined_units == 1
        assert run.unfinished == []

    def test_no_quarantine_raises(self):
        scheduler = ChunkScheduler([_task(0, size=1)], max_retries=0, quarantine=False)
        with pytest.raises(CampaignExecutionError, match="quarantine is disabled"):
            FakeTransport(scheduler, lambda task: ("fail", "poisoned")).drive(FakeClock())

    def test_consecutive_crashes_degrade_the_round(self):
        tasks = [_task(i * 4) for i in range(10)]
        scheduler = ChunkScheduler(tasks, jobs=2, max_retries=20)
        run = FakeTransport(scheduler, lambda task: ("crash", "died")).drive(FakeClock())
        assert run.degraded
        assert scheduler.max_consecutive_crashes == 6  # max(6, 2 x 2 jobs)
        assert run.stats.retries == 6
        # Everything not completed comes back for the in-process fallback.
        assert sorted(t.chunk_id for t in run.unfinished) == [i * 4 for i in range(10)]

    def test_a_surviving_failure_resets_the_crash_streak(self):
        scheduler = ChunkScheduler([_task(0)], jobs=1, max_retries=20)
        task = scheduler.pending[0]
        for attempt in range(12):
            scheduler.fail(task, "x", now=0.0, crashed=attempt % 5 != 4)
        assert not scheduler.stats.degraded


# -- completion -----------------------------------------------------------------------


class TestCompletion:
    def test_duplicate_or_stale_completion_is_dropped(self):
        done = []
        scheduler = ChunkScheduler(
            [_task(0), _task(4)], on_chunk_done=lambda task, body: done.append(body)
        )
        first, second = scheduler.pending
        scheduler.grant(first, now=0.0)
        assert scheduler.complete(first, "first", elapsed=1.0)
        assert not scheduler.complete(first, "late", elapsed=2.0)
        assert scheduler.is_complete(0) and not scheduler.is_complete(4)
        assert scheduler.run.results == {0: "first"}
        assert done == ["first"]
        assert scheduler.stats.chunks_completed == 1

    def test_withdraw_matches_chunk_and_size(self):
        scheduler = ChunkScheduler([_task(0, size=2), _task(2, size=2)])
        assert scheduler.withdraw(0, 4) is None
        assert scheduler.withdraw(0, 2).chunk_id == 0
        assert [t.chunk_id for t in scheduler.pending] == [2]

    def test_grant_callback_fires_on_first_attempt_only(self):
        grants = []
        scheduler = ChunkScheduler(
            [_task(0)], max_retries=2, on_grant=lambda task: grants.append(task.attempts)
        )
        verdicts = iter([("fail", "x"), ("ok", "y")])
        FakeTransport(scheduler, lambda task: next(verdicts)).drive(FakeClock())
        assert grants == [0]


# -- stopping -------------------------------------------------------------------------


class TestStop:
    def test_chaos_abort_interrupts_the_round(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_ABORT_AFTER_CHUNKS", "2")
        scheduler = ChunkScheduler([_task(i * 4) for i in range(5)])
        run = FakeTransport(scheduler, lambda task: ("ok", task.chunk_id)).drive(FakeClock())
        assert run.interrupted
        assert sorted(run.results) == [0, 4]
        assert [t.chunk_id for t in run.unfinished] == [8, 12, 16]

    def test_stop_drains_in_flight_work_first(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_ABORT_AFTER_CHUNKS", "1")
        scheduler = ChunkScheduler([_task(0), _task(4), _task(8)])
        a, b, _ = scheduler.pending
        scheduler.grant(a, now=0.0)
        scheduler.grant(b, now=0.0)
        scheduler.complete(a, "a")
        assert scheduler.stop_requested
        assert not scheduler.finished(in_flight=True)  # b still running
        assert scheduler.stats.interrupted
        assert scheduler.finished(in_flight=False)

    def test_finishing_with_nothing_left_is_not_an_interrupt(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_ABORT_AFTER_CHUNKS", "1")
        scheduler = ChunkScheduler([_task(0)])
        run = FakeTransport(scheduler, lambda task: ("ok", "x")).drive(FakeClock())
        assert not run.interrupted
        assert run.results == {0: "x"}

    def test_malformed_abort_knob_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_ABORT_AFTER_CHUNKS", "soon")
        scheduler = ChunkScheduler([_task(0), _task(4)])
        run = FakeTransport(scheduler, lambda task: ("ok", "x")).drive(FakeClock())
        assert not run.interrupted and len(run.results) == 2
