"""Scheduler behaviour: backpressure, shutdown, failures, metrics."""

import time

import pytest

from repro.core.params import GAParameters
from repro.service import (
    BatchPolicy,
    DeadlineExceededError,
    GARequest,
    GAService,
    JobCancelledError,
    JobFailedError,
    OverloadedError,
    QueueFullError,
    Scheduler,
    ServiceClosedError,
    ShutdownTimeoutError,
    WorkerPool,
)
from repro.service.batcher import JobRecord, Slab
from repro.service.jobs import JobHandle
from repro.service.workers import run_slab_chunk


def request(seed=45890, gens=8, pop=16, **kw) -> GARequest:
    return GARequest(
        params=GAParameters(
            n_generations=gens, population_size=pop,
            crossover_threshold=10, mutation_threshold=1, rng_seed=seed,
        ),
        **kw,
    )


#: a policy that keeps jobs pending: huge batch target, long wait window
PARKED = BatchPolicy(max_batch=64, max_wait_s=60.0, max_pending=3)


class TestAdmissionControl:
    def test_queue_bound_rejects_with_queue_full(self):
        service = GAService(workers=1, mode="thread", policy=PARKED).start()
        try:
            handles = [service.submit(request(seed=s)) for s in (1, 2, 3)]
            with pytest.raises(QueueFullError):
                service.submit(request(seed=4))
            assert service.metrics.rejected == 1
        finally:
            service.shutdown(drain=True)
        # draining shutdown still completes every accepted job
        assert all(h.result(timeout=30).best_fitness >= 0 for h in handles)

    def test_submit_after_shutdown_raises_service_closed(self):
        service = GAService(workers=1, mode="thread").start()
        service.shutdown(drain=True)
        with pytest.raises(ServiceClosedError):
            service.submit(request())


class TestShutdown:
    def test_drain_false_cancels_pending_jobs(self):
        service = GAService(workers=1, mode="thread", policy=PARKED).start()
        handles = [service.submit(request(seed=s)) for s in (1, 2)]
        service.shutdown(drain=False)
        for handle in handles:
            with pytest.raises(JobCancelledError):
                handle.result(timeout=5)
        assert service.metrics.failed == 2

    def test_context_manager_drains_on_clean_exit(self):
        with GAService(workers=1, mode="thread") as service:
            handle = service.submit(request())
        assert handle.result(timeout=5).best_fitness >= 0


class TestFailures:
    def test_worker_exception_fails_every_job_in_the_slab(self, monkeypatch):
        import repro.service.workers as workers_mod

        def boom(spec):
            raise RuntimeError("synthetic worker crash")

        monkeypatch.setattr(workers_mod, "run_slab_chunk", boom)
        service = GAService(
            workers=1, mode="thread",
            policy=BatchPolicy(max_batch=2, max_wait_s=0.01),
        ).start()
        try:
            handles = [service.submit(request(seed=s)) for s in (1, 2)]
            for handle in handles:
                with pytest.raises(JobFailedError, match="synthetic"):
                    handle.result(timeout=10)
            assert service.metrics.failed == 2
        finally:
            service.shutdown(drain=False)


class TestLoadShedding:
    def test_depth_bound_sheds_the_incoming_job_on_equal_priority(self):
        policy = BatchPolicy(
            max_batch=64, max_wait_s=60.0, max_pending=10, shed_queue_depth=2
        )
        service = GAService(workers=1, mode="thread", policy=policy).start()
        try:
            kept = [service.submit(request(seed=s)) for s in (1, 2)]
            with pytest.raises(OverloadedError, match="queue depth"):
                service.submit(request(seed=3))
            assert service.metrics.shed == 1
            assert service.metrics.rejected == 1
        finally:
            service.shutdown(drain=True)
        assert all(h.result(timeout=30).best_fitness >= 0 for h in kept)

    def test_higher_priority_arrival_sheds_the_worst_pending_victim(self):
        policy = BatchPolicy(
            max_batch=64, max_wait_s=60.0, max_pending=10, shed_queue_depth=2
        )
        service = GAService(workers=1, mode="thread", policy=policy).start()
        try:
            keeper = service.submit(request(seed=1))
            victim = service.submit(request(seed=2))
            urgent = service.submit(request(seed=3, priority=-5))
            with pytest.raises(OverloadedError, match="shed"):
                victim.result(timeout=5)
            assert service.metrics.shed == 1
        finally:
            service.shutdown(drain=True)
        assert keeper.result(timeout=30).best_fitness >= 0
        assert urgent.result(timeout=30).best_fitness >= 0

    def test_backlog_shedding_waits_for_an_observed_rate(self):
        # no chunk has completed, so there is no generations/sec estimate
        # and the backlog limit must not fire
        policy = BatchPolicy(
            max_batch=64, max_wait_s=60.0, max_pending=10, max_backlog_s=1e-9
        )
        service = GAService(workers=1, mode="thread", policy=policy).start()
        try:
            handles = [service.submit(request(seed=s)) for s in (1, 2, 3)]
            assert service.metrics.shed == 0
        finally:
            service.shutdown(drain=True)
        assert all(h.result(timeout=30).best_fitness >= 0 for h in handles)


class TestDeadlineEnforcement:
    def test_enforced_deadline_expires_in_queue(self):
        service = GAService(workers=1, mode="thread", policy=PARKED).start()
        try:
            handle = service.submit(
                request(deadline_s=0.05, deadline_mode="enforce")
            )
            with pytest.raises(DeadlineExceededError, match="deadline"):
                handle.result(timeout=10)
            assert service.metrics.deadline_enforced == 1
        finally:
            service.shutdown(drain=False)

    def test_enforced_deadline_cancels_at_a_chunk_boundary(self):
        policy = BatchPolicy(max_wait_s=0.005, admit_interval=2)
        with GAService(workers=1, mode="thread", policy=policy) as service:
            handle = service.submit(
                request(gens=4096, deadline_s=0.02, deadline_mode="enforce")
            )
            with pytest.raises(DeadlineExceededError):
                handle.result(timeout=30)
            assert service.metrics.deadline_enforced == 1

    def test_observe_mode_still_only_reports(self):
        with GAService(workers=1, mode="thread") as service:
            result = service.submit(
                request(gens=32, deadline_s=1e-6)
            ).result(timeout=30)
        assert result.deadline_missed and result.best_fitness >= 0


class TestCancellation:
    def test_cancel_pending_job_fails_fast(self):
        service = GAService(workers=1, mode="thread", policy=PARKED).start()
        try:
            handle = service.submit(request(seed=1))
            assert handle.cancel() is True
            with pytest.raises(JobCancelledError):
                handle.result(timeout=5)
            assert service.metrics.cancelled == 1
            assert handle.cancel() is False  # already settled
        finally:
            service.shutdown(drain=False)

    def test_cancel_inflight_job_stops_at_next_chunk_boundary(self):
        policy = BatchPolicy(max_wait_s=0.005, admit_interval=2)
        with GAService(workers=1, mode="thread", policy=policy) as service:
            handle = service.submit(request(gens=4096))
            deadline = time.monotonic() + 10
            while service.metrics.chunks == 0 and time.monotonic() < deadline:
                time.sleep(0.002)
            assert handle.cancel() is True
            with pytest.raises(JobCancelledError):
                handle.result(timeout=30)
            assert service.metrics.cancelled == 1

    def test_cancelled_job_does_not_disturb_slab_mates(self):
        policy = BatchPolicy(max_batch=4, max_wait_s=0.01, admit_interval=2)
        with GAService(workers=1, mode="thread", policy=policy) as service:
            doomed = service.submit(request(seed=1, gens=4096))
            mate = service.submit(request(seed=2, gens=16))
            doomed.cancel()
            assert mate.result(timeout=30).best_fitness >= 0
            with pytest.raises(JobCancelledError):
                doomed.result(timeout=5)


class TestShutdownTimeout:
    def test_expired_timeout_abandons_with_named_error(self, monkeypatch):
        import repro.service.workers as workers_mod

        def stuck(spec):
            time.sleep(3.0)
            return {"entries": []}

        monkeypatch.setattr(workers_mod, "run_slab_chunk", stuck)
        pool = WorkerPool(1, "thread")
        scheduler = Scheduler(
            pool, BatchPolicy(max_wait_s=0.005, max_pending=4)
        ).start()
        inflight = scheduler.submit(request(seed=1))
        deadline = time.monotonic() + 5
        while not scheduler._inflight and time.monotonic() < deadline:
            time.sleep(0.002)
        queued = scheduler.submit(request(seed=2))
        scheduler.shutdown(drain=True, timeout=0.2)
        for handle in (inflight, queued):
            with pytest.raises(ShutdownTimeoutError, match="abandoned"):
                handle.result(timeout=1)
        # the abandoned backlog leaves no stale queue gauge behind
        assert scheduler.metrics.snapshot()["queue"]["depth"] == 0
        pool.shutdown(wait=False)

    def test_timeout_that_completes_in_time_is_clean(self):
        service = GAService(workers=1, mode="thread").start()
        handle = service.submit(request(gens=4))
        service.shutdown(drain=True, timeout=30.0)
        assert handle.result(timeout=1).best_fitness >= 0


class TestLateAdmission:
    @pytest.mark.parametrize("mode", ["exact", "turbo"])
    def test_pending_job_joins_running_slab_at_chunk_boundary(self, mode):
        # an unstarted scheduler: nothing dispatches behind the test's back
        pool = WorkerPool(1, "thread")
        policy = BatchPolicy(max_batch=4, admit_interval=4)
        scheduler = Scheduler(pool, policy)
        try:
            running = request(seed=1, gens=12, engine_mode=mode)
            record = JobRecord(
                job_id=-1, request=running,
                handle=JobHandle(-1, running, 0.0), submitted_at=0.0, seq=-1,
            )
            slab = Slab([record], policy)
            chunk = slab.next_chunk_gens()
            slab.apply_chunk(run_slab_chunk(slab.make_spec(chunk)), chunk)

            other = "turbo" if mode == "exact" else "exact"
            late = scheduler.submit(request(seed=2, engine_mode=mode))
            scheduler.submit(request(seed=3, engine_mode=other))
            scheduler.submit(request(seed=4, pop=24, engine_mode=mode))
            with scheduler._cond:
                scheduler._admit_into(slab)

            assert [r.job_id for r in slab.entries] == [-1, late.job_id]
            assert scheduler._pending_count == 2
            spec = slab.make_spec(slab.next_chunk_gens())
            assert spec["entries"][1]["population"] is None  # fresh draw
        finally:
            pool.shutdown()


class TestSchedulingHints:
    def test_order_key_priority_then_deadline_then_fifo(self):
        def rec(seq, priority=0, deadline=None):
            req = request(priority=priority, deadline_s=deadline)
            return JobRecord(
                job_id=seq, request=req, handle=JobHandle(seq, req, 0.0),
                submitted_at=0.0, seq=seq,
            )

        urgent = rec(5, priority=-1)
        tight = rec(3, deadline=0.5)
        loose = rec(1, deadline=9.0)
        fifo_a, fifo_b = rec(0), rec(2)
        ordered = sorted(
            [fifo_b, loose, urgent, fifo_a, tight], key=JobRecord.order_key
        )
        assert [r.seq for r in ordered] == [5, 3, 1, 0, 2]

    def test_missed_deadline_is_reported_not_enforced(self):
        with GAService(workers=1, mode="thread") as service:
            result = service.submit(
                request(gens=32, deadline_s=1e-6)
            ).result(timeout=30)
        assert result.deadline_missed
        assert result.best_fitness >= 0  # the job still ran to completion

    def test_met_deadline_not_flagged(self):
        with GAService(workers=1, mode="thread") as service:
            result = service.submit(
                request(gens=4, deadline_s=60.0)
            ).result(timeout=30)
        assert not result.deadline_missed


class TestMetrics:
    def test_snapshot_accounts_for_every_job(self):
        policy = BatchPolicy(max_batch=4, max_wait_s=0.01, admit_interval=4)
        with GAService(workers=2, mode="thread", policy=policy) as service:
            results = service.run_all(
                [request(seed=s, gens=12) for s in range(1, 9)], timeout=30
            )
            snap = service.snapshot()
        assert len(results) == 8
        assert snap["jobs"]["submitted"] == 8
        assert snap["jobs"]["completed"] == 8
        assert snap["jobs"]["failed"] == 0
        assert snap["queue"]["depth"] == 0
        assert snap["batching"]["chunks"] >= 3  # 12 gens / admit_interval 4
        assert 0 < snap["batching"]["mean_occupancy"] <= 1.0
        assert snap["latency"]["p95_ms"] >= snap["latency"]["p50_ms"] > 0
        assert snap["throughput"]["generations_per_s"] > 0

    def test_hardened_job_reports_protection_stats(self):
        with GAService(workers=1, mode="thread") as service:
            result = service.submit(
                request(gens=16, protection="hardened", upset_rate=1e-3)
            ).result(timeout=30)
        assert result.n_chunks == 1  # hardened jobs never split or batch
        assert set(result.protection_stats) >= {"rollbacks", "corrected"}


class TestQueueAccounting:
    """Every way out of the pending queue keeps ``_pending_count`` and the
    ``queue.depth`` gauge equal to the number of jobs still queued."""

    @pytest.fixture
    def make(self):
        # unstarted schedulers: nothing dispatches behind the test's back
        pool = WorkerPool(1, "thread")
        yield lambda **kw: Scheduler(
            pool, BatchPolicy(max_batch=2, max_wait_s=60.0, max_pending=10, **kw)
        )
        pool.shutdown()

    @pytest.fixture
    def scheduler(self, make):
        return make()

    @staticmethod
    def assert_queued(scheduler, n):
        with scheduler._cond:
            assert sum(map(len, scheduler._pending.values())) == n
            assert scheduler._pending_count == n
        assert scheduler.metrics.snapshot()["queue"]["depth"] == n

    def test_dispatch(self, scheduler, monkeypatch):
        sealed = []
        monkeypatch.setattr(scheduler, "_dispatch", sealed.append)
        for seed in (1, 2, 3):
            scheduler.submit(request(seed=seed))
        self.assert_queued(scheduler, 3)
        with scheduler._cond:
            scheduler._dispatch_ready(time.monotonic())
        assert [len(slab) for slab in sealed] == [2]
        self.assert_queued(scheduler, 1)

    def test_late_admission(self, scheduler):
        running = request(seed=1)
        record = JobRecord(
            job_id=-1, request=running,
            handle=JobHandle(-1, running, 0.0), submitted_at=0.0, seq=-1,
        )
        slab = Slab([record], scheduler.policy)
        for seed in (2, 3):
            scheduler.submit(request(seed=seed))
        with scheduler._cond:
            scheduler._admit_into(slab)
        assert len(slab) == 2
        self.assert_queued(scheduler, 1)

    def test_cancel(self, scheduler):
        doomed = scheduler.submit(request(seed=1))
        scheduler.submit(request(seed=2))
        assert doomed.cancel() is True
        self.assert_queued(scheduler, 1)

    def test_shed(self, make):
        scheduler = make(shed_queue_depth=2)
        scheduler.submit(request(seed=1))
        victim = scheduler.submit(request(seed=2))
        scheduler.submit(request(seed=3, priority=-5))
        with pytest.raises(OverloadedError, match="shed"):
            victim.result(timeout=1)
        self.assert_queued(scheduler, 2)
        with pytest.raises(OverloadedError, match="queue depth"):
            scheduler.submit(request(seed=4))
        self.assert_queued(scheduler, 2)

    def test_enforced_deadline_expiry_in_queue(self, scheduler):
        doomed = scheduler.submit(
            request(seed=1, deadline_s=0.5, deadline_mode="enforce")
        )
        scheduler.submit(request(seed=2, deadline_s=0.5))  # observe mode
        with scheduler._cond:
            scheduler._expire_pending(time.monotonic() + 1.0)
        with pytest.raises(DeadlineExceededError, match="in queue"):
            doomed.result(timeout=1)
        self.assert_queued(scheduler, 1)

    def test_shutdown_without_drain(self, scheduler):
        handles = [scheduler.submit(request(seed=s)) for s in (1, 2)]
        scheduler.shutdown(drain=False)
        for handle in handles:
            with pytest.raises(JobCancelledError, match="by shutdown"):
                handle.result(timeout=1)
        self.assert_queued(scheduler, 0)

    def test_backlog_is_the_queued_generations_over_the_rate(self, make, monkeypatch):
        scheduler = make(max_backlog_s=0.2)
        scheduler.metrics.chunk_dispatched(1, 8)  # a rate is now observed
        monkeypatch.setattr(scheduler.metrics, "generations_rate", lambda: 100.0)
        scheduler.submit(request(seed=1, gens=19))
        # 19 queued generations at 100/s: 0.19s, just under the bound
        scheduler.submit(request(seed=2, gens=2))
        # 21 queued generations: 0.21s, just over it
        with pytest.raises(OverloadedError, match=r"backlog 0\.21s > 0\.2s"):
            scheduler.submit(request(seed=3, gens=1))
        assert scheduler.metrics.shed == 1
        self.assert_queued(scheduler, 2)
