"""Tests for the plan/execute/merge pipeline behind simulate_many."""

import json
from dataclasses import asdict

import pytest

from repro.arch import GPUConfig
from repro.experiments import Runner, SimRequest
from repro.experiments.runner import execute_request_with_telemetry
from repro.jobs.plan import execute_plan, plan_requests
from repro.launchers import SweepAborted

SMALL = GPUConfig(max_resident_warps=8, active_warps=4)


def grid():
    return [
        SimRequest(workload, policy, SMALL)
        for workload in ("btree", "kmeans")
        for policy in ("BL", "LTRF")
    ]


class TestPlanExecuteMerge:
    def test_matches_simulate_many_byte_for_byte(self, tmp_path):
        reference = Runner(cache_dir=str(tmp_path / "a"))
        expected = reference.simulate_many(grid())

        runner = Runner(cache_dir=str(tmp_path / "b"))
        plan = plan_requests(runner, grid())
        execute_plan(runner, plan)
        records = plan.merge()

        assert [json.dumps(asdict(r), sort_keys=True) for r in records] \
            == [json.dumps(asdict(r), sort_keys=True) for r in expected]
        for name in ("batch_requests", "batch_deduplicated",
                     "batch_dispatched", "simulated", "hits"):
            assert getattr(runner.stats, name) \
                == getattr(reference.stats, name), name

    def test_warm_store_resolves_at_plan_time(self, tmp_path):
        Runner(cache_dir=str(tmp_path)).simulate_many(grid())
        runner = Runner(cache_dir=str(tmp_path))
        plan = plan_requests(runner, grid())
        assert plan.pending == {}
        assert plan.store_hits == 4
        assert plan.complete
        assert len(plan.merge()) == 4
        assert runner.stats.simulated == 0

    def test_duplicates_counted_not_pending(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        request = SimRequest("btree", "BL", SMALL)
        plan = plan_requests(runner, [request, request, request])
        assert plan.deduplicated == 2
        assert len(plan.pending) == 1
        assert plan.unique_points == 1
        execute_plan(runner, plan)
        assert [r.policy for r in plan.merge()] == ["BL", "BL", "BL"]

    def test_merge_incomplete_raises(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        plan = plan_requests(runner, grid())
        with pytest.raises(ValueError, match="unresolved"):
            plan.merge()


class TestStoreRace:
    def test_point_flushed_between_plan_and_execute_not_resimulated(
            self, tmp_path, monkeypatch):
        """A concurrent writer completing a point after we planned it
        must turn our execution into a store read, not a second
        simulation -- the store is the cross-process dedup substrate."""
        store = str(tmp_path)
        runner = Runner(cache_dir=store)
        request = SimRequest("btree", "BL", SMALL)
        plan = plan_requests(runner, [request])
        assert len(plan.pending) == 1

        # The "concurrent writer": a second runner over the same store
        # completes the point between our plan and our execute.
        other = Runner(cache_dir=store)
        (expected,) = other.simulate_many([request])

        def boom(_request):
            raise AssertionError(
                "the point was already in the store; execute_plan must "
                "absorb it instead of simulating again"
            )

        monkeypatch.setattr(
            "repro.jobs.plan.execute_request_with_telemetry", boom
        )
        execute_plan(runner, plan)
        assert plan.merge() == [expected]
        assert runner.stats.host_seconds == 0.0

    def test_cross_job_flush_counts_as_store_hit(self, tmp_path):
        """On the serial path a record that appears between plan and
        execute was written by another job or process, never by a dead
        worker of this sweep: it is a store hit, not a simulation, so
        run logs summed across concurrent jobs count each point once."""
        store = str(tmp_path)
        runner = Runner(cache_dir=store)
        request = SimRequest("btree", "BL", SMALL)
        plan = plan_requests(runner, [request])
        (key,) = plan.pending

        record = execute_request_with_telemetry(request)[0]
        Runner(cache_dir=store).result_store.put(key, asdict(record))

        execute_plan(runner, plan)
        assert plan.merge() == [record]
        assert runner.stats.simulated == 0
        assert runner.stats.disk_hits == 1
        entry = runner.log_run("cross-job flush")
        assert entry["simulations"] == 0
        assert entry["cache_hits"] == 1


class TestCancellation:
    def test_serial_abort_keeps_flushed_records(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        plan = plan_requests(runner, grid())
        seen = []

        def should_abort():
            return len(seen) >= 2

        with pytest.raises(SweepAborted, match="flushed"):
            execute_plan(runner, plan, on_point=seen.append,
                         should_abort=should_abort)
        assert len(seen) == 2
        assert len(plan.results) == 2
        assert not plan.complete

        # Resume: a fresh runner over the same store pays only for the
        # un-flushed remainder.
        resumed = Runner(cache_dir=str(tmp_path))
        resumed_plan = plan_requests(resumed, grid())
        assert resumed_plan.store_hits == 2
        execute_plan(resumed, resumed_plan)
        assert len(resumed_plan.merge()) == 4
        assert resumed.stats.simulated == 2

    def test_on_point_observes_every_miss(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        plan = plan_requests(runner, grid())
        seen = []
        execute_plan(runner, plan, on_point=seen.append)
        assert sorted(seen) == sorted(plan.keys)
