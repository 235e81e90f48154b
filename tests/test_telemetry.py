"""Tests for repro.telemetry: the one counter type, and how a counter
flows from where it is counted to every reader."""

import json

from repro.analysis import build_report
from repro.arch import GPUConfig
from repro.experiments import Runner, SimRequest
from repro.telemetry import Counters

SMALL = GPUConfig(max_resident_warps=8, active_warps=4)


class TestCounters:
    def test_uncounted_names_read_as_zero(self):
        counters = Counters()
        assert counters.anything == 0
        assert counters["anything"] == 0
        assert "anything" not in counters

    def test_add_merge_and_attribute_writes(self):
        counters = Counters(event_counts=Counters())
        counters.add("runs")
        counters.simulated += 2
        counters.merge({"runs": 3, "seconds": 0.5,
                        "event_counts": {"issue": 4}})
        counters.merge({"event_counts": {"issue": 1, "stall": 2}})
        assert counters == {"runs": 4, "simulated": 2, "seconds": 0.5,
                            "event_counts": {"issue": 5, "stall": 2}}
        assert isinstance(counters.event_counts, Counters)

    def test_copy_is_deep(self):
        counters = Counters().merge({"runs": 1, "event_counts": {"a": 1}})
        snapshot = counters.copy()
        counters.add("runs")
        counters.event_counts.add("a")
        assert snapshot == {"runs": 1, "event_counts": {"a": 1}}

    def test_delta_since_drops_unmoved_counts_keeps_families(self):
        counters = Counters().merge(
            {"runs": 2, "idle": 5, "event_counts": {"a": 1, "b": 2}})
        baseline = counters.copy()
        counters.merge({"runs": 1, "new": 7, "event_counts": {"b": 3}})
        assert counters.delta_since(baseline) == {
            "runs": 1, "new": 7, "event_counts": {"b": 3},
        }
        assert counters.delta_since(counters.copy()) == {
            "event_counts": {},
        }

    def test_serializes_as_plain_json(self):
        counters = Counters().merge({"runs": 2, "event_counts": {"a": 1}})
        decoded = Counters().merge(json.loads(json.dumps(counters)))
        assert decoded == counters
        assert isinstance(decoded.event_counts, Counters)

    def test_runner_readings(self):
        stats = Counters(memory_hits=2, disk_hits=3, host_seconds=2.0,
                         simulated_cycles=10)
        assert stats.hits == 5
        assert stats.simulated_cycles_per_host_second == 5.0
        assert Counters().simulated_cycles_per_host_second == 0.0


def test_new_counter_reaches_every_reader(tmp_path, monkeypatch):
    """A counter name nothing else knows, incremented once inside a
    simulation through a process-wide counter, shows up in
    ``runner.stats``, in ``delta_since``, in the run-log entry and in
    ``repro report``'s totals -- with no other edit."""
    import repro.experiments.runner as runner_module
    from repro.workloads.registry import BUILD_STATS

    real_resolve = runner_module.resolve_workload

    def counting_resolve(name):
        BUILD_STATS.add("test_widgets_counted")
        return real_resolve(name)

    monkeypatch.setattr(runner_module, "resolve_workload", counting_resolve)
    runner = Runner(cache_dir=str(tmp_path))
    before = runner.stats.copy()
    runner.simulate_many([SimRequest("btree", "BL", SMALL)])

    assert runner.stats.test_widgets_counted == 1
    assert runner.stats.delta_since(before).test_widgets_counted == 1
    entry = runner.log_run("new counter")
    assert entry["test_widgets_counted"] == 1
    assert runner.telemetry_summary()["test_widgets_counted"] == 1
    report = build_report(runner.results())
    assert report.telemetry["test_widgets_counted"] == 1
