"""The benchmark's metrics: names, units, and how they are computed.

``BENCHMARK.json`` at the checkout root lists the same names; a test
keeps the two in step.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from perfbench.common import Op, Phase
from perfbench.spans import spans_by_name
from perfbench.stats import percentile, self_times, slo_ok_ratio

#: Gated end-to-end metrics, reported by every workload:
#: (name, unit, better).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("p50_ms", "ms", "lower"),
    ("p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("slo_ok_ratio", "ratio", "higher"),
)

#: Per-layer metrics of the traced run: (name, unit, better, the
#: end-to-end metric and workload it should move).
PER_LAYER = (
    ("arch.sim_s", "s", "lower",
     "cold-sweep p50_ms/p90_ms (sim_inst_per_s); service-mix p90_ms"),
    ("arch.inst_per_s.bl", "inst/s", "higher",
     "cold-sweep p50_ms; level under a per-instruction policy interface"),
    ("arch.inst_per_s.rfc", "inst/s", "higher", "cold-sweep p50_ms"),
    ("arch.inst_per_s.ltrf", "inst/s", "higher",
     "cold-sweep p50_ms; up under a per-instruction policy interface"),
    ("arch.inst_per_s.ltrf_plus", "inst/s", "higher",
     "cold-sweep p50_ms; up under a per-instruction policy interface"),
    ("arch.us_per_event", "us", "lower",
     "cold-sweep p50_ms/p90_ms; service-mix p90_ms"),
    ("arch.events", "count", "lower",
     "none: deterministic, identical under a speed-only change"),
    ("arch.skip_ratio", "ratio", "higher",
     "none: deterministic, identical under a speed-only change"),
    ("arch.sim_cycles", "count", "lower",
     "none: deterministic, identical under a speed-only change"),
    ("arch.sim_instructions", "count", "lower",
     "none: deterministic, identical under a speed-only change"),
    ("compiler.compile_s", "s", "lower",
     "cold-sweep p50_ms; service-mix p90_ms"),
    ("compiler.hit_ratio", "ratio", "higher",
     "cold-sweep p50_ms; service-mix p90_ms"),
    ("workloads.build_s", "s", "lower",
     "cold-sweep p90_ms; service-mix p90_ms"),
    ("workloads.builds", "count", "lower",
     "cold-sweep p90_ms; service-mix p90_ms"),
    ("jobs.plan_ms", "ms", "lower",
     "warm-store p50_ms (sweep ops); service-mix p50_ms (hot)"),
    ("jobs.execute_s", "s", "lower", "cold-sweep p50_ms (sim_inst_per_s)"),
    ("jobs.queue_ms", "ms", "lower", "service-mix p90_ms (cold)"),
    ("jobs.waited", "count", "higher",
     "service-mix p90_ms: followers served by single-flight"),
    ("jobs.executed_per_unique", "ratio", "lower",
     "none: 1.0 is right; above 1.0 is the single-flight accounting race"),
    ("experiments.render_ms", "ms", "lower",
     "warm-store p50_ms (sweep ops); service-mix p50_ms (hot)"),
    ("experiments.lookups_per_point", "ratio", "lower",
     "warm-store p50_ms; 2.0 while rendering re-looks-up every point"),
    ("store.open_ms", "ms", "lower", "warm-store p50_ms (sweep ops)"),
    ("store.get_us", "us", "lower", "warm-store p50_ms (sweep ops)"),
    ("store.gets", "count", "lower", "warm-store p50_ms (sweep ops)"),
    ("store.put_ms", "ms", "lower", "cold-sweep p50_ms (small share)"),
    ("store.puts", "count", "lower", "cold-sweep p50_ms (small share)"),
    ("store.scan_ms", "ms", "lower", "warm-store p90_ms (query ops)"),
    ("store.bytes", "bytes", "lower", "warm-store p50_ms/p90_ms"),
    ("store.records", "count", "lower", "warm-store p50_ms/p90_ms"),
    ("analysis.report_ms", "ms", "lower", "warm-store p90_ms (query ops)"),
    ("service.handle_ms.sweep_hot", "ms", "lower", "service-mix p50_ms"),
    ("service.handle_ms.sweep_cold", "ms", "lower", "service-mix p90_ms"),
    ("service.handle_ms.table", "ms", "lower", "service-mix p50_ms"),
    ("service.handle_ms.results", "ms", "lower", "service-mix p50_ms"),
    ("service.transport_ms", "ms", "lower",
     "service-mix p50_ms/p90_ms (HTTP latency minus handle time)"),
    ("loadgen.late_p90_ms", "ms", "lower",
     "diagnostic: generator lateness (open loop only)"),
    ("trace.overhead_ratio", "ratio", "lower",
     "diagnostic: traced mean op latency / untraced, same process"),
)

PER_LAYER_UNITS = {name: unit for name, unit, _better, _moves in PER_LAYER}


def _ok_latencies(ops: Sequence[Op]) -> List[float]:
    return [op.latency for op in ops if op.latency is not None]


def end_to_end(phase: Phase, setup_s: float, peak_rss_mb: float,
               limits: Dict[str, float]) -> Dict[str, float]:
    """The gated metrics of one untraced phase (latencies read 0 when
    every op failed; the run is then reported incorrect anyway)."""
    latencies = _ok_latencies(phase.ops) or [0.0]
    return {
        "setup_s": setup_s,
        "p50_ms": statistics.median(latencies) * 1e3,
        "p90_ms": percentile(latencies, 0.9) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "slo_ok_ratio": slo_ok_ratio(
            [(op.op_class, op.latency) for op in phase.ops], limits),
    }


def _median(values: Sequence[float], scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def per_layer(traced: Phase, untraced: Phase, spans: List[dict]
              ) -> Dict[str, float]:
    """Every per-layer metric: span self times and counts, plus the
    program's own telemetry the workload read (``traced.layers``).
    A layer the workload never reaches reads 0."""
    values = {name: 0.0 for name, _unit, _better, _moves in PER_LAYER}
    values.update(traced.layers)
    own = self_times(spans)
    named = spans_by_name(spans)

    def durations(name: str) -> List[float]:
        return [span["end"] - span["start"] for span in named.get(name, ())]

    def selfs(name: str) -> List[float]:
        return [own[span["id"]] for span in named.get(name, ())]

    opens: Dict[int, float] = {}
    for span in named.get("store.open", ()):
        opens[span["store"]] = opens.get(span["store"], 0.0) \
            + span["end"] - span["start"]
    reports = len(named.get("analysis.report", ()))
    values.update({
        "jobs.plan_ms": _median(selfs("jobs.plan"), 1e3),
        "jobs.execute_s": sum(selfs("jobs.execute")),
        "experiments.render_ms": _median(selfs("experiments.render"), 1e3),
        "store.open_ms": _median(list(opens.values()), 1e3),
        "store.get_us": _median(durations("store.get"), 1e6),
        "store.gets": float(len(named.get("store.get", ()))
                            + len(named.get("store.open", ()))),
        "store.put_ms": _median(durations("store.put"), 1e3),
        "store.puts": float(len(named.get("store.put", ()))),
        "store.scan_ms": _median(durations("store.scan"), 1e3),
        "analysis.report_ms": (
            sum(selfs("analysis.report")) + sum(selfs("analysis.html"))
        ) / reports * 1e3 if reports else 0.0,
    })
    for route in ("sweep_hot", "sweep_cold", "table", "results"):
        values[f"service.handle_ms.{route}"] = _median(
            [span["end"] - span["start"]
             for span in named.get("service.handle", ())
             if span["route"] == route], 1e3)
    values["service.transport_ms"] = _median(
        transport_gaps(traced.ops, named.get("service.handle", ())), 1e3)
    lateness = [op.late for op in traced.ops]
    if any(lateness):
        values["loadgen.late_p90_ms"] = percentile(lateness, 0.9) * 1e3
    values["trace.overhead_ratio"] = (
        statistics.fmean(_ok_latencies(traced.ops))
        / statistics.fmean(_ok_latencies(untraced.ops))
    )
    return values


def transport_gaps(ops: Sequence[Op], handles: Sequence[dict]) -> List[float]:
    """Client-side time minus ``ServiceApp.handle`` time per request.

    Each op that carries its send/receive instants (``op.window``) is
    matched to the first unused handle span of its route that lies
    inside that window; with at most two connections the match is
    unambiguous in practice.
    """
    unused = sorted(handles, key=lambda span: span["start"])
    gaps = []
    for op in sorted((op for op in ops if op.window is not None),
                     key=lambda op: op.window[0]):
        sent, done, route = op.window
        for index, span in enumerate(unused):
            if span["route"] == route and span["start"] >= sent \
                    and span["end"] <= done:
                gaps.append((done - sent) - (span["end"] - span["start"]))
                del unused[index]
                break
    return gaps
