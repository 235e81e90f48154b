"""Statistics helpers of the benchmark: percentiles, open-loop timing,
span self time and the failure-aware ratios.

Pure functions over plain numbers and dicts; nothing here imports the
program, so the helpers are unit-tested on their own
(``test_perfbench_stats.py``).
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that, one outlier decides the value.
MIN_SAMPLES_BEYOND = 10


def samples_beyond(count: int, fraction: float) -> int:
    """How many of ``count`` sorted samples lie above the
    ``fraction`` percentile (nearest-rank position)."""
    if count <= 0:
        return 0
    return count - math.ceil(fraction * count)


def supports(count: int, fraction: float) -> bool:
    """True if ``count`` samples leave >= MIN_SAMPLES_BEYOND samples
    beyond the ``fraction`` percentile (p90 needs 100 samples)."""
    return samples_beyond(count, fraction) >= MIN_SAMPLES_BEYOND


def percentile(values: Iterable[float], fraction: float) -> float:
    """Linearly interpolated percentile (``fraction`` in [0, 1]).

    Interpolation between neighbouring order statistics, as
    ``statistics.quantiles(method="inclusive")`` does, so one sample
    more or less moves the value smoothly.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * weight


def summarize(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """Sample count, median and p90 (``None`` when unsupported)."""
    count = len(values)
    return {
        "n": count,
        "p50": statistics.median(values) if count else None,
        "p90": percentile(values, 0.9) if supports(count, 0.9) else None,
    }


def latency_from_due(due: float, done: float) -> float:
    """Open-loop latency: measured from when the request was *due*,
    so a stalled generator charges its wait to the requests behind
    it instead of hiding it (coordinated omission)."""
    return done - due


def lateness(due: float, sent: float) -> float:
    """How late the generator actually sent a due request."""
    return max(0.0, sent - due)


def self_times(spans: Sequence[Mapping[str, object]]) -> Dict[int, float]:
    """Span id -> self time: its duration minus the part of its
    interval covered by its children (overlapping children count
    once; child time outside the parent is ignored)."""
    children: Dict[object, List[Mapping[str, object]]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        start, end = float(span["start"]), float(span["end"])
        clipped = sorted(
            (max(start, float(child["start"])),
             min(end, float(child["end"])))
            for child in children.get(span["id"], ())
        )
        covered = 0.0
        cursor = start
        for child_start, child_end in clipped:
            child_start = max(child_start, cursor)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span["id"]] = (end - start) - covered
    return result


def error_ratio(attempted: int, failed: int) -> float:
    """Failed ops / attempted ops."""
    if attempted <= 0:
        raise ValueError("error_ratio needs at least one attempted op")
    return failed / attempted


def slo_ok_ratio(ops: Sequence[tuple], limits: Mapping[str, float]) -> float:
    """Ops within their class's latency limit / attempted ops.

    ``ops`` holds ``(op_class, latency_or_None)``; ``None`` marks a
    failed op, which counts as a miss whatever its timing.
    """
    if not ops:
        raise ValueError("slo_ok_ratio needs at least one attempted op")
    within = sum(
        1 for op_class, latency in ops
        if latency is not None and latency <= limits[op_class]
    )
    return within / len(ops)
