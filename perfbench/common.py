"""Types and helpers shared by the three workloads."""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Small SM for grids that only need to exist, not to be realistic:
#: a grid point simulates in tens of milliseconds.
SMALL_SM = {"max_resident_warps": 8, "active_warps": 4}


@dataclass
class Context:
    """What one benchmark invocation hands every workload."""

    root: str           # checkout root
    work: str           # private scratch directory, removed at exit
    seed: int
    rng: random.Random
    _dirs: int = 0

    def fresh_dir(self, label: str) -> str:
        """A new, empty directory under the scratch area."""
        self._dirs += 1
        path = os.path.join(self.work, f"{label}-{self._dirs}")
        os.makedirs(path)
        return path


@dataclass
class Op:
    """One timed operation: its class, latency in seconds (``None``
    when it failed: error, timeout or failed output check) and, for
    open-loop requests, how late the generator sent it and the
    ``(sent, received, route)`` window of the HTTP exchange."""

    op_class: str
    latency: Optional[float]
    late: float = 0.0
    window: Optional[Tuple[float, float, str]] = None


@dataclass
class Phase:
    """The outcome of one timed phase of a workload."""

    ops: List[Op]
    #: Human-readable end-to-end figures beyond the gated set:
    #: name -> (value, unit, sample count).
    extra: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    #: Per-layer counters read from the program's own telemetry.
    layers: Dict[str, float] = field(default_factory=dict)
    #: Output-check failures, one line each.
    problems: List[str] = field(default_factory=list)
    #: Digest of every RunRecord the program simulated in this run.
    digest: str = ""
    #: Peak RSS of the process that ran the program, when that is not
    #: this one.
    peak_rss_mb: Optional[float] = None


def record_digest(pairs: Sequence[Tuple[str, object]]) -> str:
    """SHA-256 over ``(key, RunRecord)`` pairs, order-independent."""
    lines = sorted(
        json.dumps([key, asdict(record) if not isinstance(record, dict)
                    else record], sort_keys=True)
        for key, record in pairs
    )
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()[:16]


def own_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of another live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def telemetry_layers(totals: Dict[str, float],
                     per_policy: Dict[str, Tuple[int, float]]
                     ) -> Dict[str, float]:
    """The ``arch``/``compiler``/``workloads`` per-layer metrics from
    summed simulation telemetry (``Runner.telemetry_summary`` keys)
    and per-policy ``(instructions, host seconds)``."""
    events = float(sum(totals.get("event_counts", {}).values()))
    host = totals.get("host_seconds", 0.0)
    cycles = totals.get("simulated_cycles", 0)
    compiles = totals.get("compile_cache_hits", 0) \
        + totals.get("compile_cache_misses", 0)
    layers = {
        "arch.sim_s": host,
        "arch.us_per_event": host / events * 1e6 if events else 0.0,
        "arch.events": events,
        "arch.skip_ratio":
            totals.get("cycles_skipped", 0) / cycles if cycles else 0.0,
        "arch.sim_cycles": float(cycles),
        "arch.sim_instructions":
            float(totals.get("simulated_instructions", 0)),
        "compiler.compile_s": totals.get("compile_seconds", 0.0),
        "compiler.hit_ratio":
            totals.get("compile_cache_hits", 0) / compiles
            if compiles else 0.0,
        "workloads.build_s": totals.get("kernel_build_seconds", 0.0),
        "workloads.builds": float(totals.get("kernel_builds", 0)),
    }
    for policy, suffix in POLICY_SUFFIX.items():
        instructions, seconds = per_policy.get(policy, (0, 0.0))
        layers[f"arch.inst_per_s.{suffix}"] = \
            instructions / seconds if seconds else 0.0
    return layers


#: Fig. 11 policy -> metric-name suffix.
POLICY_SUFFIX = {"BL": "bl", "RFC": "rfc", "LTRF": "ltrf",
                 "LTRF+": "ltrf_plus"}


def add_summary(totals: Dict[str, float], summary: Dict[str, object]) -> None:
    """Fold one ``telemetry_summary()`` dict into running totals."""
    for name, value in summary.items():
        if name == "event_counts":
            events = totals.setdefault("event_counts", {})
            for kind, count in value.items():
                events[kind] = events.get(kind, 0) + count
        elif isinstance(value, (int, float)):
            totals[name] = totals.get(name, 0) + value


def store_shape(store_dir: str) -> Dict[str, float]:
    """``store.bytes`` and ``store.records`` of a store at rest."""
    from repro.store import ResultStore

    stats = ResultStore(store_dir, create=False).stats()
    return {"store.bytes": float(stats.bytes),
            "store.records": float(stats.live_keys)}
