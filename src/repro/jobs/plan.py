"""Plan / execute / merge: the batch pipeline as reusable stages.

These three stages are :meth:`Runner.simulate_many` taken apart so a
concurrent caller (the job tracker, and through it the HTTP service)
can observe and steer each one:

* :func:`plan_requests` computes every request's store key, charges
  the batch counters, dedupes the grid against itself and the
  memory/disk cache, and splits it into resolved ``results`` (store
  hits, served immediately) and ``pending`` misses.
* :func:`execute_plan` runs misses -- in-process serially, or fanned
  out over the launcher/scheduler stack for ``jobs > 1`` -- flushing
  each record to the store as it completes.  ``on_point`` observes
  every completed grid point (the tracker's progress feed);
  ``should_abort`` cancels cooperatively, raising
  :class:`~repro.launchers.scheduler.SweepAborted` only after flushed
  records are safe.  A subset of the plan's pending map may be passed
  explicitly, which is how single-flight ownership partitions one
  plan's misses across concurrent jobs.
* :meth:`JobPlan.merge` returns records aligned with the original
  request order, independent of completion order.

``simulate_many`` is now a thin wrapper over exactly these calls, so
the CLI batch path and the serving path are one pipeline, byte for
byte: same counters, same store writes, same chunking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.experiments.runner import (
    RunRecord,
    Runner,
    SimRequest,
    execute_request_with_telemetry,
)
from repro.launchers.scheduler import SweepAborted
from repro.workloads.registry import BUILD_STATS


@dataclass
class JobPlan:
    """One planned grid: keys, resolved hits, and pending misses.

    ``keys`` is aligned with ``requests`` (duplicates included), which
    is what lets :meth:`merge` reconstruct the caller's order.
    ``results`` maps every resolved key to its record; ``pending``
    holds the deduplicated misses still to execute.
    """

    requests: List[SimRequest]
    keys: List[str]
    results: Dict[str, RunRecord] = field(default_factory=dict)
    pending: Dict[str, SimRequest] = field(default_factory=dict)
    #: Requests dropped as duplicates of an earlier grid point.
    deduplicated: int = 0

    @property
    def unique_points(self) -> int:
        return len(self.results) + len(self.pending)

    @property
    def store_hits(self) -> int:
        """Points resolved at plan time (memory or disk cache)."""
        return len(self.requests) - self.deduplicated - len(self.pending)

    @property
    def complete(self) -> bool:
        return all(key in self.results for key in self.keys)

    def merge(self) -> List[RunRecord]:
        """Records aligned with the planned request order."""
        missing = [key for key in self.keys if key not in self.results]
        if missing:
            raise ValueError(
                f"plan is incomplete: {len(missing)} of "
                f"{len(self.keys)} point(s) unresolved (first: "
                f"{missing[0]})"
            )
        return [self.results[key] for key in self.keys]


def plan_requests(runner: Runner,
                  requests: Iterable[SimRequest]) -> JobPlan:
    """Resolve a request grid against the runner's caches.

    Replicates the front half of the historical ``simulate_many``
    exactly -- key computation (attributing front-end kernel builds),
    ``batch_requests``/``batch_deduplicated``/``batch_dispatched``
    counters, and the legacy-key migration probe -- so routing a
    sweep through the jobs layer is invisible in telemetry.
    """
    requests = list(requests)
    before = BUILD_STATS.copy()
    keys = [runner.request_key(request) for request in requests]
    runner._note_front_end_builds(before)
    runner.stats.add("batch_requests", len(requests))

    plan = JobPlan(requests=requests, keys=keys)
    for key, request in zip(keys, requests):
        if key in plan.results or key in plan.pending:
            runner.stats.add("batch_deduplicated")
            plan.deduplicated += 1
            continue
        cached = runner._load_or_migrate(key, request)
        if cached is not None:
            plan.results[key] = cached
        else:
            plan.pending[key] = request
    runner.stats.add("batch_dispatched", len(plan.pending))
    return plan


def execute_plan(runner: Runner, plan: JobPlan,
                 jobs: Optional[int] = None,
                 pending: Optional[Dict[str, SimRequest]] = None,
                 on_point: Optional[Callable[[str], None]] = None,
                 should_abort: Optional[Callable[[], bool]] = None,
                 ) -> JobPlan:
    """Execute a plan's misses, flushing records as they complete.

    ``pending`` defaults to the whole plan's miss map; a single-flight
    owner passes just the subset it claimed.  With ``jobs > 1`` misses
    fan out over the runner's launcher backend; otherwise they run
    serially in-process.  Either way each point is probed against the
    store first, so a point some concurrent writer completed between
    plan and execute is served, not re-simulated -- the store is the
    dedup substrate across processes and jobs.  On the serial path
    such a record can only be another job's or process's (this sweep
    has no worker that could have died mid-point), so it counts as a
    store hit, never as a simulation.
    """
    if pending is None:
        pending = plan.pending
    items = [(key, request) for key, request in pending.items()
             if key not in plan.results]
    if not items:
        return plan
    if jobs is not None and jobs > 1 and len(items) > 1:
        runner._run_parallel(items, jobs, plan.results,
                             on_point=on_point, should_abort=should_abort)
        return plan
    for key, request in items:
        if key in plan.results:
            continue
        if should_abort is not None and should_abort():
            done = sum(1 for k, _ in items if k in plan.results)
            raise SweepAborted(
                f"sweep aborted after {done} of {len(items)} pending "
                "point(s); completed records are flushed"
            )
        stored = runner.lookup(key)
        if stored is not None:
            plan.results[key] = stored
        else:
            record, telemetry = execute_request_with_telemetry(request)
            runner._absorb(key, record, telemetry, False, plan.results)
        if on_point is not None:
            on_point(key)
    return plan
