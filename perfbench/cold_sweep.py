"""cold-sweep: the Fig. 11 grid simulated from nothing.

A fresh store and emptied static caches, then ``plan_requests`` ->
``execute_plan`` (serial) -> ``merge`` -- the three stages
``Runner.simulate_many`` is made of, called directly so every
completed grid point can be timed -- and ``render_sweep_table`` per
workload.  Every point misses, so the simulator core does nearly all
the work and the store sees only appends.

The grid is seed-independent (it is the paper's figure, simulated at
seed 0); ``--seed`` only shuffles the order of its (workload, policy)
rows.  An op is one grid point: simulate plus store append.
"""

from __future__ import annotations

import statistics
import time

from perfbench.common import (
    Context,
    Op,
    Phase,
    add_summary,
    record_digest,
    store_shape,
    telemetry_layers,
)

#: kmeans is register-insensitive, srad and lavamd are sensitive.
WORKLOADS = ("kmeans", "srad", "lavamd")

#: The paper's mean LTRF maximum tolerable latency at 5 % IPC loss
#: (Fig. 11; the same figure benchmarks/test_fig11.py quotes).
PAPER_LTRF_TOLERANCE = 5.3

LIMITS = {"point": 2.0}

#: Every op is a grid point, so the gated p50/p90 already cover it.
REPORT_CLASSES = {}


def setup(ctx: Context) -> dict:
    from repro.compiler import clear_static_cache

    clear_static_cache()
    return {"store": ctx.fresh_dir("cold-store")}


def teardown(state: dict) -> None:
    pass


def _one_pass(ctx: Context, store_dir: str, traced: bool):
    from repro.compiler import clear_static_cache
    from repro.experiments import Runner, latency_tolerance
    from repro.experiments.latency_tolerance import FIG11_POLICIES
    from repro.jobs import plan as jobs_plan

    clear_static_cache()
    runner = Runner(cache_dir=store_dir)
    rows = [(name, policy) for name in WORKLOADS
            for policy in FIG11_POLICIES]
    ctx.rng.shuffle(rows)
    requests = [request for name, policy in rows
                for request in latency_tolerance.sweep_requests(policy, name)]
    marks = []

    def on_point(key: str) -> None:
        marks.append((key, time.perf_counter(),
                      runner.stats.copy() if traced else None))

    started = time.perf_counter()
    plan = jobs_plan.plan_requests(runner, requests)
    planned = time.perf_counter()
    before = runner.stats.copy() if traced else None
    jobs_plan.execute_plan(runner, plan, jobs=1, on_point=on_point)
    records = plan.merge()
    tables = {
        name: latency_tolerance.render_sweep_table(runner, name,
                                                   FIG11_POLICIES)
        for name in WORKLOADS
    }
    wall = time.perf_counter() - started

    by_key = dict(zip(plan.keys, requests))
    latencies = {}
    per_policy = {}
    previous_time, previous_stats = planned, before
    for key, at, stats in marks:
        latencies[key] = at - previous_time
        if traced:
            delta = stats.delta_since(previous_stats)
            policy = by_key[key].policy
            instructions, seconds = per_policy.get(policy, (0, 0.0))
            per_policy[policy] = (instructions + delta.simulated_instructions,
                                  seconds + delta.host_seconds)
        previous_time, previous_stats = at, stats
    return (runner, plan, requests, records, tables, latencies, wall,
            per_policy)


def run(state: dict, ctx: Context, seconds: float, traced: bool) -> Phase:
    from repro.experiments import Runner, latency_tolerance
    from repro.experiments.latency_tolerance import max_tolerable_latency

    ops, problems, digests = [], [], []
    wall = instructions = 0.0
    totals, per_policy = {}, {}
    lookups = []
    gap = None
    # Set-up's store serves the first pass only; every later pass (and
    # phase) starts from an empty store of its own.
    store_dir = state.pop("store", None) or ctx.fresh_dir("cold-store")
    elapsed = last = 0.0
    while not ops or elapsed + last <= seconds:
        pass_started = time.perf_counter()
        (runner, plan, requests, records, tables, latencies, pass_wall,
         pass_policy) = _one_pass(ctx, store_dir, traced)
        wall += pass_wall
        instructions += runner.stats.simulated_instructions
        add_summary(totals, runner.telemetry_summary())
        for policy, (count, host) in pass_policy.items():
            old = per_policy.get(policy, (0, 0.0))
            per_policy[policy] = (old[0] + count, old[1] + host)
        unique = len(set(plan.keys))
        lookups.append(runner.stats.hits / unique)

        # Output check: a fresh Runner re-renders every table from the
        # finished store, byte for byte.
        fresh = Runner(cache_dir=store_dir)
        failed_workloads = set()
        for name, table in tables.items():
            again = latency_tolerance.render_sweep_table(
                fresh, name, latency_tolerance.FIG11_POLICIES
            )
            if again != table:
                failed_workloads.add(name)
                problems.append(f"{name}: table differs after re-render")
        if fresh.stats.simulated:
            problems.append(f"re-render simulated {fresh.stats.simulated} "
                            "point(s) the sweep should have stored")
        if runner.stats.simulated != unique:
            problems.append(f"simulated {runner.stats.simulated} of "
                            f"{unique} unique point(s)")
        for key, request in zip(plan.keys, requests):
            latency = latencies.get(key)
            if request.workload in failed_workloads:
                latency = None
            ops.append(Op("point", latency))
        digests.append(record_digest(list(zip(plan.keys, records))))
        gap = abs(PAPER_LTRF_TOLERANCE - statistics.fmean(
            max_tolerable_latency(latency_tolerance.normalized_sweep(
                fresh, "LTRF", name))
            for name in WORKLOADS
        )) / PAPER_LTRF_TOLERANCE
        last = time.perf_counter() - pass_started
        elapsed += last
        finished_store = store_dir
        if elapsed + last <= seconds:
            store_dir = ctx.fresh_dir("cold-store")

    if len(set(digests)) != 1:
        problems.append(f"passes simulated different records: {digests}")
    phase = Phase(ops=ops, problems=problems, digest=digests[0])
    phase.extra = {
        "sim_inst_per_s": (instructions / wall, "inst/s", len(digests)),
        "fig11_ltrf_gap": (gap, "ratio", len(WORKLOADS)),
    }
    phase.layers = telemetry_layers(totals, per_policy)
    phase.layers["experiments.lookups_per_point"] = statistics.fmean(lookups)
    phase.layers["jobs.executed_per_unique"] = \
        totals.get("simulations", 0) / len(ops)
    phase.layers.update(store_shape(finished_store))
    return phase
