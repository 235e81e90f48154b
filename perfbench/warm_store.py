"""warm-store: read-only ops against a long-lived ~5,000-record store.

Set-up genuinely simulates the two grids the ops read (btree and
kmeans, all Fig. 11 policies x the 7-point latency row, small SM),
then fills the store to about 100x what one op reads with copies of
those payloads under other seeds, written with ``ResultStore.put``.

Closed loop, one client: the next op starts when the last one ends.
Ops come in blocks of three *sweep* ops and one *query* op, shuffled
by ``--seed``:

* sweep -- a fresh ``Runner`` (a fresh index, as every CLI process
  builds), an all-hit ``simulate_many`` over one read grid, then
  ``render_sweep_table``;
* query -- a filtered ``Query.where(...).records()``, as
  ``GET /results`` does, then ``build_report`` + ``render_html`` over
  one seed's grid, as ``repro report`` does.

Nothing simulates: index load, scans, key planning and rendering do
all the work.
"""

from __future__ import annotations

import dataclasses
import time

from perfbench.common import (
    SMALL_SM,
    Context,
    Op,
    Phase,
    record_digest,
    store_shape,
)

READ_WORKLOADS = ("btree", "kmeans")

#: Copies of every simulated record, under seeds 1..COPY_SEEDS.
COPY_SEEDS = 88

#: Sweep ops per query op; with sweeps ~8x cheaper than queries, the
#: mixture's p50 is a sweep and its p90 a query.
SWEEPS_PER_QUERY = 3

LIMITS = {"sweep": 0.5, "query": 2.0}

#: Op classes reported together in the human-readable summary.
REPORT_CLASSES = {"sweep": ("sweep",), "query": ("query",)}


def setup(ctx: Context) -> dict:
    from repro.compiler import clear_static_cache
    from repro.experiments import Runner, latency_tolerance
    from repro.experiments.latency_tolerance import FIG11_POLICIES

    clear_static_cache()
    store_dir = ctx.fresh_dir("warm-store")
    runner = Runner(cache_dir=store_dir)
    grids = {}
    simulated = []
    for name in READ_WORKLOADS:
        requests = [
            request for policy in FIG11_POLICIES
            for request in latency_tolerance.sweep_requests(
                policy, name, **SMALL_SM)
        ]
        records = runner.simulate_many(requests, jobs=1)
        keys = [runner.request_key(request) for request in requests]
        table = latency_tolerance.render_sweep_table(
            runner, name, FIG11_POLICIES, **SMALL_SM)
        grids[name] = (requests, records, table)
        simulated.extend(zip(keys, records))
    store = runner.result_store
    payloads = [(request, dataclasses.asdict(record))
                for requests, records, _table in grids.values()
                for request, record in zip(requests, records)]
    for seed in range(1, COPY_SEEDS + 1):
        for request, payload in payloads:
            store.put(runner.request_key(dataclasses.replace(request,
                                                             seed=seed)),
                      payload)
    store.close()
    return {
        "store": store_dir,
        "grids": grids,
        "policies": FIG11_POLICIES,
        "digest": record_digest(simulated),
    }


def teardown(state: dict) -> None:
    pass


def _schedule(ctx: Context):
    """Endless op sequence: shuffled blocks of sweeps and one query."""
    policies = ("BL", "RFC", "LTRF", "LTRF+")
    while True:
        block = ["sweep"] * SWEEPS_PER_QUERY + ["query"]
        ctx.rng.shuffle(block)
        for op in block:
            if op == "sweep":
                yield "sweep", ctx.rng.choice(READ_WORKLOADS)
            else:
                yield "query", (ctx.rng.choice(READ_WORKLOADS),
                                ctx.rng.choice(policies),
                                ctx.rng.randint(0, COPY_SEEDS))


def _sweep(state: dict, name: str):
    from repro.experiments import Runner, latency_tolerance

    requests, expected, table = state["grids"][name]
    runner = Runner(cache_dir=state["store"])
    records = runner.simulate_many(requests, jobs=1)
    rendered = latency_tolerance.render_sweep_table(
        runner, name, state["policies"], **SMALL_SM)
    problems = []
    if runner.stats.simulated:
        problems.append(f"sweep {name} simulated "
                        f"{runner.stats.simulated} point(s)")
    if records != expected or rendered != table:
        problems.append(f"sweep {name} differs from set-up's")
    return problems, runner.stats.hits / len(requests)


def _query(state: dict, name: str, policy: str, seed: int):
    from repro.analysis import report as analysis_report
    from repro.store import Query

    query = Query.open(state["store"])
    rows = query.where(workload=name, policy=policy).records()
    report = analysis_report.build_report(query.where(workload=name,
                                                      seed=seed))
    html = analysis_report.render_html(report)
    grid = len(state["grids"][name][0])
    problems = []
    if len(rows) != grid // len(state["policies"]) * (COPY_SEEDS + 1):
        problems.append(f"query {name}/{policy} returned {len(rows)} rows")
    if report.record_count != grid or name not in html:
        problems.append(f"report {name}@{seed} covers "
                        f"{report.record_count} of {grid} records")
    return problems


def run(state: dict, ctx: Context, seconds: float, traced: bool) -> Phase:
    ops, problems, lookups = [], [], []
    schedule = _schedule(ctx)
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        op_class, args = next(schedule)
        op_started = time.perf_counter()
        try:
            if op_class == "sweep":
                found, per_point = _sweep(state, args)
                lookups.append(per_point)
            else:
                found = _query(state, *args)
        except Exception as error:      # noqa: BLE001 - counted as failed
            found = [f"{op_class} raised {type(error).__name__}: {error}"]
        latency = time.perf_counter() - op_started
        problems.extend(found)
        ops.append(Op(op_class, None if found else latency))
    phase = Phase(ops=ops, problems=problems, digest=state["digest"])
    phase.layers = {
        "experiments.lookups_per_point":
            sum(lookups) / len(lookups) if lookups else 0.0,
    }
    phase.layers.update(store_shape(state["store"]))
    return phase
