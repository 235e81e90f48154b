"""service-mix: an open-loop request mix against ``repro serve``.

Set-up starts ``repro serve --port 0`` in its own process over a
fresh store and warms it with the hot spec, a Fig. 11 row of btree.
The timed phase then sends requests from this process on a fixed
schedule -- an open loop at ``RATE`` requests/s over at most
``CONNECTIONS`` concurrent connections -- and times each one from
when it was due.  Each block of 15 requests, shuffled by ``--seed``:

* hot (never simulates): 8 all-hit ``POST /sweeps?wait=1`` of the
  hot spec, 2 ``GET /jobs/<id>/table``, 2 filtered ``GET /results``;
* cold: 1 single-point ``POST /sweeps?wait=1`` with a fresh seed,
  plus 1 such request sent as an identical pair on both connections
  at once, so the single-flight path runs.

With 20 % of requests cold, the mix's p50 is a hot sweep and its p90
a cold request, and the server stays near a quarter of one core.

The traced run hosts the same app in this process instead, so
``ServiceApp.handle`` time separates from HTTP time.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from perfbench.common import (
    Context,
    Op,
    Phase,
    add_summary,
    own_peak_rss_mb,
    process_peak_rss_mb,
    record_digest,
    store_shape,
    telemetry_layers,
)

#: Offered load, requests per second; 20 % of them cold.
RATE = 22.0
CONNECTIONS = 2
#: Op classes reported together in the human-readable summary.
REPORT_CLASSES = {"hot": ("hot_sweep", "table", "results"),
                  "cold": ("cold",)}
#: Request class -> the ServiceApp route class that serves it.
ROUTES = {"hot_sweep": "sweep_hot", "cold": "sweep_cold",
          "table": "table", "results": "results"}

#: The SM every service request simulates on: half the warps of the
#: small SM, so a cold point simulates in about 30 ms.  The server
#: then spends under a tenth of its time simulating, and few hot
#: requests wait for a simulation; when that share is large, the
#: mix's p50 swings with the speed of the host.
SERVICE_SM = {"max_resident_warps": 4, "active_warps": 2}

#: A full Fig. 11 row of btree: 4 policies x 7 latencies, so planning
#: and rendering 28 points is a real share of a hot request.
HOT_SPEC = {
    "workloads": "btree",
    "policies": ["BL", "RFC", "LTRF", "LTRF+"],
    "grid": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
    "overrides": SERVICE_SM,
    "label": "hot",
}
RESULTS_PATH = "/results?workload=btree&policy=LTRF&seed=0"
COLD_POLICIES = ("BL", "RFC", "LTRF", "LTRF+")

#: Latency limits in seconds, from due time.  A hot request may wait
#: behind a cold pair holding both connections.
LIMITS = {"hot_sweep": 0.5, "table": 0.5, "results": 0.5, "cold": 2.0}

REQUEST_TIMEOUT = 20.0

#: Requests still unsent this long after the schedule ends are
#: failed unsent, so a stalled server cannot stretch the run.
OVERRUN_SECONDS = 30.0


def _request(port: int, method: str, path: str,
             payload: Optional[dict] = None):
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=REQUEST_TIMEOUT)
    try:
        body = json.dumps(payload).encode("utf-8") \
            if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        connection.close()


class _Subprocess:
    """``repro serve`` in its own process."""

    def __init__(self, ctx: Context, store_dir: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ctx.root, "src")
        self._log = open(store_dir + ".log", "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--dir", store_dir],
            cwd=ctx.root, env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        self.port = self._read_port(deadline=time.monotonic() + 60.0)

    def _read_port(self, deadline: float) -> int:
        stream = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.5)
            if ready:
                line = stream.readline()
                if not line:
                    break
                if line.startswith("serving on http://"):
                    return int(line.split()[2].rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("repro serve did not come up")

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


class _InProcess:
    """The same app on a loopback port in this process (traced run)."""

    def __init__(self, ctx: Context, store_dir: str) -> None:
        from repro.service import ServiceApp, ServiceServer

        self.app = ServiceApp(store_dir)
        self._server = ServiceServer(self.app, port=0)
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        deadline = time.monotonic() + 30.0
        while self._server.port == 0:
            if time.monotonic() > deadline or not self._thread.is_alive():
                raise RuntimeError("in-process service did not come up")
            time.sleep(0.01)
        self.port = self._server.port

    def _serve(self) -> None:
        asyncio.run(self._server.run())

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()

    def stop(self) -> None:
        self._server.stop()
        self._thread.join(timeout=60.0)
        if self._thread.is_alive():
            raise RuntimeError("in-process service did not stop")


def _start(ctx: Context, in_process: bool) -> dict:
    from repro.experiments import Runner, latency_tolerance

    store_dir = ctx.fresh_dir("service-store")
    server = _InProcess(ctx, store_dir) if in_process \
        else _Subprocess(ctx, store_dir)
    try:
        status, body = _request(server.port, "POST", "/sweeps?wait=1",
                                HOT_SPEC)
        warm = json.loads(body)
        if status != 200 or warm.get("state") != "done":
            raise RuntimeError(f"warm-up sweep failed: {status} {body}")
        runner = Runner(cache_dir=store_dir)
        table = latency_tolerance.render_sweep_table(
            runner, HOT_SPEC["workloads"], HOT_SPEC["policies"],
            grid=HOT_SPEC["grid"], **SERVICE_SM)
    except Exception:
        server.stop()
        raise
    return {"server": server, "store": store_dir, "table": table,
            "hot_job": warm["id"], "warm_records": warm["records"]}


def setup(ctx: Context) -> dict:
    return _start(ctx, in_process=False)


def setup_traced(ctx: Context) -> dict:
    from repro.compiler import clear_static_cache

    # The app shares this process: start from empty static caches, as
    # a fresh `repro serve` would.
    clear_static_cache()
    return _start(ctx, in_process=True)


def teardown(state: dict) -> None:
    state["server"].stop()


def _schedule(ctx: Context, seconds: float) -> List[dict]:
    """Every request of the run, with its due offset in seconds."""
    items: List[dict] = []
    slot = 0
    cold = 0
    while slot / RATE < seconds:
        block = ["hot_sweep"] * 8 + ["table"] * 2 + ["results"] * 2 \
            + ["cold", "pair"]
        ctx.rng.shuffle(block)
        for kind in block:
            due = slot / RATE
            if kind in ("cold", "pair"):
                cold += 1
                spec = {
                    "workloads": "btree",
                    "policies": [ctx.rng.choice(COLD_POLICIES)],
                    "grid": [2.0],
                    "seed": ctx.rng.randrange(1, 2 ** 31),
                    "overrides": SERVICE_SM,
                    "label": f"cold-{cold}",
                }
                copies = 2 if kind == "pair" else 1
                for _ in range(copies):
                    items.append({"class": "cold", "due": due,
                                  "spec": spec, "pair": kind == "pair"})
                slot += copies
            else:
                items.append({"class": kind, "due": due})
                slot += 1
    return items


def _check(item: dict, status: int, body: str, state: dict) -> List[str]:
    kind = item["class"]
    if status != 200:
        return [f"{kind}: HTTP {status}: {body[:200]}"]
    if kind == "table":
        return [] if body == state["table"] else ["table differs"]
    payload = json.loads(body)
    if kind == "results":
        return [] if payload.get("count") == len(HOT_SPEC["grid"]) else \
            [f"results count {payload.get('count')} != {len(HOT_SPEC['grid'])}"]
    if payload.get("state") != "done":
        return [f"{kind}: job {payload.get('id')} is {payload.get('state')}"]
    progress = payload["progress"]
    if kind == "hot_sweep":
        problems = []
        if progress["executed"] != 0:
            problems.append(f"hot sweep executed {progress['executed']}")
        if payload.get("table") != state["table"]:
            problems.append("hot sweep table differs")
        state["hot_job"] = payload["id"]
        return problems
    records = payload.get("records") or []
    if progress["total"] != 1 or len(records) != 1 \
            or records[0]["policy"] != item["spec"]["policies"][0]:
        return [f"cold job {payload.get('id')} returned {records}"]
    item["record"] = records[0]
    return []


def _drive(state: dict, items: List[dict]) -> None:
    """Send ``items`` on their schedule, recording each outcome."""
    port = state["server"].port
    lock = threading.Lock()
    pending = list(items)
    started = time.perf_counter() + 0.05

    give_up = started + items[-1]["due"] + OVERRUN_SECONDS

    def worker() -> None:
        while True:
            with lock:
                if not pending:
                    return
                item = pending.pop(0)
            due = started + item["due"]
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent = time.perf_counter()
            try:
                if sent > give_up:
                    raise TimeoutError("not sent: the run overran")
                if item["class"] in ("hot_sweep", "cold"):
                    spec = HOT_SPEC if item["class"] == "hot_sweep" \
                        else item["spec"]
                    status, body = _request(port, "POST", "/sweeps?wait=1",
                                            spec)
                elif item["class"] == "table":
                    status, body = _request(
                        port, "GET", f"/jobs/{state['hot_job']}/table")
                else:
                    status, body = _request(port, "GET", RESULTS_PATH)
                problems = _check(item, status, body, state)
            except Exception as error:   # noqa: BLE001 - counted as failed
                problems = [f"{item['class']} raised "
                            f"{type(error).__name__}: {error}"]
            done = time.perf_counter()
            item.update(sent=sent, done=done, absolute_due=due,
                        problems=problems)

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=give_up + REQUEST_TIMEOUT - time.perf_counter())
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("request workers did not finish")


def run(state: dict, ctx: Context, seconds: float, traced: bool) -> Phase:
    from perfbench.stats import latency_from_due, lateness

    items = _schedule(ctx, seconds)
    phase_started = time.time()
    _drive(state, items)
    ops, problems = [], []
    for item in items:
        problems.extend(item["problems"])
        latency = latency_from_due(item["absolute_due"], item["done"])
        ops.append(Op(item["class"], None if item["problems"] else latency,
                      lateness(item["absolute_due"], item["sent"]),
                      (item["sent"], item["done"], ROUTES[item["class"]])))
    cold = [item for item in items if item["class"] == "cold"]
    pairs: Dict[str, List[dict]] = {}
    for item in cold:
        if item["pair"]:
            pairs.setdefault(item["spec"]["label"], []).append(item)
    for label, members in pairs.items():
        if len({json.dumps(m.get("record"), sort_keys=True)
                for m in members}) != 1:
            problems.append(f"{label}: the two identical requests differ")
    simulated = [(item["spec"]["label"], item["record"])
                 for item in cold if "record" in item]
    simulated += [(f"warm-{index}", record)
                  for index, record in enumerate(state["warm_records"])]
    phase = Phase(ops=ops, problems=problems,
                  digest=record_digest(simulated))
    if traced:
        phase.layers = _job_layers(state["server"].app, phase_started,
                                   len(cold) - len(pairs))
    phase.peak_rss_mb = state["server"].peak_rss_mb()
    phase.layers.update(store_shape(state["store"]))
    return phase


def _job_layers(app, since: float, unique_cold: int) -> Dict[str, float]:
    """Per-layer figures from the tracker's own telemetry of the jobs
    submitted after ``since`` (wall-clock seconds)."""
    totals: Dict[str, float] = {}
    per_policy: Dict[str, tuple] = {}
    executed = waited = 0
    lookups: List[float] = []
    queued: List[float] = []
    for job in app.tracker.jobs():
        if job.created < since or job.telemetry is None:
            continue
        queued.append((job.started - job.created) * 1e3)
        if job.spec.label == "hot":
            lookups.append(job.telemetry["cache_hits"]
                           / max(1, job.progress["unique"]))
            continue
        add_summary(totals, job.telemetry)
        executed += job.progress["executed"]
        waited += job.progress["waited"]
        policy = job.spec.policies[0]
        count, host = per_policy.get(policy, (0, 0.0))
        per_policy[policy] = (
            count + job.telemetry["simulated_instructions"],
            host + job.telemetry["host_seconds"],
        )
    layers = telemetry_layers(totals, per_policy)
    layers.update({
        "jobs.queue_ms": statistics.median(queued) if queued else 0.0,
        "jobs.waited": float(waited),
        "jobs.executed_per_unique":
            executed / unique_cold if unique_cold else 0.0,
        "experiments.lookups_per_point":
            statistics.fmean(lookups) if lookups else 0.0,
    })
    return layers
