"""Service smoke check: the HTTP sweep service against the real CLI.

Run with:  PYTHONPATH=src python scripts/service_smoke.py

End-to-end rehearsal of `repro serve`, used by CI and runnable
locally:

1. start the service as a real subprocess on a free port over a fresh
   store, with a scaled-down ``.arch.json`` so the grid is smoke-fast;
2. submit a sweep over HTTP (``POST /sweeps``), poll ``GET
   /jobs/<id>`` to completion, and fetch the rendered table;
3. stop the service with SIGTERM and require a clean exit (the
   graceful-drain path);
4. run the *equivalent* ``repro sweep`` CLI command over the same
   store and require its table to be **byte-identical** to the
   service's -- serving must add an interface, not a second rendering
   -- and its engine line to report zero simulations and exactly one
   cache hit per grid point (the CLI resolved every point from the
   store the service populated, and counted each one once).

The service job's own telemetry must count each point once too: its
``cache_hits`` equals its ``progress.hits``.

Exits non-zero, with a diff, on any mismatch.
"""

import difflib
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

WORKLOAD = "btree"
POLICIES = ["BL", "LTRF"]


def env():
    merged = dict(os.environ)
    merged["PYTHONPATH"] = SRC + os.pathsep + merged.get("PYTHONPATH", "")
    return merged


def write_small_arch(path):
    sys.path.insert(0, SRC)
    from repro.arch.registry import arch_config
    from repro.arch.serialize import save_arch

    save_arch(
        arch_config("maxwell-like", max_resident_warps=8, active_warps=4),
        path,
    )


def http(method, url, payload=None, timeout=120.0):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.read().decode()


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    tmp = tempfile.mkdtemp(prefix="service_smoke_")
    store = os.path.join(tmp, "store")
    arch_path = os.path.join(tmp, "small.arch.json")
    write_small_arch(arch_path)

    print("== starting repro serve ==")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--dir", store, "--job-workers", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env(), text=True,
    )
    try:
        banner = server.stdout.readline()
        match = re.search(r"http://[0-9.]+:\d+", banner)
        if not match:
            fail(f"no serving banner, got: {banner!r}")
        url = match.group(0)
        print(f"   {banner.strip()}")

        print("== submitting sweep over HTTP ==")
        spec = {"workloads": WORKLOAD, "policies": POLICIES,
                "archs": [arch_path], "label": "service smoke"}
        submitted = json.loads(http("POST", f"{url}/sweeps", spec))
        job_id = submitted["id"]

        deadline = time.monotonic() + 300.0
        while True:
            snapshot = json.loads(http("GET", f"{url}/jobs/{job_id}"))
            if snapshot["state"] not in ("queued", "running"):
                break
            if time.monotonic() > deadline:
                fail(f"job did not finish: {snapshot['progress']}")
            time.sleep(0.2)
        if snapshot["state"] != "done":
            fail(f"job ended {snapshot['state']}: "
                 f"{snapshot.get('error', '')}")
        progress = snapshot["progress"]
        print(f"   {job_id}: {progress}")
        if progress["executed"] != progress["unique"]:
            fail("a fresh store must execute every unique point, got "
                 f"{progress}")
        telemetry = snapshot.get("telemetry") or {}
        if telemetry.get("cache_hits") != progress["hits"]:
            fail(f"job telemetry counts {telemetry.get('cache_hits')} "
                 f"cache hit(s), its progress {progress['hits']}")

        service_table = http("GET", f"{url}/jobs/{job_id}/table")
        results = json.loads(http("GET", f"{url}/results"))
        if results["count"] != progress["unique"]:
            fail(f"GET /results saw {results['count']} records, "
                 f"expected {progress['unique']}")
        report = http("GET", f"{url}/report/{job_id}")
        if "<html" not in report.lower():
            fail("GET /report did not return HTML")
    finally:
        print("== stopping the service (SIGTERM) ==")
        server.send_signal(signal.SIGTERM)
        try:
            _, err = server.communicate(timeout=60.0)
        except subprocess.TimeoutExpired:
            server.kill()
            fail("service did not exit on SIGTERM")
    if server.returncode != 0:
        fail(f"service exited {server.returncode}: {err}")

    print("== running the equivalent CLI sweep over the same store ==")
    cli_env = env()
    cli_env["LTRF_CACHE_DIR"] = store
    sweep = subprocess.run(
        [sys.executable, "-m", "repro.cli", "sweep", WORKLOAD,
         "--policies", ",".join(POLICIES), "--arch", arch_path],
        capture_output=True, env=cli_env, text=True,
    )
    if sweep.returncode != 0:
        fail(f"CLI sweep exited {sweep.returncode}: {sweep.stderr}")
    lines = sweep.stdout.splitlines()
    engine_lines = [line for line in lines if line.startswith("[engine]")]
    cli_table = "\n".join(
        line for line in lines if not line.startswith("[engine]")
    )
    expected = f"simulated 0 run(s) ({progress['total']} cache hit(s))"
    if expected not in (engine_lines or [""])[0]:
        fail(f"the CLI sweep's engine line is not {expected!r} for the "
             f"points the service already stored: {engine_lines}")

    if cli_table != service_table:
        diff = "\n".join(difflib.unified_diff(
            service_table.splitlines(), cli_table.splitlines(),
            "service table", "cli table", lineterm="",
        ))
        fail(f"service and CLI tables differ:\n{diff}")
    print("   tables are byte-identical; CLI simulated nothing and "
          "hit each point once")
    print("OK: service smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
