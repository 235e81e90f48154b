"""Run one benchmark workload and print its metrics.

Usage, from the checkout root::

    python3 perfbench/run.py --workload cold-sweep --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` runs the workload untraced and prints the gated
end-to-end metrics; ``--trace 1`` runs it once with spans around every
layer boundary and once without, and prints the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
status is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Set-ups (and timed imports) per untraced run; ``setup_s`` reports
#: the median of each.
SETUPS = 3

#: The packages a workload imports before it can start.
IMPORTS = ("repro.analysis", "repro.experiments", "repro.jobs",
           "repro.service", "repro.store")


def _prepare_imports() -> None:
    """Make the checkout's ``src`` importable.

    Refuses to run against any ``repro`` but the checkout's own, so a
    tree without the program fails instead of measuring something
    else."""
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [entry for entry in sys.path
                   if os.path.abspath(entry or ".") != here]
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise SystemExit(f"error: no program sources at {source}")
    sys.path.insert(0, ROOT)
    sys.path.insert(0, source)
    import repro

    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        raise SystemExit(f"error: imported repro from {repro.__file__}")


def _import_seconds() -> float:
    """Median time a fresh interpreter takes to import the program."""
    probe = ("import time; started = time.perf_counter(); "
             f"import {', '.join(IMPORTS)}; "
             "print(time.perf_counter() - started)")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", probe], env=env,
                             cwd=ROOT, check=True, capture_output=True,
                             text=True).stdout)
        for _ in range(SETUPS)
    )


def _workloads():
    from perfbench import cold_sweep, service_mix, warm_store

    return {"cold-sweep": cold_sweep, "warm-store": warm_store,
            "service-mix": service_mix}


def _print_metric(name: str, value, unit: str, count, note: str = "") -> None:
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:32s} {shown:>14s} {unit:7s} n={count}"
          + (f"  {note}" if note else ""))


def _class_lines(phase, classes, prefix: str) -> None:
    from perfbench.stats import summarize

    latencies = [op.latency for op in phase.ops
                 if op.op_class in classes and op.latency is not None]
    summary = summarize(latencies)
    _print_metric(f"{prefix}_p50_ms",
                  None if summary["p50"] is None else summary["p50"] * 1e3,
                  "ms", summary["n"])
    _print_metric(f"{prefix}_p90_ms",
                  None if summary["p90"] is None else summary["p90"] * 1e3,
                  "ms", summary["n"],
                  "" if summary["p90"] is not None
                  else "(needs 100 samples)")


def _report_untraced(name, module, phase, metrics, setups) -> None:
    from perfbench.stats import error_ratio

    attempted = len(phase.ops)
    failed = sum(op.latency is None for op in phase.ops)
    print(f"{name}: end-to-end (untraced)")
    _print_metric("setup_s", metrics["setup_s"], "s", setups)
    _print_metric("p50_ms", metrics["p50_ms"], "ms", attempted - failed,
                  "all ops")
    _print_metric("p90_ms", metrics["p90_ms"], "ms", attempted - failed,
                  "all ops")
    _print_metric("peak_rss_mb", metrics["peak_rss_mb"], "MB", 1)
    _print_metric("slo_ok_ratio", metrics["slo_ok_ratio"], "ratio",
                  attempted, f"limits {module.LIMITS} s")
    _print_metric("error_ratio", error_ratio(attempted, failed), "ratio",
                  attempted)
    for extra, (value, unit, count) in sorted(phase.extra.items()):
        _print_metric(extra, value, unit, count)
    for prefix, classes in module.REPORT_CLASSES.items():
        _class_lines(phase, classes, prefix)
    print(f"  record digest {phase.digest}")


def _untraced(name, module, ctx, seconds):
    from perfbench.common import own_peak_rss_mb
    from perfbench.metrics import end_to_end

    import_s = _import_seconds()
    durations = []
    state = None
    for index in range(SETUPS):
        started = time.perf_counter()
        state = module.setup(ctx)
        durations.append(time.perf_counter() - started)
        if index < SETUPS - 1:
            module.teardown(state)
    try:
        phase = module.run(state, ctx, seconds, traced=False)
    finally:
        module.teardown(state)
    setup_s = import_s + statistics.median(durations)
    peak = phase.peak_rss_mb or own_peak_rss_mb()
    metrics = end_to_end(phase, setup_s, peak, module.LIMITS)
    _report_untraced(name, module, phase, metrics, SETUPS)
    return phase, metrics


def _traced(name, module, ctx, seconds):
    from perfbench.metrics import PER_LAYER, PER_LAYER_UNITS, per_layer
    from perfbench.spans import Tracer, install_layer_spans

    setup = getattr(module, "setup_traced", module.setup)
    tracer = Tracer()
    state = setup(ctx)
    try:
        install_layer_spans(tracer)
        try:
            traced = module.run(state, ctx, seconds, traced=True)
        finally:
            tracer.restore()
    finally:
        module.teardown(state)
    # A fresh set-up, so the untraced phase starts where the traced
    # one did and the overhead ratio compares like with like.
    state = setup(ctx)
    try:
        untraced = module.run(state, ctx, seconds, traced=False)
    finally:
        module.teardown(state)
    out = os.path.join(ROOT, ".perfbench", "traces")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{name}-seed{ctx.seed}.jsonl")
    tracer.write(path)
    metrics = per_layer(traced, untraced, tracer.spans)
    print(f"{name}: per layer (traced; {len(tracer.spans)} spans "
          f"written to {os.path.relpath(path, ROOT)})")
    for metric, unit, _better, moves in PER_LAYER:
        print(f"  {metric:30s} {metrics[metric]:>14.6g} {unit:7s} "
              f"-> {moves}")
    print(f"  record digest {traced.digest}")
    problems = traced.problems + untraced.problems
    return traced, untraced, problems, {
        metric: {"value": metrics[metric], "unit": PER_LAYER_UNITS[metric]}
        for metric in metrics
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold-sweep", "warm-store", "service-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _prepare_imports()
    from perfbench.common import Context
    from perfbench.metrics import END_TO_END

    module = _workloads()[args.workload]
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=os.path.join(ROOT, ".perfbench"))
    ctx = Context(root=ROOT, work=work, seed=args.seed,
                  rng=random.Random(args.seed))
    try:
        if args.trace:
            traced, untraced, problems, metrics = _traced(
                args.workload, module, ctx, args.seconds)
            ops = traced.ops + untraced.ops
        else:
            phase, values = _untraced(args.workload, module, ctx,
                                      args.seconds)
            ops, problems = phase.ops, phase.problems
            units = {name: unit for name, unit, _better in END_TO_END}
            metrics = {name: {"value": values[name], "unit": units[name]}
                       for name in units}
    except Exception:       # noqa: BLE001 - reported, then exit 1
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    failed = sum(op.latency is None for op in ops)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
