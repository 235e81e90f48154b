"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one paper table/figure.  A session-scoped
runner shares the on-disk simulation cache, so a warm cache makes the
suite fast while a cold one still completes in minutes.  The reduced
``FAST_WORKLOADS`` subset keeps cold benchmark runs tractable; passing
the full evaluation list reproduces the paper-scale tables (run
``scripts/run_all_experiments.py`` for the full-scale results).

Set ``LTRF_BENCH_JOBS=N`` to fan each benchmark's simulation grid out
over N worker processes on a cold cache (results are identical to the
serial run; see Runner.simulate_many).

These benchmarks double as the CI perf-regression gate: the ``bench``
job runs them cold and serial (fresh ``LTRF_CACHE_DIR``,
``LTRF_BENCH_JOBS=1``) so the medians measure simulator speed, then
``scripts/check_bench_regression.py`` compares them against the
committed ``BENCH_baseline.json`` (see the README's "Performance
gate" section, including how to re-baseline intentionally).
"""

import os

import pytest

from repro.experiments import Runner

#: Two register-insensitive + three register-sensitive workloads.
FAST_WORKLOADS = ["btree", "kmeans", "backprop", "srad", "lavamd"]


@pytest.fixture(scope="session")
def runner():
    return Runner()


@pytest.fixture(scope="session")
def fast_workloads():
    return list(FAST_WORKLOADS)


@pytest.fixture(scope="session")
def jobs():
    return int(os.environ.get("LTRF_BENCH_JOBS", "1"))
