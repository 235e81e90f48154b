"""Benchmark: Figure 4 -- register cache hit rates (HW and SW)."""

from repro.experiments import fig4


def test_fig4(benchmark, runner, fast_workloads, jobs):
    result = benchmark.pedantic(
        fig4, args=(runner, fast_workloads),
        kwargs={"jobs": jobs}, rounds=1, iterations=1,
    )
    print("\n" + result.render())
    # Paper: 8-30% hit rates; SW cache close to HW cache.  Our
    # synthetics sit slightly above the band (full-scale numbers:
    # scripts/run_all_experiments.py) but far
    # below anything that could hide a slow register file.
    assert result.summary["hw_mean"] < 0.5
    assert result.summary["hw_min"] > 0.02
    assert abs(result.summary["sw_mean"] - result.summary["hw_mean"]) < 0.15
