"""Benchmark: Figure 13 -- sensitivity to the active-warp pool size."""

from repro.experiments import fig13


def test_fig13(benchmark, runner, jobs):
    result = benchmark.pedantic(
        fig13, args=(runner, ["btree", "backprop", "srad"]),
        kwargs={"jobs": jobs}, rounds=1, iterations=1,
    )
    print("\n" + result.render())
    summary = result.summary
    # Paper: going from 4 to 8 active warps helps on slow MRFs and the
    # returns flatten beyond 8 (our model keeps a small residual gain
    # at 16, see the full-scale run of scripts/run_all_experiments.py).
    assert summary["warps4_at_7x"] < summary["warps8_at_7x"]
    assert summary["warps16_at_7x"] < summary["warps8_at_7x"] * 1.1
