"""Benchmark: Figure 12 -- sensitivity to registers per interval."""

from repro.experiments import fig12


def test_fig12(benchmark, runner, jobs):
    result = benchmark.pedantic(
        fig12, args=(runner, ["btree", "backprop", "srad"]),
        kwargs={"jobs": jobs}, rounds=1, iterations=1,
    )
    print("\n" + result.render())
    summary = result.summary
    # Paper: 8-register intervals degrade markedly at high latency;
    # larger budgets flatten out (our model keeps a mild benefit at 32,
    # see the full-scale run of scripts/run_all_experiments.py).
    assert summary["regs8_at_7x"] < summary["regs16_at_7x"]
    assert summary["regs32_at_7x"] < summary["regs16_at_7x"] * 1.2
