"""Benchmark: Section 4.3 -- code size, WCB storage, traffic reduction."""

from repro.experiments import overheads, storage_report


def test_overheads(benchmark, runner, fast_workloads, jobs):
    result = benchmark.pedantic(
        overheads, args=(runner, fast_workloads),
        kwargs={"jobs": jobs}, rounds=1, iterations=1,
    )
    print("\n" + result.render())
    summary = result.summary
    # Paper: +7% (embedded bit) / +9% (explicit instruction) code size;
    # WCB ~5% of the baseline file; 4-6x fewer MRF accesses.
    # Our kernels are far smaller than real CUDA binaries, which
    # inflates the *relative* bit-vector cost (see the full-scale run
    # of scripts/run_all_experiments.py).
    assert 0.02 <= summary["code_embedded_mean"] <= 0.30
    assert summary["code_explicit_mean"] > summary["code_embedded_mean"]
    assert 0.03 <= summary["wcb_share_of_256kb"] <= 0.08
    assert summary["mrf_reduction_mean"] > 1.5


def test_wcb_storage(benchmark):
    result = benchmark.pedantic(storage_report, rounds=1, iterations=1)
    print("\n" + result.render())
    assert result.summary["paper_config_bits"] == 114880
