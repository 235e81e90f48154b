"""Benchmarks: result-store write/replay/query/verify/compact throughput.

The store sits on every cache hit and every flushed record, so its
cost must stay negligible next to a ~1s simulation.  These benchmarks
put a synthetic record population through the full lifecycle: append
(the per-record flush path of a running sweep), cold open + full
replay (the index rebuild a resuming sweep pays), a filtered query
plus report (the ``GET /results`` / ``repro report`` read path), a
full verify, and compaction.
"""

import shutil

from repro.analysis.report import build_report
from repro.store import Query, ResultStore

#: A population large enough to span segments and shards, small enough
#: to keep the benchmark sub-second.
RECORDS = 2000

PAYLOAD = {
    "workload": "synthetic", "policy": "LTRF", "ipc": 1.234,
    "cycles": 123456, "instructions": 152296, "prefetch_operations": 100,
    "resident_warps": 64, "activations": 10, "deactivations": 10,
    "mrf_reads": 1000, "mrf_writes": 900, "rfc_reads": 5000,
    "rfc_writes": 4000, "rfc_read_hits": 4500, "rfc_read_misses": 500,
    "rfc_fills": 600, "rfc_writebacks": 300, "l1_hit_rate": 0.87,
}


#: Keys spread over these, so a filtered query keeps 1/16 of the rows.
WORKLOADS = ("btree", "kmeans", "srad", "lavamd")
POLICIES = ("BL", "RFC", "LTRF", "LTRF+")


def _identity(index):
    return WORKLOADS[index % 4], POLICIES[index // 4 % 4]


def _keys():
    return [
        "{}__{}__a0123456789abcdef__{}__kfeedfacecafe".format(
            *_identity(index), index)
        for index in range(RECORDS)
    ]


def _populate(root):
    store = ResultStore(root)
    for index, key in enumerate(_keys()):
        workload, policy = _identity(index)
        store.put(key, dict(PAYLOAD, workload=workload, policy=policy))
    store.close()
    return store


def test_store_append(benchmark, tmp_path_factory):
    def append_all():
        root = str(tmp_path_factory.mktemp("store-append"))
        _populate(root)
        shutil.rmtree(root)

    benchmark.pedantic(append_all, rounds=3, iterations=1)


def test_store_cold_replay(benchmark, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("store-replay"))
    _populate(root)
    keys = _keys()

    def replay():
        store = ResultStore(root)
        for key in keys:
            assert store.get(key) is not None
        store.close()

    benchmark.pedantic(replay, rounds=3, iterations=1)


def test_store_filtered_query(benchmark, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("store-query"))
    _populate(root)

    def query_and_report():
        query = Query.open(root)
        rows = query.where(workload="kmeans", policy="LTRF").records()
        assert len(rows) == RECORDS // 16
        report = build_report(query.where(workload="kmeans",
                                          policy="LTRF"))
        assert report.record_count == RECORDS // 16

    benchmark.pedantic(query_and_report, rounds=3, iterations=1)


def test_store_verify(benchmark, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("store-verify"))
    _populate(root)

    def verify():
        report = ResultStore(root).verify()
        assert report.ok and report.stats.live_keys == RECORDS

    benchmark.pedantic(verify, rounds=3, iterations=1)


def test_store_compact(benchmark, tmp_path_factory):
    def compact_fresh():
        root = str(tmp_path_factory.mktemp("store-compact"))
        _populate(root)
        report = ResultStore(root).compact()
        assert report.segments_after <= report.segments_before
        shutil.rmtree(root)

    benchmark.pedantic(compact_fresh, rounds=3, iterations=1)
