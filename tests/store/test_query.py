"""Tests for the store query API (repro.store.query)."""

from dataclasses import fields as dataclass_fields

import pytest

from repro.arch import GPUConfig
from repro.arch.serialize import arch_to_dict, fingerprint_of_arch
from repro.experiments import Runner
from repro.experiments.latency_tolerance import sweep_requests
from repro.experiments.runner import RunRecord
from repro.store import Query, ResultStore, parse_key
from repro.store import result_store

#: Small enough to keep every simulation in this module instantaneous.
SMALL = dict(max_resident_warps=8, active_warps=4)

ARCH_FP = "0123456789abcdef"
KERNEL_FP = "feedfacefeedface"


def record_payload(**overrides):
    """A payload with exactly the current RunRecord field set."""
    payload = {spec.name: 0 for spec in dataclass_fields(RunRecord)}
    payload.update(workload="btree", policy="BL", ipc=1.0)
    payload.update(overrides)
    return payload


class TestParseKey:
    def test_current_format(self):
        parsed = parse_key(f"btree__LTRF__a{ARCH_FP}__7__k{KERNEL_FP}")
        assert parsed.workload == "btree"
        assert parsed.policy == "LTRF"
        assert parsed.arch_fingerprint == ARCH_FP
        assert parsed.config_fingerprint == ""
        assert parsed.seed == 7
        assert parsed.kernel_fingerprint == KERNEL_FP

    def test_legacy_format(self):
        parsed = parse_key(f"btree__BL__{ARCH_FP}__0__k{KERNEL_FP}")
        assert parsed.arch_fingerprint == ""
        assert parsed.config_fingerprint == ARCH_FP
        assert parsed.policy == "BL"

    def test_workload_may_contain_separators(self):
        """File-backed workloads are addressed by path; only the
        right-hand segments are structural."""
        parsed = parse_key(
            f"runs__dir/my__kernel.json__BL__a{ARCH_FP}__0__k{KERNEL_FP}"
        )
        assert parsed.workload == "runs__dir/my__kernel.json"
        assert parsed.policy == "BL"

    @pytest.mark.parametrize("bad", [
        "",
        "btree",
        "btree__BL",
        f"btree__BL__zzzz__0__k{KERNEL_FP}",          # non-hex arch
        f"btree__BL__a{ARCH_FP}__x__k{KERNEL_FP}",    # non-int seed
        f"btree__BL__a{ARCH_FP}__0",                  # no kernel fp
        f"btree__BL__a{ARCH_FP}__0__knothex",         # non-hex kernel
        f"__BL__a{ARCH_FP}__0__k{KERNEL_FP}",         # empty workload
    ])
    def test_malformed_keys_rejected(self, bad):
        assert parse_key(bad) is None

    def test_real_runner_key_round_trips(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        config = GPUConfig(**SMALL)
        from repro.experiments.runner import SimRequest
        key = runner.request_key(SimRequest("btree", "BL", config))
        parsed = parse_key(key)
        assert parsed is not None
        assert parsed.workload == "btree"
        assert parsed.arch_fingerprint == fingerprint_of_arch(config)


class TestQuery:
    def _sweep_store(self, tmp_path):
        """A real two-policy, two-latency, single-workload sweep."""
        runner = Runner(cache_dir=str(tmp_path))
        runner.simulate_many([
            request
            for policy in ("BL", "LTRF")
            for request in sweep_requests(
                policy, "btree", grid=(1.0, 3.0), **SMALL
            )
        ])
        runner.log_run("test sweep")
        return runner

    def test_empty_store(self, tmp_path):
        query = Query.open(str(tmp_path), create=True)
        assert query.records() == []
        assert query.count() == 0
        assert query.group_by("policy") == {}
        assert query.aggregate(["policy"], n=("count", "key")) == []
        assert query.stats().live_keys == 0
        assert query.run_history() == []

    def test_records_are_typed_and_sorted(self, tmp_path):
        runner = self._sweep_store(tmp_path)
        records = runner.results().records()
        assert len(records) == 4
        assert [r.key for r in records] == sorted(r.key for r in records)
        assert all(r.schema_ok and r.key_ok for r in records)
        assert {r.policy for r in records} == {"BL", "LTRF"}
        assert all(isinstance(r.ipc, float) for r in records)

    def test_latency_resolved_through_arch_manifest(self, tmp_path):
        runner = self._sweep_store(tmp_path)
        latencies = {r.latency for r in runner.results().records()}
        assert latencies == {1.0, 3.0}

    def test_where_filters(self, tmp_path):
        runner = self._sweep_store(tmp_path)
        query = runner.results()
        assert query.where(policy="BL").count() == 2
        assert query.where(policy="BL", min_latency=2.0).count() == 1
        assert query.where(max_latency=1.5).count() == 2
        assert query.where(workload="nope").count() == 0

    def test_where_key_in_scopes_to_an_explicit_grid(self, tmp_path):
        """`key_in` restricts to a literal key set -- how the service
        scopes GET /report/<job> to exactly one job's points."""
        runner = self._sweep_store(tmp_path)
        query = runner.results()
        keys = [record.key for record in query.records()]
        assert query.where(key_in=keys[:2]).count() == 2
        assert [r.key for r in query.where(key_in=keys[:2]).records()] \
            == sorted(keys[:2])
        assert query.where(key_in=[]).count() == 0
        assert query.where(key_in=["no-such-key"]).count() == 0
        # Composes with the other filters.
        assert query.where(policy="BL", key_in=keys).count() == 2

    def test_group_by_multi_arch_sweep(self, tmp_path):
        """Each latency point is a distinct architecture fingerprint;
        group-by splits the grid accordingly."""
        runner = self._sweep_store(tmp_path)
        groups = runner.results().group_by("arch_fingerprint")
        assert len(groups) == 2
        assert all(len(records) == 2 for records in groups.values())
        by_latency = runner.results().group_by("latency", "policy")
        assert set(by_latency) == {
            (1.0, "BL"), (1.0, "LTRF"), (3.0, "BL"), (3.0, "LTRF"),
        }

    def test_aggregate(self, tmp_path):
        runner = self._sweep_store(tmp_path)
        rows = runner.results().aggregate(
            ["policy"], mean_ipc=("mean", "ipc"), n=("count", "key"),
            worst=("min", "ipc"),
        )
        assert [row["policy"] for row in rows] == ["BL", "LTRF"]
        for row in rows:
            assert row["n"] == 2
            assert 0 < row["worst"] <= row["mean_ipc"] * 2

    def test_aggregate_rejects_unknown_aggregator(self, tmp_path):
        query = Query.open(str(tmp_path), create=True)
        with pytest.raises(ValueError, match="median"):
            query.aggregate(["policy"], x=("median", "ipc"))

    def test_project(self, tmp_path):
        runner = self._sweep_store(tmp_path)
        rows = runner.results().where(policy="BL").project(
            "workload", "latency", "ipc"
        )
        assert len(rows) == 2
        assert all(row[0] == "btree" for row in rows)

    def test_stale_schema_flagged_but_visible(self, tmp_path):
        store = ResultStore(str(tmp_path), create=True)
        store.put(f"btree__BL__a{ARCH_FP}__0__k{KERNEL_FP}",
                  {"workload": "btree", "policy": "BL", "ipc": 2.0})
        store.close()
        records = Query.open(str(tmp_path)).records()
        assert len(records) == 1
        assert not records[0].schema_ok
        assert records[0].ipc == 2.0
        assert Query.open(str(tmp_path)).where(schema_ok=True).count() == 0

    def test_unparseable_key_still_yields_row(self, tmp_path):
        store = ResultStore(str(tmp_path), create=True)
        store.put("not-a-cache-key", record_payload(workload="mystery"))
        store.close()
        (record,) = Query.open(str(tmp_path)).records()
        assert not record.key_ok
        assert record.workload == "mystery"     # recovered from payload
        assert record.schema_ok                 # payload shape is current

    def test_run_history_sorted_by_time(self, tmp_path):
        store = ResultStore(str(tmp_path), create=True)
        store.append_run_log({"label": "second", "time": 200.0})
        store.append_run_log({"label": "first", "time": 100.0})
        history = Query(store).run_history()
        assert [entry["label"] for entry in history] == ["first", "second"]

    def test_arch_descriptions(self, tmp_path):
        store = ResultStore(str(tmp_path), create=True)
        config = GPUConfig(**SMALL)
        fingerprint = fingerprint_of_arch(config)
        store.record_arch(fingerprint, arch_to_dict(config))
        descriptions = Query(store).arch_descriptions()
        assert set(descriptions) == {fingerprint}
        assert descriptions[fingerprint]["active_warps"] == 4


#: A second kernel fingerprint, so kernel_fingerprint filters split
#: the population.
OTHER_KERNEL_FP = "0000cafe0000cafe"
#: An arch fingerprint the store's manifest does not describe.
UNKNOWN_ARCH_FP = "00000000deadbeef"


def _mixed_store(root):
    """One store holding every kind of row ``where()`` must handle.

    Current-format keys over two workloads, two policies, two seeds,
    two kernels and three arch fingerprints (two in the manifest at
    latencies 1x and 3x, one unknown); legacy-format keys; an
    unparseable key whose payload names btree/BL; a stale-schema
    record; and a corrupt framed line that outranks (and must not
    shadow) a good entry.  Returns the two known fingerprints.
    """
    known = []
    store = ResultStore(root, shards=1)
    for latency in (1.0, 3.0):
        config = GPUConfig(mrf_latency_multiple=latency, **SMALL)
        known.append(fingerprint_of_arch(config))
        store.record_arch(known[-1], arch_to_dict(config))
    ipc = 0.5
    for workload in ("btree", "kmeans"):
        for policy in ("BL", "LTRF"):
            for seed in (0, 1):
                for arch_fp in known + [UNKNOWN_ARCH_FP]:
                    kernel_fp = KERNEL_FP if seed == 0 else OTHER_KERNEL_FP
                    ipc += 0.125
                    store.put(
                        f"{workload}__{policy}__a{arch_fp}__{seed}__"
                        f"k{kernel_fp}",
                        record_payload(workload=workload, policy=policy,
                                       ipc=ipc),
                    )
            store.put(f"{workload}__{policy}__{known[0]}__0__k{KERNEL_FP}",
                      record_payload(workload=workload, policy=policy))
    store.put("not-a-cache-key", record_payload(workload="btree"))
    store.put(f"btree__BL__a{known[1]}__7__k{KERNEL_FP}",
              {"workload": "btree", "policy": "BL", "ipc": 2.0})
    shadowed = f"kmeans__LTRF__a{known[1]}__7__k{KERNEL_FP}"
    store.put(shadowed, record_payload(workload="kmeans", policy="LTRF"))
    store.close()
    higher = ResultStore(root, shards=1)
    higher.put("unrelated", record_payload())
    with open(higher._states[0].writer_path, "ab") as handle:
        handle.write(b'{"k": "%s", "r": {"ipc": oops}}\n'
                     % shadowed.encode())
    higher.close()
    return known


class TestPushdown:
    """``where()`` decides on the key before the payload is decoded;
    the rows must be exactly what the equivalent ``filter`` chain
    (which cannot be pushed down) returns."""

    @staticmethod
    def _cases(known):
        low, high = known
        some_keys = [
            f"btree__BL__a{low}__0__k{KERNEL_FP}",
            f"kmeans__LTRF__{low}__0__k{KERNEL_FP}",
            f"kmeans__LTRF__a{high}__7__k{KERNEL_FP}",
            "not-a-cache-key",
            "no-such-key",
        ]
        return [
            ("workload", [dict(workload="btree")],
             lambda r: r.workload == "btree"),
            ("policy", [dict(policy="LTRF")],
             lambda r: r.policy == "LTRF"),
            ("arch", [dict(arch_fingerprint=high)],
             lambda r: r.arch_fingerprint == high),
            ("kernel", [dict(kernel_fingerprint=OTHER_KERNEL_FP)],
             lambda r: r.kernel_fingerprint == OTHER_KERNEL_FP),
            ("seed", [dict(seed=0)], lambda r: r.seed == 0),
            ("schema_ok", [dict(schema_ok=True)], lambda r: r.schema_ok),
            ("stale", [dict(schema_ok=False)], lambda r: not r.schema_ok),
            ("min_latency", [dict(min_latency=2.0)],
             lambda r: r.latency is not None and r.latency >= 2.0),
            ("max_latency", [dict(max_latency=1.5)],
             lambda r: r.latency is not None and r.latency <= 1.5),
            ("band", [dict(min_latency=1.0, max_latency=3.0)],
             lambda r: r.latency is not None and 1.0 <= r.latency <= 3.0),
            ("key_in", [dict(key_in=some_keys)],
             lambda r: r.key in some_keys),
            ("workload+policy", [dict(workload="btree", policy="BL")],
             lambda r: r.workload == "btree" and r.policy == "BL"),
            ("workload+seed", [dict(workload="kmeans", seed=7)],
             lambda r: r.workload == "kmeans" and r.seed == 7),
            ("key_in+policy", [dict(key_in=some_keys, policy="LTRF")],
             lambda r: r.key in some_keys and r.policy == "LTRF"),
            ("band+policy+schema_ok",
             [dict(policy="BL", max_latency=3.0, schema_ok=True)],
             lambda r: r.policy == "BL" and r.latency is not None
             and r.latency <= 3.0 and r.schema_ok),
            ("chained", [dict(workload="btree"), dict(seed=1),
                         dict(min_latency=1.0)],
             lambda r: r.workload == "btree" and r.seed == 1
             and r.latency is not None and r.latency >= 1.0),
            ("contradictory", [dict(workload="btree"),
                               dict(workload="kmeans")],
             lambda r: False),
        ]

    def test_where_returns_exactly_the_filter_chains_rows(self, tmp_path):
        root = str(tmp_path)
        known = _mixed_store(root)
        everything = Query.open(root).records()
        assert len(everything) == 2 * 2 * 2 * 3 + 4 + 4
        assert not any(r.key_ok for r in everything
                       if r.key == "not-a-cache-key")
        for name, wheres, predicate in self._cases(known):
            # Each side on a fresh instance: the pushed query must not
            # lean on payloads the reference decoded.
            pushed = Query.open(root)
            for constraint in wheres:
                pushed = pushed.where(**constraint)
            rows = pushed.records()
            expected = Query.open(root).filter(predicate).records()
            assert rows == expected, name
            assert expected or name == "contradictory", name

    def test_only_matching_payloads_are_decoded(self, tmp_path,
                                                monkeypatch):
        store = ResultStore(str(tmp_path), shards=2)
        keys = [
            f"{workload}__{policy}__a{ARCH_FP}__{seed}__k{KERNEL_FP}"
            for workload in ("btree", "kmeans")
            for policy in ("BL", "LTRF")
            for seed in range(5)
        ]
        for key in keys:
            store.put(key, record_payload())
        store.put("not-a-cache-key", record_payload(workload="btree"))
        store.close()
        decoded = []

        def counting(decoder):
            def wrapper(data):
                decoded.append(data)
                return decoder(data)
            return wrapper

        monkeypatch.setattr(result_store, "_decode_payload",
                            counting(result_store._decode_payload))
        monkeypatch.setattr(result_store, "_decode_entry",
                            counting(result_store._decode_entry))
        rows = Query.open(str(tmp_path)).where(
            workload="kmeans", policy="BL").records()
        assert len(rows) == 5
        # Five matching payloads, plus the unparseable key's, which
        # can only be filtered once decoded.
        assert len(decoded) == 6

        decoded.clear()
        wanted = keys[3:7]
        rows = Query.open(str(tmp_path)).where(key_in=wanted).records()
        assert [row.key for row in rows] == sorted(wanted)
        assert len(decoded) == len(wanted)


class TestRunnerSurface:
    def test_results_requires_a_store(self):
        runner = Runner(cache_dir=None)
        with pytest.raises(ValueError, match="no result store"):
            runner.results()

    def test_lookup_round_trip(self, tmp_path):
        from repro.experiments.runner import SimRequest
        runner = Runner(cache_dir=str(tmp_path))
        request = SimRequest("btree", "BL", GPUConfig(**SMALL))
        key = runner.request_key(request)
        assert runner.lookup(key) is None
        record = runner.simulate("btree", "BL", GPUConfig(**SMALL))
        assert runner.lookup(key) == record
        # A fresh runner reads it back from disk through the same path.
        fresh = Runner(cache_dir=str(tmp_path))
        assert fresh.lookup(key) == record

    def test_log_run_skips_idle_runners(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        assert runner.log_run("nothing happened") is None
        runner.simulate("btree", "BL", GPUConfig(**SMALL))
        entry = runner.log_run("one sim")
        assert entry["label"] == "one sim"
        assert entry["simulations"] == 1
        (logged,) = runner.results().run_history()
        assert logged["label"] == "one sim"
