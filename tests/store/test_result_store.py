"""Tests for the sharded append-only result store."""

import json
import os
import threading

import pytest

from repro.store import ResultStore, StoreError, legacy_entry_name
from repro.store import result_store
from repro.store.result_store import FORMAT_FILE


def _segment_paths(root):
    paths = []
    for name in sorted(os.listdir(root)):
        shard_dir = os.path.join(root, name)
        if not name.startswith("shard-") or not os.path.isdir(shard_dir):
            continue
        for segment in sorted(os.listdir(shard_dir)):
            if segment.endswith(".jsonl"):
                paths.append(os.path.join(shard_dir, segment))
    return paths


class TestBasics:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("some__key", {"ipc": 1.5, "workload": "x"})
        assert store.get("some__key") == {"ipc": 1.5, "workload": "x"}
        assert "some__key" in store
        assert store.get("other__key") is None

    def test_persists_across_instances(self, tmp_path):
        first = ResultStore(str(tmp_path))
        first.put("k1", {"v": 1})
        first.put("k2", {"v": 2})
        first.close()
        fresh = ResultStore(str(tmp_path))
        assert fresh.get("k1") == {"v": 1}
        assert fresh.get("k2") == {"v": 2}
        assert sorted(fresh.keys()) == ["k1", "k2"]

    def test_last_write_wins(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("k", {"v": 1})
        store.put("k", {"v": 2})
        assert store.get("k") == {"v": 2}
        store.close()
        fresh = ResultStore(str(tmp_path))
        assert fresh.get("k") == {"v": 2}
        stats = fresh.stats()
        assert stats.entries == 2
        assert stats.live_keys == 1
        assert stats.superseded == 1

    def test_format_marker_written_and_checked(self, tmp_path):
        ResultStore(str(tmp_path))
        marker = tmp_path / FORMAT_FILE
        assert marker.exists()
        marker.write_text(json.dumps(
            {"format": "ltrf-store", "version": 999, "shards": 16}
        ))
        with pytest.raises(StoreError, match="v999"):
            ResultStore(str(tmp_path))

    def test_open_without_create_requires_marker(self, tmp_path):
        with pytest.raises(StoreError, match="not a result store"):
            ResultStore(str(tmp_path), create=False)
        assert not (tmp_path / FORMAT_FILE).exists()   # untouched
        ResultStore(str(tmp_path)).put("k", {"v": 1})
        reader = ResultStore(str(tmp_path), create=False)
        assert reader.get("k") == {"v": 1}

    def test_shard_count_read_from_marker(self, tmp_path):
        ResultStore(str(tmp_path), shards=4).put("k", {"v": 1})
        # A reader opened with the default shard count must still
        # address keys the way the creator did.
        fresh = ResultStore(str(tmp_path))
        assert fresh.shards == 4
        assert fresh.get("k") == {"v": 1}

    def test_foreign_files_ignored(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("k", {"v": 1})
        (tmp_path / "README.txt").write_text("not a segment")
        shard_dir = os.path.dirname(_segment_paths(str(tmp_path))[0])
        with open(os.path.join(shard_dir, "notes.txt"), "w") as handle:
            handle.write("also not a segment")
        fresh = ResultStore(str(tmp_path))
        assert fresh.get("k") == {"v": 1}
        assert fresh.verify().ok


class TestInjectiveNaming:
    """The regression the store exists for: no key aliasing, ever."""

    def test_legacy_aliasing_keys_resolve_to_distinct_records(self,
                                                              tmp_path):
        # A file-backed workload path `a/b` and a workload *named*
        # `a_b` aliased to one file under the legacy sanitiser...
        slashed = "a/b__BL__cfg0__0__kdeadbeef"
        underscored = "a_b__BL__cfg0__0__kdeadbeef"
        assert legacy_entry_name(slashed) == legacy_entry_name(underscored)
        # ...but the store addresses records by the full key string.
        store = ResultStore(str(tmp_path))
        store.put(slashed, {"workload": "a/b", "ipc": 1.0})
        store.put(underscored, {"workload": "a_b", "ipc": 2.0})
        assert store.get(slashed) == {"workload": "a/b", "ipc": 1.0}
        assert store.get(underscored) == {"workload": "a_b", "ipc": 2.0}
        store.close()
        fresh = ResultStore(str(tmp_path))
        assert fresh.get(slashed) == {"workload": "a/b", "ipc": 1.0}
        assert fresh.get(underscored) == {"workload": "a_b", "ipc": 2.0}

    def test_plus_policy_keys_distinct(self, tmp_path):
        plus = "wl__LTRF+__cfg0__0__kdeadbeef"
        spelled = "wl__LTRFplus__cfg0__0__kdeadbeef"
        assert legacy_entry_name(plus) == legacy_entry_name(spelled)
        store = ResultStore(str(tmp_path))
        store.put(plus, {"policy": "LTRF+"})
        store.put(spelled, {"policy": "LTRFplus"})
        assert store.get(plus) == {"policy": "LTRF+"}
        assert store.get(spelled) == {"policy": "LTRFplus"}

    def test_hostile_key_characters_round_trip(self, tmp_path):
        # Keys are data, not filenames: newlines, separators and very
        # long paths must all round-trip.  The escaped keys take the
        # index's eager path on reopen, the plain long one the lazy.
        keys = [
            "with\nnewline__BL__c__0__k1",
            "with\ttab__BL__c__0__k1",
            ("x" * 500) + "__BL__c__0__k1",
            'quote"and\\backslash__BL__c__0__k1',
            "caf\u00e9-\u5de5\u4f5c__BL__c__0__k1",
        ]
        store = ResultStore(str(tmp_path))
        for index, key in enumerate(keys):
            store.put(key, {"i": index})
        store.close()
        fresh = ResultStore(str(tmp_path))
        for index, key in enumerate(keys):
            assert fresh.get(key) == {"i": index}


class TestSegments:
    def test_rotation_bounds_segment_size(self, tmp_path):
        store = ResultStore(str(tmp_path), shards=1, segment_bytes=200)
        for index in range(20):
            store.put(f"key-{index}", {"v": index})
        segments = _segment_paths(str(tmp_path))
        assert len(segments) > 1
        fresh = ResultStore(str(tmp_path))
        for index in range(20):
            assert fresh.get(f"key-{index}") == {"v": index}

    def test_two_stores_write_disjoint_segments(self, tmp_path):
        a = ResultStore(str(tmp_path), shards=1)
        b = ResultStore(str(tmp_path), shards=1)
        a.put("ka", {"v": "a"})
        b.put("kb", {"v": "b"})
        assert len(_segment_paths(str(tmp_path))) == 2
        # Each store observes the other's published records.
        assert a.get("kb") == {"v": "b"}
        assert b.get("ka") == {"v": "a"}

    def test_compaction_merges_and_drops_dead_entries(self, tmp_path):
        store = ResultStore(str(tmp_path), shards=1, segment_bytes=150)
        for index in range(10):
            store.put(f"key-{index}", {"v": index})
        store.put("key-0", {"v": "rewritten"})
        report = store.compact()
        assert report.shards_compacted == 1
        assert report.segments_after == 1
        assert report.entries_dropped == 1
        assert len(_segment_paths(str(tmp_path))) == 1
        # Both the compacting instance and a fresh one serve the data.
        assert store.get("key-0") == {"v": "rewritten"}
        fresh = ResultStore(str(tmp_path))
        assert fresh.get("key-0") == {"v": "rewritten"}
        for index in range(1, 10):
            assert fresh.get(f"key-{index}") == {"v": index}
        assert fresh.stats().superseded == 0

    def test_compaction_is_idempotent_and_store_usable_after(self,
                                                             tmp_path):
        store = ResultStore(str(tmp_path), shards=2)
        store.put("k1", {"v": 1})
        store.compact()
        second = store.compact()
        assert second.shards_compacted == 0
        store.put("k2", {"v": 2})      # writing after compact rotates
        assert store.get("k1") == {"v": 1}
        assert store.get("k2") == {"v": 2}

    def test_compaction_of_empty_store(self, tmp_path):
        report = ResultStore(str(tmp_path)).compact()
        assert report.shards_compacted == 0
        assert report.segments_before == 0


class TestCrashConsistency:
    def test_truncated_final_segment_tolerated(self, tmp_path):
        store = ResultStore(str(tmp_path), shards=1)
        store.put("k1", {"v": 1})
        store.put("k2", {"v": 2})
        store.close()
        (segment,) = _segment_paths(str(tmp_path))
        with open(segment, "ab") as handle:           # crash mid-append
            handle.write(b'{"k": "k3", "r": {"v"')
        fresh = ResultStore(str(tmp_path))
        assert fresh.get("k1") == {"v": 1}
        assert fresh.get("k2") == {"v": 2}
        assert fresh.get("k3") is None
        stats = fresh.stats()
        assert stats.torn_tails == 1
        assert stats.corrupt_lines == 0
        assert fresh.verify().ok    # torn tails are tolerated by design

    def test_compaction_reclaims_torn_tail(self, tmp_path):
        store = ResultStore(str(tmp_path), shards=1)
        store.put("k1", {"v": 1})
        store.close()
        (segment,) = _segment_paths(str(tmp_path))
        with open(segment, "ab") as handle:
            handle.write(b"{torn")
        fresh = ResultStore(str(tmp_path))
        fresh.compact()
        stats = fresh.stats()
        assert stats.torn_tails == 0
        assert fresh.get("k1") == {"v": 1}

    def test_corrupt_interior_line_skipped_and_flagged(self, tmp_path):
        store = ResultStore(str(tmp_path), shards=1)
        store.put("k1", {"v": 1})
        store.close()
        (segment,) = _segment_paths(str(tmp_path))
        with open(segment, "ab") as handle:
            handle.write(b"garbage that is not json\n")
            handle.write(b'{"k": "k2", "r": {"v": 2}}\n')
        fresh = ResultStore(str(tmp_path))
        assert fresh.get("k1") == {"v": 1}
        assert fresh.get("k2") == {"v": 2}   # entries after the damage load
        report = fresh.verify()
        assert not report.ok
        assert report.stats.corrupt_lines == 1
        # Compaction drops the damage; verify is clean afterwards.
        fresh.compact()
        assert fresh.verify().ok
        assert fresh.get("k2") == {"v": 2}

    def test_concurrent_writer_partial_line_then_completed(self, tmp_path):
        """A reader polling during another writer's append sees nothing
        until the line is complete, then sees the full record."""
        reader = ResultStore(str(tmp_path), shards=1)
        writer = ResultStore(str(tmp_path), shards=1)
        writer.put("k1", {"v": 1})
        assert reader.get("k1") == {"v": 1}
        # Hand-roll a partial append on the writer's own segment, as
        # the OS would expose a flush that raced with the read.
        line = json.dumps({"k": "k2", "r": {"v": 2}}) + "\n"
        segment = writer._states[writer.shard_of("k2")].writer_path
        with open(segment, "ab") as handle:
            handle.write(line[:9].encode())
            handle.flush()
            assert reader.get("k2") is None          # partial: invisible
            handle.write(line[9:].encode())
        assert reader.get("k2") == {"v": 2}          # completed: visible
        assert reader.get("k1") == {"v": 1}

    def test_dead_writer_torn_segment_then_rerun_wins_by_rank(
            self, tmp_path):
        """A concurrent writer dies mid-append (a killed sweep worker):
        its torn final line stays invisible to a live reader's delta
        rescan, a later writer's re-run of the lost point wins by
        (seq, writer) rank, and verify stays green throughout."""
        reader = ResultStore(str(tmp_path), shards=1)
        dying = ResultStore(str(tmp_path), shards=1)
        dying.put("done", {"v": 1})
        segment = dying._states[dying.shard_of("lost")].writer_path
        with open(segment, "ab") as handle:   # killed mid-append
            handle.write(b'{"k": "lost", "r": {"v')
        # (never closed -- the writer process is gone)
        assert reader.get("done") == {"v": 1}
        assert reader.get("lost") is None        # torn: invisible

        rerun = ResultStore(str(tmp_path), shards=1)  # higher seq
        rerun.put("lost", {"v": 2})
        rerun.put("done", {"v": 1})              # idempotent re-put
        # The live reader's delta rescan picks up the re-run...
        assert reader.get("lost") == {"v": 2}
        assert reader.get("done") == {"v": 1}
        # ...and a fresh full replay agrees: the re-run's segment
        # outranks the dead writer's.
        fresh = ResultStore(str(tmp_path), shards=1)
        assert fresh.get("lost") == {"v": 2}
        report = fresh.verify()
        assert report.ok
        assert report.stats.torn_tails == 1

    def test_live_index_matches_full_replay_winner(self, tmp_path):
        """Two writers' active segments grow concurrently; a live
        reader applying deltas out of rank order must still converge
        on the same winner a fresh full replay picks (the higher
        (seq, writer) segment), not on whichever delta arrived last."""
        a = ResultStore(str(tmp_path), shards=1)
        b = ResultStore(str(tmp_path), shards=1)
        a.put("warmup", {"v": 0})             # A owns seg-1
        b.put("k", {"v": "from-b"})           # B owns seg-2
        reader = ResultStore(str(tmp_path), shards=1)
        assert reader.get("k") == {"v": "from-b"}
        a.put("k", {"v": "from-a"})           # later wall-clock, lower seq
        reader.get("missing")                 # force a delta refresh
        live_view = reader.get("k")
        replay_view = ResultStore(str(tmp_path), shards=1).get("k")
        assert live_view == replay_view == {"v": "from-b"}

    def test_verify_flags_conflicting_payloads_for_one_key(self, tmp_path):
        """Two *distinct* payloads under one key (aliasing/corruption,
        or a record-schema change) must fail verification."""
        store = ResultStore(str(tmp_path))
        store.put("k", {"v": 1})
        store.put("k", {"v": 999})
        report = store.verify()
        assert not report.ok
        assert report.conflicts == {"k": 2}
        # Identical re-puts (the normal racing-writers case) are fine.
        clean = ResultStore(str(tmp_path / "clean"))
        clean.put("k", {"v": 1})
        clean.put("k", {"v": 1})
        assert clean.verify().ok


class TestLazyIndex:
    """The index keeps canonically framed payloads as raw bytes and
    decodes one only when it is read."""

    def test_corrupt_framed_winner_does_not_shadow_good_entry(
            self, tmp_path):
        low = ResultStore(str(tmp_path), shards=1)
        high = ResultStore(str(tmp_path), shards=1)
        low.put("k", {"v": "good"})              # seg-1
        low.put("w", {"v": "low"})
        high.put("w", {"v": "high"})             # seg-2 outranks seg-1
        segment = high._states[0].writer_path
        with open(segment, "ab") as handle:
            # Framed as _encode_entry writes it, so the scan indexes it
            # without parsing, and it outranks the good entry for "k".
            handle.write(b'{"k": "k", "r": {"v": "torn", oops}}\n')
        reader = ResultStore(str(tmp_path), shards=1)
        assert reader.get("k") == {"v": "good"}
        assert reader.get("w") == {"v": "high"}
        report = reader.verify()
        assert report.stats.corrupt_lines == 1
        assert not report.ok
        # The replay rebuilt ranks too: a late write from the
        # lower-ranked writer does not displace the higher one's entry.
        low.put("w", {"v": "low-late"})
        reader.get("missing")                    # force a delta refresh
        assert reader.get("w") == {"v": "high"}
        assert ResultStore(str(tmp_path), shards=1).get("w") == \
            {"v": "high"}
        assert sorted(reader.keys()) == ["k", "w"]

    def test_one_get_decodes_one_payload(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path), shards=1)
        for index in range(20):
            store.put(f"key-{index}", {"v": index})
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
        fresh = ResultStore(str(tmp_path), shards=1)
        assert fresh.get("key-7") == {"v": 7}
        assert len(decoded) == 1
        assert fresh.get("key-7") == {"v": 7}    # memoised
        assert len(decoded) == 1

    def test_carriage_return_chunk_splits_like_an_eager_scan(self, tmp_path):
        store = ResultStore(str(tmp_path), shards=1)
        store.put("k1", {"v": 1})
        segment = store._states[0].writer_path
        with open(segment, "ab") as handle:
            handle.write(b'{"k": "k2", "r": {"v": 2}}\r'
                         b'{"k": "k3", "r": {"v": 3}}\n')
        fresh = ResultStore(str(tmp_path), shards=1)
        # k3 first: read as one framed line, k2's would hide it.
        assert fresh.get("k3") == {"v": 3}
        assert fresh.get("k2") == {"v": 2}
        assert fresh.get("k1") == {"v": 1}
        assert fresh.verify().ok

    def test_items_yields_every_live_pair_once(self, tmp_path):
        store = ResultStore(str(tmp_path), shards=4)
        for index in range(30):
            store.put(f"key-{index}", {"v": index})
        store.put("key-3", {"v": "rewritten"})
        store.close()
        pairs = dict(ResultStore(str(tmp_path)).items())
        expected = {f"key-{index}": {"v": index} for index in range(30)}
        expected["key-3"] = {"v": "rewritten"}
        assert pairs == expected

    def test_threads_reading_a_fresh_instance_agree(self, tmp_path):
        writer = ResultStore(str(tmp_path), shards=4)
        keys = [f"key-{index}" for index in range(40)]
        for index, key in enumerate(keys):
            writer.put(key, {"v": index, "tag": "x" * index})
        writer.close()
        fresh = ResultStore(str(tmp_path), shards=4)
        threads_n = 8
        barrier = threading.Barrier(threads_n)
        seen = [None] * threads_n

        def read(slot):
            barrier.wait()
            seen[slot] = [fresh.get(key) for key in keys]

        threads = [threading.Thread(target=read, args=(slot,))
                   for slot in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = [{"v": index, "tag": "x" * index}
                    for index in range(len(keys))]
        assert all(view == expected for view in seen)


def _reference_replay(root):
    """The line-by-line replay the full scan must agree with: every
    non-blank complete line through ``_decode_entry``, segments in
    rank order, later entries winning."""
    live, variants = {}, {}
    counts = dict(segments=0, entries=0, corrupt=0, torn=0, bytes=0)
    for shard_dir in sorted(os.listdir(root)):
        if not shard_dir.startswith("shard-"):
            continue
        directory = os.path.join(root, shard_dir)
        names = sorted(
            (name for name in os.listdir(directory)
             if name.startswith("seg-") and name.endswith(".jsonl")),
            key=result_store._segment_sort_key,
        )
        for name in names:
            with open(os.path.join(directory, name), "rb") as handle:
                data = handle.read()
            counts["segments"] += 1
            counts["bytes"] += len(data)
            complete = data.rfind(b"\n") + 1
            counts["torn"] += complete != len(data)
            for line in data[:complete].splitlines():
                if not line.strip():
                    continue
                decoded = result_store._decode_entry(line)
                if decoded is None:
                    counts["corrupt"] += 1
                    continue
                key, payload = decoded
                counts["entries"] += 1
                variants.setdefault(key, set()).add(
                    json.dumps(payload, sort_keys=True))
                live[key] = payload
    conflicts = {key: len(seen) for key, seen in variants.items()
                 if len(seen) > 1}
    return live, conflicts, counts


class TestFullScan:
    """stats/verify/compact share the index's line splitter and decode
    framed payloads on their own; they must count exactly what a
    line-by-line ``json.loads`` replay counts."""

    def _damaged_store(self, root):
        first = ResultStore(root, shards=1)
        first.put("good", {"v": 1})
        first.put("conflict", {"v": "one"})
        first.put("same", {"v": 1})
        first.put("same", {"v": 1})
        with open(first._states[0].writer_path, "ab") as handle:
            handle.write(
                b'{"k": "padded", "r":  {"v": 2} }\n'
                b'{"k": "trailing-space", "r": {"v": 3}   }\n'
                b'{"k": "garbage", "r": {"v": 4} x}\n'
                b'{"k": "list", "r": []}\n'
                b'{"k": "number", "r": 1}\n'
                b'{"k": "string", "r": "x"}\n'
                b'{"k": "dup-a", "r": {"v": 5}, "k": "dup-b"}\n'
                b'\n   \n'
                + json.dumps({"k": 'esc"aped', "r": {"v": 6}}).encode()
                + b"\n"
                + json.dumps({"k": "ключ", "r": {"v": 7}},
                             ensure_ascii=False).encode()
                + b"\n"
                + json.dumps({"k": "ключ-2", "r": {"v": 8}}).encode()
                + b"\nnot json at all\n"
            )
        second = ResultStore(root, shards=1)        # outranks first
        second.put("conflict", {"v": "two"})
        with open(second._states[0].writer_path, "ab") as handle:
            handle.write(b'{"k": "cr-1", "r": {"v": 9}}\r'
                         b'{"k": "cr-2", "r": {"v": 10}}\r\n'
                         b'{"k": "cr-3", "r": []}\n'
                         b'{"k": "torn", "r": {"v"')
        first.close()
        second.close()

    def test_stats_verify_compact_match_a_line_by_line_replay(
            self, tmp_path):
        root = str(tmp_path)
        self._damaged_store(root)
        live, conflicts, counts = _reference_replay(root)
        # The fixture exercises what it claims to.
        assert "dup-b" in live and "dup-a" not in live
        assert {"padded", "trailing-space", "ключ", 'esc"aped',
                "cr-1", "cr-2"} <= set(live)
        assert counts["corrupt"] == 6 and counts["torn"] == 1
        assert conflicts == {"conflict": 2}

        report = ResultStore(root).verify()
        stats = report.stats
        assert (stats.segments, stats.entries, stats.corrupt_lines,
                stats.torn_tails, stats.bytes) == (
            counts["segments"], counts["entries"], counts["corrupt"],
            counts["torn"], counts["bytes"])
        assert stats.live_keys == len(live)
        assert stats.superseded == counts["entries"] - len(live)
        assert report.conflicts == conflicts
        assert ResultStore(root).stats() == stats

        compaction = ResultStore(root).compact()
        assert compaction.segments_before == counts["segments"]
        assert compaction.bytes_before == counts["bytes"]
        assert compaction.entries_dropped == (
            counts["entries"] - len(live) + counts["corrupt"])
        assert dict(ResultStore(root).items()) == live
        assert ResultStore(root).verify().ok
