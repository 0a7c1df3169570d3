"""The persistent content-addressed result store and the lazy warm path."""

import json
import os

from repro.benchgen import manifest, source_digest
from repro.service import AnalysisSession, ResultStore
from repro.service.protocol import (DEFAULT_SIZE, OPS, make_request,
                                    parse_request)
from repro.service import store as store_module
from repro.service.store import RESULT_SCHEMA_VERSION, StoredRead

SRC = """
int main(int argc, char** argv) {
  char* a = (char*)malloc(8);
  char* b = a + 1;
  *a = 0;
  *b = 1;
  return 0;
}
"""


def _pointers(session, module="m"):
    values = session.values(module, "main")["values"]
    base = next(v["name"] for v in values if v["op"] == "malloc")
    offset = [v["name"] for v in values if v["op"] == "ptradd"][-1]
    return base, offset


def _entry_files(root):
    return sorted(os.path.join(directory, name)
                  for directory, _, names in os.walk(root)
                  for name in names if name.endswith(".json"))


class TestResultStore:
    def test_put_get_round_trip_and_counters(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        key = store.key("a" * 64, "pair", ["rbaa", "f", "x", "y", 1, 1])
        assert store.get(key) is None
        assert store.misses == 1
        store.put(key, "no-alias")
        assert store.get(key) == "no-alias"
        assert (store.hits, store.misses, store.writes) == (1, 1, 1)
        store.note_bypass()
        stats = store.stats()
        assert stats["bypasses"] == 1
        assert stats["namespace"] == [RESULT_SCHEMA_VERSION,
                                      stats["namespace"][1],
                                      manifest.GENERATOR_VERSION]

    def test_keys_separate_kinds_sources_and_parts(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        keys = {store.key("a" * 64, "load"),
                store.key("b" * 64, "load"),
                store.key("a" * 64, "values", ["main"]),
                store.key("a" * 64, "values", ["other"])}
        assert len(keys) == 4

    def test_corrupt_entry_is_counted_deleted_and_bypassed(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        key = store.key("a" * 64, "load")
        store.put(key, {"functions": ["main"]})
        [path] = _entry_files(store.root)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ truncated")
        assert store.get(key) is None
        assert store.corrupt_entries == 1
        assert not os.path.exists(path)
        # The next lookup is an ordinary miss; a recompute re-stores it.
        assert store.get(key) is None
        assert store.corrupt_entries == 1

    def test_foreign_key_entry_is_treated_as_corrupt(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        key = store.key("a" * 64, "load")
        path = store._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # A well-formed entry filed under the wrong address (e.g. a renamed
        # file) must not be served as if it answered this key.
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"schema": RESULT_SCHEMA_VERSION, "key": "f" * 64,
                       "value": "stale"}, handle)
        assert store.get(key) is None
        assert store.corrupt_entries == 1

    def test_generator_version_bump_invalidates_every_key(self, tmp_path,
                                                          monkeypatch):
        store = ResultStore(str(tmp_path / "store"))
        digest = "a" * 64
        old_key = store.key(digest, "load")
        store.put(old_key, {"functions": ["main"]})
        monkeypatch.setattr(manifest, "GENERATOR_VERSION",
                            manifest.GENERATOR_VERSION + 1)
        # The namespace is read at call time: the same logical request now
        # addresses a different key, so the old entry is silently unreachable.
        new_key = store.key(digest, "load")
        assert new_key != old_key
        assert store.get(new_key) is None
        assert store.get(old_key) == {"functions": ["main"]}  # still intact


    def test_put_new_skips_a_valid_entry(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        key = store.key("a" * 64, "load")
        store.put_new(key, {"functions": ["main"]})
        [path] = _entry_files(store.root)
        written = os.stat(path).st_mtime_ns
        for _ in range(2):  # the file check, then the memo
            store.put_new(key, {"functions": ["main"]})
        assert store.writes == 1
        assert os.stat(path).st_mtime_ns == written
        # The existence check is neither a hit nor a miss.
        assert (store.hits, store.misses, store.corrupt_entries) == (0, 0, 0)
        assert store.get(key) == {"functions": ["main"]}

    def test_put_new_rewrites_a_corrupt_entry(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        key = store.key("a" * 64, "load")
        store.put(key, {"functions": ["main"]})
        [path] = _entry_files(store.root)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ truncated")
        store.put_new(key, {"functions": ["main"]})
        assert (store.corrupt_entries, store.writes) == (1, 2)
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle)["value"] == {"functions": ["main"]}
        assert store.get(key) == {"functions": ["main"]}


#: One request per read op and the store keys it had when each op's layout
#: was written out by hand, for a source digest of zeros under the
#: namespace ``[1, 1, 4]``.  A warm store stays addressable only while
#: these keys stay the same.
PINNED_KEYS = {
    "query": (
        {"analysis": "rbaa", "function": "f", "a": "p", "b": "q",
         "size_a": 4, "size_b": None},
        ["c2b21f62a5cbd27d341094cca88fbbb22dac9c01d201dcb9e76eb016545abdb8"]),
    "query_many": (
        {"analysis": "basic", "function": "f",
         "pairs": [["p", "q"], ["p", "r", 8, "unknown"]]},
        ["7ed3cbfbb1a7a85ea14dfbdc2dbce5903c25fd3b8abe6855480a935133dc7c26",
         "8b4b6e338f303184c126f9c8f60423eff6f07911d1319d5e8354549acb9231c1"]),
    "query_function": (
        {"analysis": "andersen", "function": "f", "max_pairs": 120},
        ["3205e0af3bb3f72c1b347c45edf06114a97404f1f4e938217fe57aaf41332ea4"]),
    "check_bounds": (
        {"function": "f"},
        ["bf224a38e3c1d00122ab5ce2ee0b49f764557c5fe02c4353d6993c1763ee0bea"]),
    "parallel_loops": (
        {},
        ["35753bab109f630c3364fb27122a44bd1ddf172efef7cfbdbddf3f7d7590693d"]),
    "values": (
        {"function": "f"},
        ["4eb068a064aa576a712b2932cf1770cd0584136784545fdaeba5c2d3c0c43c71"]),
    "range": (
        {"function": "f", "value": "i"},
        ["4f1228ec23c9b54309dde04aefbcaefd36dfdab516bc4b1726340b44fe09ba9f"]),
}


class TestStoredReads:
    def test_every_read_op_keeps_its_store_keys(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path))
        # A version bump re-keys every entry on purpose; only the parts of
        # each op are pinned here.
        monkeypatch.setattr(store, "namespace", lambda: [1, 1, 4])
        assert set(PINNED_KEYS) == {name for name, spec in OPS.items()
                                    if spec.stored}
        for op, (fields, keys) in PINNED_KEYS.items():
            request = parse_request(make_request(op, module="m", **fields))
            read = StoredRead.of(request.spec, request.args)
            assert read.keys(store, "0" * 64) == keys, op


class TestReadMemo:
    def test_memo_holds_at_most_the_constant_number_of_entries(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "READ_MEMO_ENTRIES", 4)
        store = ResultStore(str(tmp_path / "store"))
        keys = [store.key("a" * 64, "values", [f"f{index}"])
                for index in range(7)]
        for key in keys:
            store.put(key, [key])
        assert len(store._memo) == 0  # ``put`` leaves the memo alone
        for key in keys + keys:
            assert store.get(key) == [key]
        assert len(store._memo) == store_module.READ_MEMO_ENTRIES == 4

    def test_memo_hits_count_as_hits(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        key = store.key("a" * 64, "range", ["main", "n"])
        store.put(key, "[0, +inf]")
        assert store.get(key) == "[0, +inf]"
        # Entries are immutable: the repeat is served without the file.
        [path] = _entry_files(store.root)
        os.unlink(path)
        assert store.get(key) == "[0, +inf]"
        assert (store.hits, store.misses) == (2, 0)

    def test_a_caller_mutating_a_value_cannot_change_later_reads(
            self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        key = store.key("a" * 64, "check_bounds", [None])
        stored = {"functions": [{"function": "main"}], "summary": {"safe": 1}}
        store.put(key, stored)
        for _ in range(3):  # the file read, then two memo hits
            value = store.get(key)
            assert value == stored
            value["functions"].append("mutated")
            value["summary"]["safe"] = 99


class TestStoreBackedSession:
    def test_warm_session_answers_without_materializing(self, tmp_path):
        root = str(tmp_path / "store")
        cold = AnalysisSession(store=ResultStore(root))
        cold.load_source("m", SRC)
        base, offset = _pointers(cold)
        cold_answers = [
            cold.query("m", "rbaa", "main", base, offset),
            cold.query("m", "rbaa", "main", base, offset,
                       size_a=None, size_b=None),
            cold.query_function("m", "rbaa", "main"),
            cold.values("m", "main"),
        ]
        assert cold.stats("m")["materialized"] is True

        warm = AnalysisSession(store=ResultStore(root))
        warm.load_source("m", SRC)
        warm_answers = [
            warm.query("m", "rbaa", "main", base, offset),
            warm.query("m", "rbaa", "main", base, offset,
                       size_a=None, size_b=None),
            warm.query_function("m", "rbaa", "main"),
            warm.values("m", "main"),
        ]
        assert warm_answers == cold_answers
        record = warm.stats("m")
        # The whole conversation was served from the store: the module was
        # never compiled and the solver never ran — the restart gate.
        assert record["materialized"] is False
        assert record["solver_steps"] == 0
        assert warm.store.misses == 0
        assert warm.store.hits >= 5  # load + 3 pairs + sweep + values

    def test_pair_keys_are_batch_shape_independent(self, tmp_path):
        root = str(tmp_path / "store")
        cold = AnalysisSession(store=ResultStore(root))
        cold.load_source("m", SRC)
        base, offset = _pointers(cold)
        # Stored one-by-one...
        one = cold.query("m", "rbaa", "main", base, offset)
        # ...and re-asked inside a batch: the warm session must hit on both
        # pairs even though the cold traffic never issued this exact batch.
        warm = AnalysisSession(store=ResultStore(root))
        warm.load_source("m", SRC)
        batch = warm.query_many("m", "rbaa", "main",
                                [(base, offset, DEFAULT_SIZE, DEFAULT_SIZE)] * 2)
        assert batch["results"] == [one["result"], one["result"]]
        assert warm.stats("m")["materialized"] is False
        assert warm.store.misses == 0

    def test_corrupt_store_recomputes_identical_answers(self, tmp_path):
        root = str(tmp_path / "store")
        cold = AnalysisSession(store=ResultStore(root))
        cold.load_source("m", SRC)
        base, offset = _pointers(cold)
        expected = cold.query("m", "rbaa", "main", base, offset)
        for path in _entry_files(root):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("not json at all")
        rebuilt = AnalysisSession(store=ResultStore(root))
        rebuilt.load_source("m", SRC)
        assert rebuilt.query("m", "rbaa", "main", base, offset) == expected
        assert rebuilt.store.corrupt_entries >= 2  # load + the pair
        assert rebuilt.stats("m")["materialized"] is True
        # The recompute re-populated the store: a third session is warm.
        warm = AnalysisSession(store=ResultStore(root))
        warm.load_source("m", SRC)
        assert warm.query("m", "rbaa", "main", base, offset) == expected
        assert warm.stats("m")["materialized"] is False

    def test_store_results_match_storeless_session(self, tmp_path):
        plain = AnalysisSession()
        plain.load_source("m", SRC)
        base, offset = _pointers(plain)
        stored = AnalysisSession(store=ResultStore(str(tmp_path / "store")))
        stored.load_source("m", SRC)
        for session in (plain, stored):
            assert session.query("m", "rbaa", "main", base, offset) == \
                plain.query("m", "rbaa", "main", base, offset)
        assert stored.range_of("m", "main", "argc") == \
            plain.range_of("m", "main", "argc")

    def test_edits_write_each_load_address_once(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        session = AnalysisSession(store=store)
        session.load_source("m", SRC)
        edited = SRC.replace("a + 1", "a + 2")
        assert store.writes == 1
        session.edit_source("m", edited)
        assert store.writes == 2
        # Back and forth over stored sources: both addresses exist already.
        for _ in range(2):
            session.edit_source("m", SRC)
            session.edit_source("m", edited)
        assert store.writes == 2
        # A corrupt load entry is discarded and written again.
        path = store._path(store.key(source_digest(SRC), "load"))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ truncated")
        fresh = AnalysisSession(store=ResultStore(store.root))
        fresh.load_source("m", edited)
        fresh.edit_source("m", SRC)
        assert (fresh.store.corrupt_entries, fresh.store.writes) == (1, 1)
        restarted = AnalysisSession(store=ResultStore(store.root))
        restarted.load_source("m", SRC)
        assert restarted.stats("m")["materialized"] is False

    def test_load_digest_tracks_source(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        session = AnalysisSession(store=store)
        session.load_source("m", SRC)
        edited = SRC.replace("a + 1", "a + 2")
        # A different source addresses different keys: no false warm hits.
        assert store.key(source_digest(SRC), "load") != \
            store.key(source_digest(edited), "load")
        other = AnalysisSession(store=ResultStore(store.root))
        other.load_source("m", edited)
        assert other.stats("m")["materialized"] is True
