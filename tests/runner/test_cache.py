"""Cache correctness: hits, misses, fingerprint churn, corruption recovery."""

import json
import os

import pytest

from repro.runner import (
    STATUS_CACHED,
    STATUS_OK,
    CellSpec,
    ResultCache,
    SweepRunner,
    execute_cell,
)

TINY = "repro.runner.testing:TinyWorkload"


def tiny_cell(**kw):
    defaults = dict(mode="shadow", ops=200, seed=5)
    defaults.update(kw)
    return CellSpec.make("tiny", factory=TINY, **defaults)


class TestCacheRoundTrip:
    def test_put_get_reproduces_metrics_exactly(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_cell()
        metrics = execute_cell(spec)
        cache.put(spec, metrics)
        loaded = cache.get(spec)
        assert loaded is not None
        assert loaded.to_dict() == metrics.to_dict()
        assert cache.stats()["hits"] == 1

    def test_identical_rerun_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = SweepRunner(cache=cache).run([tiny_cell()])
        assert [r.status for r in first] == [STATUS_OK]
        second = SweepRunner(cache=cache).run([tiny_cell()])
        assert [r.status for r in second] == [STATUS_CACHED]
        assert (next(iter(second)).metrics.to_dict()
                == next(iter(first)).metrics.to_dict())

    def test_config_override_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache).run([tiny_cell()])
        changed = tiny_cell(overrides={"pwc.enabled": False})
        result = SweepRunner(cache=cache).run([changed])
        assert [r.status for r in result] == [STATUS_OK]

    def test_seed_and_ops_changes_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache).run([tiny_cell()])
        assert cache.get(tiny_cell(seed=6)) is None
        assert cache.get(tiny_cell(ops=201)) is None

    def test_source_fingerprint_change_misses(self, tmp_path):
        old = ResultCache(tmp_path, fingerprint="a" * 64)
        spec = tiny_cell()
        old.put(spec, execute_cell(spec))
        assert old.get(spec) is not None
        new = ResultCache(tmp_path, fingerprint="b" * 64)
        assert new.get(spec) is None
        # The stale generation is still on disk until pruned.
        assert new.prune() == 1
        assert old.get(spec) is None


class TestCorruptionRecovery:
    def test_garbage_entry_is_deleted_and_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_cell()
        baseline = SweepRunner(cache=cache).run([spec])
        path = cache.entry_path(spec)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ not json !!!")
        rerun = SweepRunner(cache=cache).run([spec])
        result = next(iter(rerun))
        assert result.status == STATUS_OK  # recomputed, not crashed
        assert result.metrics.to_dict() == next(iter(baseline)).metrics.to_dict()
        assert cache.stats()["corrupt"] == 1
        # The recomputation rewrote a valid entry.
        assert cache.get(spec).to_dict() == result.metrics.to_dict()

    def test_valid_json_with_missing_fields_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_cell()
        cache.put(spec, execute_cell(spec))
        with open(cache.entry_path(spec), "w", encoding="utf-8") as handle:
            json.dump({"version": 1}, handle)
        assert cache.get(spec) is None
        assert not os.path.exists(cache.entry_path(spec))

    @pytest.mark.parametrize("field", ["cell_key", "fingerprint"])
    def test_wrong_cell_key_in_entry_is_a_miss(self, tmp_path, field):
        # An entry in this generation's directory whose own key or code
        # fingerprint disagrees is stale: it is deleted, never served.
        cache = ResultCache(tmp_path)
        spec = tiny_cell()
        cache.put(spec, execute_cell(spec))
        path = cache.entry_path(spec)
        with open(path, encoding="utf-8") as handle:
            entry = json.load(handle)
        entry[field] = "0" * 64
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        assert cache.get(spec) is None
        assert not os.path.exists(path)
        assert cache.corrupt == 1


class TestInvalidation:
    def test_invalidate_one_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_cell()
        cache.put(spec, execute_cell(spec))
        cache.invalidate(spec)
        assert cache.get(spec) is None

    def test_invalidate_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_cell()
        cache.put(spec, execute_cell(spec))
        cache.invalidate()
        assert not os.path.exists(cache.path)
        assert cache.get(spec) is None
        # And the cache still works after a full wipe.
        cache.put(spec, execute_cell(spec))
        assert cache.get(spec) is not None
