"""The lint result cache: correctness (cached ≡ cold) and speed.

The differential tests render the same tree cold and warm and require
byte-identical output — text and JSON, findings and suppression audit.
The speed test is the PR's acceptance criterion: an unchanged tree must
lint at least 5× faster warm than cold. The fingerprint tests pin that
editing an analyzer invalidates results the old analyzer produced.
"""

import glob
import io
import os
import shutil
import time

import pytest

import repro
import repro.lint.cache as cache_module
from repro.lint.cache import LintCache
from repro.lint.runner import run_lint
from repro.runner.fingerprint import clear_fingerprint_cache

BAD = "def f(a=[]):\n    return a\n"
SUPPRESSED = "def g(b=[]):  # repro: noqa[REPRO102]\n    return b\n"


def _run(paths, cache_dir, fmt="text", audit=False, deep=False):
    out = io.StringIO()
    err = io.StringIO()
    rc = run_lint(paths, fmt=fmt, out=out, err=err, deep=deep,
                  cache_dir=cache_dir, audit_suppressions=audit)
    assert err.getvalue() == ""
    return rc, out.getvalue()


class TestDifferential:
    def test_warm_text_output_is_byte_identical(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "bad.py").write_text(BAD)
        (tree / "quiet.py").write_text(SUPPRESSED)
        cache_dir = str(tmp_path / "cache")
        rc_cold, cold = _run([str(tree)], cache_dir, audit=True)
        rc_warm, warm = _run([str(tree)], cache_dir, audit=True)
        assert rc_cold == rc_warm == 1
        assert warm == cold
        assert "mutable-default" in cold
        assert "suppresses" in cold  # the audit round-tripped too

    def test_warm_json_output_is_byte_identical(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "bad.py").write_text(BAD)
        cache_dir = str(tmp_path / "cache")
        rc_cold, cold = _run([str(tree)], cache_dir, fmt="json")
        rc_warm, warm = _run([str(tree)], cache_dir, fmt="json")
        assert rc_cold == rc_warm == 1
        assert warm == cold

    def test_editing_a_file_invalidates(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "mod.py").write_text("x = 1\n")
        cache_dir = str(tmp_path / "cache")
        rc, _ = _run([str(tree)], cache_dir)
        assert rc == 0
        (tree / "mod.py").write_text(BAD)
        rc, text = _run([str(tree)], cache_dir)
        assert rc == 1
        assert "mutable-default" in text

    def test_corrupted_cache_entry_is_a_miss(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "bad.py").write_text(BAD)
        cache_dir = str(tmp_path / "cache")
        _rc, cold = _run([str(tree)], cache_dir)
        entries = glob.glob(os.path.join(cache_dir, "lint-*.json"))
        assert len(entries) == 1
        with open(entries[0], "w") as handle:
            handle.write("{not json")
        rc, text = _run([str(tree)], cache_dir)
        assert rc == 1
        assert text == cold

    def test_rule_set_is_part_of_the_key(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "mod.py").write_text("x = 1\n")
        cache = LintCache(str(tmp_path / "cache"))
        hashes = [("mod.py", "abc")]
        assert (cache.key_for(hashes, ["REPRO101"])
                != cache.key_for(hashes, ["REPRO101", "REPRO401"]))
        assert (cache.key_for(hashes, ["REPRO101"])
                == cache.key_for(hashes, ["REPRO101"]))


@pytest.mark.parametrize("module, rule_id", [
    ("domains/infer.py", "REPRO602"),
    ("time/infer.py", "REPRO701"),
    ("absint.py", "REPRO602"),
], ids=["domains", "time", "absint"])
def test_editing_an_analyzer_changes_cache_key(tmp_path, monkeypatch,
                                               module, rule_id):
    """The key folds in a recursive code fingerprint of ``repro.lint``,
    so an edit to an analyzer — a lattice tweak, a new transfer
    function, a change to the shared interpreter — forces a cold
    re-analysis rather than serving findings the old code produced."""
    copy = tmp_path / "lintpkg"
    shutil.copytree(cache_module._lint_package_root(), copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    edited = copy / module
    assert edited.is_file()

    monkeypatch.setattr(cache_module, "_lint_package_root",
                        lambda: str(copy))
    cache = LintCache(str(tmp_path / "cache"))
    hashes = [("mod.py", "abc")]

    clear_fingerprint_cache()
    key_before = cache.key_for(hashes, [rule_id])
    # Fingerprints memoize per process; same tree, same key.
    assert cache.key_for(hashes, [rule_id]) == key_before

    edited.write_text(edited.read_text() + "\n_TWEAKED = True\n")
    clear_fingerprint_cache()
    key_after = cache.key_for(hashes, [rule_id])
    assert key_after != key_before

    clear_fingerprint_cache()  # don't leak the copy's entry to other tests


class TestSpeed:
    def test_warm_deep_lint_is_5x_faster_than_cold(self, tmp_path):
        package_dir = os.path.dirname(os.path.abspath(repro.__file__))
        cache_dir = str(tmp_path / "cache")
        start = time.perf_counter()
        rc_cold, cold = _run([package_dir], cache_dir, deep=True)
        cold_elapsed = time.perf_counter() - start
        warm_elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            rc_warm, warm = _run([package_dir], cache_dir, deep=True)
            warm_elapsed.append(time.perf_counter() - start)
        assert rc_cold == rc_warm == 0
        assert warm == cold
        assert min(warm_elapsed) * 5 <= cold_elapsed, (
            "warm %.4fs vs cold %.4fs" % (min(warm_elapsed), cold_elapsed))
