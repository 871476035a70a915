"""The sweep planner: one read per unique key, and a store read that
fails is a miss, never a quarantine."""

import warnings

import pytest

from repro.fabric.store import (FileStore, SqliteStore, open_store,
                                set_cache_backend)
from repro.perf import iter_sweep, run_sweep

STORES = {"file": FileStore, "sqlite": SqliteStore}


def _record_calls(x):
    _record_calls.calls.append(x)
    return f"{x}1"


_record_calls.calls = []


@pytest.fixture(params=sorted(STORES))
def backend(request):
    before = set_cache_backend(request.param)
    yield request.param
    set_cache_backend(before)


def test_warm_key_is_read_once_per_sweep(backend, tmp_path, monkeypatch):
    run_sweep(["a"], _record_calls, cache=True, cache_dir=tmp_path)
    reads = []
    get = STORES[backend].get

    def counted_get(self, key):
        reads.append(key)
        return get(self, key)

    monkeypatch.setattr(STORES[backend], "get", counted_get)
    _record_calls.calls = []
    items = list(iter_sweep(["a", "a", "a", "b", "b"], _record_calls,
                            cache=True, cache_dir=tmp_path))
    assert len(reads) == 2                        # "a" once, "b" once
    assert [(it.index, it.cache_hit) for it in items] == [
        (0, True), (1, True), (2, True), (3, False), (4, True)]
    assert [it.value for it in items] == ["a1", "a1", "a1", "b1", "b1"]
    assert _record_calls.calls == ["b"]


def test_store_read_failure_is_a_miss_not_a_quarantine(backend, tmp_path,
                                                       monkeypatch):
    assert run_sweep(["p"], _record_calls, cache=True,
                     cache_dir=tmp_path) == ["p1"]

    def failing_get(self, key):
        raise PermissionError("permission denied")

    monkeypatch.setattr(STORES[backend], "get", failing_get)
    _record_calls.calls = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_sweep(["p"], _record_calls, cache=True,
                         cache_dir=tmp_path) == ["p1"]
    monkeypatch.undo()
    assert _record_calls.calls == ["p"]           # recomputed
    messages = [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)]
    assert len(messages) == 1 and "read failed" in messages[0]
    assert "corrupt" not in messages[0]
    assert list(tmp_path.rglob("*.corrupt")) == []
    store = open_store(tmp_path, backend)
    try:
        assert store.stats().corrupt == 0          # no corrupt row
        assert store.stats().entries == 1          # the entry stayed
    finally:
        store.close()
