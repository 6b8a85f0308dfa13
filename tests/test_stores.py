"""Tests for the feature stores: memory, SQLite, and their equivalence."""

import os

import pytest

from repro.core.corners import collect_features
from repro.core.parallelogram import Parallelogram
from repro.core.queries import DropQuery, JumpQuery
from repro.engine import QuerySession
from repro.errors import InvalidParameterError, StorageError
from repro.storage import MemoryFeatureStore, SqliteFeatureStore
from repro.types import DataSegment


def feature_sets(epsilon=0.3):
    """A small zoo of parallelograms covering several cases."""
    chains = [
        # (cd, ab) pairs with varied slopes
        (DataSegment(0, 0, 10, 8), DataSegment(10, 8, 20, -5)),
        (DataSegment(10, 8, 20, -5), DataSegment(20, -5, 35, -2)),
        (DataSegment(20, -5, 35, -2), DataSegment(35, -2, 50, 9)),
        (DataSegment(0, 0, 10, 8), DataSegment(20, -5, 35, -2)),
    ]
    out = [collect_features(Parallelogram.from_segments(cd, ab), epsilon)
           for cd, ab in chains]
    out.append(
        collect_features(
            Parallelogram.self_pair(DataSegment(10, 8, 20, -5)), epsilon
        )
    )
    return out


QUERIES = [
    DropQuery(15.0, -3.0),
    DropQuery(40.0, -1.0),
    DropQuery(5.0, -10.0),
    JumpQuery(15.0, 3.0),
    JumpQuery(40.0, 1.0),
]


def search(store, query, mode="index", cache="warm"):
    return QuerySession(store).search(query, mode=mode, cache=cache)


def load(store):
    for fs in feature_sets():
        store.add(fs)
    store.finalize()
    return store


class TestMemoryStore:
    def test_counts(self):
        store = load(MemoryFeatureStore())
        counts = store.counts()
        assert counts.total > 0
        assert counts.drop_points >= counts.drop_lines

    def test_scan_equals_index_mode(self):
        store = load(MemoryFeatureStore())
        for q in QUERIES:
            assert search(store, q, mode="scan") == search(store, q, mode="index")

    def test_search_before_finalize_fails(self):
        store = MemoryFeatureStore()
        store.add(feature_sets()[0])
        with pytest.raises(StorageError):
            search(store, QUERIES[0])

    def test_invalid_mode_rejected(self):
        store = load(MemoryFeatureStore())
        with pytest.raises(InvalidParameterError):
            search(store, QUERIES[0], mode="hash")

    def test_append_after_finalize_then_refinalize(self):
        store = MemoryFeatureStore()
        store.add(feature_sets()[0])
        store.finalize()
        before = store.counts().total
        store.add(feature_sets()[1])
        store.finalize()
        assert store.counts().total > before

    def test_closed_store_unusable(self):
        store = load(MemoryFeatureStore())
        store.close()
        with pytest.raises(StorageError):
            store.counts()

    def test_sizes_positive(self):
        store = load(MemoryFeatureStore())
        assert store.feature_bytes() > 0
        assert store.index_bytes() > 0
        assert store.disk_bytes() == store.feature_bytes() + store.index_bytes()

    def test_context_manager(self):
        with MemoryFeatureStore() as store:
            store.add(feature_sets()[0])
        with pytest.raises(StorageError):
            store.counts()


class TestSqliteStore:
    def test_roundtrip_tempfile(self):
        store = load(SqliteFeatureStore())
        path = store.path
        assert os.path.exists(path)
        assert store.counts().total > 0
        store.close()
        assert not os.path.exists(path), "temp file must be removed"

    def test_explicit_path_kept(self, tmp_path):
        path = str(tmp_path / "features.sqlite")
        store = load(SqliteFeatureStore(path))
        store.close()
        assert os.path.exists(path)

    def test_reopen_existing_database(self, tmp_path):
        path = str(tmp_path / "features.sqlite")
        store = load(SqliteFeatureStore(path))
        results = {repr(q): search(store, q) for q in QUERIES}
        store.close()
        reopened = SqliteFeatureStore(path)
        for q in QUERIES:
            assert search(reopened, q) == results[repr(q)]
        reopened.close()

    def test_scan_equals_index(self):
        with load(SqliteFeatureStore()) as store:
            for q in QUERIES:
                assert search(store, q, mode="scan") == search(store, q, mode="index")

    def test_cold_equals_warm(self):
        with load(SqliteFeatureStore()) as store:
            for q in QUERIES:
                assert search(store, q, cache="cold") == search(store, q, cache="warm")

    def test_index_mode_requires_finalize(self):
        store = SqliteFeatureStore()
        store.add(feature_sets()[0])
        with pytest.raises(StorageError):
            search(store, QUERIES[0], mode="index")
        # but scan works on unindexed data
        assert isinstance(search(store, QUERIES[0], mode="scan"), list)
        store.close()

    def test_invalid_mode_and_cache_rejected(self):
        with load(SqliteFeatureStore()) as store:
            with pytest.raises(InvalidParameterError):
                search(store, QUERIES[0], mode="hash")
            with pytest.raises(InvalidParameterError):
                search(store, QUERIES[0], cache="lukewarm")

    def test_sizes_measured(self):
        with load(SqliteFeatureStore()) as store:
            feat = store.feature_bytes()
            idx = store.index_bytes()
            assert feat > 0
            assert idx > 0
            assert store.disk_bytes() == feat + idx

    def test_drop_indexes_zeroes_index_size(self):
        with load(SqliteFeatureStore()) as store:
            assert store.index_bytes() > 0
            store.drop_indexes()
            assert store.index_bytes() == 0

    def test_incremental_append(self):
        with SqliteFeatureStore() as store:
            store.add(feature_sets()[0])
            store.finalize()
            n1 = store.counts().total
            store.add(feature_sets()[1])
            store.finalize()
            assert store.counts().total > n1


class TestBackendEquivalence:
    def test_same_results_both_backends(self):
        mem = load(MemoryFeatureStore())
        sq = load(SqliteFeatureStore())
        try:
            for q in QUERIES:
                assert search(mem, q) == search(sq, q), f"mismatch for {q}"
        finally:
            sq.close()

    def test_same_counts_both_backends(self):
        mem = load(MemoryFeatureStore())
        sq = load(SqliteFeatureStore())
        try:
            assert mem.counts() == sq.counts()
        finally:
            sq.close()
