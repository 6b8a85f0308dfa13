"""Tests for the MiniDB feature-store backend (equivalence + page costs)."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.index import SegDiffIndex
from repro.core.queries import DropQuery, JumpQuery
from repro.datagen import TimeSeries, random_walk_series
from repro.engine import QuerySession
from repro.errors import InvalidParameterError, StorageError
from repro.storage.minidb import MiniDbFeatureStore

HOUR = 3600.0


def search(store, query, mode="index", cache="warm"):
    return QuerySession(store).search(query, mode=mode, cache=cache)


def search_io(store, query, mode, cache):
    """One search and the pager-counter delta it caused."""
    before = store.pager_stats().snapshot()
    search(store, query, mode=mode, cache=cache)
    return store.pager_stats().delta(before)


@pytest.fixture(scope="module")
def pair_of_indexes():
    series = random_walk_series(300, dt=300.0, step_std=0.8, seed=17)
    # pool large enough to hold the whole working set, so the warm-cache
    # test measures caching rather than LRU thrash on sequential scans
    store = MiniDbFeatureStore(cache_pages=8192)
    mini = SegDiffIndex(0.2, 8 * HOUR, store)
    mini.ingest(series)
    mini.finalize()
    mem = SegDiffIndex.build(series, 0.2, 8 * HOUR, backend="memory")
    yield mini, mem, series
    mini.close()
    mem.close()


QUERIES = [
    (DropQuery(HOUR, -2.0)),
    (DropQuery(4 * HOUR, -0.5)),
    (DropQuery(0.5 * HOUR, -5.0)),
    (JumpQuery(HOUR, 2.0)),
    (JumpQuery(4 * HOUR, 0.5)),
]


class TestEquivalence:
    @pytest.mark.parametrize("query", QUERIES, ids=str)
    @pytest.mark.parametrize("mode", ["scan", "index"])
    @pytest.mark.parametrize("cache", ["warm", "cold"])
    def test_matches_memory_backend(self, pair_of_indexes, query, mode, cache):
        mini, mem, _series = pair_of_indexes
        expected = search(mem.store, query, mode="scan")
        got = search(mini.store, query, mode=mode, cache=cache)
        assert got == expected

    def test_counts_match(self, pair_of_indexes):
        mini, mem, _ = pair_of_indexes
        assert mini.store.counts() == mem.store.counts()

    def test_extremes_match(self, pair_of_indexes):
        mini, mem, _ = pair_of_indexes
        assert mini.store.extreme_feature_dv("drop") == pytest.approx(
            mem.store.extreme_feature_dv("drop")
        )
        assert mini.store.extreme_feature_dv("jump") == pytest.approx(
            mem.store.extreme_feature_dv("jump")
        )

    def test_sample_points(self, pair_of_indexes):
        mini, _mem, _ = pair_of_indexes
        sample = mini.store.sample_points("drop", 32)
        assert sample is not None and 1 <= len(sample) <= 32

    def test_topk_and_auto_work_on_minidb(self, pair_of_indexes):
        mini, _mem, series = pair_of_indexes
        hits = mini.search_deepest_drops(2, HOUR, data=series)
        assert len(hits) == 2
        auto = mini.search_drops(HOUR, -2.0, mode="auto")
        assert auto == mini.search_drops(HOUR, -2.0, mode="index")


class TestPageCosts:
    def test_query_stats_populated(self, pair_of_indexes):
        mini, _mem, _ = pair_of_indexes
        stats = search_io(mini.store, DropQuery(HOUR, -2.0), "scan", "cold")
        assert stats.page_reads > 0
        assert stats.misses > 0  # cold cache: everything missed

    def test_warm_cache_hits(self, pair_of_indexes):
        mini, _mem, _ = pair_of_indexes
        q = DropQuery(HOUR, -2.0)
        search(mini.store, q, mode="scan", cache="warm")  # prime
        stats = search_io(mini.store, q, "scan", "warm")
        assert stats.hits > 0
        assert stats.disk_reads == 0  # fully cached

    def test_index_selective_query_reads_fewer_pages(self, pair_of_indexes):
        """A highly selective query must touch far fewer pages via the
        B+tree than via a full scan — the B-tree's raison d'etre."""
        mini, _mem, _ = pair_of_indexes
        q = DropQuery(0.25 * HOUR, -6.0)  # few or no results
        scan_reads = search_io(mini.store, q, "scan", "cold").page_reads
        index_reads = search_io(mini.store, q, "index", "cold").page_reads
        assert index_reads < scan_reads / 2

    def test_index_hard_query_pays_random_io(self, pair_of_indexes):
        """On a huge-result query the index fetches a heap page per match
        and loses to the scan — Figures 19-20 from first principles."""
        mini, _mem, _ = pair_of_indexes
        q = DropQuery(8 * HOUR, -0.01)
        scan_reads = search_io(mini.store, q, "scan", "cold").page_reads
        index_reads = search_io(mini.store, q, "index", "cold").page_reads
        assert index_reads > scan_reads


class TestLifecycle:
    def test_persistence_roundtrip(self, tmp_path):
        series = random_walk_series(150, dt=300.0, step_std=0.8, seed=9)
        path = str(tmp_path / "walk.mdb")
        index = SegDiffIndex.build(
            series, 0.2, 4 * HOUR, backend="minidb", path=path
        )
        expected = index.search_drops(HOUR, -2.0)
        index.close()
        assert os.path.exists(path)

        store = MiniDbFeatureStore(path)
        try:
            assert store.get_meta("epsilon") == 0.2
            got = search(store, DropQuery(HOUR, -2.0))
            assert got == expected
            assert store.load_segments()
        finally:
            store.close()

    def test_tempfile_removed_on_close(self):
        store = MiniDbFeatureStore()
        path = store.path
        assert os.path.exists(path)
        store.close()
        assert not os.path.exists(path)

    def test_stale_index_rejected(self):
        from repro.core.corners import collect_features
        from repro.core.parallelogram import Parallelogram
        from repro.types import DataSegment

        store = MiniDbFeatureStore()
        try:
            fs = collect_features(
                Parallelogram.self_pair(DataSegment(0, 5, 10, -5)), 0.1
            )
            store.add(fs)
            with pytest.raises(StorageError, match="stale|missing"):
                search(store, DropQuery(5.0, -1.0), mode="index")
            assert search(store, DropQuery(5.0, -1.0), mode="scan")
            store.finalize()
            assert search(store, DropQuery(5.0, -1.0), mode="index")
        finally:
            store.close()

    def test_invalid_modes_rejected(self, pair_of_indexes):
        mini, _mem, _ = pair_of_indexes
        with pytest.raises(InvalidParameterError):
            search(mini.store, QUERIES[0], mode="grid")
        with pytest.raises(InvalidParameterError):
            search(mini.store, QUERIES[0], cache="tepid")

    def test_closed_store_unusable(self):
        store = MiniDbFeatureStore()
        store.close()
        with pytest.raises(StorageError):
            store.counts()


@given(
    seed=st.integers(min_value=0, max_value=5000),
    v_thr=st.floats(min_value=-6.0, max_value=-0.5),
    t_minutes=st.integers(min_value=10, max_value=200),
)
@settings(max_examples=10, deadline=None)
def test_minidb_equivalence_property(seed, v_thr, t_minutes):
    """MiniDB agrees with the memory backend on random walks."""
    import numpy as np

    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(120.0, 600.0, size=60))
    v = np.cumsum(rng.normal(0.0, 1.5, size=60))
    series = TimeSeries(t, v)
    mini = SegDiffIndex.build(series, 0.3, 4 * HOUR, backend="minidb")
    mem = SegDiffIndex.build(series, 0.3, 4 * HOUR, backend="memory")
    try:
        t_thr = t_minutes * 60.0
        assert mini.search_drops(t_thr, v_thr) == mem.search_drops(t_thr, v_thr)
    finally:
        mini.close()
        mem.close()
