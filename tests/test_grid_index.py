"""Tests for the 2-D grid access method."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.queries import DropQuery, JumpQuery, point_mask
from repro.engine import QuerySession
from repro.errors import InvalidParameterError
from repro.storage import MemoryFeatureStore
from repro.storage.grid_index import GridIndex


def make_rows(seed: int, m: int = 300) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dt = rng.uniform(0.0, 100.0, size=m)
    dv = rng.normal(0.0, 10.0, size=m)
    ident = rng.uniform(0.0, 1.0, size=(m, 4))
    return np.column_stack([dt, dv, ident])


class TestGridIndex:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            GridIndex(np.zeros((3,)))
        with pytest.raises(InvalidParameterError):
            GridIndex(np.zeros((3, 1)))
        with pytest.raises(InvalidParameterError):
            GridIndex(np.zeros((3, 2)), cells_per_axis=0)

    def test_empty_rows(self):
        grid = GridIndex(np.empty((0, 6)))
        assert grid.query("drop", 10.0, -1.0).shape[0] == 0
        assert grid.cells_examined(10.0, -1.0, "drop") == 0

    def test_single_row(self):
        rows = np.array([[5.0, -3.0, 1.0, 2.0, 3.0, 4.0]])
        grid = GridIndex(rows)
        assert grid.query("drop", 10.0, -2.0).shape[0] == 1
        assert grid.query("drop", 4.0, -2.0).shape[0] == 0
        assert grid.query("drop", 10.0, -4.0).shape[0] == 0

    def test_t_before_data_range(self):
        rows = np.array([[5.0, -3.0, 0, 0, 0, 0], [8.0, 1.0, 0, 0, 0, 0]])
        grid = GridIndex(rows)
        assert grid.query("drop", 1.0, -1.0).shape[0] == 0

    def test_unknown_kind(self):
        grid = GridIndex(make_rows(1))
        with pytest.raises(InvalidParameterError):
            grid.query("dip", 1.0, 1.0)

    @given(
        seed=st.integers(min_value=0, max_value=5000),
        t_thr=st.floats(min_value=0.5, max_value=120.0),
        v_thr=st.floats(min_value=-30.0, max_value=-0.1),
        cells=st.sampled_from([1, 4, 16, 64]),
    )
    @settings(max_examples=150, deadline=None)
    def test_grid_equals_scan_drop(self, seed, t_thr, v_thr, cells):
        rows = make_rows(seed)
        grid = GridIndex(rows, cells_per_axis=cells)
        got = grid.query("drop", t_thr, v_thr)
        mask = point_mask("drop", rows[:, 0], rows[:, 1], t_thr, v_thr)
        expected = rows[mask]
        assert sorted(map(tuple, got)) == sorted(map(tuple, expected))

    @given(
        seed=st.integers(min_value=0, max_value=5000),
        t_thr=st.floats(min_value=0.5, max_value=120.0),
        v_thr=st.floats(min_value=0.1, max_value=30.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_grid_equals_scan_jump(self, seed, t_thr, v_thr):
        rows = make_rows(seed)
        grid = GridIndex(rows, cells_per_axis=16)
        got = grid.query("jump", t_thr, v_thr)
        mask = point_mask("jump", rows[:, 0], rows[:, 1], t_thr, v_thr)
        assert sorted(map(tuple, got)) == sorted(map(tuple, rows[mask]))

    def test_selective_query_touches_few_cells(self):
        rows = make_rows(3, m=2000)
        grid = GridIndex(rows, cells_per_axis=32)
        narrow = grid.cells_examined(5.0, -25.0, "drop")
        broad = grid.cells_examined(95.0, -0.5, "drop")
        assert narrow < broad
        assert broad <= 32 * 32


class TestMemoryStoreGridMode:
    def test_grid_mode_matches_scan(self, walk_series):
        from repro.core.index import SegDiffIndex

        idx = SegDiffIndex.build(walk_series, 0.2, 8 * 3600.0)
        assert isinstance(idx.store, MemoryFeatureStore)
        session = QuerySession(idx.store)
        queries = [
            DropQuery(3600.0, -2.0),
            DropQuery(7200.0, -0.5),
            JumpQuery(3600.0, 2.0),
        ]
        for q in queries:
            assert session.search(q, mode="grid") == session.search(
                q, mode="scan"
            )
        idx.close()

    def test_invalid_mode_still_rejected(self, walk_series):
        from repro.core.index import SegDiffIndex

        idx = SegDiffIndex.build(walk_series, 0.2, 8 * 3600.0)
        with pytest.raises(InvalidParameterError):
            QuerySession(idx.store).search(DropQuery(3600.0, -2.0),
                                           mode="rtree")
        idx.close()

    def test_grid_rebuilt_after_append(self):
        from repro.core.corners import collect_features
        from repro.core.parallelogram import Parallelogram
        from repro.types import DataSegment

        store = MemoryFeatureStore()
        fs1 = collect_features(
            Parallelogram.self_pair(DataSegment(0, 10, 100, 2)), 0.1
        )
        store.add(fs1)
        store.finalize()
        q = DropQuery(200.0, -1.0)
        first = QuerySession(store).search(q, mode="grid")
        fs2 = collect_features(
            Parallelogram.self_pair(DataSegment(100, 2, 200, -10)), 0.1
        )
        store.add(fs2)
        store.finalize()
        second = QuerySession(store).search(q, mode="grid")
        assert len(second) > len(first)
        store.close()
