"""Tests for Algorithm 1 (windowed feature extraction)."""

import pytest

from repro.core.extraction import FeatureExtractor
from repro.errors import InvalidParameterError, InvalidSeriesError
from repro.storage import MemoryFeatureStore
from repro.types import DataSegment


def chain(*points):
    """Contiguous segments through the given (t, v) breakpoints."""
    return [
        DataSegment(points[i][0], points[i][1], points[i + 1][0], points[i + 1][1])
        for i in range(len(points) - 1)
    ]


def extractor(window=100.0, epsilon=0.0, self_pairs=True):
    store = MemoryFeatureStore()
    return FeatureExtractor(epsilon, window, store, emit_self_pairs=self_pairs), store


class TestValidation:
    def test_negative_epsilon_rejected(self):
        with pytest.raises(InvalidParameterError):
            FeatureExtractor(-0.1, 10.0, MemoryFeatureStore())

    def test_nonpositive_window_rejected(self):
        with pytest.raises(InvalidParameterError):
            FeatureExtractor(0.1, 0.0, MemoryFeatureStore())

    def test_non_contiguous_segments_rejected(self):
        ext, _ = extractor()
        ext.add_segment(DataSegment(0.0, 0.0, 10.0, 1.0))
        with pytest.raises(InvalidSeriesError):
            ext.add_segment(DataSegment(11.0, 1.0, 20.0, 2.0))


class TestPairing:
    def test_pair_counts_within_window(self):
        ext, _ = extractor(window=100.0, self_pairs=False)
        for seg in chain((0, 0), (10, 1), (20, 0), (30, 1)):
            ext.add_segment(seg)
        # segment 2 pairs with 1; segment 3 pairs with 1,2: total 3
        assert ext.stats.n_pairs == 3
        assert ext.stats.n_segments == 3

    def test_far_segments_not_paired(self):
        ext, _ = extractor(window=15.0, self_pairs=False)
        for seg in chain((0, 0), (10, 1), (20, 0), (40, 1)):
            ext.add_segment(seg)
        # seg3 [20,40]: window start = 20-15 = 5 -> pairs with seg1? seg1
        # ends at 10 > 5, yes; seg2 ends 20 > 5 yes.
        # seg2 [10,20]: start 10-15 < 0 -> pairs with seg1.
        assert ext.stats.n_pairs == 3

    def test_history_pruned(self):
        ext, _ = extractor(window=10.0, self_pairs=False)
        segs = chain((0, 0), (10, 1), (30, 0), (50, 1), (70, 0))
        for seg in segs:
            ext.add_segment(seg)
        # each new segment only reaches the immediately previous one
        assert ext.stats.n_pairs == 3
        assert len(ext._history) <= 2

    def test_truncation_applied(self):
        ext, store = extractor(window=5.0, epsilon=0.0, self_pairs=False)
        # long first segment, then a short one; window reaches only 5 back
        ext.add_segment(DataSegment(0.0, 0.0, 20.0, 20.0))
        ext.add_segment(DataSegment(20.0, 20.0, 22.0, 21.0))
        assert ext.stats.n_truncated == 1
        store.finalize()
        # every stored pair must start at the truncated boundary 15.0
        counts = store.counts()
        assert counts.total > 0
        from repro.core.queries import JumpQuery
        from repro.engine import QuerySession

        hits = QuerySession(store).search(JumpQuery(5.0, 0.5), mode="scan")
        assert all(h.t_d >= 15.0 for h in hits)

    def test_self_pairs_emitted(self):
        ext, _ = extractor(self_pairs=True)
        for seg in chain((0, 0), (10, 5), (20, 0)):
            ext.add_segment(seg)
        assert ext.stats.n_self_pairs == 2

    def test_self_pairs_disabled(self):
        ext, _ = extractor(self_pairs=False)
        for seg in chain((0, 0), (10, 5), (20, 0)):
            ext.add_segment(seg)
        assert ext.stats.n_self_pairs == 0


class TestStats:
    def test_corner_histogram_counts_non_self_cases(self):
        ext, _ = extractor(epsilon=0.5, self_pairs=True)
        for seg in chain((0, 0), (10, 5), (20, 0), (30, 8)):
            ext.add_segment(seg)
        hist = ext.stats.corner_histogram
        assert sum(hist.values()) > 0
        assert set(hist) == {1, 2, 3}

    def test_effective_corner_count_range(self):
        ext, _ = extractor(epsilon=0.5)
        for seg in chain((0, 0), (10, 5), (20, 0), (30, 8), (40, 2)):
            ext.add_segment(seg)
        eff = ext.stats.effective_corner_count()
        assert 1.0 <= eff <= 3.0

    def test_percentages_sum_to_100(self):
        ext, _ = extractor(epsilon=0.5)
        for seg in chain((0, 0), (10, 5), (20, 0), (30, 8), (40, 2)):
            ext.add_segment(seg)
        pct = ext.stats.corner_percentages()
        assert sum(pct.values()) == pytest.approx(100.0)

    def test_empty_stats(self):
        ext, _ = extractor()
        assert ext.stats.effective_corner_count() == 0.0
        assert sum(ext.stats.corner_percentages().values()) == 0.0
