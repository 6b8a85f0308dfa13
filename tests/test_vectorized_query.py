"""Read-path answers checked against the paper's independent oracles.

Every store serves the engine through one columnar read contract (the
four ``*_array`` primitives plus ``read_table_rows``).  These tests hold
that contract to references that share no code with it:

* the Naive on-the-fly scan (:class:`repro.baselines.NaiveScan`): every
  raw-sample event it finds must be covered by a returned pair;
* the Theorem 1 brute-force audits (:func:`audit_completeness` and
  :func:`audit_soundness`): no uncovered witness event, no pair outside
  Lemma 5's ``2ε`` bound;
* a memory-store build of the same series: bit-identical pairs in §4.4
  order on every backend, in loop and batch form, in ``scan`` and
  ``index`` mode, refined or not, and on live snapshots under random
  seal schedules.

The memory-build comparison runs over the whole query domain, including
``T`` past the index window and answers of tens of thousands of pairs.
The coverage audits are quadratic in the series, so they run on a
bounded subset: ``T`` inside the window (Theorem 1's precondition) and
answers small enough to audit in well under a second.

Also covered: row-level agreement of each backend's primitives with the
memory store, EXPLAIN row counts, deadlines inside array scans, degraded
candidate answers, and the MiniDB columnar view's write invalidation.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import NaiveScan
from repro.core.corners import collect_features
from repro.core.guarantees import audit_completeness, audit_soundness, covers
from repro.core.index import SegDiffIndex
from repro.core.live import LiveIndex
from repro.core.parallelogram import Parallelogram
from repro.core.queries import DropQuery, JumpQuery
from repro.datagen import PiecewiseLinearSignal, random_walk_series
from repro.engine import QuerySession, ResiliencePolicy, ResultStatus
from repro.errors import QueryTimeout
from repro.storage import MemoryFeatureStore
from repro.storage.faults import FaultyStoreWrapper, ReadFaultPolicy
from repro.storage.minidb import MiniDbFeatureStore
from repro.types import DataSegment

HOUR = 3600.0
EPSILON = 0.2
WINDOW = 8 * HOUR
# the audited subset of the query domain (see the module docstring)
AUDIT_MAX_T = 3 * HOUR
AUDIT_MIN_V = 0.5
BACKENDS = ("memory", "sqlite", "minidb")
TABLES = ("drop_points", "drop_lines", "jump_points", "jump_lines")

DROP = DropQuery(HOUR, -2.0)


class Oracles:
    """The paper's independent checks on one series.

    Audits are memoized per ``(query, answer)``: every backend must
    return the reference answer bit for bit, so each distinct answer is
    audited once however many backends and modes produce it.
    """

    def __init__(self, series):
        self.naive = NaiveScan(series)
        self.signal = PiecewiseLinearSignal.from_series(series)
        self._passed = set()

    @staticmethod
    def auditable(query):
        return (query.t_threshold <= AUDIT_MAX_T
                and abs(query.v_threshold) >= AUDIT_MIN_V)

    def check(self, pairs, query):
        assert self.auditable(query), query
        key = (query, tuple(p.as_tuple() for p in pairs))
        if key in self._passed:
            return
        search = (self.naive.search_drops if query.kind == "drop"
                  else self.naive.search_jumps)
        events = search(query.t_threshold, query.v_threshold)
        uncovered = [ev for ev in events if not covers(pairs, ev)]
        assert not uncovered, f"{query}: Naive events missed {uncovered[:3]}"
        missed = audit_completeness(pairs, self.signal, query)
        assert not missed, f"{query}: witnesses missed {missed[:3]}"
        bad = audit_soundness(pairs, self.signal, query, EPSILON)
        assert not bad, f"{query}: unsound pairs {bad[:3]}"
        self._passed.add(key)


@pytest.fixture(scope="module")
def walk_series():
    # ~39k rows per point table: sqlite reads span many fetchmany chunks
    return random_walk_series(500, dt=300.0, step_std=0.8, seed=23)


@pytest.fixture(scope="module")
def reference(walk_series):
    """The memory-store build every backend must reproduce."""
    index = SegDiffIndex.build(walk_series, EPSILON, WINDOW,
                               backend="memory")
    yield index
    index.close()


@pytest.fixture(scope="module", params=BACKENDS)
def backend_index(request, walk_series):
    index = SegDiffIndex.build(walk_series, EPSILON, WINDOW,
                               backend=request.param)
    yield index
    index.close()


@pytest.fixture(scope="module")
def walk_oracles(walk_series):
    return Oracles(walk_series)


@pytest.fixture(scope="module")
def audit_series():
    """A shorter walk for the quadratic coverage audits."""
    return random_walk_series(200, dt=300.0, step_std=0.8, seed=23)


@pytest.fixture(scope="module")
def oracles(audit_series):
    return Oracles(audit_series)


@pytest.fixture(scope="module", params=BACKENDS)
def audit_index(request, audit_series):
    index = SegDiffIndex.build(audit_series, EPSILON, WINDOW,
                               backend=request.param)
    yield index
    index.close()


def _query(kind, t_hours, v):
    if kind == "drop":
        return DropQuery(t_hours * HOUR, -abs(v))
    return JumpQuery(t_hours * HOUR, abs(v))


# the whole domain: T up to past the 8 h window, answers up to ~19k pairs
query_strategy = st.builds(
    _query,
    st.sampled_from(["drop", "jump"]),
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
)

audited_query_strategy = st.builds(
    _query,
    st.sampled_from(["drop", "jump"]),
    st.floats(min_value=0.1, max_value=AUDIT_MAX_T / HOUR, allow_nan=False),
    st.floats(min_value=AUDIT_MIN_V, max_value=5.0, allow_nan=False),
)


def _canonical(rows):
    """Rows in lexicographic order (index probes need not share an
    order across backends; scans and row reads must)."""
    rows = np.asarray(rows)
    order = np.lexsort(rows.T[::-1])
    return rows[order]


# ---------------------------------------------------------------------- #
# query answers: oracles + memory build, on every backend
# ---------------------------------------------------------------------- #


class TestAnswersAgainstOracles:
    @settings(deadline=None, max_examples=20)
    @given(grid=st.lists(query_strategy, min_size=1, max_size=4),
           mode=st.sampled_from(["scan", "index"]))
    def test_loop_and_batch_match_memory_build(self, backend_index,
                                               reference, grid, mode):
        expect = [QuerySession(reference.store).search(q, mode="scan")
                  for q in grid]
        session = QuerySession(backend_index.store)
        assert [session.search(q, mode=mode) for q in grid] == expect
        assert session.search_batch(grid, mode=mode) == expect

    @settings(deadline=None, max_examples=20)
    @given(grid=st.lists(audited_query_strategy, min_size=1, max_size=4),
           mode=st.sampled_from(["scan", "index"]))
    def test_loop_and_batch_pass_oracles(self, audit_index, oracles, grid,
                                         mode):
        session = QuerySession(audit_index.store)
        loop = [session.search(q, mode=mode) for q in grid]
        for q, pairs in zip(grid, loop):
            oracles.check(pairs, q)
        assert session.search_batch(grid, mode=mode) == loop

    @settings(deadline=None, max_examples=8)
    @given(q=query_strategy, mode=st.sampled_from(["scan", "index"]))
    def test_explain_row_counts_match_memory_build(self, backend_index,
                                                   reference, q, mode):
        a = QuerySession(reference.store).explain(q, mode=mode)
        b = QuerySession(backend_index.store).explain(q, mode=mode)
        assert b.n_pairs == a.n_pairs
        assert len(b.operators) == len(a.operators)
        for op_a, op_b in zip(a.operators, b.operators):
            assert op_b.operator == op_a.operator
            assert op_b.access == op_a.access
            assert op_b.actual_rows == op_a.actual_rows
            assert op_b.rows_fetched == op_a.rows_fetched

    @pytest.mark.parametrize("verified_only", [False, True])
    def test_refined_answers(self, backend_index, reference, walk_series,
                             walk_oracles, verified_only):
        expect = QuerySession(reference.store).search(
            DROP, mode="scan", data=walk_series,
            verified_only=verified_only,
        )
        candidates = QuerySession(reference.store).search(DROP, mode="scan")
        session = QuerySession(backend_index.store)
        for mode in ("scan", "index"):
            hits = session.search(DROP, mode=mode, data=walk_series,
                                  verified_only=verified_only)
            assert hits == expect
            pairs = sorted((h.pair for h in hits), key=lambda p: p.as_tuple())
            if not verified_only:
                assert pairs == candidates
            # a raw event lies in some pair whose witness is at least as
            # extreme, so verified pairs still cover every event
            walk_oracles.check(pairs, DROP)


# ---------------------------------------------------------------------- #
# row level: each backend's primitives return the memory store's rows
# ---------------------------------------------------------------------- #


class TestPrimitiveRows:
    @pytest.mark.parametrize("cache", ["warm", "cold"])
    def test_primitives_return_memory_rows(self, backend_index, reference,
                                           cache):
        store, mem = backend_index.store, reference.store
        for kind in ("drop", "jump"):
            for scan in ("scan_points_array", "scan_lines_array"):
                got = getattr(store, scan)(kind, cache=cache)
                assert got.dtype == np.float64
                # a full scan returns storage order, bit for bit
                assert np.array_equal(got, getattr(mem, scan)(kind)), scan
            for probe in ("probe_point_index_array",
                          "probe_line_index_array"):
                for t in (0.5 * HOUR, 3 * HOUR, WINDOW, 10 * HOUR):
                    got = getattr(store, probe)(kind, t, cache=cache)
                    want = getattr(mem, probe)(kind, t)
                    assert got.shape == want.shape, (probe, t)
                    assert np.array_equal(_canonical(got),
                                          _canonical(want)), (probe, t)

    def test_read_table_rows_match_memory(self, backend_index, reference):
        store, mem = backend_index.store, reference.store
        for table in TABLES:
            rows = store.read_table_rows(table)
            assert np.array_equal(rows, mem.read_table_rows(table)), table
            assert np.array_equal(store.read_table_rows(table, 3, 11),
                                  rows[3:11])
            assert store.read_table_rows(table, 5, 5).shape[0] == 0
            # a fresh writable copy: mutating it leaves the store intact
            rows[:] = 0.0
            assert np.array_equal(store.read_table_rows(table),
                                  mem.read_table_rows(table)), table


# ---------------------------------------------------------------------- #
# live snapshots under random seal schedules
# ---------------------------------------------------------------------- #


LIVE_QUERIES = [DROP, JumpQuery(2 * HOUR, 0.5), DropQuery(4 * HOUR, -0.5)]


def _assert_snapshot_matches(snap, ref, oracles=None):
    session = QuerySession(ref.store)
    for mode in ("scan", "index"):
        expect = [session.search(q, mode=mode) for q in LIVE_QUERIES]
        loop = [snap.execute(q, mode=mode).pairs for q in LIVE_QUERIES]
        if oracles is not None:
            for q, pairs in zip(LIVE_QUERIES, loop):
                if oracles.auditable(q):
                    oracles.check(pairs, q)
        assert loop == expect
        batch = snap.search_batch_results(LIVE_QUERIES, mode=mode)
        assert [r.pairs for r in batch] == expect


class TestLiveSnapshots:
    @settings(deadline=None, max_examples=10)
    @given(data=st.data())
    def test_snapshots_match_memory_build(self, data):
        seed = data.draw(st.integers(0, 2**16))
        n = data.draw(st.integers(min_value=120, max_value=260))
        series = random_walk_series(n, dt=300.0, step_std=0.8, seed=seed)
        live = LiveIndex(EPSILON, WINDOW, seal_rows=2**62)
        stream = SegDiffIndex(EPSILON, WINDOW)
        final = SegDiffIndex(EPSILON, WINDOW)
        try:
            lo = 0
            while lo < n:
                chunk = data.draw(st.integers(min_value=20, max_value=80))
                hi = min(n, lo + chunk)
                live.append_array(series.times[lo:hi], series.values[lo:hi])
                lo = hi
                if lo < n and data.draw(st.booleans()):
                    live.seal()
            # mid-stream: the segmenter's open tail is not yet indexed,
            # so the reference is a checkpointed (unfinished) build
            stream.ingest_array(series.times, series.values)
            stream.checkpoint()
            with live.snapshot() as snap:
                _assert_snapshot_matches(snap, stream)
            live.finalize()
            final.ingest_array(series.times, series.values)
            final.finalize()
            with live.snapshot() as snap:
                _assert_snapshot_matches(snap, final, Oracles(series))
        finally:
            live.close()
            stream.close()
            final.close()


# ---------------------------------------------------------------------- #
# resilience on the array path
# ---------------------------------------------------------------------- #


class TestResilienceOnArrays:
    def test_hang_mid_array_scan_respects_deadline(self, walk_series):
        index = SegDiffIndex.build(
            walk_series, EPSILON, WINDOW, backend="memory"
        )
        try:
            wrapper = FaultyStoreWrapper(
                index.store,
                ReadFaultPolicy(hang_at={1}, hang_slice_s=0.01),
            )
            sess = QuerySession(wrapper)
            t0 = time.monotonic()
            with pytest.raises(QueryTimeout):
                sess.search(DROP, mode="index", timeout_ms=150.0)
            # budget 0.15s + one 0.01s hang slice + CI headroom
            assert time.monotonic() - t0 < 2.0
            assert wrapper.faults_injected == 1
        finally:
            index.close()

    def test_degraded_candidates_are_a_superset(self, walk_series):
        index = SegDiffIndex.build(
            walk_series, EPSILON, WINDOW, backend="memory"
        )
        try:
            full = QuerySession(index.store).search(
                DROP, mode="index", data=walk_series
            )
            policy = ResiliencePolicy(
                timeout_ms=60_000.0, degrade="candidates",
                degrade_margin_ms=120_000.0,
            )
            sess = QuerySession(index.store, resilience=policy)
            outcome = sess.search_outcome(
                DROP, mode="index", data=walk_series
            )
            assert outcome.status is ResultStatus.DEGRADED
            # zero false negatives (Theorem 1): candidates ⊇ refined
            assert {hit.pair for hit in full} <= set(outcome.pairs)
        finally:
            index.close()


# ---------------------------------------------------------------------- #
# MiniDB columnar view: write invalidation
# ---------------------------------------------------------------------- #


def _feature_sets(epsilon=0.3):
    chains = [
        (DataSegment(0, 0, 10, 8), DataSegment(10, 8, 20, -5)),
        (DataSegment(10, 8, 20, -5), DataSegment(20, -5, 35, -2)),
        (DataSegment(20, -5, 35, -2), DataSegment(35, -2, 50, 9)),
        (DataSegment(0, 0, 10, 8), DataSegment(20, -5, 35, -2)),
    ]
    return [
        collect_features(Parallelogram.from_segments(cd, ab), epsilon)
        for cd, ab in chains
    ]


def _fresh_points(sets, kind="drop"):
    """The point rows a freshly built memory store holds for ``sets``."""
    with MemoryFeatureStore() as store:
        for fs in sets:
            store.add(fs)
        store.finalize()
        return store.scan_points_array(kind).copy()


class TestColumnarInvalidation:
    def test_append_after_scan_shows_fresh_rows(self):
        store = MiniDbFeatureStore()
        try:
            sets = _feature_sets()
            for fs in sets[:2]:
                store.add(fs)
            first = store.scan_points_array("drop")
            assert not first.flags.writeable
            assert np.array_equal(first, _fresh_points(sets[:2]))
            # cached serve returns the identical block
            assert np.array_equal(store.scan_points_array("drop"), first)
            for fs in sets[2:]:
                store.add(fs)
            second = store.scan_points_array("drop")
            assert second.shape[0] > first.shape[0]
            assert np.array_equal(second, _fresh_points(sets))
        finally:
            store.close()
