"""The benchmark's three workloads: set-up, measured phase, correctness gate.

Every workload takes its input from the paper's data path (a smoothed
CAD sensor series generated from the seed) and drives the program only
through public entry points.  Each pass returns a :class:`Measured`: the
latency samples and counters of the measured phase, the set-up times,
and the operations attempted and failed.  A failed operation is one
that raised or whose answer disagreed with a batch build.

Reference builds run only after the measured phase and after the peak
resident set size is read, so the memory figure is the program's.
"""

from __future__ import annotations

import math
import os
import random
import resource
import shutil
import sys
import threading
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.guarantees import audit_completeness, audit_soundness
from repro.core.index import SegDiffIndex
from repro.core.live import LiveIndex
from repro.core.queries import DropQuery, JumpQuery
from repro.datagen import CADConfig, CADTransectGenerator, robust_loess
from repro.datagen.model import PiecewiseLinearSignal
from repro.datagen.series import TimeSeries
from repro.obs import context as obs_context
from repro.segmentation.sliding_window import SlidingWindowSegmenter

from speed import SpeedProbe
from tracing import Tracer

HOUR = 3600.0
#: Observations per day at the CAD data's 5-minute cadence.
DAY = 288
EPSILON = 0.2
WINDOW = 8 * HOUR
#: Mid-transect sensor: the deepest cold-air pool, the most drops.
SENSOR = 12

Query = Tuple[str, float, float]  # (kind, T seconds, |V| degrees)

@dataclass(frozen=True)
class Sizes:
    """Input sizes and rates; :data:`FULL` is the benchmark,
    :data:`SMOKE` the tiny run of the benchmark's own test."""

    #: hist_search indexes the prefix of the series that segments into
    #: exactly this many segments, so every seed builds the same work
    hist_segments: int = 1200
    hist_days: int = 40
    hist_builds: int = 5
    #: answer sizes the selective class is calibrated to, per (kind, T)
    small_pairs: Tuple[int, ...] = (150, 400, 1000)
    #: answer sizes the broad class (T = w, |V| <= 1) is calibrated to;
    #: an odd count keeps a class's p50 inside one target's cluster
    large_pairs: Tuple[int, ...] = (7000, 8000, 9000)
    #: each class gets at least this many samples (a p95 needs 200);
    #: a slow host may stretch the measured phase to reach it
    min_samples: int = 200
    ingest_days: int = 120
    #: the CLI ``ingest`` default
    ingest_seal_rows: int = 50_000
    #: two seals' worth of rows, well clear of a third
    sui_preload_days: int = 10
    sui_setups: int = 3
    sui_seal_rows: int = 10_000
    #: the reader asks about the most recent this many days of data
    sui_recent_days: int = 10
    #: observations per open-loop append (three hours of data)
    sui_chunk: int = 36
    sui_append_period_s: float = 0.04
    #: a multiple of the append period, offset by half of one, so a
    #: query and an append are never due at the same moment; outside
    #: seals each finishes before the other is due
    sui_query_period_s: float = 0.08
    sui_query_offset_s: float = 0.02
    #: answer sizes the reader's queries are calibrated to at the end of
    #: the preload
    sui_pairs: Tuple[int, ...] = (50, 150)
    audit_days: int = 3


FULL = Sizes()
SMOKE = Sizes(
    hist_segments=150, hist_days=6, hist_builds=2, small_pairs=(20, 60),
    large_pairs=(500, 600, 700), min_samples=0,
    ingest_days=8, ingest_seal_rows=6_000, sui_preload_days=3,
    sui_setups=2, sui_seal_rows=4_000, sui_recent_days=2, sui_pairs=(10, 30),
    audit_days=1,
)


@dataclass
class Measured:
    """What one pass of a workload measured."""

    setup_s: List[float] = field(default_factory=list)
    light_s: List[float] = field(default_factory=list)
    heavy_s: List[float] = field(default_factory=list)
    #: per-operation service time (start to completion), every class
    service_s: List[float] = field(default_factory=list)
    #: host-speed samples taken between set-up / measured operations
    setup_speed: SpeedProbe = field(default_factory=SpeedProbe)
    speed: SpeedProbe = field(default_factory=SpeedProbe)
    work: int = 0  # queries or observations completed
    work_s: float = 0.0  # time the work rate is taken over
    attempted: int = 0
    failed: int = 0
    n_ops: int = 0  # operations run: what a replay must repeat
    #: peak resident set size at the end of the measured phase
    peak_rss_mb: float = 0.0
    pairs: Dict[str, List[int]] = field(default_factory=dict)
    accounting: Dict[str, int] = field(default_factory=dict)
    observations: int = 0  # observations ingested, set-up included
    segments: int = 0  # data segments those observations closed into
    feature_rows: int = 0  # feature rows written, set-up included
    storage_bytes: int = 0  # index bytes at the end of the pass
    storage_obs: int = 0  # observations those bytes hold
    info: Dict[str, object] = field(default_factory=dict)

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        print(f"perfbench: FAILED {what}", file=sys.stderr)

    def mark_peak_rss(self) -> None:
        self.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )


# ---------------------------------------------------------------------- #
# inputs and shared helpers
# ---------------------------------------------------------------------- #


def cad_series(seed: int, days: int) -> Tuple[np.ndarray, np.ndarray]:
    """The smoothed CAD sensor series of the paper's experiments."""
    raw = CADTransectGenerator(CADConfig(days=days, seed=seed)).generate(SENSOR)
    smooth = robust_loess(raw, span=9, iterations=2)
    return (np.asarray(smooth.times, dtype=float),
            np.asarray(smooth.values, dtype=float))


def run_query(target, q: Query, t_range=None):
    kind, t, v = q
    kw = {} if t_range is None else {"t_range": t_range}
    if kind == "drop":
        return target.search_drops(t, -v, **kw)
    return target.search_jumps(t, v, **kw)


def calibrate(target, kinds: Sequence[str], hours: Sequence[float],
              wants: Sequence[int], t_range=None, lo: float = 0.5,
              hi: float = 15.0, steps: int = 7) -> Tuple[Query, ...]:
    """One query per (kind, T, wanted answer size): the largest |V| in
    ``[lo, hi]`` (bisected ``steps`` times) whose answer on ``target``
    still has at least that many pairs.  Answer sizes of fixed
    thresholds swing with the number of cold-air events a seed draws;
    calibrated thresholds give every seed the same work."""
    out = []
    for kind in kinds:
        for t in hours:
            for want in wants:
                a, b = lo, hi
                for _ in range(steps):
                    mid = (a + b) / 2
                    q = (kind, t * HOUR, mid)
                    if len(run_query(target, q, t_range)) >= want:
                        a = mid
                    else:
                        b = mid
                out.append((kind, t * HOUR, a))
    return tuple(out)


def checkpoint_reference(ts: np.ndarray, vs: np.ndarray) -> SegDiffIndex:
    """In-memory batch build over a prefix, without the open tail: what
    a live index that has acknowledged exactly these observations holds."""
    ref = SegDiffIndex(EPSILON, WINDOW)
    ref.ingest_array(ts, vs)
    ref.checkpoint()
    return ref


def _fingerprint(answer) -> Tuple[int, int]:
    return len(answer), hash(tuple(answer))


@contextmanager
def _accounting(acct: Optional[Dict[str, int]]):
    """With ``acct``, run the block under a fresh diagnostics context and
    add the ResourceAccounting totals the program recorded to ``acct``."""
    if acct is None:
        yield
        return
    ctx = obs_context.new_context(api="perfbench")
    with obs_context.use_context(ctx):
        yield
    for key, value in ctx.accounting.totals.items():
        acct[key] = acct.get(key, 0) + value


def _quiet(tracer: Optional[Tracer]):
    """Keep the benchmark's own checks out of the trace."""
    return tracer.paused() if tracer is not None else nullcontext()


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, f))
        for root, _, files in os.walk(path) for f in files
    )


def _sleep_until(t: float) -> None:
    delay = t - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


# ---------------------------------------------------------------------- #
# hist_search: historical ad-hoc search over a sqlite index
# ---------------------------------------------------------------------- #


class HistSearch:
    """One closed-loop client issuing a seeded mix of small and large
    drop/jump queries against a sqlite index built in set-up."""

    def __init__(self, seed: int, sizes: Sizes, workdir: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        ts, vs = cad_series(seed, sizes.hist_days)
        segments = SlidingWindowSegmenter(EPSILON).segment_array(ts, vs)
        end = segments[sizes.hist_segments - 1].t_end
        n = int(np.searchsorted(ts, end, side="right"))
        self.series = TimeSeries(ts[:n], vs[:n])
        self.small: Optional[Tuple[Query, ...]] = None
        self.large: Optional[Tuple[Query, ...]] = None
        self._builds = 0

    def _sequence(self):
        rng = random.Random(self.seed)
        while True:
            classes = ["small", "large"]
            rng.shuffle(classes)
            for cls in classes:
                yield cls, rng.choice(self.small if cls == "small" else self.large)

    def run(self, seconds: float, n_ops: Optional[int] = None,
            builds: Optional[int] = None, account: bool = False,
            tracer: Optional[Tracer] = None) -> Measured:
        """Set up, then query until ``seconds`` pass (or ``n_ops`` ran);
        ``account`` sums each query's ResourceAccounting."""
        m = Measured(pairs={"small": [], "large": []})
        acct = m.accounting if account else None
        index = None
        for _ in range(builds or self.sizes.hist_builds):
            if index is not None:
                index.close()
                os.remove(index.store.path)
            self._builds += 1
            path = os.path.join(self.workdir, f"hist-{self._builds}.sqlite")
            m.setup_speed.tick(force=True)
            t0 = time.perf_counter()
            index = SegDiffIndex.build(
                self.series, EPSILON, WINDOW, backend="sqlite", path=path
            )
            m.setup_s.append(time.perf_counter() - t0)
        m.setup_speed.tick(force=True)
        if self.small is None:
            self.small = calibrate(index, ("drop", "jump"), (0.5, 1.0, 2.0),
                                   self.sizes.small_pairs)
            self.large = calibrate(index, ("drop", "jump"), (8.0,),
                                   self.sizes.large_pairs, lo=0.05, hi=1.0,
                                   steps=6)
        stats = index.stats()
        m.observations = m.storage_obs = stats.n_observations
        m.segments = stats.n_segments
        m.feature_rows = stats.store_counts.total
        m.storage_bytes = os.path.getsize(index.store.path)
        m.info.update(
            points=stats.n_observations,
            segments=stats.n_segments,
            feature_rows=stats.store_counts.total,
            index_bytes=m.storage_bytes,
            sqlite_page_cache_bytes=_sqlite_cache_bytes(index),
        )
        answers: Dict[Query, Dict[Tuple[int, int], int]] = {}
        queries = self._sequence()
        floor = self.sizes.min_samples

        def more() -> bool:
            if n_ops is not None:
                return m.n_ops < n_ops
            elapsed = time.perf_counter() - start
            short = min(len(m.light_s), len(m.heavy_s)) < floor
            return elapsed < seconds or (short and elapsed < 2 * seconds)

        start = time.perf_counter()
        while more():
            cls, q = next(queries)
            m.attempted += 1
            m.n_ops += 1
            try:
                with _accounting(acct):
                    t0 = time.perf_counter()
                    answer = run_query(index, q)
                    dt = time.perf_counter() - t0
            except Exception:
                traceback.print_exc()
                m.fail(f"query {q}")
                continue
            (m.light_s if cls == "small" else m.heavy_s).append(dt)
            m.service_s.append(dt)
            m.pairs[cls].append(len(answer))
            seen = answers.setdefault(q, {})
            fp = _fingerprint(answer)
            seen[fp] = seen.get(fp, 0) + 1
            # free the answer here, not inside the next query's timer
            del answer
            m.speed.tick()
        m.mark_peak_rss()
        m.work = len(m.service_s)
        m.work_s = sum(m.service_s)
        index.close()
        os.remove(index.store.path)
        with _quiet(tracer):
            self._verify(m, answers)
        return m

    def _verify(self, m: Measured,
                answers: Dict[Query, Dict[Tuple[int, int], int]]) -> None:
        """Every answer equals that of an in-memory build of the same
        input; a seeded sample passes the Theorem 1 audits."""
        ref = SegDiffIndex.build(self.series, EPSILON, WINDOW)
        for q, seen in answers.items():
            expected = _fingerprint(run_query(ref, q))
            for fp, n in seen.items():
                if fp != expected:
                    m.fail(f"{n} answers of {q} differ from the in-memory "
                           "build", n)
        rng = random.Random(self.seed + 1)
        ts, vs = self.series.times, self.series.values
        n = self.sizes.audit_days * DAY
        a = rng.randrange(0, max(1, len(ts) - n))
        window = PiecewiseLinearSignal(ts[a:a + n], vs[a:a + n])
        signal = PiecewiseLinearSignal.from_series(self.series)
        for q in rng.sample(self.small, 2):
            kind, t, v = q
            query = DropQuery(t, -v) if kind == "drop" else JumpQuery(t, v)
            pairs = run_query(ref, q)
            m.attempted += 1
            if audit_completeness(pairs, window, query):
                m.fail(f"Theorem 1 completeness of {q}")
            m.attempted += 1
            sample = rng.sample(pairs, min(100, len(pairs)))
            if audit_soundness(sample, signal, query, EPSILON):
                m.fail(f"Theorem 1 soundness of {q}")
        ref.close()


def _sqlite_cache_bytes(index: SegDiffIndex) -> int:
    """The page cache a default sqlite connection gets (PRAGMA cache_size)."""
    import sqlite3

    conn = sqlite3.connect(index.store.path)
    try:
        size = conn.execute("PRAGMA cache_size").fetchone()[0]
        page = conn.execute("PRAGMA page_size").fetchone()[0]
    finally:
        conn.close()
    return -size * 1024 if size < 0 else size * page


# ---------------------------------------------------------------------- #
# live_ingest: durable live ingest with the CLI defaults
# ---------------------------------------------------------------------- #

#: Answers compared between a reopened directory and the batch build.
VERIFY: Tuple[Query, ...] = (
    ("drop", 1.0 * HOUR, 3.0),
    ("jump", 1.0 * HOUR, 3.0),
    ("drop", 2.0 * HOUR, 2.0),
)


class LiveIngest:
    """One closed-loop writer feeding one-day chunks into a durable
    sqlite partition directory (WAL on, ``seal_rows`` seals).

    A cycle creates a directory, ingests a warm-up prefix up to the
    first seal (set-up), then feeds the rest of the series (measured);
    cycles repeat on fresh directories until the time is spent.
    """

    def __init__(self, seed: int, sizes: Sizes, workdir: str) -> None:
        self.sizes = sizes
        self.workdir = workdir
        self.ts, self.vs = cad_series(seed, sizes.ingest_days)
        self._cycle = 0

    def run(self, seconds: float, n_ops: Optional[int] = None,
            tracer: Optional[Tracer] = None) -> Measured:
        m = Measured()
        n = self.ts.shape[0]
        measured = 0.0
        cycles: List[Tuple[str, int]] = []

        def more() -> bool:
            return measured < seconds if n_ops is None else m.n_ops < n_ops

        while more():
            self._cycle += 1
            path = os.path.join(self.workdir, f"ingest-{self._cycle}")
            m.setup_speed.tick(force=True)
            t0 = time.perf_counter()
            live = LiveIndex(EPSILON, WINDOW, directory=path,
                             seal_rows=self.sizes.ingest_seal_rows)
            first_gen = live.generation
            i = 0
            while live.generation == first_gen and i < n:
                live.append_array(self.ts[i:i + DAY], self.vs[i:i + DAY])
                i += DAY
            m.setup_s.append(time.perf_counter() - t0)
            m.speed.tick(force=True)
            while i < n and more():
                gen = live.generation
                m.attempted += 1
                m.n_ops += 1
                t0 = time.perf_counter()
                try:
                    live.append_array(self.ts[i:i + DAY], self.vs[i:i + DAY])
                except Exception:
                    traceback.print_exc()
                    m.fail(f"append at observation {i}")
                    break
                dt = time.perf_counter() - t0
                measured += dt
                m.service_s.append(dt)
                (m.heavy_s if live.generation != gen else m.light_s).append(dt)
                m.work += min(DAY, n - i)
                i += DAY
                m.speed.tick()
            stats = live.stats()
            m.feature_rows += stats["sealed_rows"] + stats["hot"]["rows"]
            m.segments += stats["sealed_segments"] + stats["hot"]["n_segments"]
            m.observations += live.n_observations
            live.close()
            cycles.append((path, min(i, n)))
        m.mark_peak_rss()
        m.work_s = measured
        m.info.update(points=n, cycles=len(cycles))
        with _quiet(tracer):
            self._verify(m, cycles)
        return m

    def _verify(self, m: Measured, cycles: Sequence[Tuple[str, int]]) -> None:
        """Reopen each directory; its answers must equal a batch build
        over the acknowledged prefix (durability plus batch == live)."""
        expected: Dict[int, Dict[Query, list]] = {}
        for path, acked in cycles:
            m.storage_bytes += _dir_bytes(path)
            m.storage_obs += acked
            if acked not in expected:
                ref = checkpoint_reference(self.ts[:acked], self.vs[:acked])
                expected[acked] = {q: run_query(ref, q) for q in VERIFY}
                ref.close()
            m.attempted += 1
            try:
                live = LiveIndex.open(path)
                try:
                    ok = live.n_observations == acked and all(
                        run_query(live, q) == expected[acked][q]
                        for q in VERIFY
                    )
                finally:
                    live.close()
            except Exception:
                traceback.print_exc()
                ok = False
            if not ok:
                m.fail(f"reopened {os.path.basename(path)} differs from the "
                       f"batch build of {acked} observations")
            shutil.rmtree(path)


# ---------------------------------------------------------------------- #
# search_under_ingest: open-loop reads beside open-loop writes on MiniDB
# ---------------------------------------------------------------------- #

#: In-flight answers kept and checked against a batch build afterwards.
SUI_CHECKED = 3


class SearchUnderIngest:
    """An open-loop writer (main thread) and an open-loop snapshot reader
    (one thread) on a durable MiniDB partition directory."""

    def __init__(self, seed: int, sizes: Sizes, workdir: str,
                 seconds: float) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        appends = int(math.ceil(seconds / sizes.sui_append_period_s)) + 1
        days = sizes.sui_preload_days + int(
            math.ceil(appends * sizes.sui_chunk / DAY)
        ) + 1
        self.ts, self.vs = cad_series(seed, days)
        self.queries: Optional[Tuple[Query, ...]] = None
        self._n = 0

    def _setup(self, m: Measured) -> Tuple[LiveIndex, str]:
        self._n += 1
        path = os.path.join(self.workdir, f"sui-{self._n}")
        m.setup_speed.tick(force=True)
        t0 = time.perf_counter()
        live = LiveIndex(
            EPSILON, WINDOW, directory=path, backend="minidb",
            seal_rows=self.sizes.sui_seal_rows,
        )
        for i in range(0, self.sizes.sui_preload_days * DAY, DAY):
            live.append_array(self.ts[i:i + DAY], self.vs[i:i + DAY])
        m.setup_s.append(time.perf_counter() - t0)
        return live, path

    def run(self, seconds: float, setups: Optional[int] = None,
            account: bool = False,
            tracer: Optional[Tracer] = None) -> Measured:
        sz = self.sizes
        m = Measured(pairs={"small": []})
        acct = m.accounting if account else None
        live = path = None
        for _ in range(setups or sz.sui_setups):
            if live is not None:
                live.close()
                shutil.rmtree(path)
            live, path = self._setup(m)
        m.setup_speed.tick(force=True)
        recent = sz.sui_recent_days * 86400.0
        if self.queries is None:
            with live.snapshot() as snap:
                window = (snap.watermark - recent, snap.watermark)
                self.queries = calibrate(snap, ("drop", "jump"),
                                         (0.5, 1.0, 2.0), sz.sui_pairs,
                                         t_range=window)
        preload = sz.sui_preload_days * DAY
        m.info.update(preload_points=preload,
                      preload_partitions=len(live.partitions))

        rng = random.Random(self.seed)
        n_queries = int(seconds / sz.sui_query_period_s)
        plan = [rng.choice(self.queries) for _ in range(n_queries)]
        checked = set(rng.sample(range(n_queries),
                                 min(SUI_CHECKED, n_queries)))
        kept: List[Tuple[Query, int, tuple, list]] = []
        reader_failures: List[str] = []
        start = time.perf_counter() + 0.05

        def reader() -> None:
            for j, q in enumerate(plan):
                due = start + sz.sui_query_offset_s + j * sz.sui_query_period_s
                _sleep_until(due)
                try:
                    with _accounting(acct):
                        t0 = time.perf_counter()
                        with live.snapshot() as snap:
                            window = (snap.watermark - recent, snap.watermark)
                            answer = run_query(snap, q, window)
                        done = time.perf_counter()
                except Exception:
                    traceback.print_exc()
                    reader_failures.append(f"query {q}")
                    continue
                m.light_s.append(done - due)
                m.service_s.append(done - t0)
                m.pairs["small"].append(len(answer))
                if j in checked:
                    kept.append((q, snap.n_observations, window, answer))
                del answer, snap

        thread = threading.Thread(target=reader, name="perfbench-reader")
        thread.start()
        i = preload
        k = 0
        while True:
            due = start + k * sz.sui_append_period_s
            if due - start >= seconds or i >= self.ts.shape[0]:
                break
            _sleep_until(due)
            t0 = time.perf_counter()
            m.attempted += 1
            try:
                live.append_array(self.ts[i:i + sz.sui_chunk],
                                  self.vs[i:i + sz.sui_chunk])
            except Exception:
                traceback.print_exc()
                m.fail(f"append at observation {i}")
                break
            done = time.perf_counter()
            m.heavy_s.append(done - due)
            m.service_s.append(done - t0)
            i += sz.sui_chunk
            k += 1
        writer_end = time.perf_counter()
        thread.join(timeout=max(60.0, 4 * seconds))
        if thread.is_alive():
            m.fail("reader thread did not finish")
        m.mark_peak_rss()
        m.attempted += len(plan)
        for what in reader_failures:
            m.fail(what)
        m.work = i - preload
        m.work_s = writer_end - start
        m.n_ops = len(plan) + k
        m.observations = live.n_observations
        stats = live.stats()
        m.feature_rows = stats["sealed_rows"] + stats["hot"]["rows"]
        m.segments = stats["sealed_segments"] + stats["hot"]["n_segments"]
        m.info.update(points=i, partitions=len(live.partitions),
                      queries=len(plan), appends=k)
        with _quiet(tracer):
            self._verify(m, live, i, recent, kept)
        live.close()
        m.storage_bytes = _dir_bytes(path)
        m.storage_obs = i
        shutil.rmtree(path)
        return m

    def _verify(self, m: Measured, live: LiveIndex, acked: int,
                recent: float,
                kept: Sequence[Tuple[Query, int, tuple, list]]) -> None:
        """Final answers (over the whole history and over the recent
        window) and the kept in-flight answers must equal batch builds
        over the observations each one saw."""
        ref = checkpoint_reference(self.ts[:acked], self.vs[:acked])
        with live.snapshot() as snap:
            window = (snap.watermark - recent, snap.watermark)
            for q in self.queries:
                for t_range in (None, window):
                    m.attempted += 1
                    if run_query(snap, q, t_range) != run_query(ref, q, t_range):
                        m.fail(f"final answer of {q} over {t_range} differs "
                               "from the batch build")
        ref.close()
        for q, n_obs, window, answer in kept:
            ref = checkpoint_reference(self.ts[:n_obs], self.vs[:n_obs])
            if answer != run_query(ref, q, window):
                m.fail(f"in-flight answer of {q} at {n_obs} observations "
                       "differs from the batch build")
            ref.close()
