"""Which functions of the program make up each traced layer.

Layer names follow the program's modules (see NOTES.md, "Per-layer
metrics").  Root spans are the public entry points the workloads call;
everything below them is attributed to the innermost wrapped layer.
"""

from __future__ import annotations

from typing import Callable, Dict

from tracing import Tracer

#: The seal phases: spans opened directly under ``seal``.
SEAL_PHASES = (
    "seal.copy",
    "seal.checksum_compute",
    "seal.checksum_persist",
    "seal.fsync",
    "seal.manifest",
    "seal.wal_rewrite",
)

_FETCH_PRIMITIVES = (
    "scan_points_array",
    "probe_point_index_array",
    "scan_lines_array",
    "probe_line_index_array",
)


def _pager_probe(args: tuple) -> Callable[[], Dict[str, int]]:
    """Page reads of one MiniDB fetch, from the pager's registry counters.

    MiniDB partitions serialise their reads, so the delta around one
    primitive belongs to that primitive alone.
    """
    store = args[0]
    before = store.pager_stats().snapshot()
    return lambda: {"pages_read": store.pager_stats().delta(before).page_reads}


def _wal_probe(args: tuple) -> Callable[[], Dict[str, int]]:
    """Bytes one WAL append added to the log."""
    wal = args[0]
    before = wal.size_bytes
    return lambda: {"wal_bytes": wal.size_bytes - before}


def install(tracer: Tracer) -> None:
    """Wrap every layer of the read and write paths."""
    from repro.core import live as live_mod
    from repro.core.extraction import FeatureExtractor
    from repro.core.index import SegDiffIndex
    from repro.core.live import LiveIndex, LiveSnapshot
    from repro.engine import executor as executor_mod
    from repro.engine import plan as plan_mod
    from repro.engine import session as session_mod
    from repro.engine.session import QuerySession
    from repro.segmentation.sliding_window import SlidingWindowSegmenter
    from repro.storage.faults import RealFS
    from repro.storage.livewal import LiveWAL
    from repro.storage.memory_store import MemoryFeatureStore
    from repro.storage.minidb.store import MiniDbFeatureStore
    from repro.storage.partitions import PartitionManifest
    from repro.storage.sqlite_store import SqliteFeatureStore

    stores = (MemoryFeatureStore, SqliteFeatureStore, MiniDbFeatureStore)
    w = tracer.wrap

    # roots: the public entry points the workloads call
    w(SegDiffIndex, "build", "index.build")
    for method in ("search_drops", "search_jumps", "search_outcome"):
        w(SegDiffIndex, method, "index.search")
    w(LiveIndex, "__init__", "live.create")
    w(LiveIndex, "append_array", "live.append")
    w(LiveIndex, "open", "live.open")
    # snapshot() is lock wait plus the hot-partition clone, as one span;
    # closing a snapshot releases its partition pins
    w(LiveIndex, "snapshot", "live.snapshot", absorb=True)
    w(LiveSnapshot, "close", "live.snapshot", absorb=True)
    # live.search self time = LiveSnapshot.search minus per-partition
    # execution: the cross-partition merge and materialisation
    for method in ("search_drops", "search_jumps"):
        w(LiveSnapshot, method, "live.search")

    # write path
    w(SlidingWindowSegmenter, "push_batch", "segmentation", absorb=True)
    w(FeatureExtractor, "add_segments_batch", "extraction")
    w(LiveWAL, "append", "wal.append", absorb=True, probe=_wal_probe)
    for cls in stores:
        for method in ("add_features_bulk", "add_segments_bulk"):
            w(cls, method, "hot_store.write", absorb=True)
        # the hot store's finalize inside a seal is part of seal.other
        w(cls, "finalize", "store.finalize", absorb=True,
          under={"seal": None})
        w(cls, "set_meta", "set_meta", count_only=True)
    # seals run inside append_array (seal_rows policy), so the private
    # method every seal path goes through is the span
    w(LiveIndex, "_seal_locked", "seal")
    w(live_mod, "copy_store_into", "seal.copy", absorb=True,
      within={"seal"})
    w(live_mod, "store_trees", "seal.checksum_compute", absorb=True,
      within={"seal"})
    w(live_mod, "persist_trees", "seal.checksum_persist", absorb=True,
      within={"seal"})
    w(RealFS, "fsync_file", "seal.fsync", absorb=True, within={"seal"})
    w(PartitionManifest, "save", "seal.manifest", absorb=True,
      within={"seal"})
    w(LiveWAL, "rewrite", "seal.wal_rewrite", absorb=True, within={"seal"})

    # read path
    w(QuerySession, "search", "session")
    w(QuerySession, "plan", "plan", absorb=True)
    w(plan_mod, "build_plan", "plan", absorb=True)
    w(session_mod, "execute", "executor")
    w(executor_mod, "execute", "executor")
    for cls in stores:
        for method in _FETCH_PRIMITIVES:
            w(cls, method, "fetch", absorb=True,
              probe=_pager_probe if cls is MiniDbFeatureStore else None)
