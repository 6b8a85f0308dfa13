"""Per-layer metrics of a traced pass, from its spans and the program's
own counters (ResourceAccounting totals, index/live stats, the metrics
registry).  Times are normalised per unit of work so that runs of
different lengths compare: write-side layers per 1,000 observations
ingested, read-side layers per query, seal phases per seal."""

from __future__ import annotations

import statistics
from typing import Dict, Tuple

from layers import SEAL_PHASES
from tracing import attribution_check, inclusive_ms, layer_ms, self_times, subtree_counts

PER_LAYER_UNITS: Dict[str, str] = {
    "segmentation.busy_ms": "ms/kobs",
    "segmentation.points_per_segment": "obs/segment",
    "extraction.busy_ms": "ms/kobs",
    "extraction.rows_per_segment": "rows/segment",
    "hot_store.write_ms": "ms/kobs",
    "hot_store.rows": "rows/kobs",
    "store.finalize_ms": "ms/kobs",
    "wal.append_ms": "ms/kobs",
    "wal.bytes": "B/kobs",
    "wal.syncs": "1/kobs",
    "seal.count": "count",
    "seal.total_ms": "ms/seal",
    "seal.copy_ms": "ms/seal",
    "seal.checksum_compute_ms": "ms/seal",
    "seal.checksum_persist_ms": "ms/seal",
    "seal.meta_writes": "calls/seal",
    "seal.fsync_ms": "ms/seal",
    "seal.manifest_ms": "ms/seal",
    "seal.wal_rewrite_ms": "ms/seal",
    "seal.other_ms": "ms/seal",
    "storage.bytes_per_point": "B/obs",
    "live.snapshot_wait_ms": "ms/query",
    "live.writer_hold_ms": "ms/kobs",
    "plan.busy_ms": "ms/query",
    "fetch.busy_ms": "ms/query",
    "fetch.rows_scanned": "rows/query",
    "fetch.rows_fetched": "rows/query",
    "fetch.pages_read": "pages/query",
    "fetch.bytes_decoded": "B/query",
    "executor.self_ms": "ms/query",
    "executor.match_ratio": "ratio",
    "executor.dedup_ratio": "ratio",
    "session.self_ms": "ms/query",
    "live.merge_ms": "ms/query",
    "live.partitions_scanned": "1/query",
    "live.partitions_pruned": "1/query",
    "pairs_per_query.small": "pairs/query",
    "pairs_per_query.large": "pairs/query",
    "trace.attributed_share": "ratio",
    "trace.root_self_share": "ratio",
    "trace.overhead": "ratio",
}

#: Root spans whose self time no named layer claims: the orchestration
#: inside the public calls the workloads make.
ROOTS = ("index.build", "index.search", "live.create", "live.append",
         "live.open")


def _per(total: float, n: float) -> float:
    return total / n if n else 0.0


def per_layer_metrics(spans, m, wal_syncs: float,
                      overhead: float) -> Tuple[dict, dict]:
    """``(metrics, checks)`` of one traced pass ``m``; ``overhead`` is its
    operation time over that of the untraced pass."""
    self_ns = self_times(spans)
    busy = layer_ms(spans, self_ns)
    kobs = m.observations / 1e3
    n_queries = sum(len(v) for v in m.pairs.values())
    seal_total, n_seals = inclusive_ms(spans, "seal")
    writer_hold, _ = inclusive_ms(spans, "live.append")
    acct = m.accounting
    fetched = acct.get("rows_fetched", 0)
    matched = acct.get("rows_matched", 0)
    pairs = sum(sum(v) for v in m.pairs.values())
    wal_bytes = sum(s.counts.get("wal_bytes", 0) for s in spans)
    pages = sum(s.counts.get("pages_read", 0) for s in spans)
    meta_writes = subtree_counts(spans, "seal", "set_meta")

    metrics = {
        "segmentation.busy_ms": _per(busy.get("segmentation", 0.0), kobs),
        "segmentation.points_per_segment": _per(m.observations, m.segments),
        "extraction.busy_ms": _per(busy.get("extraction", 0.0), kobs),
        "extraction.rows_per_segment": _per(m.feature_rows, m.segments),
        "hot_store.write_ms": _per(busy.get("hot_store.write", 0.0), kobs),
        "hot_store.rows": _per(m.feature_rows, kobs),
        "store.finalize_ms": _per(busy.get("store.finalize", 0.0), kobs),
        "wal.append_ms": _per(busy.get("wal.append", 0.0), kobs),
        "wal.bytes": _per(wal_bytes, kobs),
        "wal.syncs": _per(wal_syncs, kobs),
        "seal.count": n_seals,
        "seal.total_ms": _per(seal_total, n_seals),
        "seal.meta_writes": (
            statistics.median(meta_writes) if meta_writes else 0
        ),
        "seal.other_ms": _per(busy.get("seal", 0.0), n_seals),
        "storage.bytes_per_point": _per(m.storage_bytes, m.storage_obs),
        "live.snapshot_wait_ms": _per(busy.get("live.snapshot", 0.0),
                                      n_queries),
        "live.writer_hold_ms": _per(writer_hold, kobs),
        "plan.busy_ms": _per(busy.get("plan", 0.0), n_queries),
        "fetch.busy_ms": _per(busy.get("fetch", 0.0), n_queries),
        "fetch.rows_scanned": _per(acct.get("rows_scanned", 0), n_queries),
        "fetch.rows_fetched": _per(fetched, n_queries),
        "fetch.pages_read": _per(pages + acct.get("pages_read", 0),
                                 n_queries),
        "fetch.bytes_decoded": _per(acct.get("bytes_decoded", 0),
                                    n_queries),
        "executor.self_ms": _per(busy.get("executor", 0.0), n_queries),
        "executor.match_ratio": _per(matched, fetched),
        "executor.dedup_ratio": _per(pairs, matched),
        "session.self_ms": _per(busy.get("session", 0.0), n_queries),
        "live.merge_ms": _per(busy.get("live.search", 0.0), n_queries),
        "live.partitions_scanned": _per(acct.get("partitions_scanned", 0),
                                        n_queries),
        "live.partitions_pruned": _per(acct.get("partitions_pruned", 0),
                                       n_queries),
    }
    for phase in SEAL_PHASES:
        metrics[f"{phase}_ms"] = _per(busy.get(phase, 0.0), n_seals)
    for cls in ("small", "large"):
        sizes = m.pairs.get(cls, [])
        metrics[f"pairs_per_query.{cls}"] = _per(sum(sizes), len(sizes))

    wall_s = sum(m.setup_s) + sum(m.service_s)
    attributed, negative = attribution_check(spans, self_ns, wall_s)
    root_self = sum(busy.get(name, 0.0) for name in ROOTS) / 1e3
    metrics["trace.attributed_share"] = attributed
    metrics["trace.root_self_share"] = root_self / wall_s if wall_s else 0.0
    metrics["trace.overhead"] = overhead
    checks = {
        "attributed_share": attributed,
        "negative_self_share": negative,
        "traced_wall_s": wall_s,
        "layer_ms": {k: round(v, 3) for k, v in sorted(busy.items())},
    }
    return metrics, checks
