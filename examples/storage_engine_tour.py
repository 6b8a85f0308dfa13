#!/usr/bin/env python3
"""A tour of MiniDB, the from-scratch storage engine.

The paper's evaluation is really a story about storage engines: how many
pages a query touches, what B-trees buy and when they betray you, and
what a cache hides.  This example makes each act of that story visible
with MiniDB's counters.

Run with::

    python examples/storage_engine_tour.py
"""

from repro import DropQuery, SegDiffIndex
from repro.datagen import CADConfig, CADTransectGenerator, robust_loess
from repro.engine import QuerySession
from repro.storage.minidb import MiniDbFeatureStore

HOUR = 3600.0


def show(title: str, session: QuerySession, q, mode: str, cache: str) -> None:
    """Run one search and print the pager traffic it caused."""
    before = session.store.pager_stats().snapshot()
    hits = session.search(q, mode=mode, cache=cache)
    stats = session.store.pager_stats().delta(before)
    print(
        f"  {title:<34} {stats.page_reads:>7} page reads "
        f"({stats.misses:>6} cold, {stats.hits:>6} cached)   {len(hits)} hits"
    )


def main() -> None:
    cfg = CADConfig(days=7, seed=20051201, event_probability=0.7)
    raw = CADTransectGenerator(cfg).generate(12)
    series = robust_loess(raw, span=9, iterations=2)

    store = MiniDbFeatureStore(cache_pages=64)  # a deliberately small pool
    index = SegDiffIndex(epsilon=0.2, window=8 * HOUR, store=store)
    index.ingest(series)
    index.finalize()

    counts = store.counts()
    print(f"Engine file: {store.path}")
    print(
        f"Tables: {counts.total} feature rows in "
        f"{store.feature_bytes() // 4096} heap pages; B+trees use "
        f"{store.index_bytes() // 4096} pages"
    )
    drop_tree = store.db.table("drop_points").index("by_key")
    print(
        f"drop_points B+tree: height {drop_tree.height()}, "
        f"{drop_tree.n_pages()} pages, fanout {drop_tree.leaf_fanout}"
    )

    session = QuerySession(store)
    print("\nAct 1 — a selective query (the B-tree's home turf):")
    q = DropQuery(0.5 * HOUR, -8.0)
    show("sequential scan, cold", session, q, "scan", "cold")
    show("B+tree, cold", session, q, "index", "cold")

    print("\nAct 2 — the canonical CAD query:")
    q = DropQuery(1 * HOUR, -3.0)
    show("sequential scan, cold", session, q, "scan", "cold")
    show("B+tree, cold", session, q, "index", "cold")

    print("\nAct 3 — a hard query (index pays a heap fetch per match):")
    q = DropQuery(8 * HOUR, -0.5)
    show("sequential scan, cold", session, q, "scan", "cold")
    show("B+tree, cold", session, q, "index", "cold")

    print("\nAct 4 — what a warm cache hides (same hard query):")
    session.search(q, mode="scan", cache="warm")  # prime the pool
    show("sequential scan, warm", session, q, "scan", "warm")

    print("\nEpilogue — the planner reads the same tea leaves:")
    for kind_t, kind_v in ((0.5 * HOUR, -8.0), (8 * HOUR, -0.5)):
        plan = index.explain("drop", kind_t, kind_v)
        print(
            f"  T={kind_t / HOUR:.1f}h V={kind_v:+.1f}: "
            f"selectivity ~{plan['estimated_selectivity']:.3f} "
            f"-> mode={plan['chosen_mode']}"
        )

    index.close()


if __name__ == "__main__":
    main()
