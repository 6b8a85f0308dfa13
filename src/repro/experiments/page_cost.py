"""Query cost in page reads (MiniDB instrumentation, beyond-paper).

The paper measures Figures 17-24 in seconds on one 2006 machine; seconds
don't transfer across hardware, but **pages touched** do.  This
experiment re-runs the query study on the from-scratch MiniDB engine
(`repro.storage.minidb`), whose pager counts every logical page read, and
reports the deterministic page-read cost of each (system, plan) pair with
a cold buffer pool:

* SegDiff touches an order of magnitude fewer pages than Exh at every
  query — the space saving *is* the time saving;
* on selective queries the B+tree touches a handful of pages while the
  scan reads everything;
* on hard queries the index pays one heap page per match and overtakes
  the scan — Figures 19-20 explained mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.index import SegDiffIndex
from ..core.queries import DropQuery
from ..datagen import TimeSeries
from ..engine import QuerySession
from ..storage.minidb import MiniDatabase, MiniDbFeatureStore
from . import datasets
from .report import render_table

__all__ = ["run", "main", "PageCostRow"]


class _ExhPages:
    """Exh materialized into MiniDB, with the same page instrumentation."""

    def __init__(self, series: TimeSeries, window: float, cache_pages: int) -> None:
        import tempfile
        import os

        fd, path = tempfile.mkstemp(prefix="exh-", suffix=".minidb")
        os.close(fd)
        os.unlink(path)
        self._path = path
        self.db = MiniDatabase(path, cache_pages=cache_pages)
        pairs = self.db.create_table("pairs", 3)
        recent: List[Tuple[float, float]] = []
        for t, v in zip(series.times, series.values):
            t, v = float(t), float(v)
            recent = [(tp, vp) for tp, vp in recent if t - tp <= window]
            for tp, vp in recent:
                pairs.insert((t - tp, v - vp, t))
            recent.append((t, v))
        pairs.create_index("by_key", (0, 1))
        self.db.checkpoint()

    def search_pages(self, query: DropQuery, mode: str) -> Tuple[int, int]:
        """(page reads, result count) for a cold-pool query."""
        self.db.drop_cache()
        before = self.db.stats().snapshot()
        table = self.db.table("pairs")
        n = 0
        if mode == "scan":
            for _rid, (dt, dv, _t2) in table.scan():
                if dt <= query.t_threshold and dv <= query.v_threshold:
                    n += 1
        else:
            for key, rid in table.index_scan_leading("by_key", query.t_threshold):
                if key[1] <= query.v_threshold:
                    table.get(rid)  # fetch the timestamp column
                    n += 1
        delta = self.db.stats().delta(before)
        return delta.page_reads, n

    def close(self) -> None:
        import os

        self.db.close()
        if os.path.exists(self._path):
            os.unlink(self._path)


@dataclass(frozen=True)
class PageCostRow:
    """Cold-pool page reads for one query."""

    label: str
    t_threshold: float
    v_threshold: float
    segdiff_scan: int
    segdiff_index: int
    exh_scan: int
    exh_index: int
    segdiff_hits: int
    exh_hits: int


#: The query panel: selective, canonical, and hard corners of Figure 16.
QUERY_PANEL = (
    ("selective", 0.5 * 3600.0, -8.0),
    ("canonical", 1.0 * 3600.0, -3.0),
    ("hard", 8.0 * 3600.0, -0.5),
)


def run(
    days: int = 7,
    window: float = datasets.DEFAULT_WINDOW,
    cache_pages: int = 64,
) -> List[PageCostRow]:
    series = datasets.standard_series(days=days)

    store = MiniDbFeatureStore(cache_pages=cache_pages)
    segdiff = SegDiffIndex(datasets.DEFAULT_EPSILON, window, store)
    segdiff.ingest(series)
    segdiff.finalize()
    exh = _ExhPages(series, window, cache_pages=cache_pages)
    session = QuerySession(store)

    rows: List[PageCostRow] = []
    try:
        for label, t_thr, v_thr in QUERY_PANEL:
            query = DropQuery(t_thr, v_thr)
            costs: Dict[str, int] = {}
            hits = 0
            for mode in ("scan", "index"):
                before = store.pager_stats().snapshot()
                result = session.search(query, mode=mode, cache="cold")
                costs[f"segdiff_{mode}"] = (
                    store.pager_stats().delta(before).page_reads
                )
                hits = len(result)
            exh_scan, n_exh = exh.search_pages(query, "scan")
            exh_index, _ = exh.search_pages(query, "index")
            rows.append(
                PageCostRow(
                    label=label,
                    t_threshold=t_thr,
                    v_threshold=v_thr,
                    segdiff_scan=costs["segdiff_scan"],
                    segdiff_index=costs["segdiff_index"],
                    exh_scan=exh_scan,
                    exh_index=exh_index,
                    segdiff_hits=hits,
                    exh_hits=n_exh,
                )
            )
    finally:
        segdiff.close()
        exh.close()
    return rows


def main(days: int = 7) -> str:
    rows = run(days=days)
    table = render_table(
        ["query", "T (h)", "V", "SD scan", "SD index", "Exh scan",
         "Exh index", "SD hits", "Exh hits"],
        [
            [
                r.label,
                f"{r.t_threshold / 3600.0:.1f}",
                f"{r.v_threshold:.1f}",
                r.segdiff_scan,
                r.segdiff_index,
                r.exh_scan,
                r.exh_index,
                r.segdiff_hits,
                r.exh_hits,
            ]
            for r in rows
        ],
        title=(
            "Query cost in page reads (MiniDB, cold buffer pool) — the "
            "hardware-independent Figures 17-24"
        ),
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
