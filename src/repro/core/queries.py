"""The standard database queries of Section 4.4.

A drop (jump) search is the union of

* a **point query** over stored corner features — is the corner inside the
  query region? — and
* a **line query** over stored boundary edges — do both ends lie outside
  the region while the edge crosses it?

Both are expressed here twice: as numpy predicates (the engine
executor's exact filter over every backend's candidates) and as SQL text
(used by the SQLite store).  The line-crossing test uses the geometrically correct
``Δv' + slope·(T − Δt')`` form (see DESIGN.md §5.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidParameterError
from .feature_space import QueryRegion

__all__ = [
    "DropQuery",
    "JumpQuery",
    "point_mask",
    "line_mask",
    "point_query_sql",
    "line_query_sql",
    "point_candidate_sql",
    "line_candidate_sql",
]


@dataclass(frozen=True)
class DropQuery:
    """A drop search: ``0 < Δt <= T`` and ``Δv <= V`` with ``V < 0``."""

    t_threshold: float
    v_threshold: float

    def __post_init__(self) -> None:
        if self.t_threshold <= 0:
            raise InvalidParameterError("T must be positive")
        if not (self.v_threshold < 0):
            raise InvalidParameterError("drop search requires V < 0")

    @property
    def region(self) -> QueryRegion:
        return QueryRegion.drop(self.t_threshold, self.v_threshold)

    kind = "drop"


@dataclass(frozen=True)
class JumpQuery:
    """A jump search: ``0 < Δt <= T`` and ``Δv >= V`` with ``V > 0``."""

    t_threshold: float
    v_threshold: float

    def __post_init__(self) -> None:
        if self.t_threshold <= 0:
            raise InvalidParameterError("T must be positive")
        if not (self.v_threshold > 0):
            raise InvalidParameterError("jump search requires V > 0")

    @property
    def region(self) -> QueryRegion:
        return QueryRegion.jump(self.t_threshold, self.v_threshold)

    kind = "jump"


# ---------------------------------------------------------------------- #
# vectorized predicates (memory store / oracle)
# ---------------------------------------------------------------------- #


def point_mask(
    kind: str, dt: np.ndarray, dv: np.ndarray, t_thr: float, v_thr: float
) -> np.ndarray:
    """Boolean mask of stored corner features inside the query region."""
    if kind == "drop":
        return (dt <= t_thr) & (dv <= v_thr)
    if kind == "jump":
        return (dt <= t_thr) & (dv >= v_thr)
    raise InvalidParameterError(f"unknown query kind {kind!r}")


def line_mask(
    kind: str,
    dt1: np.ndarray,
    dv1: np.ndarray,
    dt2: np.ndarray,
    dv2: np.ndarray,
    t_thr: float,
    v_thr: float,
) -> np.ndarray:
    """Boolean mask of boundary edges crossing the region, both ends out.

    Ends are stored with ``dt1 <= dt2``.  Under the crossing preconditions
    ``dt1 <= T < dt2`` the denominator is strictly positive, so the value
    of the edge's line at ``Δt = T`` is well-defined.
    """
    if kind == "drop":
        ends_out = (dt1 <= t_thr) & (dv1 > v_thr) & (dt2 > t_thr) & (dv2 < v_thr)
    elif kind == "jump":
        ends_out = (dt1 <= t_thr) & (dv1 < v_thr) & (dt2 > t_thr) & (dv2 > v_thr)
    else:
        raise InvalidParameterError(f"unknown query kind {kind!r}")
    # evaluate the edge at dt = T only where the preconditions hold
    value_at_t = np.full_like(dv1, np.nan, dtype=float)
    idx = np.nonzero(ends_out)[0]
    if idx.size:
        slope = (dv2[idx] - dv1[idx]) / (dt2[idx] - dt1[idx])
        value_at_t[idx] = dv1[idx] + slope * (t_thr - dt1[idx])
    with np.errstate(invalid="ignore"):
        if kind == "drop":
            crosses = value_at_t <= v_thr
        else:
            crosses = value_at_t >= v_thr
    return ends_out & crosses


# ---------------------------------------------------------------------- #
# SQL builders (sqlite store)
# ---------------------------------------------------------------------- #

_RESULT_COLS = "t_d, t_c, t_b, t_a"
_POINT_ROW_COLS = "dt, dv, " + _RESULT_COLS
_LINE_ROW_COLS = "dt1, dv1, dt2, dv2, " + _RESULT_COLS


def point_query_sql(kind: str, table: str, index_hint: str = "") -> str:
    """SQL for the point query against ``table``.

    ``index_hint`` is inserted verbatim after the table name — pass
    ``"NOT INDEXED"`` for a forced sequential scan or
    ``"INDEXED BY <name>"`` to force the B-tree.
    """
    op = "<=" if kind == "drop" else ">="
    return (
        f"SELECT {_RESULT_COLS} FROM {table} {index_hint} "
        f"WHERE dt <= :T AND dv {op} :V"
    )


def line_query_sql(kind: str, table: str, index_hint: str = "") -> str:
    """SQL for the line query against ``table`` (both-ends-out crossing)."""
    if kind == "drop":
        end1, end2, cross = ">", "<", "<="
    elif kind == "jump":
        end1, end2, cross = "<", ">", ">="
    else:
        raise InvalidParameterError(f"unknown query kind {kind!r}")
    return (
        f"SELECT {_RESULT_COLS} FROM {table} {index_hint} "
        f"WHERE dt1 <= :T AND dv1 {end1} :V AND dt2 > :T AND dv2 {end2} :V "
        f"AND dv1 + (dv2 - dv1) / (dt2 - dt1) * (:T - dt1) {cross} :V"
    )


# ---------------------------------------------------------------------- #
# candidate SQL (engine physical primitives) — full rows, optional
# predicate pushdown
# ---------------------------------------------------------------------- #


def point_candidate_sql(
    kind: str,
    table: str,
    index_hint: str = "",
    with_t: bool = False,
    with_v: bool = False,
) -> str:
    """Full-row point candidates for the engine's physical interface.

    With neither flag this is a bare sequential pass; ``with_t`` adds the
    index-prunable ``dt <= :T`` bound, ``with_v`` pushes the value half
    of the predicate down too (an optimization only — the executor
    re-applies the exact predicate either way).
    """
    clauses = []
    if with_t:
        clauses.append("dt <= :T")
    if with_v:
        op = "<=" if kind == "drop" else ">="
        if kind not in ("drop", "jump"):
            raise InvalidParameterError(f"unknown query kind {kind!r}")
        clauses.append(f"dv {op} :V")
    where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
    return f"SELECT {_POINT_ROW_COLS} FROM {table} {index_hint}{where}"


def line_candidate_sql(
    kind: str,
    table: str,
    index_hint: str = "",
    with_t: bool = False,
    with_v: bool = False,
) -> str:
    """Full-row line candidates; flags as in :func:`point_candidate_sql`."""
    clauses = []
    if with_t:
        clauses.append("dt1 <= :T")
    if with_v:
        if kind == "drop":
            end1, end2, cross = ">", "<", "<="
        elif kind == "jump":
            end1, end2, cross = "<", ">", ">="
        else:
            raise InvalidParameterError(f"unknown query kind {kind!r}")
        clauses.append(f"dv1 {end1} :V")
        clauses.append("dt2 > :T")
        clauses.append(f"dv2 {end2} :V")
        clauses.append(
            f"dv1 + (dv2 - dv1) / (dt2 - dt1) * (:T - dt1) {cross} :V"
        )
    where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
    return f"SELECT {_LINE_ROW_COLS} FROM {table} {index_hint}{where}"
