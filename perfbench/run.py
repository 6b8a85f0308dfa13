"""The repository benchmark: one command, three workloads, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hist_search --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the workload twice on fresh set-ups, first untraced
and then with every layer wrapped (``layers.py``), and reports the
per-layer metrics, the tracing overhead, and whether the layers' self
times add up to the traced wall time.  The last line of standard output
is the result object; the line before it holds the details (sample
counts, provenance, per-class aliases).  Workloads, metrics and known
defects are described in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("hist_search", "live_ingest", "search_under_ingest")
#: Percentile reported as ``heavy_tail_ms``: the highest one with at
#: least ten samples beyond it at the benchmark's run length (live_ingest
#: has ~70 sealing appends per run, the others >= 200 heavy samples).
HEAVY_TAIL = {"hist_search": 95, "live_ingest": 80, "search_under_ingest": 95}
#: Traced runs must attribute the traced wall time to spans within this.
ATTRIBUTION_TOLERANCE = 0.02

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "throughput_per_s": "1/s",
    "light_p50_ms": "ms",
    "light_p95_ms": "ms",
    "heavy_p50_ms": "ms",
    "heavy_tail_ms": "ms",
}


def _pct(samples, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(samples, dtype=float), q))


def _git_commit() -> Optional[str]:
    """HEAD of the checkout, or None outside a git work tree (the search
    stops at the checkout, never reading a repository around it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "git_commit": _git_commit(),
        "repro_metrics": os.environ.get("REPRO_METRICS", "1"),
    }


def _make(workload: str, seed: int, seconds: float, sizes, workdir: str):
    from workloads import HistSearch, LiveIngest, SearchUnderIngest

    if workload == "hist_search":
        return HistSearch(seed, sizes, workdir)
    if workload == "live_ingest":
        return LiveIngest(seed, sizes, workdir)
    return SearchUnderIngest(seed, sizes, workdir, seconds)


def end_to_end(workload: str, m, setup_factor: float = 1.0,
               factor: float = 1.0) -> Dict[str, float]:
    """The end-to-end metrics; times are multiplied by the host-speed
    factors of their phase (1.0 gives the raw wall-clock figures)."""
    return {
        "setup_s": statistics.median(m.setup_s) * setup_factor,
        "peak_rss_mb": m.peak_rss_mb,
        "throughput_per_s": m.work / (m.work_s * factor),
        "light_p50_ms": _pct(m.light_s, 50) * 1e3 * factor,
        "light_p95_ms": _pct(m.light_s, 95) * 1e3 * factor,
        "heavy_p50_ms": _pct(m.heavy_s, 50) * 1e3 * factor,
        "heavy_tail_ms": (
            _pct(m.heavy_s, HEAVY_TAIL[workload]) * 1e3 * factor
        ),
    }


def aliases(workload: str, e2e: Dict[str, float]) -> Dict[str, float]:
    """The end-to-end metrics under their per-workload names."""
    if workload == "hist_search":
        return {
            "small_query_p50_ms": e2e["light_p50_ms"],
            "small_query_p95_ms": e2e["light_p95_ms"],
            "large_query_p50_ms": e2e["heavy_p50_ms"],
            "large_query_p95_ms": e2e["heavy_tail_ms"],
            "queries_per_s": e2e["throughput_per_s"],
        }
    if workload == "live_ingest":
        return {
            "ingest_points_per_s": e2e["throughput_per_s"],
            "append_p50_ms": e2e["light_p50_ms"],
            "append_p95_ms": e2e["light_p95_ms"],
            "seal_p50_ms": e2e["heavy_p50_ms"],
            "seal_p80_ms": e2e["heavy_tail_ms"],
        }
    return {
        "query_p50_ms": e2e["light_p50_ms"],
        "query_p95_ms": e2e["light_p95_ms"],
        "ingest_lag_p50_ms": e2e["heavy_p50_ms"],
        "ingest_lag_p95_ms": e2e["heavy_tail_ms"],
    }


def measure(workload: str, seed: int, seconds: float, sizes,
            workdir: str) -> Tuple[dict, dict, int, int]:
    wl = _make(workload, seed, seconds, sizes, workdir)
    m = wl.run(seconds)
    setup_factor = m.setup_speed.factor()
    # an open loop's measured phase has no probes (see NOTES.md)
    factor = m.speed.factor() if m.speed.samples else 1.0
    metrics = end_to_end(workload, m, setup_factor, factor)
    raw = end_to_end(workload, m)
    detail = {
        "host_speed": {
            "setup_factor": setup_factor,
            "measure_factor": factor,
            "setup_samples": len(m.setup_speed.samples),
            "measure_samples": len(m.speed.samples),
        },
        "raw": raw,
        "samples": {
            "setup": len(m.setup_s),
            "light": len(m.light_s),
            "heavy": len(m.heavy_s),
        },
        "pairs_per_query": {
            cls: statistics.mean(sizes) for cls, sizes in m.pairs.items()
            if sizes
        },
        "aliases": aliases(workload, metrics),
        "inputs": _inputs(m),
    }
    return metrics, detail, m.attempted, m.failed


def _inputs(m) -> dict:
    return {
        **m.info,
        "observations": m.observations,
        "segments": m.segments,
        "feature_rows": m.feature_rows,
        "storage_bytes": m.storage_bytes,
    }


def _scaled_busy(m) -> float:
    """Total operation time of a pass at the reference host speed (the
    two passes of a traced run run at different moments)."""
    factor = m.speed.factor() if m.speed.samples else 1.0
    return sum(m.service_s) * factor


def traced(workload: str, seed: int, seconds: float, sizes,
           workdir: str, trace_path: str) -> Tuple[dict, dict, int, int]:
    """Untraced pass, then a traced replay of the same operations."""
    import layers
    from per_layer import per_layer_metrics
    from repro.obs.metrics import REGISTRY
    from tracing import Tracer

    half = seconds / 2.0
    wl = _make(workload, seed, half, sizes, workdir)
    if workload == "hist_search":
        plain = wl.run(half, builds=1)
    elif workload == "live_ingest":
        plain = wl.run(half)
    else:
        plain = wl.run(half, setups=1)

    tracer = Tracer()
    syncs = REGISTRY.get("repro_live_wal_syncs_total")
    syncs_before = syncs.value if syncs is not None else 0
    layers.install(tracer)
    try:
        if workload == "hist_search":
            m = wl.run(half, n_ops=plain.n_ops, builds=1, account=True,
                       tracer=tracer)
        elif workload == "live_ingest":
            m = wl.run(half, n_ops=plain.n_ops, tracer=tracer)
        else:
            m = wl.run(half, setups=1, account=True, tracer=tracer)
    finally:
        tracer.uninstall()
    wal_syncs = (syncs.value if syncs is not None else 0) - syncs_before
    n_spans = tracer.dump(trace_path)
    metrics, checks = per_layer_metrics(
        tracer.spans, m, wal_syncs=wal_syncs,
        overhead=_scaled_busy(m) / _scaled_busy(plain),
    )
    ok = abs(checks["attributed_share"] - 1.0) <= ATTRIBUTION_TOLERANCE
    if not ok:
        print(
            f"perfbench: layer self times cover "
            f"{checks['attributed_share']:.4f} of the traced wall time "
            f"(tolerance {ATTRIBUTION_TOLERANCE})", file=sys.stderr,
        )
    detail = {
        "trace_file": os.path.relpath(trace_path, ROOT),
        "spans": n_spans,
        "attribution": {**checks, "tolerance": ATTRIBUTION_TOLERANCE,
                        "ok": ok},
        "inputs": _inputs(m),
    }
    failed = plain.failed + m.failed + (0 if ok else 1)
    return metrics, detail, plain.attempted + m.attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the benchmark's own test)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import FULL, SMOKE

    sizes = SMOKE if args.smoke else FULL
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # sqlite's sort spills and any library temp file stay in the checkout
    os.environ["SQLITE_TMPDIR"] = os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        if args.trace:
            (OUT / "traces").mkdir(parents=True, exist_ok=True)
            metrics, detail, attempted, failed = traced(
                args.workload, args.seed, args.seconds, sizes, str(workdir),
                str(OUT / "traces" / f"{tag}.jsonl"),
            )
            from per_layer import PER_LAYER_UNITS as units
        else:
            metrics, detail, attempted, failed = measure(
                args.workload, args.seed, args.seconds, sizes, str(workdir)
            )
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    detail["provenance"] = provenance(
        args.workload, args.seed, args.seconds, args.trace
    )
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=2)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
