"""Smoke test of the benchmark itself: every workload, tiny, both modes.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

#: The per-workload names the end-to-end metrics are also reported under.
ALIASES = {
    "hist_search": {"small_query_p50_ms", "small_query_p95_ms",
                    "large_query_p50_ms", "large_query_p95_ms",
                    "queries_per_s"},
    "live_ingest": {"ingest_points_per_s", "seal_p50_ms"},
    "search_under_ingest": {"query_p50_ms", "query_p95_ms",
                            "ingest_lag_p95_ms"},
}


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    out = _run(["--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke"])
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: v["unit"] for name, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, v in result["metrics"].items():
        assert math.isfinite(v["value"]), name
        if not trace:
            assert v["value"] > 0, name
    if trace:
        assert detail["attribution"]["ok"]
        assert (ROOT / detail["trace_file"]).is_file()
    else:
        assert ALIASES[workload] <= set(detail["aliases"])
    for key in ("cpu_count", "python", "numpy", "sqlite", "seed",
                "repro_metrics"):
        assert key in detail["provenance"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
