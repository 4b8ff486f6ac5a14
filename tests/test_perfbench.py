"""The traced benchmark worker, run as the benchmark runs it."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from conftest import run_fresh
from repogen import build_multi_hotspot_repo

ROOT = Path(__file__).resolve().parents[1]


def _reject_constant(name: str):
    raise ValueError(f"{name} is not valid JSON")


def test_traced_worker_reports_every_layer(tmp_path):
    """A ``--trace`` worker run prints strict JSON with every per-layer
    metric of BENCHMARK.json finite, and wraps every name it looks for."""
    pytest.importorskip("numpy")  # the worker imports it
    repo = tmp_path / "repo"
    build_multi_hotspot_repo(repo)
    proc = run_fresh(str(ROOT / "perfbench" / "worker.py"), str(repo), str(tmp_path / "out"),
                     "--trace", str(tmp_path / "spans.json"))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["absent"] == []
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    names.remove("trace.overhead_s")  # run.py adds it from the untraced calls
    metrics = result["metrics"]
    assert [name for name in names if name not in metrics] == []
    assert [name for name in names if not math.isfinite(metrics[name])] == []
