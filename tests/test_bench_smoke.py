"""Smoke test of the committed benchmark: one traced tiny run of each workload.

It fails when a change in ``src/`` breaks what ``bench/`` reads from outside
(method and callback names, state sizes, the per-layer metric set). The full
self-test is ``python3 -m pytest -q bench/test_bench.py``.
"""

import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts src/ on the path)
from test_bench import TINY  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", ["static-multicast", "mobile-large", "soak"])
def test_traced_tiny_run(name):
    log = io.StringIO()
    result = run.run_benchmark(name, 1, 0, 1, TINY[name], log=log)
    assert result["correct"], log.getvalue()
    assert result["failed"] == 0, log.getvalue()
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
