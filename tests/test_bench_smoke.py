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
from layers import LayerTracer  # noqa: E402
from mcastsim.kernel import US  # noqa: E402
from mcastsim.scenario import from_dict  # noqa: E402
from mcastsim.sim import Simulation  # noqa: E402
from test_bench import TINY  # noqa: E402
from workloads import scenarios  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", ["static-multicast", "mobile-large", "soak"])
def test_traced_tiny_run(name):
    log = io.StringIO()
    result = run.run_benchmark(name, 1, 0, 1, TINY[name], log=log)
    assert result["correct"], log.getvalue()
    assert result["failed"] == 0, log.getvalue()
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])


def test_tracer_sees_every_event_the_kernel_runs():
    """``kernel.events`` counts the callbacks wrapped at ``Kernel.schedule_at``;
    ``debug_hook`` runs once after every event the kernel runs. A scheduling
    path that bypasses ``schedule_at``, or a hook run once per instant instead
    of once per event, makes the two counts differ."""
    scen = scenarios("soak", 1, TINY["soak"])[0]
    tracer = LayerTracer()
    ran = 0

    def count():
        nonlocal ran
        ran += 1
    with tracer.installed():
        sim = Simulation(from_dict(scen))
        assert sim.kernel.debug_hook is None
        sim.kernel.debug_hook = count
        tracer.reset()
        sim.kernel.run_until(int(sim.scenario.duration_s * US))
    assert tracer.events > 1000
    assert ran == tracer.events
