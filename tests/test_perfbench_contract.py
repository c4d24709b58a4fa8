"""The benchmark's tracer still finds every name it patches.

``perfbench/spans.py`` wraps holovol's functions and classes by attribute
name (``harness.build_A``, ``normalization.linprog``,
``normalization.sample_interior`` and more) and fails on entry when one is
gone, so a refactor that drops such a name fails here and not only in the
benchmark.
"""

import importlib.util
from pathlib import Path

from holovol.domains import domain_to_json, unit_ball
from holovol.harness import run_scenario

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_a_ball_image_scenario():
    spans = _spans()
    config = {"name": "contract", "domain": domain_to_json(unit_ball(2)),
              "points": {"sampler": {"count": 2, "seed": 3}}}
    with spans.LatencyRecorder() as latency, spans.Tracer() as tracer:
        run_scenario(config, workers=1)
    assert len(latency.samples) == 2
    assert tracer.calls("normalization.build_A") == 2
    assert tracer.calls("normalization.verify") == 2
