"""The benchmark still finds every name it uses.

``perfbench/spans.py`` wraps holovol's functions and classes by attribute
name (``harness.build_A``, ``normalization.linprog``,
``normalization.sample_interior`` and more) and fails on entry when one is
gone, so a refactor that drops such a name fails here and not only in the
benchmark.  The geometry kernels are wrapped where ``minimal_basis`` looks
them up, so a refactor that calls them by another route would zero their
per-layer figures; the span counts below catch that too.

``perfbench/gate.py`` imports holovol names of its own, and
``perfbench/workloads.py`` builds ``harness.Scenario`` objects; if either
breaks, the gate marks every benchmark run incorrect.
"""

import importlib.util
from pathlib import Path

from holovol.domains import L1Ball, domain_to_json, symmetrized_bidisc, unit_ball
from holovol.harness import run_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_a_ball_image_scenario():
    spans = _load("spans")
    config = {"name": "contract", "domain": domain_to_json(unit_ball(2)),
              "points": {"sampler": {"count": 2, "seed": 3}}}
    # both slices at this l1-ball point have closed forms (the second is an
    # ellipse); only the bidisc oracle's point takes the polar search
    l1 = {"name": "contract-l1", "domain": domain_to_json(L1Ball(n=2, scale=1.0)),
          "points": {"explicit": [[[0.1, 0.05], [0.0, -0.2]]]}}
    bidisc = {"name": "contract-bidisc", "domain": domain_to_json(symmetrized_bidisc()),
              "points": {"explicit": [[[0.2, 0.1], [0.05, -0.02]]]},
              "checks": ["theorem_ge"]}
    with spans.LatencyRecorder() as latency, spans.Tracer() as tracer:
        run_scenario(config, workers=1)
        ball_rows = tracer.counts["sample_rows_returned"]
        run_scenario(l1, workers=1)
        assert tracer.calls("geometry.polar_first_exit") == 0
        # the l1 point's kernel series computes each of the 861 moments of
        # degree <= 40 once, through the moment method the tracer counts
        assert tracer.counts["moment_evals"] == 861
        run_scenario(bidisc, workers=1)
    # the unit ball's three inclusions are checked in closed form: the only
    # interior rows drawn are the scenario's two sampled points
    assert ball_rows == 2
    assert len(latency.samples) == 4
    assert tracer.calls("normalization.build_A") == 3
    assert tracer.calls("normalization.verify") == 3
    assert tracer.calls("geometry.nearest_on_quadric") > 0
    assert tracer.calls("geometry.polar_first_exit") > 0


def test_gate_accepts_each_kind_it_scores_or_checks():
    # the v check runs on ball images and Siegel, the tau scores on l1 balls,
    # polytopes and ellipsoid oracles; each comes through workloads.run_input
    gate, workloads = _load("gate"), _load("workloads")
    entries = [workloads.entry("smooth_mix", 1, i) for i in (0, 1, 4)]
    entries += [workloads.entry("polytope_normalize", 1, 0), workloads.panel("oracle_polar")[0]]
    assert [e["kind"] for e in entries] == \
        ["ball_image", "siegel", "l1ball", "polytope", "ellipsoid_oracle"]
    items = [(e, run_scenario(workloads.run_input(e), workers=1)) for e in entries]
    problems, errs = gate.check_reports(items)
    assert problems == []
    # one tau error per scored point: 4 l1, 2 polytope and 2 ellipsoid points
    assert len(errs) == 8
