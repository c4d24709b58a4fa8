"""Golden reports: one small fixed-seed scenario per backend.

Each ``tests/golden/<name>.config.json`` is run through ``run_scenario`` and
its report, minus the non-deterministic ``timing`` block, must match
``tests/golden/<name>.report.json`` byte for byte.  A change that moves a
report on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.  Reports are written as one compact line with
sorted keys; read one with

    python -m json.tool tests/golden/<name>.report.json

and compare two by their ``json.tool`` output.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from holovol.bergman import ratio_band
from holovol.domains import MembershipOracle
from holovol.harness import emit_json, parse_scenario, run_scenario
from holovol.volume_elements import quotient_lower_bound

GOLDEN = Path(__file__).parent / "golden"
NAMES = sorted(p.name[: -len(".config.json")] for p in GOLDEN.glob("*.config.json"))


def _scenario(name: str):
    config = json.loads((GOLDEN / f"{name}.config.json").read_text())
    if name != "oracle_ellipsoid":
        return config
    # a convex membership oracle has no JSON form: wrap the ellipsoid's own
    # predicate, which exercises the exit-derivative normals of convex oracles
    scenario = parse_scenario(config)
    ell = scenario.domain
    scenario.domain = MembershipOracle(
        ell.n, predicate=ell.contains_many, declared_class="convex",
        enclosing_polydisc=(ell.center, np.linalg.norm(ell.matrix, axis=1)))
    return scenario


def _report(name: str) -> dict:
    report = run_scenario(_scenario(name), workers=1)
    report.pop("timing")
    return report


@pytest.mark.parametrize("name", NAMES)
def test_golden_report(name, tmp_path):
    out = tmp_path / "report.json"
    emit_json(_report(name), str(out))
    assert out.read_text() == (GOLDEN / f"{name}.report.json").read_text()


def test_each_fact_is_stated_once(tmp_path):
    # intervals live in the point's `intervals`, lemma values in
    # lemma_inclusion, and mu_n / nu_n and the v/K band once in the summary
    for name in NAMES:
        text = (GOLDEN / f"{name}.report.json").read_text()
        report = json.loads(text)
        assert text == json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
        scenario = _scenario(name)
        domain = (parse_scenario(scenario) if isinstance(scenario, dict) else scenario).domain
        assert report["summary"]["quotient_lower_bound"] == \
            quotient_lower_bound(domain.convexity_class, domain.n)
        assert report["summary"]["ratio_band"] == \
            list(ratio_band(domain.convexity_class, domain.n))
        assert "ratio" not in report["checks"], name
        for point in report["points"]:
            checks = point.get("checks", {})
            assert not any("interval" in entry for entry in checks.values()), name
            assert "ratio" not in checks, name
            assert not any(key.startswith("lemma_") for key in checks.get("normalization", {}))
            assert "triangularity_residual" not in checks.get("normalization", {}), name
            if "monotonicity" in checks and not checks["monotonicity"].get("skipped"):
                assert checks["monotonicity"]["mode"] == "containment", name
    report = _report("ball_image")
    assert report["summary"]["ratio_band"] == list(ratio_band("convex", 2))
    assert "ratio" not in report["checks"]
    out = tmp_path / "report.json"
    emit_json(report, str(out))
    text = out.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    assert json.loads(text) == report


if __name__ == "__main__":
    for name in NAMES:
        emit_json(_report(name), str(GOLDEN / f"{name}.report.json"))
        print(f"wrote {name}.report.json", file=sys.stderr)
