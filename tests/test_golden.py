"""Golden reports: one small fixed-seed scenario per backend.

Each ``tests/golden/<name>.config.json`` is run through ``run_scenario`` and
its report, minus the non-deterministic ``timing`` block, must match
``tests/golden/<name>.report.json`` byte for byte.  A change that moves a
report on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from holovol.domains import MembershipOracle
from holovol.harness import emit_json, parse_scenario, run_scenario

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


if __name__ == "__main__":
    for name in NAMES:
        emit_json(_report(name), str(GOLDEN / f"{name}.report.json"))
        print(f"wrote {name}.report.json", file=sys.stderr)
