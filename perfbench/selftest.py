"""Self-test of the benchmark's correctness gate and counters.

    python3 perfbench/selftest.py

From the root of a checkout.  Runs a few real scenarios, then checks that

* the gate passes the untouched reports;
* it flags ``v`` scaled x10, a gated tau perturbed beyond ``TAU_GATE``
  (tau_1 of an ellipsoid oracle, tau_1 and tau_2 of an l1 ball and of a
  polytope), and a non-``timing`` field that differs between a traced and an
  untraced report;
* it ignores a difference confined to ``timing``;
* a scenario that raised counts all its points as errors;
* tau errors grown tenfold on each scored kind lower ``tau_err_digits`` by
  more than its bound in ``BENCHMARK.json``;
* two traced runs of the same scenarios give exactly the same counters and
  span call counts.

Prints one line per expectation and exits 1 if any fails.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import gate  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

SEED = 7
#: (workload, stream index, or None for the first panel entry): every
#: smooth_mix kind, an ellipsoid oracle, a polytope
SAMPLE = [("smooth_mix", i) for i in range(5)] + [("oracle_polar", None),
                                                  ("polytope_normalize", 0)]


def _run_sample(tmp: Path) -> list:
    items = []
    for workload, index in SAMPLE:
        runner = run.Runner(workload, SEED, tmp)
        ent = runner.panel[0] if index is None else runner.entry(index)
        items.append((ent, runner.run(ent)))
    return items


def _tenfold_tau_errors(items: list) -> list:
    """Copies of the reports with every scored tau's error grown tenfold
    (errors below the gate's floor count as the floor)."""
    worse = copy.deepcopy(items)
    for ent, report in worse:
        for rec in report["points"]:
            if "taus" in rec:
                exact = gate.reference_taus(ent, gate._z(rec))
                err = np.maximum(np.abs(np.asarray(rec["taus"]) - exact),
                                 gate.TAU_ERR_FLOOR * exact)
                rec["taus"] = (exact + 10.0 * err).tolist()
    return worse


def _traced_counts(tmp: Path) -> dict:
    with Tracer() as tr:
        _run_sample(tmp)
    return {**tr.counts, **{f"calls:{k}": v[0] for k, v in tr.spans.items()}}


def _find(items: list, kind: str) -> int:
    return next(i for i, (e, _) in enumerate(items) if e["kind"] == kind)


def main() -> int:
    results = []

    def expect(label: str, ok: bool) -> None:
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {label}")

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        items = _run_sample(Path(tmp))
        problems, _ = gate.check_reports(items)
        expect("untouched reports pass the gate", not problems)
        for p in problems:
            print(f"     {p}")

        def tampered(kind: str, edit) -> list:
            bad = copy.deepcopy(items)
            edit(bad[_find(bad, kind)][1]["points"][0])
            return gate.check_reports(bad)[0]

        def scale_v(rec):
            rec["oracle_v"] *= 10.0
            rec["v_pd_sq"] *= 10.0

        def bump_tau(j):
            def edit(rec):
                rec["taus"][j] *= 1.0 + 2.0 * gate.TAU_GATE
            return edit

        expect("v x10 on a ball image is flagged", bool(tampered("ball_image", scale_v)))
        expect("v x10 on the Siegel half-space is flagged", bool(tampered("siegel", scale_v)))
        for kind, j in (("ellipsoid_oracle", 0), ("l1ball", 0), ("l1ball", 1),
                        ("polytope", 0), ("polytope", 1)):
            expect(f"tau_{j + 1} perturbed beyond the gate on {kind} is flagged",
                   bool(tampered(kind, bump_tau(j))))
        expect("tau_2 of an ellipsoid oracle is scored, not gated",
               not tampered("ellipsoid_oracle", bump_tau(1)))

        report = items[0][1]
        other = copy.deepcopy(report)
        other["points"][0]["checks"]["theorem_ge"]["margin"] += 1e-12
        expect("non-timing difference between traced and untraced is flagged",
               bool(gate.compare_runs([report], [other])))
        other = copy.deepcopy(report)
        other["timing"]["runtime_s"] += 1.0
        expect("timing-only difference passes", not gate.compare_runs([report], [other]))

        base = run._quality(items)
        raised = items[0][0]
        n = int(raised["config"]["points"]["sampler"]["count"])
        q = run._quality(items + [(raised, None)])
        errors = base["point_error_frac"] * base["points"] + n
        expect("a scenario that raised counts its points as errors",
               q["points"] == base["points"] + n
               and abs(q["point_error_frac"] - errors / q["points"]) < 1e-12)

        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "tau_err_digits")
        for kind in gate.SCORED_KINDS:
            sub = [(e, r) for e, r in items if e["kind"] == kind]
            before = run.tau_err_digits(gate.check_reports(sub)[1])
            after = run.tau_err_digits(gate.check_reports(_tenfold_tau_errors(sub))[1])
            drop = (before - after) / before
            expect(f"tenfold tau errors on {kind} lower tau_err_digits by {drop:.3f} "
                   f"(bound {bound:g})", drop > bound)

        first, second = _traced_counts(Path(tmp)), _traced_counts(Path(tmp))
        expect(f"counts repeat exactly across two traced runs ({len(first)} counters)",
               first == second)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
