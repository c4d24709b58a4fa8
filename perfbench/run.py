"""holovol benchmark: drives ``run_scenario`` + ``emit_json``/``emit_csv`` the
way ``holovol run`` does, closed loop, one caller, ``workers=1``.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see ``workloads.py``): ``oracle_polar``, ``polytope_normalize``,
``smooth_mix``.

``--trace 0`` measures the end-to-end metrics: set-up time in fresh
interpreters, then scenarios back to back for ``--seconds`` (and at least
the workload's scored prefix), timing each ``evaluate_point`` call, then the
workload's fixed panel (``workloads.panel``; oracle_polar's ellipsoid
oracles) untimed.  ``--trace 1`` runs the scored scenarios (prefix plus
panel) untraced and then traced, and reports per-layer spans and counters
plus the tracing overhead.  Both modes run the correctness gate
(``gate.py``) and print human-readable lines followed by one JSON result
line.  A failed gate prints ``"correct": false`` with no metrics and exits 1.

Timing metrics are scaled to a reference machine speed: between scenarios
a fixed numpy kernel (``probe.py``) is timed, and each run's times are
divided by the median probe time over ``probe.REFERENCE_S`` (rates are
multiplied).  Probe time is taken out of the timed loop.  ``setup_s`` is
scaled by its own probe samples, timed between its fresh-interpreter starts.
The unscaled values and the slowdown factors are printed too.

Quality metrics (error and check fractions, tau accuracy) come from the
scored scenarios only, so they are the same on every run of one seed and do
not depend on how many scenarios a faster program completes.  The JSON
carries them in never-zero forms: ``point_ok_frac`` = 1 - ``point_error_frac``
(a scenario that raised counts all its points as errors),
``check_pass_frac`` = 1 - ``check_fail_frac``, and ``tau_err_digits``, the
mean over scored points of -log10 of the point's largest relative tau error
(steady across seeds where the max is not).  The raw figures, with
``tau_rel_err_max``, are printed on every run and reported by ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: stream scenarios scored for quality metrics, gated, and replayed by
#: --trace 1, with the workload's panel: 36 bidisc points for oracle_polar
#: (plus 16 on its ellipsoid panel), 80 and 200 points for the other two
PREFIX = {"oracle_polar": 12, "polytope_normalize": 40, "smooth_mix": 50}
SETUP_REPEATS = 5
#: error types reported one by one under normalization.errors_per_pt
NORMALIZATION_ERRORS = ("NotSupporting", "InclusionViolated", "TriangularityViolated")
_NORMALIZATION_CHECKS = ("normalization", "lemma_inclusion")

_SETUP_CHILD = r"""
import json, sys, time
t0 = time.perf_counter()
import holovol
import workloads
with open(sys.argv[1]) as fh:
    entries = json.load(fh)
for ent in entries:
    workloads.run_input(ent, parse=True)
print(time.perf_counter() - t0)
"""


def _setup_seconds(entries: list, tmp: Path, probe) -> list:
    """``import holovol`` plus parsing every scored config, in fresh
    interpreters, sampling ``probe`` around each start."""
    path = tmp / "entries.json"
    path.write_text(json.dumps(entries))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = []
    probe.reset()
    for _ in range(SETUP_REPEATS):
        probe.maybe_sample()
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(path)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    probe.maybe_sample()
    return out


class Runner:
    """Runs scenario entries as ``holovol run`` would and keeps the tallies."""

    def __init__(self, workload: str, seed: int, tmp: Path):
        import importlib

        import workloads
        from probe import SpeedProbe

        self.probe = SpeedProbe()
        self.harness = importlib.import_module("holovol.harness")
        self.workloads = workloads
        self.panel = workloads.panel(workload)
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.points = 0
        self.failed = 0
        self.report_bytes = 0

    def entry(self, index: int) -> dict:
        return self.workloads.entry(self.workload, self.seed, index)

    def run(self, ent: dict):
        """One scenario plus emission; returns the report, or None if it raised."""
        from holovol.errors import HolovolError

        self.probe.maybe_sample()
        h = self.harness
        try:
            report = h.run_scenario(self.workloads.run_input(ent))
        except HolovolError as exc:
            print(f"scenario {ent['config']['name']} raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            n = int(ent["config"]["points"]["sampler"]["count"])
            self.points += n
            self.failed += n
            return None
        json_path, csv_path = self.tmp / "report.json", self.tmp / "report.csv"
        h.emit_json(report, str(json_path))
        h.emit_csv(report, str(csv_path))
        self.points += len(report["points"])
        self.report_bytes += json_path.stat().st_size + csv_path.stat().st_size
        return report

    def scored_entries(self) -> list:
        """The scored prefix of the stream, then the panel."""
        return [self.entry(i) for i in range(PREFIX[self.workload])] + self.panel

    def run_scored(self) -> tuple:
        """The scored scenarios once, probing the machine's speed as it goes;
        returns ([(entry, report)], seconds outside the probe)."""
        items = []
        self.probe.reset()
        t0 = time.perf_counter()
        for ent in self.scored_entries():
            items.append((ent, self.run(ent)))
        return items, time.perf_counter() - t0 - self.probe.spent


def _quality(items: list) -> dict:
    """Error/check fractions over the scored scenarios."""
    points = errors = checks = fails = 0
    for ent, report in items:
        if report is None:
            # the scenario raised: every point it was asked for is an error
            n = int(ent["config"]["points"]["sampler"]["count"])
            points += n
            errors += n
            continue
        for rec in report["points"]:
            points += 1
            if "error" in rec:
                errors += 1
                continue
            for c in rec["checks"].values():
                checks += 1
                fails += c.get("pass") is False
    return {"points": points, "point_error_frac": errors / max(points, 1),
            "check_fail_frac": fails / max(checks, 1)}


def _gate(items: list, traced_pairs: list) -> tuple:
    import gate

    reported = [(e, r) for e, r in items if r is not None]
    problems = gate.compare_runs([u for u, _ in traced_pairs], [t for _, t in traced_pairs])
    more, errs = gate.check_reports(reported)
    if not errs:
        more.append("no scored taus")
        errs = [1.0]
    return problems + more, errs


def _tail(samples: list) -> tuple:
    """Highest percentile with at least 10 samples beyond it: (value, pct, n)."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def tau_err_digits(errs: list) -> float:
    """Mean over scored points of -log10 of the point's largest tau error."""
    return statistics.fmean(-math.log10(e) for e in errs)


def untraced(workload: str, seed: int, seconds: float, tmp: Path) -> dict:
    from spans import LatencyRecorder, Tracer

    runner = Runner(workload, seed, tmp)
    prefix = PREFIX[workload]
    scored = runner.scored_entries()
    setup = _setup_seconds(scored, tmp, runner.probe)
    slow_setup, n_setup_probe = runner.probe.slowdown(), len(runner.probe.samples)

    # traced run of the first scored scenario of each kind: the gate's
    # reference for the traced-vs-untraced comparison (it also warms lazy
    # imports)
    firsts: dict = {}
    for i, ent in enumerate(scored):
        firsts.setdefault(ent["kind"], i)
    with Tracer():
        traced_firsts = {i: runner.run(scored[i]) for i in firsts.values()}
    runner.points = runner.failed = 0

    items = []
    runner.probe.reset()
    with LatencyRecorder() as lat:
        t0 = time.perf_counter()
        i = 0
        while True:
            ent = runner.entry(i)
            report = runner.run(ent)
            if i < prefix:
                items.append((ent, report))
            i += 1
            elapsed = time.perf_counter() - t0 - runner.probe.spent
            if elapsed >= seconds and i >= prefix:
                break
    timed_points = runner.points
    slow = runner.probe.slowdown()
    t_panel = time.perf_counter()
    items += [(ent, runner.run(ent)) for ent in runner.panel]
    t_panel = time.perf_counter() - t_panel
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    pairs = [(items[i][1], report) for i, report in traced_firsts.items()]
    problems, errs = _gate(items, pairs)
    q = _quality(items)
    tail, tail_pct, n_lat = _tail(lat.samples)
    raw = {"points_per_s": timed_points / elapsed,
           "point_ms_p50": 1e3 * statistics.median(lat.samples),
           "point_ms_tail": 1e3 * tail}
    print(f"workload {workload} seed {seed}: {i} scenarios, {timed_points} points "
          f"in {elapsed:.2f} s; scored {len(items)} scenarios, {q['points']} points")
    if runner.panel:
        n_panel = runner.points - timed_points
        print(f"panel: {len(runner.panel)} scenarios, {n_panel} points, untimed, "
              f"{1e3 * t_panel / max(n_panel, 1):.1f} ms per point unscaled")
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}; "
          f"slowdown {slow_setup!r} over {n_setup_probe} probe samples")
    print(f"point_ms_tail is p{tail_pct:.2f} of {n_lat} evaluate_point calls")
    print(f"slowdown = {slow!r} over {len(runner.probe.samples)} probe samples; "
          f"unscaled: " + ", ".join(f"{k} {v!r}" for k, v in raw.items()))
    metrics = {
        "points_per_s": (raw["points_per_s"] * slow, "points/s"),
        "point_ms_p50": (raw["point_ms_p50"] / slow, "ms"),
        "point_ms_tail": (raw["point_ms_tail"] / slow, "ms"),
        "setup_s": (statistics.median(setup) / slow_setup, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "point_ok_frac": (1.0 - q["point_error_frac"], "ratio"),
        "check_pass_frac": (1.0 - q["check_fail_frac"], "ratio"),
        "tau_err_digits": (tau_err_digits(errs), "digits"),
    }
    # the raw quality figures; the JSON carries their never-zero forms
    printed = {
        "point_error_frac": (q["point_error_frac"], "ratio"),
        "check_fail_frac": (q["check_fail_frac"], "ratio"),
        "tau_rel_err_max": (max(errs), "ratio"),
    }
    for name, (value, unit) in {**metrics, **printed}.items():
        print(f"{name} = {value!r} {unit}")
    return _result(problems, runner, metrics)


def traced(workload: str, seed: int, tmp: Path) -> dict:
    from spans import Tracer

    runner = Runner(workload, seed, tmp)
    runner.run(runner.entry(0))  # warm lazy imports before either timed pass
    runner.points = runner.failed = runner.report_bytes = 0
    items, t_plain = runner.run_scored()
    slow_plain = runner.probe.slowdown()
    runner.points = runner.failed = runner.report_bytes = 0
    with Tracer() as tr:
        traced_items, t_traced = runner.run_scored()
    slow = runner.probe.slowdown()
    pairs = [(u, t) for (_, u), (_, t) in zip(items, traced_items)]
    problems, errs = _gate(items, pairs)
    q = _quality(items)
    P, D = max(runner.points, 1), len(items)

    def per_pt_ms(name):
        return 1e3 * tr.total(name) / P / slow

    err_types: dict = {}
    for _, report in items:
        for rec in (report or {}).get("points", []):
            for name in _NORMALIZATION_CHECKS:
                err = rec.get("checks", {}).get(name, {}).get("error")
                if err:
                    err_types[err["type"]] = err_types.get(err["type"], 0) + 1
    c = tr.counts
    m = {
        "geometry.polar_first_exit.ms_per_pt": (per_pt_ms("geometry.polar_first_exit"), "ms"),
        "geometry.polar_first_exit.calls_per_pt": (tr.calls("geometry.polar_first_exit") / P, "count"),
        "geometry.nearest_on_quadric.ms_per_pt": (per_pt_ms("geometry.nearest_on_quadric"), "ms"),
        "geometry.nearest_on_quadric.calls_per_pt": (tr.calls("geometry.nearest_on_quadric") / P, "count"),
        "domains.predicate_calls_per_pt": (c["predicate_calls"] / P, "count"),
        "domains.predicate_rows_per_pt": (c["predicate_rows"] / P, "count"),
        "domains.sample_interior.ms_per_pt": (per_pt_ms("domains.sample_interior"), "ms"),
        "domains.sample_accept_ratio": (
            c["sample_rows_returned"] / max(c["sample_rows_tested"], 1), "ratio"),
        "domains.lp_solves_per_domain": (tr.calls("domains.lp") / D, "count"),
        "domains.lp.ms_per_domain": (1e3 * tr.total("domains.lp") / D / slow, "ms"),
        "normalization.build_A.ms_per_pt": (per_pt_ms("normalization.build_A"), "ms"),
        "normalization.build_A.calls_per_pt": (tr.calls("normalization.build_A") / P, "count"),
        "normalization.verify.ms_per_pt": (per_pt_ms("normalization.verify"), "ms"),
        "normalization.verify.calls_per_pt": (tr.calls("normalization.verify") / P, "count"),
        "normalization.lp_solves_per_pt": (tr.calls("normalization.lp") / P, "count"),
        "normalization.errors_per_pt": (sum(err_types.values()) / P, "count"),
        **{f"normalization.errors_per_pt.{t}": (err_types.get(t, 0) / P, "count")
           for t in NORMALIZATION_ERRORS},
        "minimal_basis.ms_per_pt": (per_pt_ms("minimal_basis"), "ms"),
        "minimal_basis.self_ms_per_pt": (1e3 * tr.self_time("minimal_basis") / P / slow, "ms"),
        "bergman.kernel.ms_per_pt": (per_pt_ms("bergman.kernel"), "ms"),
        "bergman.kernel.calls_per_pt": (
            (tr.calls("bergman.kernel") - c["kernel_unsupported"]) / P, "count"),
        "bergman.moment_evals_per_pt": (c["moment_evals"] / P, "count"),
        "harness.evaluate_point.self_ms_per_pt": (
            1e3 * tr.self_time("harness.evaluate_point") / P / slow, "ms"),
        "harness.scenario.self_ms": (
            1e3 * tr.self_time("harness.run_scenario") / D / slow, "ms"),
        "harness.emit.ms_per_pt": (per_pt_ms("harness.emit"), "ms"),
        "harness.report_bytes_per_pt": (runner.report_bytes / P, "bytes"),
        "volume_elements.ms_per_pt": (per_pt_ms("volume_elements"), "ms"),
        "trace.overhead_frac": ((t_traced / slow) / (t_plain / slow_plain) - 1.0, "ratio"),
        "tau_rel_err_max": (max(errs), "ratio"),
        "point_error_frac": (q["point_error_frac"], "ratio"),
        "check_fail_frac": (q["check_fail_frac"], "ratio"),
    }
    print(f"workload {workload} seed {seed}: scored {D} scenarios, {P} points; "
          f"points_per_s untraced {P / t_plain * slow_plain:.4f}, "
          f"traced {P / t_traced * slow:.4f} (slowdowns {slow_plain:.4f}, {slow:.4f})")
    total = tr.total("harness.run_scenario") + tr.total("harness.emit")
    for layer, self_s in sorted(tr.layer_self_times().items(), key=lambda kv: -kv[1]):
        print(f"share {layer} = {self_s / total:.4f} of traced scenario time")
    for name, (value, unit) in m.items():
        print(f"{name} = {value!r} {unit}")
    print(f"counters: {json.dumps(dict(sorted(c.items())))}")
    return _result(problems, runner, m)


def _result(problems: list, runner: Runner, metrics: dict) -> dict:
    for p in problems:
        print(f"GATE FAIL: {p}", file=sys.stderr)
    ok = not problems
    return {
        "correct": ok,
        "attempted": max(runner.points, 1),
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()} if ok else {},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(PREFIX))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "holovol" / "__init__.py").is_file():
        print(f"error: no holovol sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.trace:
            result = traced(args.workload, args.seed, Path(tmp))
        else:
            result = untraced(args.workload, args.seed, args.seconds, Path(tmp))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
