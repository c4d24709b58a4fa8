import csv
import json
from pathlib import Path

import numpy as np
import pytest

from holovol.cli import main
from holovol.domains import domain_to_json, symmetrized_bidisc, unit_ball
from holovol.errors import ConfigInvalid, DomainRejected
from holovol.harness import (
    ALL_CHECKS,
    applicable_checks,
    emit_csv,
    emit_json,
    parse_scenario,
    run_scenario,
)

BALL2 = domain_to_json(unit_ball(2))

STRIP = {
    "variant": "halfspace", "n": 2,
    "constraints": [{"a": [[1, 0], [0, 0]], "b": 1.0},
                    {"a": [[-1, 0], [0, 0]], "b": 1.0}],
}


def ball_config(count=6, seed=7, checks=None):
    return {
        "name": "ball2",
        "domain": BALL2,
        "points": {"sampler": {"count": count, "seed": seed}},
        "checks": list(ALL_CHECKS) if checks is None else checks,
    }


def drop_timing(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timing"}


# ---------------------------------------------------------------------------
# determinism and parallel equivalence
# ---------------------------------------------------------------------------


def test_reports_are_deterministic(tmp_path):
    cfg = ball_config()
    r1 = run_scenario(cfg, workers=1, seed=11)
    r2 = run_scenario(cfg, workers=1, seed=11)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_json(drop_timing(r1), p1)
    emit_json(drop_timing(r2), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_worker_pool_equivalence():
    # a bounded polytope: each worker rebuilds its triangulation from JSON
    polytope = json.loads(
        (Path(__file__).parent / "golden" / "halfspace.config.json").read_text())
    polytope["points"]["sampler"]["count"] = 5
    for cfg, workers in ((ball_config(count=8), 4), (polytope, 2)):
        r1 = run_scenario(cfg, workers=1, seed=3)
        rw = run_scenario(cfg, workers=workers, seed=3)
        assert json.dumps(drop_timing(r1), sort_keys=True, default=str) == \
            json.dumps(drop_timing(rw), sort_keys=True, default=str)


def test_seed_changes_points():
    r1 = run_scenario(ball_config(seed=1), workers=1, seed=5)
    r2 = run_scenario(ball_config(seed=2), workers=1, seed=5)
    assert r1["points"][0]["z"] != r2["points"][0]["z"]


# ---------------------------------------------------------------------------
# report content
# ---------------------------------------------------------------------------


def test_ball_scenario_all_checks_pass():
    rep = run_scenario(ball_config(count=10), workers=1, seed=19)
    assert rep["summary"]["failures"] == 0
    assert rep["summary"]["errors"] == 0
    assert rep["summary"]["points"] == 10
    assert not rep["summary"]["approximate"]
    for p in rep["points"]:
        assert set(p["checks"]) == set(ALL_CHECKS)
        for c in p["checks"].values():
            assert c["pass"]
    assert rep["provenance"]["seed"] == 19
    assert "config_hash" in rep["provenance"]


def test_bidisc_scenario_intersection_and_flag():
    cfg = {
        "name": "bidisc",
        "domain": domain_to_json(symmetrized_bidisc()),
        "points": {"sampler": {"count": 4, "seed": 2}},
        "checks": ["theorem_ge", "monotonicity"],
    }
    rep = run_scenario(cfg, workers=1, seed=23)
    assert rep["summary"]["failures"] == 0
    assert rep["summary"]["approximate"]
    for p in rep["points"]:
        assert p["approximate"]
        assert p["checks"]["theorem_ge"]["mode"] == "intersection"


def test_explicit_points_recorded_in_order():
    cfg = {
        "name": "explicit",
        "domain": BALL2,
        "points": {"explicit": [[[0.0, 0.0], [0.0, 0.0]],
                                [[0.5, 0.0], [0.0, 0.0]]]},
        "checks": ["theorem_ge"],
    }
    rep = run_scenario(cfg, workers=1, seed=0)
    assert rep["summary"]["points"] == 2
    assert rep["points"][0]["z"] == [[0.0, 0.0], [0.0, 0.0]]
    assert rep["points"][1]["z"] == [[0.5, 0.0], [0.0, 0.0]]
    assert rep["points"][1]["p_D"] == pytest.approx(np.sqrt(3) / 4, rel=1e-9)


def test_empty_points_gives_summary_only():
    rep = run_scenario({"name": "empty", "domain": BALL2, "points": {},
                        "checks": ["theorem_ge"]}, workers=1, seed=0)
    assert rep["points"] == []
    assert rep["summary"]["points"] == 0
    assert rep["summary"]["failures"] == 0


def test_outside_explicit_point_rejected():
    cfg = {"name": "bad", "domain": BALL2,
           "points": {"explicit": [[[2.0, 0.0], [0.0, 0.0]]]},
           "checks": ["theorem_ge"]}
    with pytest.raises(ConfigInvalid):
        run_scenario(cfg, workers=1, seed=0)


def test_strip_domain_rejected_with_witness():
    cfg = {"name": "strip", "domain": STRIP,
           "points": {"explicit": [[[0.0, 0.0], [0.0, 0.0]]]},
           "checks": ["theorem_ge"]}
    with pytest.raises(DomainRejected) as err:
        run_scenario(cfg, workers=1, seed=0)
    assert "unbounded" in str(err.value).lower()


def test_unknown_check_rejected():
    cfg = ball_config(checks=["theorem_ge", "bogus"])
    with pytest.raises(ConfigInvalid):
        parse_scenario(cfg)


def _malformed(**over):
    cfg = {"name": "bad", "domain": BALL2,
           "points": {"sampler": {"count": 2, "seed": 1}}, "checks": ["theorem_ge"]}
    cfg.update(over)
    return cfg


# name -> (config, workers, reason); each must fail as ConfigInvalid before any work
MALFORMED = {
    "l1_scale_inf": (_malformed(domain={"variant": "l1ball", "n": 2,
                                        "scale": float("inf")}), 1, "scale"),
    "polydisc_nan_radius": (_malformed(domain={
        "variant": "polydisc", "n": 2, "center": [[0, 0], [0, 0]],
        "radii": [1.0, float("nan")]}), 1, "polydisc center and radii must be finite"),
    "domain_n_not_integer": (_malformed(domain={**BALL2, "n": 2.5}), 1, "domain n"),
    "halfspace_inf_offset": (_malformed(domain={
        **STRIP, "constraints": [{"a": [[1, 0], [0, 0]], "b": float("inf")}]}), 1,
        "halfspace constraints must be finite"),
    "oracle_inf_search_radius": (_malformed(domain={
        "variant": "oracle", "n": 2, "class": "c_convex",
        "predicate": "symmetrized_bidisc", "search_radius": float("inf")}), 1,
        r"unknown oracle keys: \['search_radius'\]"),
    "oracle_refine_iters": (_malformed(domain={
        "variant": "oracle", "n": 2, "class": "c_convex",
        "predicate": "symmetrized_bidisc", "refine_iters": 3}), 1, "refine_iters"),
    "points_not_an_object": (_malformed(points=[]), 1, "points must be an object"),
    "sampler_not_an_object": (_malformed(points={"sampler": [1]}), 1, "sampler an object"),
    "explicit_not_a_list": (_malformed(points={"explicit": 5}), 1, "explicit must be a list"),
    "count_not_integer": (_malformed(points={"sampler": {"count": "x"}}), 1,
                          "sampler count"),
    "seed_negative": (_malformed(points={"sampler": {"count": 1, "seed": -3}}), 1,
                      "sampler seed"),
    "explicit_point_nan": (_malformed(points={
        "explicit": [[[float("nan"), 0.0], [0.0, 0.0]]]}), 1, "non-finite coordinates"),
    "box_nan_radius": (_malformed(points={"sampler": {"count": 1, "box": {
        "center": [[0, 0], [0, 0]], "radii": [1.0, float("nan")]}}}), 1, "sampler box"),
    "checks_not_a_list": (_malformed(checks="theorem_ge"), 1, "checks must be a list"),
    "corollary_q_removed": (_malformed(checks=["theorem_ge", "corollary_q"]), 1,
                            r"unknown checks: \['corollary_q'\]"),
    "ratio_removed": (_malformed(checks=["theorem_ge", "ratio"]), 1,
                      r"unknown checks: \['ratio'\]"),
    "unknown_tolerance": (_malformed(tolerances={"chek_tol": 1e-9}), 1,
                          r"unknown tolerances: \['chek_tol'\]"),
    "support_samples_removed": (_malformed(tolerances={"support_samples": 1000}), 1,
                                r"unknown tolerances: \['support_samples'\]"),
    "base_slack_removed": (_malformed(tolerances={"base_slack": 1e-9}), 1,
                           r"unknown tolerances: \['base_slack'\]"),
    "verify_samples_removed": (_malformed(tolerances={"verify_samples": 2000}), 1,
                               r"unknown tolerances: \['verify_samples'\]"),
    "max_degree_removed": (_malformed(tolerances={"max_degree": 40}), 1,
                           r"unknown tolerances: \['max_degree'\]"),
    "tolerance_not_a_number": (_malformed(tolerances={"check_tol": "tight"}), 1,
                               "tolerance 'check_tol'"),
    "workers_zero": (_malformed(), 0, "workers"),
    "sampler_key_typo": (_malformed(points={"sampler": {"cuont": 3}}), 1,
                         r"unknown points.sampler keys: \['cuont'\]"),
    "scenario_key_typo": (_malformed(chekcs=["theorem_ge"]), 1,
                          r"unknown scenario keys: \['chekcs'\]"),
    "points_key_typo": (_malformed(points={"samplr": {"count": 2}}), 1,
                        r"unknown points keys: \['samplr'\]"),
    "polydisc_scale": (_malformed(domain={
        "variant": "polydisc", "n": 2, "center": [[0, 0], [0, 0]], "radii": [1.0, 1.0],
        "scale": 2.0}), 1, r"unknown polydisc keys: \['scale'\]"),
    "l1_radii": (_malformed(domain={"variant": "l1ball", "n": 2, "scale": 1.0,
                                    "radii": [1.0, 1.0]}), 1,
                 r"unknown l1ball keys: \['radii'\]"),
    "box_extra_key": (_malformed(points={"sampler": {"count": 1, "box": {
        "center": [[0, 0], [0, 0]], "radii": [1.0, 1.0], "shape": "disc"}}}), 1,
        r"unknown sampler box keys: \['shape'\]"),
    "constraint_extra_key": (_malformed(domain={
        **STRIP, "constraints": [{"a": [[1, 0], [0, 0]], "b": 1.0, "strict": True}]}), 1,
        r"unknown halfspace constraint keys: \['strict'\]"),
    "duplicate_checks": (_malformed(checks=["theorem_ge", "theorem_ge"]), 1,
                         "duplicate checks"),
    # a ball image is convex: the C-convex constants would not apply to it
    "ball_image_c_convex": (_malformed(domain={**BALL2, "class": "c_convex"}), 1,
                            "a 'ball_image' domain is convex, not 'c_convex'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_is_config_invalid(case, tmp_path, capsys):
    config, workers, reason = MALFORMED[case]
    with pytest.raises(ConfigInvalid, match=reason):
        run_scenario(config, workers=workers)
    path = write_config(tmp_path, config)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "r.json"),
                 "--workers", str(workers)]) == 1
    assert "ConfigInvalid" in capsys.readouterr().err


def test_applicable_checks_by_domain():
    assert set(applicable_checks(unit_ball(2))) == set(ALL_CHECKS)
    bidisc_checks = applicable_checks(symmetrized_bidisc())
    assert "normalization" not in bidisc_checks  # no supporting hyperplanes
    assert "corollary_v" in bidisc_checks  # bounded via enclosing polydisc


def test_rigged_tolerance_reports_failures():
    # tightening the pass threshold flips margins to failures without any
    # mathematical violation: the plumbing for red reports
    cfg = ball_config(count=3)
    cfg["tolerances"] = {"check_tol": -100.0}
    rep = run_scenario(cfg, workers=1, seed=29)
    assert rep["summary"]["failures"] > 0


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def test_emit_json_round_trips(tmp_path):
    rep = run_scenario(ball_config(count=3), workers=1, seed=31)
    out = tmp_path / "rep.json"
    emit_json(rep, out)
    back = json.loads(out.read_text())
    assert back["summary"] == json.loads(json.dumps(rep["summary"]))


def test_emit_csv_columns_and_ball_identity(tmp_path):
    # radial sweep: the v * p_D^2 column must equal 1/(1+|z|)^2 row by row
    radii = np.linspace(0.0, 0.9, 10)
    cfg = {
        "name": "sweep",
        "domain": BALL2,
        "points": {"explicit": [[[float(r), 0.0], [0.0, 0.0]] for r in radii]},
        "checks": ["theorem_ge"],
    }
    rep = run_scenario(cfg, workers=1, seed=0)
    out = tmp_path / "sweep.csv"
    emit_csv(rep, out)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    expected_cols = {"domain_id", "point_index", "abs_z", "z1_re", "z1_im",
                     "z2_re", "z2_im", "tau_1", "tau_2", "p_D", "check", "lo",
                     "hi", "oracle_v", "v_pd_sq", "margin", "passed",
                     "approximate"}
    assert set(rows[0].keys()) == expected_cols
    for row, r in zip(rows, radii):
        assert float(row["abs_z"]) == pytest.approx(r, abs=1e-12)
        assert float(row["v_pd_sq"]) == pytest.approx((1 + r) ** -2, rel=1e-9)
        assert row["check"] == "theorem_ge"
        assert row["passed"] == "1"


def test_csv_and_json_agree(tmp_path):
    cfg = ball_config(count=4, checks=["theorem_ge", "monotonicity"])
    rep = run_scenario(cfg, workers=1, seed=37)
    jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
    emit_json(rep, jpath)
    emit_csv(rep, cpath)
    with open(cpath, newline="") as fh:
        rows = list(csv.DictReader(fh))
    jrep = json.loads(jpath.read_text())
    assert len(rows) == 4 * 2
    for row in rows:
        point = jrep["points"][int(row["point_index"])]
        chk = point["checks"][row["check"]]
        assert float(row["margin"]) == pytest.approx(chk["margin"], rel=1e-12)
        assert (row["passed"] == "1") == chk["pass"]
        interval = point["intervals"][
            {"theorem_ge": "certified", "monotonicity": "monotonicity"}[row["check"]]]
        assert [float(row["lo"]), float(row["hi"])] == interval
    # a polydisc has no exact volume element: its default checks run no
    # monotonicity, whose overlap with the certified interval is theorem_ge's
    polydisc = json.loads((Path(__file__).parent / "golden" / "polydisc.config.json").read_text())
    emit_csv(run_scenario(polydisc, workers=1), cpath)
    with open(cpath, newline="") as fh:
        checks = {row["check"] for row in csv.DictReader(fh)}
    assert "theorem_ge" in checks
    assert not checks & {"corollary_q", "monotonicity"}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_cli_run_green_exit_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, ball_config(count=4))
    out = tmp_path / "rep.json"
    code = main(["run", "--config", str(cfg), "--out", str(out),
                 "--csv", str(tmp_path / "rep.csv"), "--seed", "41"])
    assert code == 0
    assert out.exists()
    assert (tmp_path / "rep.csv").exists()
    assert "0 failures" in capsys.readouterr().out


def test_cli_run_red_exit_two(tmp_path, capsys):
    cfg_data = ball_config(count=2)
    cfg_data["tolerances"] = {"check_tol": -100.0}
    cfg = write_config(tmp_path, cfg_data)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_cli_run_unrunnable_checks_exit_zero(tmp_path, capsys):
    # an unbounded tube asked for every check: the Bergman checks and
    # corollary_v cannot run there; the C-convex bidisc has no supporting
    # normals for the normalization checks.  Neither is a falsification
    tube = Path(__file__).parent / "golden" / "halfspace_tube.config.json"
    bidisc = write_config(tmp_path, {
        "name": "bidisc", "domain": domain_to_json(symmetrized_bidisc()),
        "points": {"explicit": [[[0.2, 0.1], [0.05, -0.02]]]},
        "checks": ["normalization", "lemma_inclusion"]}, name="bidisc.json")

    def run_checks(config):
        out = tmp_path / "r.json"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        return [c for r in json.loads(out.read_text())["points"]
                for c in r["checks"].values()]

    checks = run_checks(tube)
    assert any("skipped" in c for c in checks)
    assert all(c["pass"] is not False for c in checks)
    checks = run_checks(bidisc)
    assert len(checks) == 2
    assert all(c["pass"] is None and c["skipped"] for c in checks)


def test_cli_bad_config_exit_one(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing),
                 "--out", str(tmp_path / "r.json")]) == 1
    garbled = write_config(tmp_path, {"domain": {"variant": "nope", "n": 2}},
                           name="bad.json")
    assert main(["run", "--config", str(garbled),
                 "--out", str(tmp_path / "r.json")]) == 1


def test_cli_rejected_domain_exit_one(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "name": "strip", "domain": STRIP,
        "points": {"explicit": [[[0.0, 0.0], [0.0, 0.0]]]},
        "checks": ["theorem_ge"]})
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "r.json")]) == 1


def test_cli_constants_frozen_values(capsys):
    assert main(["constants", "--n", "2"]) == 0
    out = capsys.readouterr().out
    values = {}
    for line in out.strip().splitlines():
        key, _, val = line.partition(" = ")
        values[key.strip()] = float(val)
    assert values["c_n"] == pytest.approx(np.sqrt(5), rel=1e-15)
    assert values["mu_n"] == pytest.approx(1 / 1600, rel=1e-12)
    assert values["nu_n"] == pytest.approx(1 / 25600, rel=1e-12)
    assert values["v_pd2_lower_convex"] == pytest.approx(1 / 64, rel=1e-15)
    assert values["v_pd2_upper"] == pytest.approx(25.0, rel=1e-15)


def test_cli_check_lemma(capsys):
    assert main(["check-lemma", "--n", "2", "--trials", "25"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
