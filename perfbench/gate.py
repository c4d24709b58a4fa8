"""Correctness gate: checks a run's reports without the harness's check code.

Three checks; any problem marks the run invalid:

* the report minus ``timing`` is byte-identical between the traced and the
  untraced run of the same scenario;
* on ball-image and Siegel scenarios, ``v`` recomputed with
  ``exact_volume_element`` matches the report, and ``v * p_D^2`` lies in
  ``ge_constants("convex", n)`` widened by ``compound_slack``;
* every gated tau is within ``TAU_GATE`` of an exact reference: the
  underlying ball image's quadric taus for ellipsoid oracles, and closed
  forms computed here for polytopes and l1 balls (see :func:`reference_taus`).
  All taus of polytopes and l1 balls are gated; of ellipsoid oracles only
  tau_1, see ``TAU_GATE``.

Check failures recorded inside reports are data, not gate failures.
"""

from __future__ import annotations

import json
import math

import numpy as np

from holovol.domains import domain_from_json, exact_volume_element
from holovol.minimal_basis import EPS_CLOSED, minimal_basis
from holovol.volume_elements import compound_slack, ge_constants

#: a gated tau further than this from its exact reference is a wrong answer.
#: tau_1 is a distance in all of C^n, so its error is the search's own
#: (declared 1e-4).  Later taus live in the complement of the computed
#: directions.  Polytopes and l1 balls get those directions in closed form,
#: so every tau is comparable; ellipsoid oracles get them from the polar
#: search, and a direction off by an angle a moves tau_2 by O(a) while tau_1
#: moves by O(a^2), or by much more where the nearest boundary point is
#: nearly non-unique (baseline: tau_1 off by 7.6e-5 with tau_2 off by 0.11).
#: Those later taus are scored (tau_rel_err_max, tau_err_digits), not gated.
TAU_GATE = 1e-2
_FIRST_TAU_ONLY = ("ellipsoid_oracle",)
#: relative agreement required between reported and recomputed v, v*p_D^2
V_REL_TOL = 1e-9
#: relative errors below this are below the benchmark's resolution
TAU_ERR_FLOOR = 1e-16

_EXACT_V_VARIANTS = ("ball_image", "siegel")
SCORED_KINDS = ("ellipsoid_oracle", "l1ball", "polytope")


def canonical(report: dict | None) -> str:
    """The report minus its non-deterministic ``timing`` block, as JSON text
    (``null`` for a scenario that raised)."""
    if report is None:
        return "null"
    return json.dumps({k: v for k, v in report.items() if k != "timing"},
                      sort_keys=True)


def compare_runs(untraced: list, traced: list) -> list:
    """Problems where two runs of the same scenarios differ outside timing."""
    problems = []
    if len(untraced) != len(traced):
        problems.append(f"traced run has {len(traced)} reports, untraced {len(untraced)}")
    for i, (a, b) in enumerate(zip(untraced, traced)):
        if canonical(a) != canonical(b):
            problems.append(f"scenario {i}: traced and untraced reports differ")
    return problems


def _z(rec) -> np.ndarray:
    return np.array([complex(re, im) for re, im in rec["z"]], dtype=np.complex128)


def _phase(x: complex) -> complex:
    return x / abs(x) if abs(x) > 0 else 1.0 + 0j


def _orth(d: np.ndarray) -> np.ndarray:
    """Unit vector of C^2 orthogonal to the unit vector d."""
    return np.array([-np.conj(d[1]), np.conj(d[0])])


def _polytope_taus(cfg: dict, z: np.ndarray) -> np.ndarray:
    """tau_1 = min b_i / |a_i| over slacks; tau_2 on the complement of the
    nearest facet normal: min b_i / |<a_i, v>|."""
    a = np.array([[complex(*c) for c in con["a"]] for con in cfg["constraints"]])
    beta = np.array([con["b"] for con in cfg["constraints"]]) - (a.conj() @ z).real
    norms = np.linalg.norm(a, axis=1)
    i = int(np.argmin(beta / norms))
    v = _orth(a[i] / norms[i])
    proj = np.abs(a @ v.conj())
    with np.errstate(divide="ignore"):
        tau2 = np.min(np.where(proj > 1e-12 * norms, beta / proj, np.inf))
    return np.array([beta[i] / norms[i], tau2])


def _l1_exit_radius(z, w, s, hi):
    """Root r of sum_j |z_j + r w_j| = s per row of w (convex in r), by bisection."""
    lo, hi = np.zeros(w.shape[0]), np.full(w.shape[0], hi)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        inside = np.sum(np.abs(z[None, :] + mid[:, None] * w), axis=1) < s
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    return 0.5 * (lo + hi)


def _l1_taus(cfg: dict, z: np.ndarray) -> np.ndarray:
    """tau_1 = (s - |z|_1)/sqrt(2) towards the phases of z; tau_2 is the least
    exit radius over directions e^{i theta} v of the complementary line, on a
    4096-point theta grid zoomed in around the minimum until the bracket is
    below 1e-14."""
    s = float(cfg["scale"])
    tau1 = (s - float(np.sum(np.abs(z)))) / math.sqrt(2.0)
    v = _orth(np.array([_phase(c) for c in z]) / math.sqrt(2.0))
    theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    step = theta[1] - theta[0]
    while True:
        r = _l1_exit_radius(z, np.exp(1j * theta)[:, None] * v[None, :], s, 2.0 * s + 2.0)
        best = theta[int(np.argmin(r))]
        if step < 1e-14:
            return np.array([tau1, float(r.min())])
        theta = np.linspace(best - step, best + step, 65)
        step = theta[1] - theta[0]


def reference_taus(entry: dict, z: np.ndarray) -> np.ndarray:
    """Exact taus for the domain of a scored entry at z.

    Scored domains are those whose taus the program computes by a different
    route than the reference: ellipsoid oracles (polar search vs the quadric
    backend), l1 balls (closed form then polar search on a non-aligned
    complex line) and polytopes (closed form, checked against the formulas
    above).
    """
    kind, domain = entry["kind"], entry["config"]["domain"]
    if kind == "ellipsoid_oracle":
        return minimal_basis(domain_from_json(domain), z).taus
    if kind == "l1ball":
        return _l1_taus(domain, z)
    return _polytope_taus(domain, z)


def tau_errors(entry: dict, report: dict) -> list:
    """Per scored point, |tau_j - tau_j_exact| / tau_j_exact for each j."""
    if entry["kind"] not in SCORED_KINDS:
        return []
    return [np.abs(np.asarray(rec["taus"]) - exact) / exact
            for rec in report["points"] if "taus" in rec
            for exact in [reference_taus(entry, _z(rec))]]


def _v_problems(entry: dict, report: dict) -> list:
    if report["domain"]["variant"] not in _EXACT_V_VARIANTS:
        return []
    domain = domain_from_json(entry["config"]["domain"])
    n = domain.n
    lo, hi = ge_constants("convex", n)
    slack = compound_slack(EPS_CLOSED, n, 1e-9)
    problems = []
    for rec in report["points"]:
        if "taus" not in rec:
            continue
        where = f"{report['name']} point {rec['index']}"
        v = exact_volume_element(domain, _z(rec))
        pD = float(np.prod(rec["taus"]))
        if not math.isclose(rec["p_D"], pD, rel_tol=1e-12):
            problems.append(f"{where}: p_D {rec['p_D']!r} is not the product of its taus")
        if rec["oracle_v"] is None or not math.isclose(rec["oracle_v"], v, rel_tol=V_REL_TOL):
            problems.append(f"{where}: v {rec['oracle_v']!r}, recomputed {v!r}")
        vpd = v * pD * pD
        if rec["v_pd_sq"] is None or not math.isclose(rec["v_pd_sq"], vpd, rel_tol=V_REL_TOL):
            problems.append(f"{where}: v*p_D^2 {rec['v_pd_sq']!r}, recomputed {vpd!r}")
        if not lo * (1.0 - slack) <= vpd <= hi * (1.0 + slack):
            problems.append(f"{where}: v*p_D^2 = {vpd!r} outside [{lo!r}, {hi!r}]")
    return problems


def check_reports(items: list) -> tuple:
    """Gate the (entry, report) pairs.

    Returns (problems, errors): one error per scored point, the max over j of
    its relative tau errors, floored at ``TAU_ERR_FLOOR``.
    """
    problems, errs = [], []
    for entry, report in items:
        problems += _v_problems(entry, report)
        for err in tau_errors(entry, report):
            gated = err[:1] if entry["kind"] in _FIRST_TAU_ONLY else err
            if np.any(gated > TAU_GATE):
                problems.append(f"{report['name']}: tau errors {err.tolist()} beyond {TAU_GATE:g}")
            errs.append(max(float(np.max(err)), TAU_ERR_FLOOR))
    return problems, errs
