"""Scenario runner: domain + sampled points -> pipeline -> report.

A scenario is a JSON document:

    {
      "name": "ball-sweep",
      "domain": { "variant": "ball_image", "n": 2, ... , "class": "convex" },
      "points": {
        "explicit": [ [[0.5, 0.0], [0.0, 0.0]], ... ],
        "sampler": { "count": 100, "seed": 7,
                     "box": {"center": [[0,0],[0,0]], "radii": [1, 1]} }
      },
      "checks": ["theorem_ge", "monotonicity"],        // default: all applicable
      "tolerances": { "check_tol": 1e-9 }              // the only tolerance
    }

Every check produces a margin; negative margin = violation.  Violations and
per-point errors are data (report entries), never aborts — the one exception
is a degenerate domain detected at the first point, which rejects the run.
The report is deterministic for a fixed config+seed (timing lives in a single
"timing" block that comparisons are expected to drop).
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import bergman as bg
from .domains import (
    Domain,
    circumscribed_radius,
    contains,
    diameter,
    domain_from_json,
    domain_to_json,
    exact_volume_element,
    polydisc_box,
    reject_unknown_keys,
    sample_interior,
)
from .errors import (
    ConfigInvalid,
    DomainRejected,
    HolovolError,
    IoFailure,
    TailDiverges,
    UnboundedDomain,
    UnsupportedDomain,
)
from .linalg import safe_norm
from .minimal_basis import distance_product, minimal_basis
from .normalization import build_A, verify_normalization
from .volume_elements import (
    bounded_domain_lower_bound,
    certified_interval,
    compound_slack,
    monotonicity_bounds,
    quotient_lower_bound,
)

ALL_CHECKS = (
    "theorem_ge",
    "monotonicity",
    "corollary_v",
    "normalization",
    "lemma_inclusion",
    "bergman_sandwich",
)

DEFAULT_TOLERANCES = {"check_tol": 1e-9}


@dataclass
class Scenario:
    domain: Domain
    domain_json: dict
    name: str = "scenario"
    explicit_points: list = field(default_factory=list)
    sampler_count: int = 0
    sampler_seed: int = 0
    sampler_box: tuple | None = None
    checks: list = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)


def _parse_point(data, n: int) -> np.ndarray:
    try:
        z = np.array([complex(p[0], p[1]) for p in data], dtype=np.complex128)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigInvalid(f"bad point {data!r}: {exc}") from exc
    if z.shape != (n,):
        raise ConfigInvalid(f"point has {z.shape[0]} coordinates, domain has {n}")
    if not np.all(np.isfinite(z)):
        raise ConfigInvalid(f"point {data!r} has non-finite coordinates")
    return z


def _number(value, what: str, kind=numbers.Real, minimum=-math.inf):
    """`value` if it is a finite `kind` (bool excluded) >= minimum, else ConfigInvalid."""
    if isinstance(value, bool) or not isinstance(value, kind) or not minimum <= value < math.inf:
        at_least = f" >= {minimum}" if minimum > -math.inf else ""
        raise ConfigInvalid(f"{what} must be a finite {kind.__name__.lower()} number"
                            f"{at_least}, got {value!r}")
    return value


def _tolerances(data) -> dict:
    if not isinstance(data, dict):
        raise ConfigInvalid("tolerances must be an object")
    unknown = sorted(set(data) - set(DEFAULT_TOLERANCES))
    if unknown:
        raise ConfigInvalid(f"unknown tolerances: {unknown}")
    return {**DEFAULT_TOLERANCES,
            **{key: _number(value, f"tolerance {key!r}") for key, value in data.items()}}


def parse_scenario(config: dict) -> Scenario:
    if not isinstance(config, dict):
        raise ConfigInvalid("scenario config must be a JSON object")
    reject_unknown_keys(config, ("name", "domain", "points", "checks", "tolerances"),
                        "scenario")
    if "domain" not in config:
        raise ConfigInvalid("scenario config needs a 'domain' entry")
    domain = domain_from_json(config["domain"])
    n = domain.n
    pts_cfg = config.get("points", {})
    if not isinstance(pts_cfg, dict):
        raise ConfigInvalid("points must be an object")
    explicit_cfg, sampler = pts_cfg.get("explicit", []), pts_cfg.get("sampler") or {}
    if not isinstance(explicit_cfg, list) or not isinstance(sampler, dict):
        raise ConfigInvalid("points.explicit must be a list and points.sampler an object")
    reject_unknown_keys(pts_cfg, ("explicit", "sampler"), "points")
    reject_unknown_keys(sampler, ("count", "seed", "box"), "points.sampler")
    explicit = [_parse_point(p, n) for p in explicit_cfg]
    count = int(_number(sampler.get("count", 0), "sampler count", numbers.Integral, 0))
    seed = int(_number(sampler.get("seed", 0), "sampler seed", numbers.Integral, 0))
    box = None
    if "box" in sampler:
        b = sampler["box"]
        try:
            reject_unknown_keys(b, ("center", "radii"), "sampler box")
            center = np.array([complex(p[0], p[1]) for p in b["center"]])
            radii = np.asarray(b["radii"], dtype=float)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ConfigInvalid(f"bad sampler box: {exc}") from exc
        if (center.shape != (n,) or radii.shape != (n,) or not np.all(np.isfinite(center))
                or not np.all((radii > 0) & (radii < math.inf))):
            raise ConfigInvalid("sampler box needs n finite centers and n positive finite radii")
        box = polydisc_box(center, radii)
    checks = config.get("checks")
    if checks is not None:
        if not isinstance(checks, list):
            raise ConfigInvalid(f"checks must be a list of names, got {checks!r}")
        bad = sorted({str(c) for c in checks} - set(ALL_CHECKS))
        if bad:
            raise ConfigInvalid(f"unknown checks: {bad}")
        if len(set(checks)) < len(checks):
            raise ConfigInvalid(f"duplicate checks: {checks}")
    tol = _tolerances(config.get("tolerances", {}))
    return Scenario(
        domain=domain,
        domain_json=config["domain"],
        name=str(config.get("name", "scenario")),
        explicit_points=explicit,
        sampler_count=count,
        sampler_seed=seed,
        sampler_box=box,
        checks=list(checks) if checks is not None else [],
        tolerances=tol,
    )


def applicable_checks(domain: Domain) -> list:
    checks = ["theorem_ge"]
    if domain.exact_oracle is not None:
        checks.append("monotonicity")
    if math.isfinite(diameter(domain)):
        checks.append("corollary_v")
    if domain.supports_normals:
        checks += ["normalization", "lemma_inclusion"]
    if domain.variant in bg.REINHARDT_MOMENTS or domain.exact_oracle is not None:
        checks.append("bergman_sandwich")
    return checks


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return [[float(c.real), float(c.imag)] for c in obj.ravel()]
        return [float(x) for x in obj.ravel()]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _error(exc: HolovolError) -> dict:
    return {"type": type(exc).__name__, "message": str(exc),
            "witness": _jsonable(exc.witness)}


def _point_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def _once(compute):
    """Memoize a zero-argument computation, including a HolovolError it raises,
    so that checks sharing an artifact compute it once per point."""
    memo = []

    def get():
        if not memo:
            try:
                memo.append((compute(), None))
            except HolovolError as exc:
                memo.append((None, exc))
        value, exc = memo[0]
        if exc is not None:
            raise exc
        return value

    return get


def _kernel_value(domain: Domain, z) -> bg.BergmanValue:
    try:
        return bg.bergman_closed(domain, z)
    except UnsupportedDomain:
        return bg.bergman_reinhardt(domain, z)


def evaluate_point(domain: Domain, z: np.ndarray, checks, tol, seed: int) -> dict:
    """Full pipeline at one point; HolovolErrors become the 'error' field."""
    rec = {"z": _jsonable(z), "abs_z": safe_norm(z)}
    check_tol = float(tol["check_tol"])
    try:
        basis = minimal_basis(domain, z)
    except HolovolError as exc:
        rec["error"] = _error(exc)
        return rec
    n = basis.n
    pD = distance_product(basis)
    if not sys.float_info.min <= pD * pD <= sys.float_info.max:
        rec["error"] = _error(UnsupportedDomain(
            f"distance product p_D = {pD:g}: p_D^2 leaves the normal double range"))
        return rec
    cls = domain.convexity_class
    rec.update(taus=[float(t) for t in basis.taus], p_D=pD,
               approximate=basis.approximate, methods=list(basis.methods))
    cert = certified_interval(cls, n, pD, tau_rel_err=basis.tau_rel_err)
    R = circumscribed_radius(domain, z)
    mono = monotonicity_bounds(basis, R)
    rec["intervals"] = {"certified": list(cert.as_pair()),
                        "monotonicity": list(mono.as_pair())}
    try:
        v = exact_volume_element(domain, z)
    except UnsupportedDomain:
        v = None
    rec["oracle_v"] = v
    rec["v_pd_sq"] = (v * pD * pD) if v is not None else None
    exact = v is not None and math.isfinite(v)

    @_once
    def normalized():
        norm = build_A(domain, basis)
        margins = verify_normalization(domain, basis, norm, seed=seed + 1)
        return norm, margins

    results = {}

    def record(name, margin, *, mode=None, **extra):
        if margin == math.inf:  # read off ends saturated to +inf, it could not fail
            raise UnsupportedDomain("saturated")
        entry = {"margin": float(margin), "pass": bool(margin >= -check_tol)}
        if mode:
            entry["mode"] = mode
        entry.update({k: _jsonable(val) for k, val in extra.items()})
        results[name] = entry

    for name in checks:
        try:
            if name == "theorem_ge":
                if exact:
                    record(name, cert.containment_margin(v), mode="containment")
                else:
                    record(name, cert.intersection_margin(mono), mode="intersection")
            elif name == "monotonicity":
                if not exact:
                    raise UnsupportedDomain(
                        "no finite exact volume element: the overlap of the two "
                        "intervals is theorem_ge's margin")
                record(name, mono.containment_margin(v), mode="containment")
            elif name == "corollary_v":
                bound = bounded_domain_lower_bound(cls, n, diameter(domain))
                if exact:
                    record(name, v - bound, mode="containment", bound=bound)
                else:
                    record(name, min(cert.hi, mono.hi) - bound, mode="consistency",
                           bound=bound)
            elif name == "normalization":
                norm, margins = normalized()
                alpha_margin = 1.0 + 1e-4 - norm.alpha_max
                margin = min(margins["halfspace_margin"], alpha_margin)
                record(name, margin, alpha_max=norm.alpha_max,
                       **{k: val for k, val in margins.items() if not k.startswith("lemma_")})
            elif name == "lemma_inclusion":
                record(name, normalized()[1]["lemma_margin"], mode=normalized()[1]["lemma_mode"])
            elif name == "bergman_sandwich":
                K = _kernel_value(domain, z)
                slack = compound_slack(basis.tau_rel_err, n)
                res = bg.kernel_sandwich_check(cls, n, K, pD, slack=slack)
                record(name, min(res["lower_margin"], res["upper_margin"]),
                       K=K.value, K_truncation=K.truncation_error,
                       product=[res["product_lo"], res["product_hi"]],
                       band=list(res["band"]))
        except (TailDiverges, UnboundedDomain, UnsupportedDomain) as exc:
            # the backend cannot run this check: nothing was falsified
            results[name] = {"margin": None, "pass": None, "skipped": str(exc)}
        except HolovolError as exc:
            results[name] = {"margin": None, "pass": False, "error": _error(exc)}
    rec["checks"] = results
    return rec


# worker entry point: rebuild the domain from JSON once per process
_WORKER_DOMAINS: dict = {}


def _eval_task(args):
    domain_json_str, z_pairs, checks, tol, seed = args
    domain = _WORKER_DOMAINS.get(domain_json_str)
    if domain is None:
        domain = domain_from_json(json.loads(domain_json_str))
        _WORKER_DOMAINS[domain_json_str] = domain
    z = np.array([complex(a, b) for a, b in z_pairs], dtype=np.complex128)
    return evaluate_point(domain, z, checks, tol, seed)


def _sample_points(scenario: Scenario) -> list:
    # the sampler seed is part of the scenario definition: the point set is
    # fixed by the config, while the run seed only drives check-internal RNG
    if scenario.sampler_count <= 0:
        return []
    rng = np.random.default_rng(
        np.random.SeedSequence((scenario.sampler_seed, 0x5A39)))
    pts = sample_interior(scenario.domain, scenario.sampler_count, rng,
                          box=scenario.sampler_box)
    return [pts[i] for i in range(pts.shape[0])]


def run_scenario(config, *, workers: int = 1, seed: int | None = None) -> dict:
    """Execute a scenario (JSON dict or parsed Scenario) and build the report."""
    t0 = time.perf_counter()
    workers = int(_number(workers, "workers", numbers.Integral, 1))
    scenario = parse_scenario(config) if isinstance(config, dict) else config
    domain = scenario.domain
    eff_seed = int(seed) if seed is not None else scenario.sampler_seed
    for i, z in enumerate(scenario.explicit_points):
        if not contains(domain, z):
            raise ConfigInvalid(f"explicit point {i} is outside the domain")
    points = list(scenario.explicit_points) + _sample_points(scenario)
    checks = scenario.checks or applicable_checks(domain)
    tol = {**DEFAULT_TOLERANCES, **scenario.tolerances}

    records = []
    if points:
        # degeneracy gate: the first point runs synchronously
        first = evaluate_point(domain, points[0], checks, tol,
                               _point_seed(eff_seed, 0))
        err = first.get("error", {})
        if err.get("type") == "DegenerateDomain":
            raise DomainRejected(
                f"domain rejected at the first point: {err.get('message')}",
                witness=err.get("witness"))
        records.append(first)
        rest = list(enumerate(points))[1:]
        if workers > 1 and rest:
            djson = json.dumps(domain_to_json(domain), sort_keys=True)
            tasks = [(djson, [(zz.real, zz.imag) for zz in z], checks, tol,
                      _point_seed(eff_seed, i)) for i, z in rest]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                records.extend(pool.map(_eval_task, tasks))
        else:
            for i, z in rest:
                records.append(evaluate_point(domain, z, checks, tol,
                                              _point_seed(eff_seed, i)))
    for i, rec in enumerate(records):
        rec["index"] = i

    failures = sum(
        1 for r in records for c in r.get("checks", {}).values()
        if c.get("pass") is False)
    errors = sum(1 for r in records if "error" in r)
    min_margins = {}
    for name in checks:
        vals = [r["checks"][name]["margin"] for r in records
                if "checks" in r and name in r["checks"]
                and r["checks"][name]["margin"] is not None]
        min_margins[name] = min(vals) if vals else None
    report = {
        "provenance": {
            "config_hash": hashlib.sha256(
                json.dumps(config if isinstance(config, dict) else scenario.domain_json,
                           sort_keys=True, separators=(",", ":")).encode()).hexdigest(),
            "seed": eff_seed,
            "version": __version__,
        },
        "name": scenario.name,
        "domain": scenario.domain_json,
        "checks": list(checks),
        "summary": {
            "points": len(records),
            "failures": failures,
            "errors": errors,
            "min_margins": min_margins,
            "approximate": any(r.get("approximate") for r in records),
            # (class, n) constants, not checks: bergman_sandwich implies v/K meets the band
            "quotient_lower_bound": quotient_lower_bound(domain.convexity_class, domain.n),
            "ratio_band": list(bg.ratio_band(domain.convexity_class, domain.n)),
        },
        "points": records,
        "timing": {"runtime_s": time.perf_counter() - t0},
    }
    return report


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def emit_json(report: dict, path: str) -> None:
    try:
        # json.dumps without indent takes the C encoder; json.dump never does
        text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write report to {path}: {exc}") from exc


def emit_csv(report: dict, path: str) -> None:
    """One row per (point, check); abs_z and v*p_D^2 columns make the radial
    sweeps plot-ready without reprocessing the JSON."""
    import csv

    n = 0
    for p in report["points"]:
        if "taus" in p:
            n = len(p["taus"])
            break
    interval_of = {"theorem_ge": "certified", "monotonicity": "monotonicity"}
    zcols = []
    if report["points"]:
        k = len(report["points"][0]["z"])
        zcols = [f"z{i + 1}_{part}" for i in range(k) for part in ("re", "im")]
    header = (["domain_id", "point_index", "abs_z"] + zcols
              + [f"tau_{j + 1}" for j in range(n)]
              + ["p_D", "check", "lo", "hi", "oracle_v", "v_pd_sq",
                 "margin", "passed", "approximate"])
    try:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(header)
            for rec in report["points"]:
                flat_z = [x for pair in rec["z"] for x in pair]
                base = ([report["name"], rec["index"], _fmt(rec["abs_z"])]
                        + [_fmt(x) for x in flat_z])
                taus = rec.get("taus", [""] * n)
                if "error" in rec:
                    wr.writerow(base + [_fmt(t) for t in taus]
                                + ["", "error", "", "", "", "",
                                   "", "0", ""]
                                )
                    continue
                for name, entry in rec["checks"].items():
                    lo, hi = (rec["intervals"][interval_of[name]] if name in interval_of
                              else entry.get("band", ("", "")))
                    wr.writerow(
                        base + [_fmt(t) for t in taus]
                        + [_fmt(rec["p_D"]), name, _fmt(lo), _fmt(hi),
                           _fmt(rec["oracle_v"]), _fmt(rec["v_pd_sq"]),
                           _fmt(entry.get("margin")), _fmt(entry.get("pass")),
                           _fmt(rec.get("approximate"))])
    except OSError as exc:
        raise IoFailure(f"cannot write CSV to {path}: {exc}") from exc
