"""Seeded scenario generators for the three benchmark workloads.

Each workload is an endless stream of scenario entries drawn from the run's
``--seed``; entry ``i`` depends only on ``(seed, workload, i)``, so a prefix of
the stream is the same on every run of one seed.  An entry is plain JSON data
(numpy only, no holovol imports), and :func:`run_input` turns it into what
``holovol run`` would hand to ``run_scenario``.

* ``oracle_polar``: the named symmetrized-bidisc oracle (C-convex, n=2),
  timed; plus a fixed panel of random convex ellipsoids of C^2 that the
  harness sees only through a membership predicate, scored (see
  :func:`panel`).
* ``polytope_normalize``: bounded polytopes of C^2 from five centred Gaussian
  facet normals with offsets U(0.5, 2), two points each.
* ``smooth_mix``: generic ball image (n=3), Siegel half-space (n=2), polydisc
  (n=3), diagonal ellipsoid (n=3) and l1 ball (n=2) in rotation.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("oracle_polar", "polytope_normalize", "smooth_mix")

_WORKLOAD_TAG = {name: i + 1 for i, name in enumerate(WORKLOADS)}

# Points per scenario.  The bidisc is one fixed domain throughout; its
# scenarios differ in their sampled points.
BIDISC_POINTS = 3
ELLIPSOID_POINTS = 2
#: ellipsoid oracles in the oracle_polar panel drawn from PANEL_SEED
PANEL_SIZE = 6
PANEL_SEED = 0
#: known hard cases, kept in the panel so that the defects they show stay
#: measured: (seed, index) names the ellipsoid oracle drawn from
#: ``_rng(seed, "oracle_polar", index)``.  (502, 3) has tau_1 off by 7.6e-5
#: and tau_2 by 0.11, its nearest boundary point being nearly non-unique;
#: (904, 13) has tau_2 off by 4.0e-4, above EPS_POLAR = 1e-4, the largest
#: error among the ellipsoid oracles drawn for seeds 901-910 and odd
#: indices 1-23.
PANEL_EXHIBITS = ((502, 3), (904, 13))
POLYTOPE_POINTS = 2
SMOOTH_POINTS = 4

SMOOTH_KINDS = ("ball_image", "siegel", "polydisc", "diag_ellipsoid", "l1ball")


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((int(seed), _WORKLOAD_TAG[workload], int(index))))


def _c(x) -> list:
    return [float(np.real(x)), float(np.imag(x))]


def _cvec(v) -> list:
    return [_c(x) for x in v]


def _unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _generic_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """U diag(s) W with Haar-like unitaries and singular values in [0.5, 1.5]."""
    s = rng.uniform(0.5, 1.5, size=n)
    return _unitary(n, rng) @ np.diag(s) @ _unitary(n, rng)


def _sampler(rng: np.random.Generator, count: int) -> dict:
    return {"count": count, "seed": int(rng.integers(2 ** 31))}


def _bidisc(index: int, rng: np.random.Generator) -> dict:
    return {"kind": "bidisc", "config": {
        "name": f"bidisc-{index}",
        "domain": {"variant": "oracle", "n": 2, "class": "c_convex",
                   "predicate": "symmetrized_bidisc"},
        "points": {"sampler": _sampler(rng, BIDISC_POINTS)},
    }}


def _ellipsoid_oracle(name: str, rng: np.random.Generator) -> dict:
    M = _generic_matrix(2, rng)
    c = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    return {"kind": "ellipsoid_oracle", "config": {
        "name": name,
        "domain": {"variant": "ball_image", "n": 2,
                   "matrix": [_cvec(row) for row in M], "center": _cvec(c)},
        "points": {"sampler": _sampler(rng, ELLIPSOID_POINTS)},
    }}


def _polytope(index: int, rng: np.random.Generator) -> dict:
    rows = rng.normal(size=(5, 4))
    rows -= rows.mean(axis=0, keepdims=True)
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    normals = rows[:, 0::2] + 1j * rows[:, 1::2]
    offsets = rng.uniform(0.5, 2.0, size=5)
    return {"kind": "polytope", "config": {
        "name": f"polytope-{index}",
        "domain": {"variant": "halfspace", "n": 2,
                   "constraints": [{"a": _cvec(a), "b": float(b)}
                                   for a, b in zip(normals, offsets)]},
        "points": {"sampler": _sampler(rng, POLYTOPE_POINTS)},
    }}


def _smooth(index: int, rng: np.random.Generator) -> dict:
    kind = SMOOTH_KINDS[index % len(SMOOTH_KINDS)]
    if kind == "ball_image":
        M = _generic_matrix(3, rng)
        c = 0.3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        domain = {"variant": "ball_image", "n": 3,
                  "matrix": [_cvec(row) for row in M], "center": _cvec(c)}
    elif kind == "siegel":
        domain = {"variant": "siegel", "n": 2}
    elif kind == "polydisc":
        c = 0.3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        domain = {"variant": "polydisc", "n": 3, "center": _cvec(c),
                  "radii": [float(r) for r in rng.uniform(0.5, 2.0, size=3)]}
    elif kind == "diag_ellipsoid":
        r = rng.uniform(0.5, 2.0, size=3)
        c = 0.3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        domain = {"variant": "ball_image", "n": 3,
                  "matrix": [_cvec(row) for row in np.diag(r)], "center": _cvec(c)}
    else:
        domain = {"variant": "l1ball", "n": 2, "scale": float(rng.uniform(0.5, 2.0))}
    return {"kind": kind, "config": {
        "name": f"{kind}-{index}", "domain": domain,
        "points": {"sampler": _sampler(rng, SMOOTH_POINTS)},
    }}


_GENERATORS = {
    "oracle_polar": _bidisc,
    "polytope_normalize": _polytope,
    "smooth_mix": _smooth,
}


def entry(workload: str, seed: int, index: int) -> dict:
    """Scenario entry ``index`` of the workload's stream for ``seed``."""
    return _GENERATORS[workload](index, _rng(seed, workload, index))


def panel(workload: str) -> list:
    """Scenario entries scored on every run of the workload, whatever the seed.

    oracle_polar's accuracy panel, run after its timed loop: PANEL_SIZE
    ellipsoid oracles drawn from PANEL_SEED, then PANEL_EXHIBITS.  A point's
    tau error varies by about a decade from point to point, so an accuracy
    figure over seeded points moved more between seeds than a tenfold change
    in the search's error would; on one fixed panel it moves only when the
    program does.  Ellipsoid points are not timed: on a shared 2-CPU host
    their cost drifted against the bidisc's by up to 27% between two sets of
    ten runs, more than the machine-speed probe follows.
    """
    if workload != "oracle_polar":
        return []
    # workload tags start at 1, so tag 0 keeps the panel apart from every stream
    drawn = [_ellipsoid_oracle(f"panel-{i}", np.random.default_rng(
        np.random.SeedSequence((PANEL_SEED, 0, i)))) for i in range(PANEL_SIZE)]
    return drawn + [_ellipsoid_oracle(f"panel-seed{seed}-{index}",
                                      _rng(seed, "oracle_polar", index))
                    for seed, index in PANEL_EXHIBITS]


def run_input(ent: dict, parse: bool = False):
    """What the benchmark passes to ``run_scenario`` for one entry.

    Named configs are passed as the JSON dict, as ``holovol run`` does, or
    through ``parse_scenario`` when ``parse`` is set.  The ellipsoid oracle
    has an unnamed predicate, so it is always assembled as a ``Scenario``
    around ``AffineBallImage.contains_many`` with the exact enclosing
    polydisc (row norms of M).
    """
    from holovol import harness
    from holovol.domains import MembershipOracle, domain_from_json

    cfg = ent["config"]
    if ent["kind"] != "ellipsoid_oracle":
        return harness.parse_scenario(cfg) if parse else cfg
    ball = domain_from_json(cfg["domain"])
    oracle = MembershipOracle(
        2, predicate=ball.contains_many, declared_class="convex",
        enclosing_polydisc=(ball.center, np.linalg.norm(ball.matrix, axis=1)))
    sampler = cfg["points"]["sampler"]
    return harness.Scenario(
        domain=oracle,
        domain_json={**cfg["domain"], "variant": "oracle", "class": "convex",
                     "predicate": "ellipsoid"},
        name=cfg["name"], sampler_count=int(sampler["count"]),
        sampler_seed=int(sampler["seed"]),
        tolerances=dict(harness.DEFAULT_TOLERANCES))
