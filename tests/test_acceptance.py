"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints exactly one pass/fail line (visible with pytest -s / -rA);
stated runtime budgets are asserted, not aspirational.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from holovol.bergman import (
    RadialProfile2D,
    ball_kernel,
    bergman_closed,
    bergman_from_moments,
    bergman_reinhardt,
    kernel_sandwich_check,
    ratio_band,
)
from holovol.cli import main
from holovol.domains import (
    AffineBallImage,
    HalfspaceConvex,
    L1Ball,
    Polydisc,
    SiegelHalfSpace,
    cayley,
    circumscribed_radius,
    exact_volume_element,
    sample_interior,
    symmetrized_bidisc,
    unit_ball,
)
from holovol.errors import DegenerateDomain, DomainRejected
from holovol.harness import run_scenario
from holovol.linalg import uniform_ball
from holovol.minimal_basis import distance_product, minimal_basis
from holovol.normalization import (
    beta_excess,
    build_A,
    build_T,
    c_n,
    lemma_margins,
    random_admissible_A,
)
from holovol.volume_elements import (
    certified_interval,
    ge_constants,
    monotonicity_bounds,
    quotient_lower_bound,
)


@contextmanager
def criterion(num, label, budget=None):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        dt = time.perf_counter() - t0
        if budget is not None and dt >= budget:
            raise AssertionError(
                f"runtime {dt:.2f}s exceeds the {budget}s budget")
        ok = True
    finally:
        dt = time.perf_counter() - t0
        print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} "
              f"[{dt:.2f}s]")


# ---------------------------------------------------------------------------
# 1. ball closed-form identity
# ---------------------------------------------------------------------------


def test_criterion_1_ball_closed_form_identity():
    with criterion(1, "ball closed-form identity", budget=5.0):
        for n in (2, 3):
            B = unit_ball(n)
            u = np.zeros(n, dtype=np.complex128)
            u[0] = np.exp(0.37j) / np.sqrt(2)
            u[1] = np.exp(-1.1j) / np.sqrt(2)
            for r in np.linspace(0.0, 0.99, 50):
                z = r * u
                pd = distance_product(minimal_basis(B, z))
                p_ref = (1 - r) * (1 - r * r) ** ((n - 1) / 2)
                assert abs(pd - p_ref) <= 1e-8 * p_ref
                v = exact_volume_element(B, z)
                vp2_ref = (1 + r) ** -2
                assert abs(v * pd * pd - vp2_ref) <= 1e-8 * vp2_ref


# ---------------------------------------------------------------------------
# 2. convex containment on random affine ball images
# ---------------------------------------------------------------------------


def test_criterion_2_convex_containment():
    with criterion(2, "theorem ge convex containment", budget=60.0):
        rng = np.random.default_rng(2024)
        for n in (2, 3):
            lo, hi = ge_constants("convex", n)
            lo_s, hi_s = lo * (1 - 1e-6), hi * (1 + 1e-6)
            for _ in range(500):
                M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                M += (1.5 + np.sqrt(n)) * np.eye(n)
                c = 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
                dom = AffineBallImage(n, matrix=M, center=c)
                z = sample_interior(dom, 1, rng)[0]
                pd = distance_product(minimal_basis(dom, z))
                v = exact_volume_element(dom, z)
                vp2 = v * pd * pd
                assert lo_s <= vp2 <= hi_s, (vp2, lo_s, hi_s)


# ---------------------------------------------------------------------------
# 3. C-convex interval consistency on the symmetrized bidisc
# ---------------------------------------------------------------------------


def test_criterion_3_c_convex_consistency():
    with criterion(3, "theorem ge C-convex consistency", budget=120.0):
        G = symmetrized_bidisc()
        rng = np.random.default_rng(333)
        pts = sample_interior(G, 200, rng)
        for z in pts:
            basis = minimal_basis(G, z)
            assert basis.approximate
            cert = certified_interval("c_convex", 2, distance_product(basis),
                                      tau_rel_err=basis.tau_rel_err)
            mono = monotonicity_bounds(basis, circumscribed_radius(G, z))
            assert cert.intersection_margin(mono) >= 0, (z, cert.as_pair(), mono.as_pair())


# ---------------------------------------------------------------------------
# 4. Siegel half-space through the Cayley oracle
# ---------------------------------------------------------------------------


def test_criterion_4_unbounded_siegel_domain():
    with criterion(4, "unbounded-domain check (Siegel)"):
        S = SiegelHalfSpace(n=2)
        rng = np.random.default_rng(444)
        w = uniform_ball(2, 200, rng)
        pts = cayley(w)
        for z in pts:
            basis = minimal_basis(S, z)
            v = exact_volume_element(S, z)
            iv = certified_interval("convex", 2, distance_product(basis))
            assert iv.contains(v), (z, v, iv.as_pair())


# ---------------------------------------------------------------------------
# 5. lemma universality for random admissible triangular matrices
# ---------------------------------------------------------------------------


def test_criterion_5_lemma_universality():
    with criterion(5, "lemma universality", budget=30.0):
        rng = np.random.default_rng(555)
        for n in (2, 3, 4):
            r = (1 - 1e-6) / c_n(n)
            for _ in range(1000):
                A = random_admissible_A(n, rng)
                w = rng.normal(size=(100, n)) + 1j * rng.normal(size=(100, n))
                w *= r / np.linalg.norm(w, axis=1)[:, None]
                assert lemma_margins(A, w).min() > 0
                assert beta_excess(A) <= 0


# ---------------------------------------------------------------------------
# 6. normalization pipeline on random bounded polytopes
# ---------------------------------------------------------------------------


def random_simplex_containing_zero(rng):
    # five centered gaussian facet normals positively span R^4, so the
    # polytope is bounded; positive offsets keep 0 interior
    rows = rng.normal(size=(5, 4))
    rows -= rows.mean(axis=0, keepdims=True)
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    normals = rows[:, 0::2] + 1j * rows[:, 1::2]
    offsets = rng.uniform(0.5, 2.0, size=5)
    return HalfspaceConvex(2, normals=normals, offsets=offsets)


def test_criterion_6_normalization_pipeline():
    with criterion(6, "normalization pipeline"):
        rng = np.random.default_rng(666)
        z = np.zeros(2, dtype=np.complex128)
        for _ in range(1000):
            dom = random_simplex_containing_zero(rng)
            basis = minimal_basis(dom, z)
            T = build_T(basis)
            assert abs(abs(np.linalg.det(T)) * basis.taus[0] * basis.taus[1]
                       - 1.0) <= 1e-9
            norm = build_A(dom, basis)
            rng.integers(2 ** 31)  # keeps the stream, so the same simplices are drawn
            A = norm.A
            assert A[0, 1] == 0.0
            assert A[0, 0] == 1.0 and A[1, 1] == 1.0
            assert abs(A[1, 0]) <= 1.0 + 1e-4
            pts = sample_interior(dom, 1000, rng)
            W = norm.map_points(basis, pts)
            assert W.real.max() < 1.0


# ---------------------------------------------------------------------------
# 7. Bergman quadrature, sandwich, and ratio bands
# ---------------------------------------------------------------------------


def test_criterion_7_bergman():
    with criterion(7, "Bergman quadrature / sandwich / ratio"):
        # independent quadrature oracles at the center
        K_ball0 = bergman_from_moments(
            RadialProfile2D(1.0, lambda r: np.sqrt(1.0 - r * r)),
            np.zeros(2, dtype=np.complex128))
        assert abs(K_ball0.value - 2 / math.pi ** 2) <= 1e-8 * (2 / math.pi ** 2)
        K_pd0 = bergman_from_moments(
            RadialProfile2D(1.0, lambda r: 1.0),
            np.zeros(2, dtype=np.complex128))
        assert abs(K_pd0.value - 1 / math.pi ** 2) <= 1e-8 / math.pi ** 2

        rng = np.random.default_rng(777)
        ell = AffineBallImage(2, matrix=np.diag([1.3, 0.6]).astype(np.complex128),
                              center=np.zeros(2, dtype=np.complex128))
        convex_doms = (
            unit_ball(2),
            ell,
            Polydisc(2, center=np.zeros(2, dtype=np.complex128),
                     radii=np.array([1.0, 0.5])),
            L1Ball(n=2, scale=1.0),
        )
        # Nikolov-Pflug sandwich at sampled convex points
        for dom in convex_doms:
            for z in 0.9 * sample_interior(dom, 25, rng):
                basis = minimal_basis(dom, z)
                K = bergman_reinhardt(dom, z, max_degree=60)
                res = kernel_sandwich_check("convex", 2, K,
                                            distance_product(basis))
                assert res["lower_margin"] > 0, (dom.variant, z)
                assert res["upper_margin"] > 0, (dom.variant, z)

        # ratio band holds wherever the volume element is exact
        band = ratio_band("convex", 2)
        skew = AffineBallImage(
            2, matrix=np.array([[1.4, 0.3 - 0.2j], [0.0, 0.8]],
                               dtype=np.complex128),
            center=np.array([0.05 - 0.02j, 0.1j]))
        for dom in (unit_ball(2), ell, skew):
            for z in sample_interior(dom, 25, rng):
                ratio = exact_volume_element(dom, z) / bergman_closed(dom, z).value
                assert band[0] <= ratio <= band[1]

        # the ratio is exactly pi^2/2 at ball and ellipsoid centers
        for dom in (unit_ball(2), ell, skew):
            c = dom.center
            ratio = exact_volume_element(dom, c) / bergman_closed(dom, c).value
            assert abs(ratio - math.pi ** 2 / 2) <= 1e-10 * math.pi ** 2 / 2


# ---------------------------------------------------------------------------
# 8. constants through the CLI
# ---------------------------------------------------------------------------


def test_criterion_8_constants_api(capsys):
    with criterion(8, "constants API"):
        assert main(["constants", "--n", "2"]) == 0
        values = {}
        for line in capsys.readouterr().out.strip().splitlines():
            key, _, val = line.partition(" = ")
            values[key.strip()] = float(val)
        # printed values round-trip the library formulas bit-for-bit
        assert values["c_n"] == c_n(2)
        assert values["mu_n"] == quotient_lower_bound("convex", 2)
        assert values["nu_n"] == quotient_lower_bound("c_convex", 2)
        lo, hi = ge_constants("convex", 2)
        assert values["v_pd2_lower_convex"] == lo
        assert values["v_pd2_upper"] == hi
        # and agree with the independent closed forms
        assert values["c_n"] == pytest.approx(math.sqrt(5), rel=1e-14)
        assert values["mu_n"] == pytest.approx(1 / 1600, rel=1e-14)
        assert values["nu_n"] == pytest.approx(1 / 25600, rel=1e-14)
        assert values["v_pd2_lower_convex"] == pytest.approx(1 / 64, rel=1e-14)
        assert values["v_pd2_upper"] == pytest.approx(25.0, rel=1e-14)


# ---------------------------------------------------------------------------
# 9. degeneracy detection
# ---------------------------------------------------------------------------


def test_criterion_9_degeneracy_detection():
    with criterion(9, "degeneracy detection", budget=1.0):
        normals = np.array([[1, 0], [-1, 0]], dtype=np.complex128)
        strip = HalfspaceConvex(2, normals=normals, offsets=np.ones(2))
        with pytest.raises(DegenerateDomain) as err:
            minimal_basis(strip, np.zeros(2, dtype=np.complex128))
        assert "unbounded" in str(err.value).lower()
        cfg = {
            "name": "strip",
            "domain": {"variant": "halfspace", "n": 2,
                       "constraints": [{"a": [[1, 0], [0, 0]], "b": 1.0},
                                       {"a": [[-1, 0], [0, 0]], "b": 1.0}]},
            "points": {"explicit": [[[0.0, 0.0], [0.0, 0.0]]]},
            "checks": ["theorem_ge"],
        }
        with pytest.raises(DomainRejected) as err2:
            run_scenario(cfg, workers=1, seed=0)
        assert "unbounded" in str(err2.value).lower()
