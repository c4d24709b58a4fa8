import math

import numpy as np
import pytest

from holovol.bergman import (
    BergmanValue,
    DiagBallMoments,
    L1BallMoments,
    PolydiscMoments,
    RadialProfile2D,
    ball_kernel,
    bergman_closed,
    bergman_from_moments,
    bergman_reinhardt,
    kernel_product_bounds,
    kernel_sandwich_check,
    ratio_band,
    ratio_check,
    reinhardt_moments_for,
)
from holovol.domains import (
    AffineBallImage,
    L1Ball,
    Polydisc,
    exact_volume_element,
    sample_interior,
    unit_ball,
)
from holovol.errors import TailDiverges, UnsupportedDomain
from holovol.harness import parse_scenario, run_scenario
from holovol.minimal_basis import distance_product, minimal_basis
from holovol.volume_elements import Interval, certified_interval


# ---------------------------------------------------------------------------
# moment closed forms vs. independent quadrature
# ---------------------------------------------------------------------------


def test_quadrature_matches_ball_moments():
    quad = RadialProfile2D(1.0, lambda r: np.sqrt(1.0 - r * r))
    closed = DiagBallMoments([1.0, 1.0])
    for alpha in [(0, 0), (1, 0), (0, 1), (2, 1), (3, 3), (5, 0)]:
        assert quad.moment(alpha) == pytest.approx(closed.moment(alpha), rel=1e-10)


def test_quadrature_matches_polydisc_moments():
    quad = RadialProfile2D(1.0, lambda r: 1.0)
    closed = PolydiscMoments([1.0, 1.0])
    for alpha in [(0, 0), (1, 0), (0, 2), (2, 2), (4, 1)]:
        assert quad.moment(alpha) == pytest.approx(closed.moment(alpha), rel=1e-10)


def test_frozen_center_moments():
    # c_0 values at the origin: pi^2/2 for the ball, pi^2 for the bidisc,
    # pi^2/6 for the l1 ball at scale 1
    assert DiagBallMoments([1.0, 1.0]).moment((0, 0)) == pytest.approx(
        math.pi ** 2 / 2, rel=1e-14)
    assert PolydiscMoments([1.0, 1.0]).moment((0, 0)) == pytest.approx(
        math.pi ** 2, rel=1e-14)
    assert L1BallMoments(2, 1.0).moment((0, 0)) == pytest.approx(
        math.pi ** 2 / 6, rel=1e-14)


def test_l1_moment_scaling_law():
    # c_alpha(s E_n) = s^{2|alpha| + 2n} c_alpha(E_n)
    base = L1BallMoments(2, 1.0)
    scaled = L1BallMoments(2, 1.7)
    for alpha in [(0, 0), (1, 0), (2, 3)]:
        d = sum(alpha)
        assert scaled.moment(alpha) == pytest.approx(
            1.7 ** (2 * d + 4) * base.moment(alpha), rel=1e-12)


def test_kernel_at_origin_is_reciprocal_constant_moment():
    # at the center only the constant monomial contributes: K(0) = 1/c_0
    quad_ball = RadialProfile2D(1.0, lambda r: np.sqrt(1.0 - r * r))
    K = bergman_from_moments(quad_ball, np.zeros(2, dtype=np.complex128))
    assert K.value == pytest.approx(2.0 / math.pi ** 2, rel=1e-8)
    quad_pd = RadialProfile2D(1.0, lambda r: 1.0)
    K2 = bergman_from_moments(quad_pd, np.zeros(2, dtype=np.complex128))
    assert K2.value == pytest.approx(1.0 / math.pi ** 2, rel=1e-8)


# ---------------------------------------------------------------------------
# kernel series vs. closed forms
# ---------------------------------------------------------------------------


def test_ball_kernel_series_matches_closed_form():
    w = np.array([0.5 + 0j, 0j])
    series = bergman_from_moments(DiagBallMoments([1.0, 1.0]), w, max_degree=40)
    closed = ball_kernel(2, w)
    assert series.value == pytest.approx(closed, rel=1e-8)
    assert series.truncation_error < 1e-6 * closed
    # tail bound brackets the closed form up to float round-off in the sum
    assert abs(series.value - closed) <= series.truncation_error + 1e-12 * closed


def test_polydisc_kernel_series_matches_closed_form():
    P = Polydisc(2, center=np.array([0.1 + 0j, 0j]), radii=np.array([1.0, 0.5]))
    z = np.array([0.45 + 0.1j, 0.2 - 0.05j])
    series = bergman_reinhardt(P, z, max_degree=60)
    closed = bergman_closed(P, z)
    assert closed.method == "closed_form"
    assert closed.truncation_error == 0.0
    assert series.value == pytest.approx(closed.value, rel=1e-6)


def test_polydisc_closed_form_value():
    # K(z) = prod r_j^2 / (pi (r_j^2 - |z_j - c_j|^2)^2)
    P = Polydisc(2, center=np.zeros(2, dtype=np.complex128),
                 radii=np.array([1.0, 1.0]))
    z = np.array([0.3 + 0j, 0.4j])
    expected = (1.0 / (math.pi * (1 - 0.09) ** 2)) * (1.0 / (math.pi * (1 - 0.16) ** 2))
    assert bergman_closed(P, z).value == pytest.approx(expected, rel=1e-12)


def _polydisc_scenario(scale: float) -> dict:
    return {"name": f"polydisc-scale-{scale:g}",
            "domain": {"variant": "polydisc", "n": 2, "center": [[0, 0], [0, 0]],
                       "radii": [scale, 0.5 * scale]},
            "points": {"sampler": {"count": 3, "seed": 1}}}


def test_polydisc_closed_form_at_large_radii():
    # (r^2 - |z - c|^2)^2 overflowed from radii 1e78 up, so K read 0 and the
    # ratio check divided by it; per coordinate in units of r_k the kernel
    # scales as s^-4 until it leaves the normal double range
    z = np.array([0.3 + 0.1j, 0.1 - 0.05j])

    def kernel(s):
        P = Polydisc(2, center=np.zeros(2, dtype=np.complex128), radii=s * np.array([1.0, 0.5]))
        return bergman_closed(P, s * z).value

    unit = kernel(1.0)
    for s in (1e-60, 1e-3, 1e3, 1e70):
        r2, rel2 = (s * np.array([1.0, 0.5])) ** 2, np.abs(s * z) ** 2
        naive = float(np.prod(r2 / (math.pi * (r2 - rel2) ** 2)))
        assert kernel(s) == pytest.approx(naive, rel=1e-12), s
        assert kernel(s) * s ** 4 == pytest.approx(unit, rel=1e-13), s
    for s in (1e78, 1e100):
        with pytest.raises(UnsupportedDomain, match="double range"):
            kernel(s)
    report = run_scenario(_polydisc_scenario(1e78))
    assert report["summary"]["errors"] == 0
    for point in report["points"]:
        for name in ("bergman_sandwich", "ratio"):
            assert point["checks"][name]["pass"] is None
            assert "double range" in point["checks"][name]["skipped"]


def test_polydisc_distance_product_overflow_is_a_point_error():
    # at radii 1e160 p_D overflows, but the diameter (2.2e160) does not
    config = {**_polydisc_scenario(1e160), "points": {"sampler": {"count": 1, "seed": 1}}}
    report = run_scenario(config)
    assert report["summary"]["errors"] == 1
    error = report["points"][0]["error"]
    assert error["type"] == "UnsupportedDomain" and "p_D" in error["message"]


def test_transformation_rule_diag_ellipsoid():
    # moments of the ellipsoid vs. pullback through the affine oracle
    radii = np.array([2.0, 0.7])
    E = AffineBallImage(2, matrix=np.diag(radii).astype(np.complex128),
                        center=np.zeros(2, dtype=np.complex128))
    z = np.array([0.4 - 0.2j, 0.1 + 0.15j])
    K_mom = bergman_reinhardt(E, z, max_degree=60)
    w = z / radii
    det2 = float(np.prod(radii)) ** 2
    K_pull = ball_kernel(2, w) / det2
    assert K_mom.value == pytest.approx(K_pull, rel=1e-8)
    K_closed = bergman_closed(E, z)
    assert K_closed.value == pytest.approx(K_pull, rel=1e-12)


def test_truncation_error_decreases_with_degree():
    w = np.array([0.6 + 0j, 0.1j])
    errs = [bergman_from_moments(DiagBallMoments([1.0, 1.0]), w,
                                 max_degree=d).truncation_error
            for d in (10, 20, 30)]
    assert errs[0] > errs[1] > errs[2] > 0


def test_tail_diverges_near_boundary_with_low_degree():
    P = Polydisc(2, center=np.zeros(2, dtype=np.complex128),
                 radii=np.array([1.0, 1.0]))
    z = np.array([0.997 + 0j, 0j])
    with pytest.raises(TailDiverges):
        bergman_reinhardt(P, z, max_degree=8)


def test_reinhardt_moments_rejects_non_reinhardt():
    M = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=np.complex128)
    skew = AffineBallImage(2, matrix=M, center=np.zeros(2, dtype=np.complex128))
    with pytest.raises(UnsupportedDomain):
        reinhardt_moments_for(skew)


def _l1_scenario(scale: float) -> dict:
    return {"name": f"l1-scale-{scale:g}",
            "domain": {"variant": "l1ball", "n": 2, "scale": scale},
            "points": {"sampler": {"count": 4, "seed": 3}}}


def test_l1_ball_kernel_checks_are_scale_invariant():
    # K_{sE}(z) = s^{-2n} K_E(z/s): the series runs on E_n at z/s, so neither
    # underflow (small s) nor overflow (large s) reaches the moments; at
    # s = 1e76 the kernel is near 1e-304, and the ratio divides by it as is
    def margins(report):
        return [[p["checks"][name]["margin"] for name in ("bergman_sandwich", "ratio")]
                for p in report["points"]]

    unit = margins(run_scenario(_l1_scenario(1.0)))
    for scale in (1e-4, 1e-2, 1.0, 1e3, 1e4, 1e10, 1e76):
        report = run_scenario(_l1_scenario(scale))
        assert report["summary"]["failures"] == 0, scale
        assert report["summary"]["errors"] == 0, scale
        for got, ref in zip(margins(report), unit):
            for g, r in zip(got, ref):
                assert g == r if r is None else g == pytest.approx(r, rel=1e-9), scale


def test_l1_ball_kernel_out_of_double_range_is_skipped():
    L = L1Ball(n=2, scale=1e200)
    with pytest.raises(UnsupportedDomain, match="double range"):
        bergman_reinhardt(L, np.array([1e199 + 0j, 0j]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_l1_ball_basis_at_scale_1e300_is_the_unit_basis_scaled():
    # |p - z| near 1e300 overflowed the sum of squares of a plain norm, so
    # every point raised SingularBasis; only p_D ~ 1e600 leaves the range
    unit, big = L1Ball(n=2, scale=1.0), L1Ball(n=2, scale=1e300)
    for w in sample_interior(unit, 4, np.random.default_rng(3)):
        ref, basis = minimal_basis(unit, w), minimal_basis(big, 1e300 * w)
        assert basis.methods == ref.methods == ["aligned", "ellipse"]
        assert np.allclose(basis.taus, 1e300 * np.asarray(ref.taus), rtol=1e-15, atol=0)
    report = run_scenario(_l1_scenario(1e300))
    assert report["summary"]["errors"] == 4
    for point in report["points"]:
        assert point["error"]["type"] == "UnsupportedDomain"
        assert "p_D" in point["error"]["message"]


def test_moments_are_computed_once_per_parsed_domain(monkeypatch):
    calls = []
    moment = L1BallMoments.moment

    def counted(self, alpha):
        calls.append(alpha)
        return moment(self, alpha)

    monkeypatch.setattr(L1BallMoments, "moment", counted)
    config = _l1_scenario(1.0)
    report = run_scenario(config)
    # 861 exponents of degree <= 40 in two variables, each computed once
    # for all four points
    assert len(calls) == 861 == len(set(calls))

    def kernel(compute):
        try:
            return compute()
        except TailDiverges as exc:  # three of the four points are near the boundary
            return str(exc)

    # a new parse computes them again; its values are those of a series
    # with nothing memoized, bit for bit
    calls.clear()
    domain = parse_scenario(config).domain
    for p in report["points"]:
        z = np.array([complex(*c) for c in p["z"]])
        memoized = kernel(lambda: bergman_reinhardt(domain, z))
        assert memoized == kernel(lambda: bergman_from_moments(L1BallMoments(2, 1.0), z))
        if isinstance(memoized, BergmanValue):
            assert p["checks"]["bergman_sandwich"]["K"] == memoized.value
    assert len(calls) == 861 + 4 * 861


def test_l1_ball_kernel_from_moments_is_positive_and_monotone():
    L = L1Ball(n=2, scale=1.0)
    K0 = bergman_reinhardt(L, np.zeros(2, dtype=np.complex128), max_degree=30)
    assert K0.value == pytest.approx(6.0 / math.pi ** 2, rel=1e-10)
    Kz = bergman_reinhardt(L, np.array([0.3 + 0j, 0j]), max_degree=50)
    assert Kz.value > K0.value  # diagonal kernel grows toward the boundary


# ---------------------------------------------------------------------------
# sandwich and ratio bands
# ---------------------------------------------------------------------------


def test_kernel_product_bounds_frozen_n2():
    lo, hi = kernel_product_bounds("convex", 2)
    assert lo == pytest.approx((4 * math.pi) ** -2, rel=1e-14)
    assert hi == pytest.approx(math.factorial(4) / (2 * math.pi) ** 2, rel=1e-14)
    lo_c, hi_c = kernel_product_bounds("c_convex", 2)
    assert lo_c == pytest.approx((16 * math.pi) ** -2, rel=1e-14)
    assert hi_c == pytest.approx(hi, rel=1e-14)


def test_sandwich_on_ball_and_polydisc_samples():
    rng = np.random.default_rng(127)
    B = unit_ball(2)
    P = Polydisc(2, center=np.zeros(2, dtype=np.complex128),
                 radii=np.array([1.0, 0.5]))
    for dom in (B, P):
        pts = 0.9 * sample_interior(dom, 15, rng)
        for z in pts:
            basis = minimal_basis(dom, z)
            K = bergman_reinhardt(dom, z, max_degree=60)
            res = kernel_sandwich_check("convex", 2, K, distance_product(basis))
            assert res["lower_margin"] > 0
            assert res["upper_margin"] > 0


def test_ratio_constant_on_the_ball():
    # v/K is the constant pi^n n! / ... -- for n=2 it equals pi^2/2 everywhere
    rng = np.random.default_rng(131)
    B = unit_ball(2)
    for z in 0.8 * sample_interior(B, 10, rng):
        v = exact_volume_element(B, z)
        K = ball_kernel(2, z)
        assert v / K == pytest.approx(math.pi ** 2 / 2, rel=1e-10)


def test_ratio_check_containment_mode():
    B = unit_ball(2)
    z = np.array([0.27 - 0.1j, 0.05 + 0.3j])
    basis = minimal_basis(B, z)
    v = exact_volume_element(B, z)
    K = bergman_closed(B, z)
    iv = certified_interval("convex", 2, distance_product(basis))
    res = ratio_check("convex", 2, iv, K, v_exact=v)
    assert res["mode"] == "containment"
    assert res["lower_margin"] > 0 and res["upper_margin"] > 0
    band = ratio_band("convex", 2)
    assert band[0] < math.pi ** 2 / 2 < band[1]


def test_ratio_check_intersection_mode_without_oracle():
    L = L1Ball(n=2, scale=1.0)
    z = np.array([0.2 + 0j, 0.1j])
    basis = minimal_basis(L, z)
    K = bergman_reinhardt(L, z, max_degree=50)
    iv = certified_interval("convex", 2, distance_product(basis),
                            tau_rel_err=basis.tau_rel_err)
    res = ratio_check("convex", 2, iv, K)
    assert res["mode"] == "intersection"
    assert res["lower_margin"] > 0 and res["upper_margin"] > 0


def test_ratio_check_without_a_positive_kernel_lower_end_is_unbounded_above():
    iv = Interval(0.5, 2.0)
    K = BergmanValue(1.0, 1.5, "reinhardt_quadrature")
    res = ratio_check("convex", 2, iv, K)
    assert res["ratio_hi"] == math.inf and res["lower_margin"] == math.inf
    res = ratio_check("convex", 2, iv, K, v_exact=1.0)
    assert res["ratio_hi"] == math.inf and res["upper_margin"] == -math.inf


def test_ratio_band_frozen_n2():
    lo, hi = ratio_band("convex", 2)
    assert lo == pytest.approx(math.pi ** 2 / (math.factorial(4) * 16), rel=1e-14)
    assert hi == pytest.approx((4 * math.pi * 5) ** 2, rel=1e-14)
    lo_c, hi_c = ratio_band("c_convex", 2)
    assert lo_c == pytest.approx(math.pi ** 2 / (math.factorial(4) * 256), rel=1e-14)
    assert hi_c == pytest.approx((16 * math.pi * 5) ** 2, rel=1e-14)


def test_bergman_requires_interior_point():
    P = Polydisc(2, center=np.zeros(2, dtype=np.complex128),
                 radii=np.array([1.0, 1.0]))
    with pytest.raises(Exception):
        bergman_reinhardt(P, np.array([1.5 + 0j, 0j]))
