import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    Pole,
    psi_det0_squared,
    psi_jacobian_det,
    psi_map,
    scaling_bound_polydisc,
)

from holovol.domains import (
    AffineBallImage,
    Polydisc,
    SiegelHalfSpace,
    cayley,
    circumscribed_radius,
    exact_volume_element,
    sample_interior,
    unit_ball,
)
from holovol.errors import BadDimension, UnboundedDomain
from holovol.linalg import uniform_ball
from holovol.minimal_basis import distance_product, minimal_basis
from holovol.normalization import build_A
from holovol.volume_elements import (
    Interval,
    bounded_domain_lower_bound,
    certified_interval,
    compound_slack,
    ge_constants,
    monotonicity_bounds,
    quotient_lower_bound,
)


# ---------------------------------------------------------------------------
# Interval mechanics
# ---------------------------------------------------------------------------


def test_interval_certified_rounds_outward():
    iv = Interval.certified(1.0, 2.0, 0.1)
    assert iv.lo < 1.0 and iv.hi > 2.0
    assert iv.lo == pytest.approx(0.9, rel=1e-12)  # lo * (1 - slack)
    assert iv.hi == pytest.approx(2.2, rel=1e-12)  # hi * (1 + slack)


def test_interval_contains_and_margins():
    iv = Interval(lo=1.0, hi=4.0)
    assert iv.contains(1.0) and iv.contains(4.0) and iv.contains(2.5)
    assert not iv.contains(0.999) and not iv.contains(4.001)
    assert iv.containment_margin(2.0) == pytest.approx(1.0)
    assert iv.containment_margin(0.5) == pytest.approx(-0.5)
    other = Interval(lo=3.0, hi=9.0)
    assert iv.intersection_margin(other) >= 0
    assert iv.intersection_margin(other) == pytest.approx(1.0)
    disjoint = Interval(lo=5.0, hi=9.0)
    assert iv.intersection_margin(disjoint) < 0
    assert iv.intersection_margin(disjoint) == pytest.approx(-1.0)


def test_interval_validation():
    with pytest.raises(Exception):
        Interval(lo=2.0, hi=1.0)
    with pytest.raises(Exception):
        Interval(lo=-1.0, hi=1.0)


def test_compound_slack_grows_with_relative_error():
    base = compound_slack(0.0, 2)
    assert base == pytest.approx(1e-9, rel=1e-6)
    s1 = compound_slack(1e-4, 2)
    s2 = compound_slack(1e-3, 2)
    assert base < s1 < s2
    # (1+e)^{2n} - 1 ~ 2n e for small e
    assert s1 == pytest.approx(4e-4, rel=1e-2)


# ---------------------------------------------------------------------------
# theorem constants
# ---------------------------------------------------------------------------


def test_ge_constants_frozen_n2():
    lo, hi = ge_constants("convex", 2)
    assert lo == pytest.approx(1.0 / 64.0, rel=1e-15)
    assert hi == pytest.approx(25.0, rel=1e-15)
    lo_c, hi_c = ge_constants("c_convex", 2)
    assert lo_c == pytest.approx(1.0 / 1024.0, rel=1e-15)
    assert hi_c == pytest.approx(25.0, rel=1e-15)


def test_ge_constants_frozen_n3():
    lo, hi = ge_constants("convex", 3)
    assert lo == pytest.approx(12.0 ** -3, rel=1e-12)
    assert hi == pytest.approx(21.0 ** 3, rel=1e-12)
    lo_c, _ = ge_constants("c_convex", 3)
    assert lo_c == pytest.approx(48.0 ** -3, rel=1e-12)


def test_ge_constants_bad_dimension():
    with pytest.raises(BadDimension):
        ge_constants("convex", 1)
    with pytest.raises(Exception):
        ge_constants("weird", 2)


def test_quotient_bounds_and_ratio():
    mu = quotient_lower_bound("convex", 2)
    nu = quotient_lower_bound("c_convex", 2)
    assert isinstance(mu, float) and isinstance(nu, float)
    assert mu == pytest.approx(1.0 / 1600.0, rel=1e-12)
    assert nu == pytest.approx(1.0 / 25600.0, rel=1e-12)
    assert mu / nu == pytest.approx(16.0, rel=1e-12)
    for n in (2, 3, 4):
        r = quotient_lower_bound("convex", n) / quotient_lower_bound("c_convex", n)
        assert r == pytest.approx(4.0 ** n, rel=1e-12)


# ---------------------------------------------------------------------------
# certified interval vs. exact values
# ---------------------------------------------------------------------------


def test_certified_interval_ball_frozen_point():
    # ball at (1/2, 0): p = sqrt(3)/4 and v = 64/27 must land inside
    B = unit_ball(2)
    z = np.array([0.5 + 0j, 0j])
    basis = minimal_basis(B, z)
    pd = distance_product(basis)
    assert pd == pytest.approx(np.sqrt(3.0) / 4.0, rel=1e-12)
    iv = certified_interval("convex", 2, pd)
    v = exact_volume_element(B, z)
    assert v == pytest.approx(64.0 / 27.0, rel=1e-12)
    assert iv.contains(v)
    # endpoints are constants / p^2 with outward slack
    assert iv.lo == pytest.approx((1 / 64) / pd ** 2, rel=1e-6)
    assert iv.hi == pytest.approx(25.0 / pd ** 2, rel=1e-6)


def test_ball_identity_v_p_squared():
    # v * p^2 = 1/(1+|z|)^2 along every radius of the ball
    for n in (2, 3):
        B = unit_ball(n)
        for t in np.linspace(0, 0.9, 10):
            z = np.zeros(n, dtype=np.complex128)
            z[0] = t * np.exp(0.7j)
            v = exact_volume_element(B, z)
            pd = distance_product(minimal_basis(B, z))
            assert v * pd ** 2 == pytest.approx((1 + t) ** -2, rel=1e-9)


def test_certified_interval_contains_v_on_random_ellipsoids():
    rng = np.random.default_rng(103)
    for _ in range(25):
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) + 3 * np.eye(2)
        dom = AffineBallImage(2, matrix=M, center=np.zeros(2, dtype=np.complex128))
        z = sample_interior(dom, 1, rng)[0]
        basis = minimal_basis(dom, z)
        iv = certified_interval("convex", 2, distance_product(basis),
                                tau_rel_err=basis.tau_rel_err)
        assert iv.contains(exact_volume_element(dom, z))


# ---------------------------------------------------------------------------
# monotonicity and diameter bounds
# ---------------------------------------------------------------------------


def test_monotonicity_bounds_ball_center():
    B = unit_ball(2)
    z = np.zeros(2, dtype=np.complex128)
    basis = minimal_basis(B, z)
    R = circumscribed_radius(B, z)
    iv = monotonicity_bounds(basis, R)
    # inscribed and circumscribed balls coincide: a pinch at v = 1
    assert iv.lo == pytest.approx(1.0, rel=1e-6)
    assert iv.hi == pytest.approx(1.0, rel=1e-6)
    assert iv.contains(exact_volume_element(B, z))


def test_monotonicity_bounds_contain_v_generic():
    rng = np.random.default_rng(107)
    for _ in range(10):
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) + 3 * np.eye(2)
        dom = AffineBallImage(2, matrix=M, center=np.zeros(2, dtype=np.complex128))
        z = sample_interior(dom, 1, rng)[0]
        basis = minimal_basis(dom, z)
        iv = monotonicity_bounds(basis, circumscribed_radius(dom, z))
        assert iv.contains(exact_volume_element(dom, z))


def test_monotonicity_rejects_radius_smaller_than_tau():
    B = unit_ball(2)
    basis = minimal_basis(B, np.zeros(2, dtype=np.complex128))
    with pytest.raises(ValueError):
        monotonicity_bounds(basis, 0.5 * basis.taus[0])


def test_bounded_domain_lower_bound():
    # diameter 2 ball: v(z) >= (4n d^2)^{-n} = 1/1024 at n=2
    b = bounded_domain_lower_bound("convex", 2, 2.0)
    assert b == pytest.approx((4 * 2 * 4) ** -2, rel=1e-12)
    v = exact_volume_element(unit_ball(2), np.zeros(2, dtype=np.complex128))
    assert v >= b
    bc = bounded_domain_lower_bound("c_convex", 2, 2.0)
    assert bc == pytest.approx((16 * 2 * 4) ** -2, rel=1e-12)
    with pytest.raises(UnboundedDomain):
        bounded_domain_lower_bound("convex", 2, np.inf)


# ---------------------------------------------------------------------------
# the half-space-to-disc map Psi
# ---------------------------------------------------------------------------


def test_psi_maps_left_halfspace_to_polydisc():
    rng = np.random.default_rng(109)
    # sample Re z_j < 1 with heavy tails to stress the map
    for _ in range(500):
        z = (1 - np.exp(rng.normal(size=2))) + 1j * rng.normal(size=2) * 5
        assert np.max(np.abs(psi_map(z))) < 1.0
    assert psi_map(np.zeros(2, dtype=np.complex128)) == pytest.approx(np.zeros(2))


def test_psi_jacobian_matches_finite_differences():
    z0 = np.array([0.3 - 0.2j, -1.5 + 0.4j])
    h = 1e-6
    J = np.empty((2, 2), dtype=np.complex128)
    for k in range(2):
        e = np.zeros(2, dtype=np.complex128)
        e[k] = h
        J[:, k] = (psi_map(z0 + e) - psi_map(z0 - e)) / (2 * h)
    det_fd = np.linalg.det(J)
    det = psi_jacobian_det(z0)
    assert abs(det - det_fd) / abs(det_fd) < 1e-6


def test_psi_det_at_origin():
    assert abs(psi_jacobian_det(np.zeros(2, dtype=np.complex128))) ** 2 \
        == pytest.approx(psi_det0_squared(2), rel=1e-12)
    assert psi_det0_squared(2) == pytest.approx(1.0 / 16.0, rel=1e-15)
    assert psi_det0_squared(3) == pytest.approx(1.0 / 64.0, rel=1e-15)


def test_psi_pole_raises():
    with pytest.raises(Pole):
        psi_map(np.array([2.0 + 0j, 0j]))


def test_scaling_bound_polydisc_consistent():
    # inscribed-ball scaling constant, and its consistency with the
    # monotonicity pinch of the unit polydisc at the center
    assert scaling_bound_polydisc(2) == pytest.approx(0.25, rel=1e-15)
    assert scaling_bound_polydisc(3) == pytest.approx(27.0 ** -1, rel=1e-15)
    P = Polydisc(2, center=np.zeros(2, dtype=np.complex128),
                 radii=np.array([1.0, 1.0]))
    z = np.zeros(2, dtype=np.complex128)
    basis = minimal_basis(P, z)
    iv = monotonicity_bounds(basis, circumscribed_radius(P, z))
    # [R^-4, tau_1^-4] = [1/4, 1]; the scaling bound sits at the lower end
    assert iv.lo == pytest.approx(0.25, rel=1e-6)
    assert iv.hi == pytest.approx(1.0, rel=1e-6)
    assert iv.contains(scaling_bound_polydisc(2))


# ---------------------------------------------------------------------------
# Siegel domain via the Cayley oracle
# ---------------------------------------------------------------------------


def test_siegel_volume_element_in_certified_interval():
    rng = np.random.default_rng(113)
    S = SiegelHalfSpace(n=2)
    pts = cayley(uniform_ball(2, 20, rng) * 0.9)
    for z in pts:
        v = exact_volume_element(S, z)
        basis = minimal_basis(S, z)
        iv = certified_interval("convex", 2, distance_product(basis))
        assert iv.contains(v)


# ---------------------------------------------------------------------------
# invariants over generated domains and points
# ---------------------------------------------------------------------------


def generated_ellipsoid(rng, n):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 3 * np.eye(n)
    dom = AffineBallImage(n, matrix=M, center=rng.normal(size=n) + 1j * rng.normal(size=n))
    return dom, sample_interior(dom, 1, rng)[0]


def generated_polydisc(rng, n):
    dom = Polydisc(n, center=rng.normal(size=n) + 1j * rng.normal(size=n),
                   radii=rng.uniform(0.2, 2.0, size=n))
    return dom, sample_interior(dom, 1, rng)[0]


def generated_siegel_point(rng, n):
    return SiegelHalfSpace(n=n), cayley(0.9 * uniform_ball(n, 1, rng))[0]


@pytest.mark.parametrize("generate", [generated_ellipsoid, generated_polydisc,
                                      generated_siegel_point])
@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 3))
def test_taus_normalization_and_interval_invariants(generate, seed, n):
    dom, z = generate(np.random.default_rng(seed), n)
    basis = minimal_basis(dom, z)
    assert np.all(np.diff(basis.taus) >= 0)
    norm = build_A(dom, basis)
    assert abs(np.linalg.det(norm.T)) * np.prod(basis.taus) == pytest.approx(1.0, abs=1e-9)
    if dom.exact_oracle is not None:
        iv = certified_interval(dom.convexity_class, n, distance_product(basis),
                                tau_rel_err=basis.tau_rel_err)
        assert iv.contains(exact_volume_element(dom, z))
