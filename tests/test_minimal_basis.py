import numpy as np
import pytest

from holovol.domains import (
    AffineBallImage,
    HalfspaceConvex,
    L1Ball,
    MembershipOracle,
    Polydisc,
    SiegelHalfSpace,
    cayley,
    sample_interior,
    symmetrized_bidisc,
    unit_ball,
)
from holovol.errors import (
    DegenerateDomain,
    PointOutsideDomain,
    PointTooCloseToBoundary,
)
from holovol.linalg import random_unitary, uniform_ball
from holovol.minimal_basis import (
    distance_product,
    minimal_basis,
    slice_distance,
)

SQ32 = np.sqrt(3.0) / 2.0


def ellipsoid_21():
    return AffineBallImage(2, matrix=np.diag([2.0, 1.0]).astype(np.complex128),
                           center=np.zeros(2, dtype=np.complex128))


# ---------------------------------------------------------------------------
# frozen worked examples
# ---------------------------------------------------------------------------


def test_ball_frozen_example():
    # unit ball, base point (1/2, 0): nearest boundary point along e_1 at
    # distance 1/2; the complement slice is a disc of radius sqrt(3)/2
    B = unit_ball(2)
    z = np.array([0.5 + 0j, 0j])
    basis = minimal_basis(B, z)
    assert basis.taus == pytest.approx([0.5, SQ32], rel=1e-9)
    assert basis.boundary_points[0] == pytest.approx(np.array([1.0 + 0j, 0j]), abs=1e-9)
    assert basis.directions[0] == pytest.approx(np.array([1.0 + 0j, 0j]), abs=1e-9)
    # second frame point sits on the boundary sphere
    assert np.linalg.norm(basis.boundary_points[1]) == pytest.approx(1.0, rel=1e-9)
    assert distance_product(basis) == pytest.approx(0.4330127018922193, rel=1e-12)


def test_ball_closed_form_along_radius():
    # p(z) = (1 - |z|)(1 - |z|^2)^{(n-1)/2} for the unit ball
    for n in (2, 3):
        B = unit_ball(n)
        for t in np.linspace(0.0, 0.95, 12):
            z = np.zeros(n, dtype=np.complex128)
            z[0] = t
            basis = minimal_basis(B, z)
            expected = (1 - t) * (1 - t * t) ** ((n - 1) / 2)
            assert distance_product(basis) == pytest.approx(expected, rel=1e-9)


def test_ellipsoid_frozen_example():
    # image of the ball under diag(2, 1): shortest semi-axis first
    E = ellipsoid_21()
    basis = minimal_basis(E, np.zeros(2, dtype=np.complex128))
    assert basis.taus == pytest.approx([1.0, 2.0], rel=1e-9)
    assert basis.boundary_points[0] == pytest.approx(np.array([0j, 1.0 + 0j]), abs=1e-8)
    assert basis.boundary_points[1] == pytest.approx(np.array([2.0 + 0j, 0j]), abs=1e-8)
    assert distance_product(basis) == pytest.approx(2.0, rel=1e-11)


def test_polydisc_closed_form():
    P = Polydisc(2, center=np.zeros(2, dtype=np.complex128),
                 radii=np.array([1.0, 0.5]))
    basis = minimal_basis(P, np.array([0.3 + 0j, 0.1 + 0j]))
    assert basis.taus == pytest.approx([0.4, 0.7], rel=1e-12)
    assert basis.boundary_points[0] == pytest.approx(np.array([0.3 + 0j, 0.5 + 0j]))
    assert basis.boundary_points[1] == pytest.approx(np.array([1.0 + 0j, 0.1 + 0j]))
    assert basis.methods == ["aligned", "aligned"]
    assert not basis.approximate


def test_l1_ball_from_center():
    # boundary of {|z1| + |z2| < 1} nearest to 0 at Euclidean distance 1/sqrt(2);
    # the orthogonal complement slice has the same radius by symmetry
    L = L1Ball(n=2, scale=1.0)
    basis = minimal_basis(L, np.zeros(2, dtype=np.complex128))
    assert basis.taus == pytest.approx([2 ** -0.5, 2 ** -0.5], rel=1e-6)


def test_square_halfspace_distances():
    normals = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=np.complex128)
    D = HalfspaceConvex(2, normals=normals, offsets=np.ones(4))
    basis = minimal_basis(D, np.zeros(2, dtype=np.complex128))
    assert basis.taus == pytest.approx([1.0, 1.0], rel=1e-12)
    assert basis.methods == ["halfspace", "halfspace"]


def test_siegel_quadric_backend_against_cayley_oracle():
    # tau_1 for the Siegel domain at a Cayley image is checked against a dense
    # direction sweep of the membership predicate
    S = SiegelHalfSpace(n=2)
    z = cayley(np.array([[0.2 + 0.1j, -0.15 + 0.05j]]))[0]
    basis = minimal_basis(S, z)
    assert basis.methods[0] == "quadric"
    rng = np.random.default_rng(0)
    best = np.inf
    for _ in range(4000):
        d = rng.normal(size=2) + 1j * rng.normal(size=2)
        d /= np.linalg.norm(d)
        lo, hi = 0.0, 10.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if S.contains_many((z + mid * d)[None, :])[0]:
                lo = mid
            else:
                hi = mid
        best = min(best, hi)
    assert basis.taus[0] <= best + 1e-6
    assert basis.taus[0] >= best - 1e-3  # sweep is an upper bound up to mesh gaps


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


def random_ball_image(rng, n=2):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    M += 3 * np.eye(n)  # keep comfortably invertible
    c = 0.2 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return AffineBallImage(n, matrix=M, center=c)


def test_tau_ordering_and_orthogonality():
    rng = np.random.default_rng(37)
    for _ in range(25):
        dom = random_ball_image(rng)
        z = sample_interior(dom, 1, rng)[0]
        basis = minimal_basis(dom, z)
        assert basis.taus[0] <= basis.taus[1] * (1 + 1e-9)
        G = basis.directions @ basis.directions.conj().T
        assert np.max(np.abs(G - np.eye(2))) < 1e-7
        # boundary points decompose as z + tau * d
        for j in range(2):
            recon = z + basis.taus[j] * basis.directions[j]
            assert np.max(np.abs(recon - basis.boundary_points[j])) < 1e-7


def test_boundary_point_sandwich():
    rng = np.random.default_rng(41)
    for dom in (unit_ball(2), ellipsoid_21(),
                Polydisc(2, center=np.zeros(2, dtype=np.complex128),
                         radii=np.array([1.0, 0.5]))):
        z = sample_interior(dom, 1, rng)[0]
        basis = minimal_basis(dom, z)
        for j in range(2):
            eps = 1e-7 * basis.taus[j]
            inside = z + (basis.taus[j] - eps) * basis.directions[j]
            outside = z + (basis.taus[j] + eps) * basis.directions[j]
            assert dom.contains_many(inside[None, :])[0]
            assert not dom.contains_many(outside[None, :])[0]


def test_translation_invariance():
    rng = np.random.default_rng(43)
    normals = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    normals = np.vstack([normals, -normals, 1j * normals])  # force bounded
    offsets = np.full(normals.shape[0], 2.0)
    D0 = HalfspaceConvex(2, normals=normals, offsets=offsets)
    z = np.array([0.05 + 0.02j, -0.03j])
    shift = np.array([1.5 - 0.7j, 0.4 + 2.2j])
    offsets_shifted = offsets + (normals @ np.conj(shift)).real
    D1 = HalfspaceConvex(2, normals=normals, offsets=offsets_shifted)
    t0 = minimal_basis(D0, z).taus
    t1 = minimal_basis(D1, z + shift).taus
    assert np.max(np.abs(t1 - t0)) < 1e-12


def test_unitary_equivariance():
    rng = np.random.default_rng(47)
    dom = random_ball_image(rng)
    z = sample_interior(dom, 1, rng)[0]
    t0 = minimal_basis(dom, z).taus
    for _ in range(5):
        U = random_unitary(2, rng)
        rotated = AffineBallImage(2, matrix=U @ dom.matrix, center=U @ dom.center)
        t1 = minimal_basis(rotated, U @ z).taus
        assert np.max(np.abs(t1 - t0) / t0) < 1e-9


def test_closed_forms_match_polar_search():
    # wrap closed-form domains as bare membership oracles and compare
    rng = np.random.default_rng(53)
    ball = unit_ball(2)
    oracle_ball = MembershipOracle(
        2, predicate=ball.contains_many, declared_class="convex",
        search_radius=2.0,
        enclosing_polydisc=(np.zeros(2), np.ones(2)))
    P = Polydisc(2, center=np.zeros(2, dtype=np.complex128),
                 radii=np.array([1.0, 0.6]))
    oracle_pd = MembershipOracle(
        2, predicate=P.contains_many, declared_class="convex",
        search_radius=2.0,
        enclosing_polydisc=(np.zeros(2), np.array([1.0, 0.6])))
    for exact_dom, oracle_dom, count in ((ball, oracle_ball, 8), (P, oracle_pd, 8)):
        # pull samples toward the center: polar search needs room
        pts = 0.6 * sample_interior(exact_dom, count, rng)
        for z in pts[:3]:
            te = minimal_basis(exact_dom, z).taus
            to = minimal_basis(oracle_dom, z).taus
            assert np.max(np.abs(te - to) / te) < 1e-4


def test_bidisc_polar_backend_marks_approximate():
    G = symmetrized_bidisc()
    basis = minimal_basis(G, np.array([0.2 + 0.1j, 0.05 - 0.02j]))
    assert basis.approximate
    assert basis.methods == ["polar", "polar"]
    assert basis.tau_rel_err > 0
    assert basis.taus[0] <= basis.taus[1] * (1 + basis.tau_rel_err)


# ---------------------------------------------------------------------------
# slice_distance as a standalone operation
# ---------------------------------------------------------------------------


def test_slice_distance_full_space_equals_first_step():
    rng = np.random.default_rng(59)
    dom = random_ball_image(rng)
    z = sample_interior(dom, 1, rng)[0]
    sd = slice_distance(dom, z, np.eye(2, dtype=np.complex128))
    basis = minimal_basis(dom, z)
    assert sd.tau == pytest.approx(basis.taus[0], rel=1e-9)


def test_slice_distance_requires_orthonormal_basis():
    dom = unit_ball(2)
    V = np.array([[1.0 + 0j], [1.0 + 0j]])  # not unit norm
    with pytest.raises(Exception):
        slice_distance(dom, np.zeros(2, dtype=np.complex128), V)


def test_slice_distance_returns_tau_and_point():
    dom = unit_ball(2)
    r = slice_distance(dom, np.zeros(2, dtype=np.complex128),
                       np.eye(2, dtype=np.complex128))
    assert r.tau == pytest.approx(1.0, rel=1e-9)
    assert np.linalg.norm(r.p) == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# degeneracy and input validation
# ---------------------------------------------------------------------------


def test_strip_rejected_as_degenerate():
    normals = np.array([[1, 0], [-1, 0]], dtype=np.complex128)
    strip = HalfspaceConvex(2, normals=normals, offsets=np.ones(2))
    with pytest.raises(DegenerateDomain):
        minimal_basis(strip, np.zeros(2, dtype=np.complex128))


def test_base_point_outside_rejected():
    with pytest.raises(PointOutsideDomain):
        minimal_basis(unit_ball(2), np.array([1.5 + 0j, 0j]))


def test_point_too_close_to_boundary():
    z = np.array([1.0 - 1e-13 + 0j, 0j])
    with pytest.raises(PointTooCloseToBoundary):
        minimal_basis(unit_ball(2), z)
