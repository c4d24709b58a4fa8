import numpy as np
import pytest

from holovol.domains import (
    AffineBallImage,
    HalfspaceConvex,
    Polydisc,
    sample_interior,
    symmetrized_bidisc,
    unit_ball,
)
from holovol.errors import NotSupporting, UnsupportedBackend
from holovol.minimal_basis import distance_product, minimal_basis
from holovol.normalization import (
    beta_excess,
    build_A,
    build_T,
    c_n,
    lemma_margins,
    random_admissible_A,
    sample_en,
    supporting_normal,
    verify_normalization,
)


def ellipsoid_21():
    return AffineBallImage(2, matrix=np.diag([2.0, 1.0]).astype(np.complex128),
                           center=np.zeros(2, dtype=np.complex128))


def square_domain():
    normals = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=np.complex128)
    return HalfspaceConvex(2, normals=normals, offsets=np.ones(4))


def random_bounded_halfspace(rng, m=8):
    normals = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
    normals = np.vstack([normals, -normals, 1j * normals, -1j * normals])
    offsets = rng.uniform(0.8, 2.5, size=normals.shape[0])
    return HalfspaceConvex(2, normals=normals, offsets=offsets)


# ---------------------------------------------------------------------------
# c_n and frozen matrices
# ---------------------------------------------------------------------------


def test_cn_values():
    assert c_n(1) == pytest.approx(1.0, rel=1e-15)
    assert c_n(2) == pytest.approx(np.sqrt(5.0), rel=1e-15)
    assert c_n(3) == pytest.approx(np.sqrt(21.0), rel=1e-15)
    assert c_n(4) == pytest.approx(np.sqrt(85.0), rel=1e-15)


def test_build_T_ellipsoid_frozen():
    E = ellipsoid_21()
    basis = minimal_basis(E, np.zeros(2, dtype=np.complex128))
    T = build_T(basis)
    assert T == pytest.approx(np.array([[0, 1], [0.5, 0]], dtype=np.complex128),
                              abs=1e-9)
    assert abs(np.linalg.det(T)) == pytest.approx(0.5, rel=1e-12)


def test_T_maps_frame_points_to_basis_vectors():
    rng = np.random.default_rng(61)
    for _ in range(10):
        dom = random_bounded_halfspace(rng)
        z = np.zeros(2, dtype=np.complex128)
        basis = minimal_basis(dom, z)
        T = build_T(basis)
        img = (basis.boundary_points - z) @ T.T
        assert np.max(np.abs(img - np.eye(2))) < 1e-9


def test_det_T_equals_inverse_distance_product():
    rng = np.random.default_rng(67)
    for _ in range(20):
        dom = random_bounded_halfspace(rng)
        z = 0.05 * (rng.normal(size=2) + 1j * rng.normal(size=2))
        if not dom.contains_many(z[None, :])[0]:
            z = np.zeros(2, dtype=np.complex128)
        basis = minimal_basis(dom, z)
        T = build_T(basis)
        assert abs(np.linalg.det(T)) * distance_product(basis) == pytest.approx(
            1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# supporting normals
# ---------------------------------------------------------------------------


def test_square_supporting_normals_are_axis_aligned():
    D = square_domain()
    basis = minimal_basis(D, np.zeros(2, dtype=np.complex128))
    nu0 = supporting_normal(D, basis, 0)
    nu1 = supporting_normal(D, basis, 1)
    assert nu0 / np.linalg.norm(nu0) == pytest.approx(
        np.array([1.0 + 0j, 0j]), abs=1e-12)
    assert nu1 / np.linalg.norm(nu1) == pytest.approx(
        np.array([0j, 1.0 + 0j]), abs=1e-12)


def test_supporting_normal_separates_samples():
    rng = np.random.default_rng(71)
    for dom in (unit_ball(2), ellipsoid_21(),
                Polydisc(2, center=np.zeros(2, dtype=np.complex128),
                         radii=np.array([1.0, 0.5])),
                random_bounded_halfspace(rng)):
        z = np.zeros(2, dtype=np.complex128)
        basis = minimal_basis(dom, z)
        pts = sample_interior(dom, 800, rng)
        for j in range(2):
            nu = supporting_normal(dom, basis, j, seed=1)
            # Re<x - p^j, nu> <= 0 for interior x
            s = ((pts - basis.boundary_points[j][None, :]) @ np.conj(nu)).real
            assert s.max() < 1e-7 * np.linalg.norm(nu)
            # orientation: positive along the slice direction
            align = np.vdot(basis.directions[j], nu)
            assert align.real > 0 and abs(align.imag) < 1e-9 * abs(align)


def test_supporting_normal_structure_zero_later_components():
    rng = np.random.default_rng(73)
    dom = random_bounded_halfspace(rng)
    basis = minimal_basis(dom, np.zeros(2, dtype=np.complex128))
    nu0 = supporting_normal(dom, basis, 0)
    # the first normal must be parallel to the first direction
    cross = nu0 - np.vdot(basis.directions[0], nu0) * basis.directions[0]
    assert np.linalg.norm(cross) < 1e-6 * np.linalg.norm(nu0)


def test_c_convex_oracle_normals_unsupported():
    G = symmetrized_bidisc()
    basis = minimal_basis(G, np.array([0.2 + 0.1j, 0.05 - 0.02j]))
    with pytest.raises(UnsupportedBackend):
        supporting_normal(G, basis, 0)


# ---------------------------------------------------------------------------
# the triangular normal form A
# ---------------------------------------------------------------------------


def test_A_identity_for_ellipsoid_at_center():
    E = ellipsoid_21()
    basis = minimal_basis(E, np.zeros(2, dtype=np.complex128))
    norm = build_A(E, basis)
    assert norm.A == pytest.approx(np.eye(2, dtype=np.complex128), abs=1e-9)
    assert norm.alpha_max < 1e-9
    assert norm.triangularity_residual < 1e-9


def test_A_frozen_ball_off_center():
    # unit ball at (1/2, 0): alpha_21 = 1/3 with the canonical frame
    B = unit_ball(2)
    basis = minimal_basis(B, np.array([0.5 + 0j, 0j]))
    norm = build_A(B, basis)
    assert norm.A == pytest.approx(
        np.array([[1.0, 0.0], [1.0 / 3.0, 1.0]], dtype=np.complex128), abs=1e-7)


def test_A_unit_diagonal_and_bounded_entries():
    rng = np.random.default_rng(79)
    for _ in range(15):
        dom = random_bounded_halfspace(rng)
        basis = minimal_basis(dom, np.zeros(2, dtype=np.complex128))
        norm = build_A(dom, basis)
        A = norm.A
        assert np.all(np.diag(A) == 1.0)
        assert np.max(np.abs(np.triu(A, 1))) == 0.0
        assert norm.alpha_max <= 1.0 + 1e-4


# ---------------------------------------------------------------------------
# the E_n lemma (universal inclusion)
# ---------------------------------------------------------------------------


def test_lemma_margin_identity_matrix():
    # for A = I the worst point of the sphere of radius 1/c_2 has l1 norm
    # sqrt(2)/sqrt(5); the margin is 1 - sqrt(2/5)
    A = np.eye(2, dtype=np.complex128)
    th = np.linspace(0, np.pi / 2, 2001)
    W = (np.stack([np.cos(th), np.sin(th)], axis=1)).astype(np.complex128) / c_n(2)
    m = lemma_margins(A, W)
    assert m.min() == pytest.approx(1.0 - np.sqrt(2.0 / 5.0), abs=1e-6)
    assert m.min() > 0


def test_lemma_universality_random_A():
    rng = np.random.default_rng(83)
    r = (1 - 1e-6) / c_n(3)
    for _ in range(200):
        A = random_admissible_A(3, rng)
        w = rng.normal(size=(50, 3)) + 1j * rng.normal(size=(50, 3))
        w *= r / np.linalg.norm(w, axis=1)[:, None]
        assert lemma_margins(A, w).min() > 0
        assert beta_excess(A) <= 1e-12


def test_beta_excess_detects_violation():
    # B = A^{-1} entries must obey |B_jk| <= 2^{j-k-1}; an inflated
    # subdiagonal in A^{-1} shows up as positive excess
    A = np.array([[1.0, 0.0], [-3.0, 1.0]], dtype=np.complex128)  # |alpha|>1
    assert beta_excess(A) > 0


def test_sample_en_stays_in_l1_ball():
    rng = np.random.default_rng(89)
    w = sample_en(3, 20_000, rng)
    norms = np.abs(w).sum(axis=1)
    assert norms.max() < 1.0
    assert norms.max() > 0.999  # samples reach the boundary
    assert norms.min() > 0.05  # but are not glued to it


# ---------------------------------------------------------------------------
# end-to-end verification
# ---------------------------------------------------------------------------


def test_verify_normalization_on_model_domains():
    rng = np.random.default_rng(97)
    for dom in (unit_ball(2), ellipsoid_21(),
                Polydisc(2, center=np.zeros(2, dtype=np.complex128),
                         radii=np.array([1.0, 0.5])),
                random_bounded_halfspace(rng)):
        z = np.zeros(2, dtype=np.complex128)
        basis = minimal_basis(dom, z)
        norm = build_A(dom, basis)
        res = verify_normalization(dom, basis, norm, samples=1500, seed=3)
        assert res["en_margin"] > -1e-6
        assert res["lemma_margin"] > 0
        assert res["halfspace_margin"] > -1e-6


def test_verify_normalization_frozen_lemma_margin():
    E = ellipsoid_21()
    basis = minimal_basis(E, np.zeros(2, dtype=np.complex128))
    norm = build_A(E, basis)
    res = verify_normalization(E, basis, norm, samples=4000, seed=5)
    # A = I: documented worst-case margin 1 - sqrt(2)/sqrt(5) over the sphere
    assert res["lemma_margin"] == pytest.approx(0.3675445573, abs=2e-3)


def test_square_halfspace_image_stays_left_of_one():
    D = square_domain()
    z = np.zeros(2, dtype=np.complex128)
    basis = minimal_basis(D, z)
    norm = build_A(D, basis)
    rng = np.random.default_rng(101)
    box = np.array([[-1.0, 1.0], [-40, 40], [-1, 1], [-40, 40]])
    pts = sample_interior(D, 3000, rng, box=box)
    W = norm.map_points(basis, pts)
    assert W.real.max() < 1.0
