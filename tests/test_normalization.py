import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from holovol import normalization
from holovol.domains import (
    AffineBallImage,
    HalfspaceConvex,
    L1Ball,
    MembershipOracle,
    Polydisc,
    SiegelHalfSpace,
    sample_interior,
    symmetrized_bidisc,
    unit_ball,
)
from holovol.errors import InclusionViolated, UnsupportedDomain
from holovol.harness import run_scenario
from holovol.minimal_basis import distance_product, minimal_basis
from holovol.normalization import (
    beta_excess,
    build_A,
    build_T,
    c_n,
    lemma_bound,
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
    # z = 0, so p^j - z = p^j carries no cancellation: T (p^k - z) = e_k to
    # rounding, relative to tau_k / tau_j; half the polytopes put z 1e-6
    # inside their first facet
    rng = np.random.default_rng(61)
    for trial in range(20):
        dom = random_bounded_halfspace(rng)
        if trial % 2:
            dom.offsets[0] = 1e-6 * np.linalg.norm(dom.normals[0])
        z = np.zeros(2, dtype=np.complex128)
        basis = minimal_basis(dom, z)
        img = build_T(basis) @ (basis.boundary_points - z).T
        scale = basis.taus[None, :] / basis.taus[:, None]
        assert np.max(np.abs(img - np.eye(2)) / scale) < 1e-12
        if trial % 2:
            assert basis.taus[0] < 2e-6 < basis.taus[1]


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
            nu = supporting_normal(dom, basis, j)
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


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 3))
def test_oracle_normals_match_closed_form_on_ball_images(seed, n):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 2 * np.eye(n)
    ball = AffineBallImage(n, matrix=M, center=rng.normal(size=n) + 1j * rng.normal(size=n))
    oracle = MembershipOracle(n, predicate=ball.contains_many, declared_class="convex",
                              enclosing_polydisc=(ball.center, np.linalg.norm(M, axis=1)))
    basis = minimal_basis(oracle, sample_interior(ball, 1, rng)[0])
    norm = build_A(oracle, basis)
    for j in range(n):
        # the closed form at the oracle's frame point, projected and scaled
        # like the oracle normal: no later components, <nu, d^j> = 1
        dirs = basis.directions[: j + 1]
        coeffs = np.conj(dirs) @ ball.outward_normal(basis.boundary_points[j])
        assert np.max(np.abs(norm.normals[j] - coeffs @ dirs / coeffs[j])) < 1e-4
    assert norm.alpha_max <= 1.0


def test_tilted_normal_fails_the_halfspace_check(monkeypatch):
    # nu_1 = d^1 + 0.5 d^0 is not a supporting normal of the ball at its frame
    # point: check (iii) of verify_normalization must catch it
    B = unit_ball(2)
    basis = minimal_basis(B, np.zeros(2, dtype=np.complex128))
    d = basis.directions
    tilted = {0: d[0], 1: d[1] + 0.5 * d[0]}
    monkeypatch.setattr(normalization, "supporting_normal", lambda dom, b, j: tilted[j])
    norm = build_A(B, basis)
    with pytest.raises(InclusionViolated, match="normalized halfspace") as exc:
        verify_normalization(B, basis, norm, samples=2000, seed=1)
    assert exc.value.margin < -0.05


def _exact_support_domain(kind, n, rng):
    """A ball image, polydisc, l1 ball or bounded polytope of C^n."""
    if kind == "l1ball":
        return L1Ball(n, scale=rng.uniform(0.5, 2.0))
    if kind == "polytope":
        a = rng.normal(size=(3 * n, n)) + 1j * rng.normal(size=(3 * n, n))
        return HalfspaceConvex(n, normals=np.vstack([a, -a]),
                               offsets=rng.uniform(0.5, 2.0, 6 * n))
    center = rng.normal(size=n) + 1j * rng.normal(size=n)
    if kind == "polydisc":
        return Polydisc(n, center=center, radii=rng.uniform(0.5, 2.0, n))
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 2 * np.eye(n)
    return AffineBallImage(n, matrix=M, center=center)


@pytest.mark.parametrize("kind", ["ball_image", "polydisc", "l1ball", "polytope"])
def test_exact_support_check_catches_every_small_tilt(kind):
    # tilting the second normal by 0.01 in normalized coordinates (A's
    # subdiagonal entry) leaves a halfspace that cuts the body at the
    # second frame point; 2,000 interior samples miss most such tilts, the
    # support function none
    for seed in range(30):
        rng = np.random.default_rng(seed)
        dom = _exact_support_domain(kind, 2, rng)
        basis = minimal_basis(dom, sample_interior(dom, 1, rng)[0])
        norm = build_A(dom, basis)
        norm.A[1, 0] += 0.01 * np.exp(2j * np.pi * rng.random())
        with pytest.raises(InclusionViolated, match="normalized halfspace"):
            verify_normalization(dom, basis, norm, samples=2000, seed=seed)


def _without_closed_forms(dom):
    """The same domain with verify_normalization forced onto its samplers."""
    dom = copy.copy(dom)
    dom.disc_radii = dom.support = lambda *args: None
    return dom


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["ball_image", "polydisc", "siegel", "polytope"])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_exact_margins_never_exceed_sampled_ones(seed, kind, n):
    rng = np.random.default_rng(seed)
    if kind == "siegel":
        dom = SiegelHalfSpace(n)
        z = np.zeros(n, dtype=np.complex128)
        z[:-1] = 0.5 * (rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1))
        z[-1] = rng.normal() + 1j * (np.sum(np.abs(z[:-1]) ** 2) + rng.uniform(0.1, 2.0))
    else:
        dom = _exact_support_domain(kind, n, rng)
        z = sample_interior(dom, 1, rng)[0]
    basis = minimal_basis(dom, z)
    norm = build_A(dom, basis)
    exact = verify_normalization(dom, basis, norm, samples=1000, seed=seed)
    sampled = verify_normalization(_without_closed_forms(dom), basis, norm,
                                   samples=1000, seed=seed)
    assert exact["en_mode"] == exact["lemma_mode"] == "exact"
    assert sampled["en_mode"] == "sampled"
    # E_n touches the boundary at the frame points, so rho = 1 up to rounding
    assert abs(exact["en_margin"]) < 1e-9
    parts = ["en", "lemma"]
    if kind != "siegel":
        # so do the supporting hyperplanes
        assert exact["halfspace_mode"] == "exact" and abs(exact["halfspace_margin"]) < 1e-9
        parts.append("halfspace")
    for part in parts:
        assert exact[f"{part}_margin"] <= sampled[f"{part}_margin"] + 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_polytope_support_matches_a_support_lp(n):
    # sup over D of Re g.(x - z) in real coordinates x = (Re x_1, Im x_1, ...):
    # Re g_k x_k = Re g_k Re x_k - Im g_k Im x_k
    rng = np.random.default_rng(89 + n)
    for _ in range(8):
        dom = _exact_support_domain("polytope", n, rng)
        z = sample_interior(dom, 1, rng)[0]
        G = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        h = dom.support(G, z)
        A = np.ascontiguousarray(dom.normals).view(np.float64)
        for g, hg in zip(G, h):
            c = np.empty(2 * n)
            c[0::2], c[1::2] = g.real, -g.imag
            res = linprog(-c, A_ub=A, b_ub=dom.offsets, bounds=[(None, None)] * (2 * n),
                          method="highs")
            assert res.status == 0
            assert hg == pytest.approx(-res.fun - (g @ z).real, rel=1e-9, abs=1e-9)


def test_unbounded_polytope_has_no_support_function():
    assert square_domain().support(np.eye(2, dtype=np.complex128),
                                   np.zeros(2, dtype=np.complex128)) is None


@pytest.mark.parametrize("n", [2, 3])
def test_l1_support_matches_a_boundary_brute_force(n):
    # a linear functional peaks over the l1 ball at an extreme point
    # s e^{i theta} e_k; 4,096 phases come within s|g_k|(1 - cos(pi/4096))
    rng = np.random.default_rng(97 + n)
    theta = np.exp(2j * np.pi * np.arange(4096) / 4096)
    for _ in range(10):
        dom = L1Ball(n, scale=rng.uniform(0.5, 2.0))
        z = sample_interior(dom, 1, rng)[0]
        G = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
        h = dom.support(G, z)
        for g, hg in zip(G, h):
            brute = max(float(np.max((dom.scale * theta * gk).real)) for gk in g) \
                - (g @ z).real
            assert brute <= hg + 1e-12
            assert hg - brute <= 1e-6 * dom.scale * np.abs(g).max()


def test_far_polytope_point_passes_the_exact_support_test():
    # polytope_normalize stream entry 175 of seed 4: at z, tau_1 = 2.5e-4 and
    # a vertex ~24 away has |Im W_1| = 2.7e4; a T built from p^1 - z tilts
    # row 1's phase by ~4e-11, which put this point's exact margin at
    # -1.12e-6, an InclusionViolated
    config = {
        "name": "polytope-175",
        "domain": {"variant": "halfspace", "n": 2, "constraints": [
            {"a": [[0.4944637409542617, 0.15384397920428006],
                   [0.08133130876545595, 0.8516001744707477]], "b": 1.3834221578921189},
            {"a": [[-0.2195239337106626, -0.8539887804336057],
                   [0.41788610080035493, 0.2188232441483194]], "b": 0.6390903831330559},
            {"a": [[0.8626294729123656, -0.4905847638261245],
                   [0.12323583993179964, 0.0031479709184953015]], "b": 1.4466645294889842},
            {"a": [[0.25596040131585657, 0.8739468550447026],
                   [-0.38943340425135703, -0.13799562010766256]], "b": 1.9232346408247498},
            {"a": [[-0.909521526184197, 0.16017634028033206],
                   [-0.09157746965120704, -0.37246167651753154]], "b": 1.7541439018284426}]},
        # the sampler's first draw for that entry when the triangulation's apex
        # was the inscribed-ball centre (its draws move with the apex)
        "points": {"explicit": [[[-1.191085392137202, -10.18309616354134],
                                 [-23.95442201207532, -0.289911911062533]]]},
        "checks": ["normalization"],
    }
    point = run_scenario(config, workers=1, seed=0)["points"][0]
    assert point["taus"][0] == pytest.approx(2.5074e-4, rel=1e-4)
    check = point["checks"]["normalization"]
    assert "error" not in check, check["error"]
    assert check["halfspace_mode"] == "exact"
    assert check["halfspace_margin"] >= -1e-9
    assert check["pass"] is True


def test_lemma_bound_matches_a_phase_brute_force():
    # at n = 2 the max of ||A^{-1} w||_1 over |w| = r is reached at
    # w = r conj(v)/|v| with v = b_1 + s b_2 for one phase s; an alpha whose
    # phase lies on the 4,096-point grid puts that s on the grid
    rng = np.random.default_rng(107)
    r = (1.0 - 1e-6) / c_n(2)
    phases = np.exp(2j * np.pi * np.arange(4096) / 4096)
    for _ in range(50):
        alpha = rng.random() * phases[rng.integers(4096)]
        A = np.array([[1.0, 0.0], [alpha, 1.0]], dtype=np.complex128)
        B = np.linalg.inv(A)
        V = B[0][None, :] + phases[:, None] * B[1][None, :]
        W = r * np.conj(V) / np.linalg.norm(V, axis=1, keepdims=True)
        assert lemma_bound(A, r) == pytest.approx(lemma_margins(A, W).min(), abs=1e-12)


def test_c_convex_oracle_normals_unsupported():
    G = symmetrized_bidisc()
    basis = minimal_basis(G, np.array([0.2 + 0.1j, 0.05 - 0.02j]))
    with pytest.raises(UnsupportedDomain):
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
    # A = I: the worst point of the sphere of radius (1 - 1e-6)/c_2 has l1
    # norm (1 - 1e-6) sqrt(2/5)
    assert res["lemma_mode"] == "exact"
    assert res["lemma_margin"] == pytest.approx(1.0 - (1.0 - 1e-6) * np.sqrt(2.0 / 5.0),
                                                abs=1e-6)


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
