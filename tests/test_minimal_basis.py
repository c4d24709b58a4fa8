import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import random_unitary, real_form, secular_numpy

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
    Unbounded,
)
from holovol import geometry
from holovol.harness import run_scenario
from holovol.linalg import complement_within, uniform_ball
from holovol.minimal_basis import (
    EPS_CLOSED,
    EPS_POLAR,
    _polar_slice,
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
    assert basis.methods == ["support", "support"]
    assert not basis.approximate


@pytest.mark.parametrize("seed", range(6))
def test_polydisc_support_formula_on_random_slices(seed):
    # tau = min_k (r_k - |z_k - c_k|) / |row_k V| on every slice, reached on
    # the boundary; the polar search is the independent route
    rng = np.random.default_rng(seed)
    n = 2 + seed % 2
    P = Polydisc(n, center=rng.normal(size=n) + 1j * rng.normal(size=n),
                 radii=rng.uniform(0.3, 2.0, n))
    z = sample_interior(P, 1, rng)[0]
    V = random_unitary(n, rng)[:, :int(rng.integers(1, n))]
    r = slice_distance(P, z, V)
    assert r.method == "support"
    assert abs(_polar_slice(P, z, V).tau - r.tau) <= 1e-9 * r.tau
    assert np.max(np.abs(r.p - P.center) / P.radii) == pytest.approx(1.0, abs=1e-13)
    assert np.linalg.norm(r.p - z) == pytest.approx(r.tau, rel=1e-13)


L1_Z3 = np.array([0.3 - 0.2j, -0.1j, 0.25 + 0.4j])


@pytest.mark.parametrize("axes", [[0], [2], [0, 2], [2, 1]])
def test_l1_axis_slices_are_aligned(axes):
    # V spans coordinate axes, permuted and with phases: every face normal
    # projects to length sqrt(k), so tau = (s - |z|_1) / sqrt(k)
    V = np.zeros((3, len(axes)), dtype=np.complex128)
    for col, axis in enumerate(axes):
        V[axis, col] = np.exp(0.7j * (col + 1))
    r = slice_distance(L1Ball(n=3, scale=2.0), L1_Z3, V)
    assert r.method == "aligned"
    assert r.tau == pytest.approx((2.0 - np.sum(np.abs(L1_Z3))) / math.sqrt(len(axes)),
                                  rel=1e-14)
    assert np.sum(np.abs(r.p)) == pytest.approx(2.0, rel=1e-14)
    assert np.linalg.norm(r.p - L1_Z3) == pytest.approx(r.tau, rel=1e-14)


def test_l1_unitary_mix_of_two_axes_is_aligned():
    # the columns mix e_1 and e_3, so no column is a coordinate axis, but
    # the slice is the coordinate plane they span
    V = np.zeros((3, 2), dtype=np.complex128)
    V[[0, 2], :] = random_unitary(2, np.random.default_rng(4))
    L = L1Ball(n=3, scale=2.0)
    r = slice_distance(L, L1_Z3, V)
    assert r.method == "aligned"
    assert r.tau == pytest.approx((2.0 - np.sum(np.abs(L1_Z3))) / math.sqrt(2.0), rel=1e-14)
    assert abs(_polar_slice(L, L1_Z3, V).tau - r.tau) <= EPS_POLAR * r.tau


def test_l1_ball_from_center():
    # boundary of {|z1| + |z2| < 1} nearest to 0 at Euclidean distance 1/sqrt(2);
    # the orthogonal complement slice has the same radius by symmetry
    L = L1Ball(n=2, scale=1.0)
    basis = minimal_basis(L, np.zeros(2, dtype=np.complex128))
    assert basis.taus == pytest.approx([2 ** -0.5, 2 ** -0.5], rel=1e-12)
    assert basis.methods == ["aligned", "ellipse"]
    assert not basis.approximate


def mp_l1_line_distance(z, u, s):
    """Least |zeta| with |z_1 + zeta u_1| + |z_2 + zeta u_2| = s, in 25-digit
    mpmath: each ray's exit radius by bisection, minimized over the ray
    angle by a 96-point scan and golden-section refinement."""
    with mp.workdps(25):
        return _mp_l1_line_distance(z, u, s)


def _mp_l1_line_distance(z, u, s):
    z = [mp.mpc(c.real, c.imag) for c in z]
    u = [mp.mpc(c.real, c.imag) for c in u]
    s = mp.mpf(s)

    def exit_radius(theta):
        w = mp.expj(theta)
        lo, hi = mp.mpf(0), 4 * s
        for _ in range(90):
            mid = (lo + hi) / 2
            if abs(z[0] + mid * w * u[0]) + abs(z[1] + mid * w * u[1]) < s:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    step = 2 * mp.pi / 96
    scan = [exit_radius(k * step) for k in range(96)]
    k = min(range(96), key=scan.__getitem__)
    a, b = (k - 1) * step, (k + 1) * step
    g = (mp.sqrt(5) - 1) / 2
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = exit_radius(c), exit_radius(d)
    for _ in range(40):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = exit_radius(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = exit_radius(d)
    return float(min(fc, fd, scan[k]))


L1_ELLIPSE_POINTS = [
    (1.0, np.array([0j, 0j])),                        # every direction ties
    (1.0, np.array([0.3 + 0j, 0j])),                  # a zero coordinate
    (1.0, np.array([0j, -0.45j])),
    (1.0, np.array([0.2 - 0.1j, 0.25j])),             # off the major axis
    (1.0, np.array([0.05 + 0.02j, 0.6 - 0.1j])),      # on it, at the near vertex
    (1.0, np.array([0.5 + 0j, (0.5 - 1e-6) * 1j])),   # |z|_1 / s = 1 - 1e-6
    (1.0, np.array([0j, 1.0 - 1e-6 + 0j])),
    (3.0, np.array([-0.9 + 0.4j, 0.7 + 0.2j])),
]


@pytest.mark.parametrize("scale, z", L1_ELLIPSE_POINTS)
def test_l1_second_slice_is_an_exact_ellipse(scale, z):
    L = L1Ball(n=2, scale=scale)
    basis = minimal_basis(L, z)
    assert basis.methods == ["aligned", "ellipse"]
    assert not basis.approximate and basis.tau_rel_err == EPS_CLOSED
    V = complement_within(np.eye(2, dtype=np.complex128), basis.directions[0])
    tau, p = basis.taus[1], basis.boundary_points[1]
    assert tau == pytest.approx(mp_l1_line_distance(z, V[:, 0], scale), rel=1e-12)
    assert np.sum(np.abs(p)) == pytest.approx(scale, rel=1e-13)
    assert np.linalg.norm(p - z) == pytest.approx(tau, rel=1e-13)
    assert abs(_polar_slice(L, z, V).tau - tau) <= EPS_POLAR * tau


def test_l1_slices_at_n3_keep_the_polar_search():
    # (a line at n = 2 that is not orthogonal to phase(z) keeps it too: see
    # test_polar_march_is_invariant_to_block_size)
    basis = minimal_basis(L1Ball(n=3, scale=1.0), np.array([0.2 + 0.1j, -0.15j, 0.1 + 0j]))
    assert basis.methods == ["aligned", "polar", "polar"]
    assert basis.approximate


def mp_ellipse_distance(a2, z):
    """Distance from z to the boundary of sum |x_k|^2 / a2_k < 1, by 50-digit
    bisection of the Lagrange condition (a2_2 < a2_1; z_2 != 0)."""
    with mp.workdps(50):
        a2 = [mp.mpf(a) for a in a2]
        z = [mp.mpc(c.real, c.imag) for c in z]

        def excess(nu):
            return sum(abs(z[k]) ** 2 * a2[k] / (a2[k] + nu) ** 2 for k in range(2)) - 1

        lo, hi = -a2[1], mp.mpf(0)
        for _ in range(170):
            mid = (lo + hi) / 2
            if excess(mid) > 0:
                lo = mid
            else:
                hi = mid
        nu = (lo + hi) / 2
        return float(mp.sqrt(sum(abs(z[k] * a2[k] / (a2[k] + nu) - z[k]) ** 2
                                 for k in range(2))))


@pytest.mark.parametrize("e", [1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6])
def test_quadric_projection_near_the_hard_case(e):
    # M = diag(2, 0.5), z = (0.3, e): at e = 0 the top eigencomponent of phi
    # vanishes; just above it 1 - t lambda_max is about e, below what a
    # bisection on t resolves
    U = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    for rotation in (np.eye(2), U):
        E = AffineBallImage(2, matrix=rotation @ np.diag([2.0, 0.5]).astype(np.complex128),
                            center=np.zeros(2, dtype=np.complex128))
        z = rotation @ np.array([0.3, e], dtype=np.complex128)
        r = slice_distance(E, z, np.eye(2, dtype=np.complex128))
        w = E.to_ball(r.p[None, :])[0]
        assert abs(float(np.sum(np.abs(w) ** 2)) - 1.0) <= 1e-12
        assert r.tau == pytest.approx(mp_ellipse_distance([4.0, 0.25], [0.3, e]), rel=1e-9)


def test_quadric_taus_scale_with_the_ball_image():
    # an absolute floor in the quadric solver once took slice 2 for affine
    # (s = 5e7, 6e7) and then for a complex line (s >= 7e7)
    z = np.array([0.3 + 0.1j, 0.1 - 0.05j])

    def taus(s):
        E = AffineBallImage(2, matrix=s * np.diag([1.0, 0.5]).astype(np.complex128),
                            center=np.zeros(2, dtype=np.complex128))
        basis = minimal_basis(E, s * z)
        assert basis.methods == ["quadric", "quadric"]
        return basis.taus / s

    unit = taus(1.0)
    for s in (1e-8, 1e-3, 3e7, 5e7, 6e7, 7e7, 1e20, 1e100, 1e150):
        assert taus(s) == pytest.approx(unit, rel=1e-13), s


def _ldexp(a, m):
    """a 2^m exactly, for real or complex a."""
    return np.ldexp(a.real, m) + 1j * np.ldexp(a.imag, m) if np.iscomplexobj(a) else np.ldexp(a, m)


def test_quadric_projection_is_exactly_scale_equivariant():
    # xi -> 2^m xi maps (H, phi) to (4^-m H, 2^-m phi); the solver rescales
    # by powers of two, so the solution follows bit for bit, real or complex
    rng = np.random.default_rng(23)
    cases = [_random_quadric(rng, int(rng.integers(2, 7))) for _ in range(40)]
    cases += [_random_complex_quadric(rng, int(rng.integers(1, 4))) for _ in range(40)]
    for H, phi, g in cases:
        try:
            xi = geometry.nearest_on_quadric(H, phi, g)
        except Unbounded:
            continue
        for m in (-400, -31, 1, 200):
            got = geometry.nearest_on_quadric(_ldexp(H, -2 * m), _ldexp(phi, -m), g)
            assert np.array_equal(got, _ldexp(xi, m)), m
    # a subnormal H, exact because its entries are small Gaussian integers:
    # the solver scales it by 2^1058, which overflows if formed in one piece
    B = rng.integers(-8, 9, (3, 2)) + 1j * rng.integers(-8, 9, (3, 2))
    H, phi = B @ B.conj().T, rng.normal(size=3) + 1j * rng.normal(size=3)
    m = 532
    assert 0.0 < np.abs(_ldexp(H, -2 * m)).max() < np.finfo(float).tiny
    got = geometry.nearest_on_quadric(_ldexp(H, -2 * m), _ldexp(phi, -m), -0.5)
    assert np.array_equal(got, _ldexp(geometry.nearest_on_quadric(H, phi, -0.5), m))
    with pytest.raises(Unbounded):
        geometry.nearest_on_quadric(np.zeros((2, 2)), np.zeros(2), -1.0)


def _random_complex_quadric(rng, k, hard=False):
    """(H, phi, g): H complex Hermitian PSD of random rank, g < 0.  With hard,
    the top eigenvalue is repeated and phi has no component along it."""
    Q = random_unitary(k, rng)
    lam = np.sort(rng.random(k)) * rng.choice([1e-3, 1.0, 1e3])
    lam[:rng.integers(0, k)] = 0.0  # rank deficient
    phit = rng.normal(size=k) + 1j * rng.normal(size=k)
    if hard:
        top = int(rng.integers(1, k))  # 1 to k - 1 top eigenvalues
        lam[k - top:] = lam[-1] if lam[-1] > 0.0 else 1.0
        lam[:k - top] *= 0.5
        phit[k - top:] = 0.0
        phit *= 0.05 * math.sqrt(lam[-1])  # mostly too small to reach q = 0 off the top
    H = (Q * lam) @ Q.conj().T
    return 0.5 * (H + H.conj().T), Q @ phit, -rng.random() - 1e-3


def _q(H, phi, g, c):
    return float(np.vdot(c, H @ c).real + 2.0 * np.vdot(phi, c).real + g)


def test_complex_quadric_solve_agrees_with_its_real_lowering():
    # the k x k complex solve against the 2k x 2k solve of its real lowering:
    # 2 Re(phi* c) = Re(sum_j w_j c_j) for w = 2 conj(phi)
    rng = np.random.default_rng(27)
    for hard in (False, True):
        stepped = 0
        for _ in range(200):
            H, phi, g = _random_complex_quadric(rng, int(rng.integers(2 if hard else 1, 5)), hard)
            c = geometry.nearest_on_quadric(H, phi, g)
            xi = geometry.nearest_on_quadric(*real_form(H, 2.0 * np.conj(phi), g))
            ref = xi[:H.shape[0]] + 1j * xi[H.shape[0]:]
            if hard:
                # ties in the top eigenspace: the least norm and q(c) = 0
                assert np.linalg.norm(c) == pytest.approx(np.linalg.norm(ref), rel=1e-13)
                assert _q(H, phi, g, c) == pytest.approx(0.0, abs=1e-12)
                lam, Q = np.linalg.eigh(H)
                top = Q[:, lam >= lam[-1] * (1.0 - 1e-10)]
                stepped += np.linalg.norm(top.conj().T @ c) > 1e-12 * np.linalg.norm(c)
            else:
                assert np.linalg.norm(c - ref) <= 1e-13 * np.linalg.norm(ref)
        if hard:
            assert stepped >= 150  # the hard branch: c leaves along the top space


@pytest.mark.parametrize("n", [2, 3])
def test_quadric_directions_are_exact_near_the_boundary(n):
    # on the ball image M = s U the nearest boundary point of
    # z = c + s U ((1 - gap) w), |w| = 1, lies along U w.  p - z keeps only
    # eps|z|/tau of that direction, so d^1 must come from the kernel itself
    rng = np.random.default_rng(27 + n)
    for _ in range(10):
        U, s = random_unitary(n, rng), rng.uniform(1.0, 3.0)
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        ball = AffineBallImage(n, matrix=s * U, center=c)
        w = uniform_ball(n, 1, rng)[0]
        w /= np.linalg.norm(w)
        for gap in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
            basis = minimal_basis(ball, c + s * (U @ ((1.0 - gap) * w)))
            assert basis.methods[0] == "quadric"
            assert np.linalg.norm(basis.directions[0] - U @ w) <= 1e-13, gap


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
        enclosing_polydisc=(np.zeros(2), np.ones(2)))
    P = Polydisc(2, center=np.zeros(2, dtype=np.complex128),
                 radii=np.array([1.0, 0.6]))
    oracle_pd = MembershipOracle(
        2, predicate=P.contains_many, declared_class="convex",
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


def convex_oracle(ball: AffineBallImage) -> MembershipOracle:
    """The ellipsoid seen only through its membership predicate."""
    return MembershipOracle(
        ball.n, predicate=ball.contains_many, declared_class="convex",
        enclosing_polydisc=(ball.center, np.linalg.norm(ball.matrix, axis=1)))


# perfbench's panel exhibit (502, 3): an ellipsoid oracle whose nearest
# boundary point is nearly non-unique at the second point, and its two points
EXHIBIT_502_3 = AffineBallImage(
    2,
    matrix=np.array([[0.4988373450768135 - 0.4717185862434975j,
                      -1.0080066787565887 + 0.15489543579370998j],
                     [0.374665948675867 + 0.8302455867704479j,
                      -0.02859479330759975 + 0.5545642144104262j]]),
    center=np.array([-0.47390453018931256 - 0.14026726408939683j,
                     0.07045171240812012 - 0.3125494160491395j]))
EXHIBIT_502_3_POINTS = (
    np.array([-1.1239185033377268 + 0.11306216128907987j,
              -0.4442968199619083 - 0.9048254527753663j]),
    np.array([-0.676287102463252 + 0.7330740603628665j,
              0.6329319120569106 + 0.06852691766195962j]),
)


def test_polar_search_matches_quadric_on_ellipsoid_oracles():
    ell = ellipsoid_21()
    cases = [(EXHIBIT_502_3, z) for z in EXHIBIT_502_3_POINTS]
    cases += [(ell, np.array([0.4 + 0.3j, -0.2 + 0.1j])),
              (ell, np.array([-1.1 + 0.2j, 0.1 - 0.3j]))]
    for ball, z in cases:
        exact = minimal_basis(ball, z).taus
        polar = minimal_basis(convex_oracle(ball), z)
        assert polar.methods == ["polar", "polar"]
        assert np.max(np.abs(polar.taus - exact) / exact) < 1e-5


def _counted_bidisc():
    """The symmetrized bidisc, and the row count of each predicate call on it."""
    G = symmetrized_bidisc()
    pred = G.predicate
    calls = []

    def counted(pts):
        calls.append(pts.shape[0])
        return pred(pts)

    G.predicate = counted
    return G, calls


def test_bidisc_predicate_call_budget():
    # grid and stencil rounds stop at a proven winner, each round's window
    # follows delta^2, and only the last round's winner is narrowed to
    # adjacent floats: 85 calls here, against 111 with a second march and
    # search along the winning direction, 192 with a window of 4 delta and
    # 412 when every round ran to adjacent floats.  The calls hold 152,513
    # rows; a change to how batches are built must not add rows
    G, calls = _counted_bidisc()
    minimal_basis(G, np.array([0.3 - 0.2j, 0.1 + 0.15j]))
    assert len(calls) <= 95
    assert sum(calls) <= 155_000


def _polar_cases():
    """(predicate, z, V, cap): ellipsoid oracles of C^2 and C^3 on slices of
    every dimension k = 1..n, and the bidisc on the plane and on a line."""
    rng = np.random.default_rng(2503)
    for n in (2, 3):
        M = (random_unitary(n, rng) * rng.uniform(0.4, 1.5, n)) @ random_unitary(n, rng)
        ball = AffineBallImage(n, matrix=M, center=np.zeros(n))
        z = M @ (0.6 * uniform_ball(n, 1, rng)[0])
        U = random_unitary(n, rng)
        for k in range(1, n + 1):
            yield ball.contains_many, z, U[:, :k], ball.circumscribed_radius(z)
    G = symmetrized_bidisc()
    z = np.array([0.3 - 0.2j, 0.1 + 0.15j])
    for V in (np.eye(2, dtype=np.complex128), np.array([[0.6 + 0j], [0.8j]])):
        yield G.contains_many, z, V, G.circumscribed_radius(z)


@pytest.mark.parametrize("contains_many, z, V, cap", list(_polar_cases()))
def test_polar_tau_is_the_first_exit_along_its_direction(contains_many, z, V, cap):
    # tau is narrowed in place, inside the last round's bracket: marching the
    # returned direction afresh from 0 finds the same exit
    tau, u = geometry.polar_first_exit(contains_many, z, V, cap)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(V @ (V.conj().T @ u), u, rtol=0.0, atol=1e-15)  # u lies in the slice
    again = geometry.ray_exit(contains_many, z, u, 1.5 * tau)
    assert abs(tau - again) <= 1e-14 * again


def test_minimal_basis_tests_membership_once():
    # every slice starts from the same z, so one single-point call suffices
    G, calls = _counted_bidisc()
    minimal_basis(G, np.array([0.3 - 0.2j, 0.1 + 0.15j]))
    assert calls.count(1) == 1


def test_a_winner_below_the_window_is_still_found():
    # the window only places the fine radii: a candidate exiting at 0.8 tau,
    # far below tau (1 - w), is bracketed by the coarse radii and must win
    Minv = np.diag([1.0, 1.25])  # semi-axes 1 (e_1, the incumbent) and 0.8 (e_2)
    z = np.zeros(2, dtype=np.complex128)

    def contains_many(pts):
        return np.sum(np.abs(pts @ Minv.T) ** 2, axis=1) < 1.0

    t = np.array([0.0, 0.1, 0.3, 0.6, np.pi / 2])
    A = np.stack([np.cos(t), np.sin(t)], axis=1).astype(np.complex128)
    exact = _ellipsoid_exits(Minv, z, A)
    tau, w, steps = 1.0, 1e-10, 32
    coarse = np.linspace(1.3 * tau / steps, 1.3 * tau, steps)
    radii = np.concatenate([coarse[coarse < tau * (1.0 - w)],
                            np.linspace(tau * (1.0 - w), tau * (1.0 + w), 17)])
    taus = geometry._batch_exits(contains_many, z, A, radii, argmin_only=True)
    _, hi, _ = geometry._first_flip(geometry._march_brackets(contains_many, z, A, radii),
                                    radii)
    assert int(np.argmin(taus)) == 4 and exact[4] == pytest.approx(0.8 * tau, rel=1e-15)
    assert exact[4] * (1.0 - 1e-13) <= taus[4] <= hi[4]
    assert np.isinf(taus[:4]).all()


def test_section_search_finds_first_of_two_flips():
    # inside on [0, 1/3) and (0.45, 0.7): bisection from (0, 1] would test
    # 0.5, land inside and converge on the second exit at 0.7
    first, reenter, second = 1.0 / 3.0, 0.45, 0.7

    def contains_many(pts):
        r = pts[:, 0].real
        return (r < first) | ((r > reenter) & (r < second))

    z = np.zeros(2, dtype=np.complex128)
    A = np.array([[1.0 + 0j, 0j]])
    tau = geometry._section_search(contains_many, z, A, np.array([0.0]),
                                   np.array([1.0]))[0]
    assert abs(tau - first) <= 2 * np.spacing(first)


def test_first_flip_brackets_uneven_radii():
    radii = np.array([0.1, 0.3, 0.7, 1.5])
    inside = np.array([[True, True, False, False],  # first outside at 0.7
                       [False, False, True, False],  # outside at once
                       [True, True, True, True]])  # never outside
    lo, hi, exited = geometry._first_flip(inside, radii)
    assert exited.tolist() == [True, True, False]
    assert lo[:2].tolist() == [0.3, 0.0]
    assert hi[:2].tolist() == [0.7, 0.1]


def _ellipsoid_exits(Minv, z, A):
    """Exact first exits of z + r*A[i] from {x : |Minv x| < 1} (z inside)."""
    u = Minv @ z
    b = A @ Minv.T
    bb = np.sum(np.abs(b) ** 2, axis=1)
    ub = np.real(b @ u.conj())
    return (-ub + np.sqrt(ub ** 2 + bb * (1.0 - np.vdot(u, u).real))) / bb


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 125))
def test_argmin_only_section_search_proves_the_winner(seed, m):
    rng = np.random.default_rng(seed)
    # a random ellipsoid M(ball) of C^2 (singular values in [0.3, 2]), a point
    # inside it and m rays, bracketed by a march over uneven radii
    M = (random_unitary(2, rng) * rng.uniform(0.3, 2.0, 2)) @ random_unitary(2, rng)
    Minv = np.linalg.inv(M)
    z = M @ (0.9 * uniform_ball(2, 1, rng)[0])

    def contains_many(pts):
        return np.sum(np.abs(pts @ Minv.T) ** 2, axis=1) < 1.0

    A = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    exact = _ellipsoid_exits(Minv, z, A)
    reach = 1.1 * exact.max()
    radii = np.sort(np.append(rng.uniform(0.0, reach, rng.integers(4, 40)), reach))
    lo, hi, exited = geometry._first_flip(
        geometry._march_brackets(contains_many, z, A, radii), radii)
    assert exited.all()
    full = geometry._section_search(contains_many, z, A, lo, hi)
    fast = geometry._section_search(contains_many, z, A, lo, hi, argmin_only=True)
    win = int(np.argmin(fast))
    assert win == int(np.argmin(full))
    # hi is outside by the predicate, whose rounding may put it a few ulps
    # below the closed-form exit
    assert exact[win] * (1.0 - 1e-13) <= fast[win] <= hi[win]
    assert np.isinf(np.delete(fast, win)).all()


def _ray_batch_shapes(n):
    """(m, c) edge cases: one ray, one radius, both, a section-search-sized
    batch, and the largest m with m*c*n <= CHUNK for 100 radii (= CHUNK at
    n = 1, 2, 4)."""
    return [(1, 1), (1, 64), (4098, 1), (9, 15), (geometry.CHUNK // (100 * n), 100)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ray_points_match_the_broadcast_bit_for_bit(n):
    rng = np.random.default_rng(2600 + n)
    for m, c in _ray_batch_shapes(n):
        A = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        shared = np.sort(rng.uniform(0.0, 2.0, c))
        per_ray = rng.uniform(0.0, 2.0, (m, c))
        for r, broadcast in (
                (shared, z[None, None, :] + shared[None, :, None] * A[:, None, :]),
                (per_ray, z + per_ray[:, :, None] * A[:, None, :])):
            pts = geometry._ray_points(z, A, r)
            assert pts.shape == (m * c, n) and pts.dtype == np.complex128
            assert np.array_equal(pts, broadcast.reshape(-1, n))
            assert pts.T.flags.c_contiguous  # each coordinate column is contiguous


@pytest.mark.parametrize("n", [2, 3])
def test_predicate_gets_rows_by_n_complex_arrays(n):
    # a polar search on a ball oracle, including the blocked march of the
    # k = 2 grid (4,098 rays), then a section search of more rays than one
    # membership call takes
    ball = unit_ball(n)
    seen = []

    def recorded(pts):
        seen.append((pts.ndim, pts.shape[1], pts.dtype))
        return ball.contains_many(pts)

    z = np.full(n, 0.2 + 0.1j)
    geometry.polar_first_exit(recorded, z, np.eye(n, dtype=np.complex128)[:, :2], 1.0)
    rng = np.random.default_rng(26)
    m = geometry.CHUNK // (15 * n) + 1
    A = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    calls = len(seen)
    taus = geometry._section_search(recorded, z, A, np.zeros(m), np.full(m, 2.0))
    assert len(seen) > calls and np.isfinite(taus).any()
    assert set(seen) == {(2, n, np.dtype(np.complex128))}


def test_stencil_leads_with_the_zero_offset():
    for axes in range(1, 11):
        offsets = geometry._stencil(axes)
        assert not offsets[0].any()
        assert np.abs(offsets[1:]).sum(axis=1).min() > 0.0  # one zero row


def test_sphere_grid_is_built_once_and_read_only():
    for k in (1, 2):
        grid = geometry.sphere_grid(k)
        assert geometry.sphere_grid(k) is grid
        assert not grid.flags.writeable


def test_one_dimensional_grid_is_the_phase_circle_alone():
    # no repeated e_1 row: two identical rows tie exactly, and a tie keeps
    # the argmin-only section search running to adjacent floats
    circle = geometry.sphere_grid(1)
    assert circle.shape == (geometry.GRID_PER_DIM, 1) and circle[0, 0] == 1.0
    assert np.unique(np.round(circle, 12)).size == geometry.GRID_PER_DIM


@pytest.mark.parametrize("domain, z, V, chunk", [
    # 4,098 grid rays x n = 2: one radius per grid block
    (symmetrized_bidisc(), np.array([0.3 - 0.2j, 0.1 + 0.15j]),
     np.eye(2, dtype=np.complex128), 8196),
    # a non-aligned l1-ball slice: 65 rays x 2
    (L1Ball(n=2, scale=1.0), np.array([0.1 + 0.05j, -0.2j]),
     np.array([[0.6 + 0j], [0.8j]]), 130),
    # all 64 radii of the bidisc grid in one membership call
    (symmetrized_bidisc(), np.array([0.3 - 0.2j, 0.1 + 0.15j]),
     np.eye(2, dtype=np.complex128), 4098 * 2 * 64),
])
def test_polar_march_is_invariant_to_block_size(domain, z, V, chunk, monkeypatch):
    default = slice_distance(domain, z, V)
    monkeypatch.setattr(geometry, "CHUNK", chunk)
    reblocked = slice_distance(domain, z, V)
    assert default.method == reblocked.method == "polar"
    assert default.tau == reblocked.tau
    assert np.array_equal(default.p, reblocked.p)


def test_polar_search_on_four_dimensional_oracle(monkeypatch):
    # stencils of 5^7 rows would exceed MAX_GRID at k = 4: the capped
    # stencil must keep every refinement batch within it, and every
    # initial direction grid (k = 1..4) must fit in it too; every predicate
    # batch must fit in CHUNK, though one section-search call over all
    # 12,292 k = 4 grid rays would not
    batches = []
    march = geometry._march_brackets

    def spy(contains_many, z, A, radii):
        batches.append(A.shape[0])
        return march(contains_many, z, A, radii)

    monkeypatch.setattr(geometry, "_march_brackets", spy)
    ball = unit_ball(4)
    oracle = convex_oracle(ball)
    predicate_rows = []

    def counted(pts):
        predicate_rows.append(pts.shape[0] * pts.shape[1])
        return ball.contains_many(pts)

    oracle.predicate = counted
    z = np.array([0.3 + 0.1j, -0.2j, 0.15 - 0.1j, 0.05])
    polar = minimal_basis(oracle, z)
    exact = minimal_basis(ball, z).taus
    assert np.max(np.abs(polar.taus - exact) / exact) < EPS_POLAR
    # CHUNK counts points x n, as the march and the section search do
    assert max(predicate_rows) <= geometry.CHUNK
    grids = {geometry.sphere_grid(k).shape[0] for k in range(1, 5)}
    assert max(grids) <= geometry.MAX_GRID
    stencils = [m for m in batches if m not in grids]
    assert 3 ** 7 in stencils
    assert max(stencils) <= geometry.MAX_GRID


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


def test_secular_bisection_stops_at_adjacent_floats(monkeypatch):
    # the first call tests the lower end 1e-13 lmax of the bracket; every
    # later call is a bisection midpoint, which moves lo (q > 0) or hi (q <= 0)
    secular = geometry._secular_eps
    calls = []

    def spy(eps, gaps, lam, phi2, g):
        q = secular(eps, gaps, lam, phi2, g)
        calls.append((eps, q))
        return q

    monkeypatch.setattr(geometry, "_secular_eps", spy)
    rng = np.random.default_rng(71)
    for _ in range(10):
        dom = random_ball_image(rng)
        z = sample_interior(dom, 1, rng)[0]
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        for V in (np.eye(2, dtype=np.complex128), (v / np.linalg.norm(v))[:, None]):
            calls.clear()
            assert slice_distance(dom, z, V).method == "quadric"
            (eps_lo, q_lo), mids = calls[0], calls[1:]
            assert q_lo > 0.0 and mids
            assert len(calls) <= 70
            lo = max([eps_lo] + [e for e, q in mids if q > 0.0])
            hi = min(e for e, q in mids if q <= 0.0)
            # one more step would land on lo or hi and move neither end
            assert np.nextafter(lo, hi) == hi


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


def _scaled_scenario(variant: str, scale: float) -> dict:
    radii = [scale, 0.5 * scale]
    if variant == "polydisc":
        domain = {"variant": "polydisc", "n": 2, "center": [[0, 0], [0, 0]], "radii": radii}
    else:
        domain = {"variant": "ball_image", "n": 2, "center": [[0, 0], [0, 0]],
                  "matrix": [[[radii[0], 0], [0, 0]], [[0, 0], [radii[1], 0]]]}
    return {"name": f"{variant}-{scale:g}", "domain": domain,
            "points": {"sampler": {"count": 3, "seed": 1}}}


@pytest.mark.parametrize("variant,scale", [("polydisc", 1e-9), ("polydisc", 1e-60),
                                           ("ball_image", 1e-60)])
def test_first_distance_threshold_scales_with_the_domain(variant, scale):
    # TAU_MIN is relative to |z|: a small domain is the unit one scaled, with
    # the same pass flags and its taus scaled (an absolute 1e-10 refused them)
    unit = run_scenario(_scaled_scenario(variant, 1.0))
    report = run_scenario(_scaled_scenario(variant, scale))
    assert report["summary"]["errors"] == 0
    assert report["summary"]["failures"] == unit["summary"]["failures"] == 0
    for got, ref in zip(report["points"], unit["points"]):
        assert got["taus"] == pytest.approx([scale * t for t in ref["taus"]], rel=1e-12)
        assert {k: c["pass"] for k, c in got["checks"].items()} == \
            {k: c["pass"] for k, c in ref["checks"].items()}


@pytest.mark.parametrize("variant", ["polydisc", "ball_image"])
def test_distance_product_underflow_stays_a_point_error(variant):
    # at 1e-100 p_D^2 leaves the normal double range: point errors, not a raise
    report = run_scenario(_scaled_scenario(variant, 1e-100))
    assert [p["error"]["type"] for p in report["points"]] == ["UnsupportedDomain"] * 3


def test_tiny_ball_image_saturates_its_negative_powers():
    # tau_1 = 1e-52 at n = 3: tau_1^(-2n) and v leave the double range and read
    # +inf, as the overflow policy says, instead of raising OverflowError
    s = 1e-50
    config = {"name": "tiny-ball", "domain": {
        "variant": "ball_image", "n": 3, "center": [[0, 0]] * 3,
        "matrix": [[[s if i == j else 0, 0] for j in range(3)] for i in range(3)]},
        "points": {"explicit": [[[0.99 * s, 0], [0, 0], [0, 0]]]}}
    report = run_scenario(config)
    assert report["summary"]["errors"] == 0 and report["summary"]["failures"] == 0
    point = report["points"][0]
    assert point["oracle_v"] == math.inf and point["intervals"]["monotonicity"][1] == math.inf
    # monotonicity needs a finite v, so it is skipped; every other check passes
    assert point["checks"].pop("monotonicity")["pass"] is None
    assert all(entry["pass"] for entry in point["checks"].values())


def _random_quadric(rng, d):
    """(H, phi, g): H PSD of random rank, phi with some eigencomponents
    exactly zero (H diagonal then), g < 0."""
    if rng.random() < 0.5:
        lam = np.sort(rng.random(d) * rng.choice([1e-3, 1.0, 1e3]))
        lam[:rng.integers(0, d)] = 0.0  # rank deficient
        H = np.diag(rng.permutation(lam))
        phi = rng.normal(size=d) * (rng.random(d) < 0.6)
    else:
        B = rng.normal(size=(d, rng.integers(1, d + 1)))
        H = B @ B.T
        phi = rng.normal(size=d)
    return H, phi, -rng.random() - 1e-3


def test_scalar_secular_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(14)
    checked = 0
    for _ in range(300):
        H, phi, g = _random_quadric(rng, int(rng.integers(2, 7)))
        lam, Q = np.linalg.eigh(H)
        lam = np.clip(lam, 0.0, None)
        lmax = lam[-1]
        if lmax <= 0.0:
            continue
        phi2 = (Q.T @ phi) ** 2
        phi2[rng.random(phi2.size) < 0.2] = 0.0
        gaps = lmax - lam
        lo = 1e-13 * lmax
        eps = np.concatenate([lo + rng.random(50) * 10.0 * lmax,
                              lo * (1.0 + rng.random(9) ** 8), [lo]])
        for e in eps.tolist():
            got = geometry._secular_eps(e, gaps.tolist(), lam.tolist(), phi2.tolist(), g)
            assert got == secular_numpy(e, gaps, lam, phi2, g), (e, lam, phi2, g)
            checked += 1
    assert checked >= 15_000
    # at a pole (d_k = 0) the guarded denominator keeps the scalar loop from raising
    pole = geometry._secular_eps(0.0, [1.5, 0.0], [0.5, 2.0], [1.0, 1.0], -1.0)
    assert pole == secular_numpy(0.0, [1.5, 0.0], [0.5, 2.0], [1.0, 1.0], -1.0) > 1e299
    assert geometry._secular_eps(0.0, [0.0, 0.0], [2.0, 2.0], [1e10, 1.0], -1.0) == math.inf
    assert secular_numpy(0.0, [0.0, 0.0], [2.0, 2.0], [1e10, 1.0], -1.0) == math.inf


def test_nearest_on_quadric_matches_numpy_reference(monkeypatch):
    rng = np.random.default_rng(41)
    cases = [_random_quadric(rng, int(rng.integers(2, 7))) for _ in range(150)]
    # hard case: phi has no component in the top eigenspace
    cases.append((np.diag([1.0, 4.0, 4.0]), np.array([0.3, 0.0, 0.0]), -1.0))

    def solve_all():
        out = []
        for H, phi, g in cases:
            try:
                out.append(geometry.nearest_on_quadric(H, phi, g))
            except Unbounded:
                out.append(None)
        return out

    scalar = solve_all()
    monkeypatch.setattr(geometry, "_secular_eps", secular_numpy)
    reference = solve_all()
    for got, ref in zip(scalar, reference):
        assert (got is None) == (ref is None)
        if got is not None:
            assert np.array_equal(got, ref)
    xi = scalar[-1]
    H, phi, g = cases[-1]
    assert xi[1] != 0.0 or xi[2] != 0.0  # the hard case leaves along the top space
    assert float(xi @ H @ xi + 2.0 * phi @ xi + g) == pytest.approx(0.0, abs=1e-12)
