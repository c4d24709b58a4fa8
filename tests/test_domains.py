import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection
from helpers import (bidisc_membership, chebyshev_radius, random_unitary, stiemke_bounded,
                     validate_oracle)
from test_acceptance import random_simplex_containing_zero
from test_harness import STRIP
from test_normalization import random_bounded_halfspace

from holovol.domains import (
    AffineBallImage,
    HalfspaceConvex,
    L1Ball,
    MembershipOracle,
    Polydisc,
    SiegelHalfSpace,
    cayley,
    cayley_inverse,
    cayley_jacobian_det,
    circumscribed_radius,
    contains,
    diameter,
    domain_from_json,
    domain_to_json,
    exact_volume_element,
    polydisc_box,
    sample_interior,
    symmetrized_bidisc,
    unit_ball,
)
from holovol.errors import (
    ConfigInvalid,
    DegenerateDomain,
    DimensionMismatch,
    PointOutsideDomain,
    UnboundedDomain,
    UnsupportedDomain,
)
from holovol.linalg import uniform_ball


def square_domain():
    normals = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=np.complex128)
    return HalfspaceConvex(n=2, normals=normals, offsets=np.ones(4))


def cube(n, half_width=1.0):
    normals = np.kron(np.eye(n), np.array([[1], [-1], [1j], [-1j]]))
    return HalfspaceConvex(n, normals=normals.astype(np.complex128),
                           offsets=np.full(4 * n, half_width))


def real_coords(pts):
    x = np.empty((pts.shape[0], 2 * pts.shape[1]))
    x[:, 0::2], x[:, 1::2] = pts.real, pts.imag
    return x


def ellipsoid_21():
    return AffineBallImage(2, matrix=np.diag([2.0, 1.0]).astype(np.complex128),
                           center=np.zeros(2, dtype=np.complex128))


# ---------------------------------------------------------------------------
# symmetrized bidisc membership vs. brute-force root criterion
# ---------------------------------------------------------------------------


def bidisc_membership_by_roots(s: complex, p: complex) -> bool:
    # (s, p) = (z + w, z w) with z, w in the unit disc iff both roots of
    # t^2 - s t + p lie strictly inside the disc
    roots = np.roots([1.0, -s, p])
    return bool(np.all(np.abs(roots) < 1.0))


def test_bidisc_predicate_matches_root_criterion():
    G = symmetrized_bidisc()
    rng = np.random.default_rng(42)
    # points synthesized from disc pairs are inside; generic points compared 1:1
    z = 0.98 * np.sqrt(rng.uniform(0, 1, 400)) * np.exp(2j * np.pi * rng.uniform(0, 1, 400))
    w = 0.98 * np.sqrt(rng.uniform(0, 1, 400)) * np.exp(2j * np.pi * rng.uniform(0, 1, 400))
    pts = np.stack([z + w, z * w], axis=1)
    assert np.all(G.contains_many(pts))

    # random probe points, some in, some out; avoid the measure-zero boundary
    s = rng.normal(size=600) + 1j * rng.normal(size=600)
    p = 0.8 * (rng.normal(size=600) + 1j * rng.normal(size=600)) / np.sqrt(2)
    probes = np.stack([s, p], axis=1)
    pred = G.contains_many(probes)
    brute = np.array([bidisc_membership_by_roots(a, b) for a, b in probes])
    # guard against accidental boundary grazing
    margin = np.abs(np.abs(probes[:, 0] - np.conj(probes[:, 0]) * probes[:, 1])
                    - (1.0 - np.abs(probes[:, 1]) ** 2))
    keep = margin > 1e-9
    assert keep.sum() > 500
    assert np.array_equal(pred[keep], brute[keep])


def test_bidisc_is_inside_enclosing_polydisc():
    G = symmetrized_bidisc()
    c, r = G.enclosing_polydisc
    rng = np.random.default_rng(3)
    pts = sample_interior(G, 500, rng)
    assert np.all(np.abs(pts - c[None, :]) < r[None, :] + 1e-12)


def test_bidisc_predicate_is_the_textbook_formula_bit_for_bit():
    # the in-place predicate must answer as np.abs(s - conj(s) p) < 1 - |p|^2
    # does, on the whole enclosing polydisc and within 1e-12 of the boundary,
    # whether rows come C-ordered or as the search's coordinate-major view
    pred = symmetrized_bidisc().predicate
    rng = np.random.default_rng(28)
    count = 100_000

    def disc(radius, size):
        phase = np.exp(2j * np.pi * rng.uniform(0, 1, size))
        return radius * np.sqrt(rng.uniform(0, 1, size)) * phase

    bulk = np.stack([disc(2.0, count), disc(1.0, count)], axis=1)
    # (z + w, z w) with |z| = 1 lies on the boundary; nudge it by 1e-16 to 1e-12,
    # where a change in the order of operations flips thousands of answers
    z, w = np.exp(2j * np.pi * rng.uniform(0, 1, count)), disc(1.0, count)
    nudge = 10.0 ** rng.uniform(-16, -12, (count, 1))
    near = np.stack([z + w, z * w], axis=1) + nudge * (rng.uniform(-1, 1, (count, 2))
                                                       + 1j * rng.uniform(-1, 1, (count, 2)))
    for pts in (bulk, near, np.ascontiguousarray(near.T).T):
        expected = bidisc_membership(pts)
        assert np.array_equal(pred(pts), expected)
    assert 0 < expected.sum() < count  # the boundary rows fall on both sides


# ---------------------------------------------------------------------------
# Cayley map
# ---------------------------------------------------------------------------


def test_cayley_maps_ball_into_siegel():
    rng = np.random.default_rng(7)
    S = SiegelHalfSpace(n=3)
    w = uniform_ball(3, 10_000, rng)
    z = cayley(w)
    assert np.all(S.contains_many(z))


def test_cayley_round_trip():
    rng = np.random.default_rng(11)
    w = uniform_ball(2, 200, rng)
    back = cayley_inverse(cayley(w))
    assert np.max(np.abs(back - w)) < 1e-12


def test_cayley_jacobian_matches_finite_differences():
    rng = np.random.default_rng(13)
    n = 2
    w0 = np.array([0.2 + 0.1j, -0.3 + 0.05j])
    h = 1e-6
    J = np.empty((n, n), dtype=np.complex128)
    for k in range(n):
        e = np.zeros(n, dtype=np.complex128)
        e[k] = h
        J[:, k] = (cayley((w0 + e)[None, :])[0] - cayley((w0 - e)[None, :])[0]) / (2 * h)
    det_fd = np.linalg.det(J)
    det = cayley_jacobian_det(w0[None, :], n)[0]
    assert abs(det - det_fd) / abs(det_fd) < 1e-6


# ---------------------------------------------------------------------------
# diameters and circumscribed radii
# ---------------------------------------------------------------------------


def test_diameters_closed_forms():
    assert diameter(unit_ball(2)) == pytest.approx(2.0, rel=1e-12)
    P = Polydisc(2, center=np.zeros(2, dtype=np.complex128), radii=np.array([1.0, 1.0]))
    assert diameter(P) == pytest.approx(2 * np.sqrt(2), rel=1e-12)
    assert diameter(L1Ball(n=2, scale=1.0)) == pytest.approx(2.0, rel=1e-12)
    # image of the ball under diag(2, 1): longest axis has length 4
    assert diameter(ellipsoid_21()) == pytest.approx(4.0, rel=1e-12)
    assert diameter(SiegelHalfSpace(n=2)) == np.inf


def test_polytope_diameter_and_radius_come_from_vertices():
    # the vertex-box diagonal overstates this simplex by 24%; on the cube
    # [-1, 1]^4 of C^2 box diagonal and diameter are both 4
    simplex = random_simplex_containing_zero(np.random.default_rng(4))
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=4)))
    z = np.array([0.1 - 0.2j, 0.3j])
    for dom, verts in ((simplex, simplex_vertices(simplex)), (cube(2), corners)):
        widest = max(np.linalg.norm(a - b) for a, b in itertools.combinations(verts, 2))
        assert diameter(dom) == pytest.approx(widest, rel=1e-9)
        farthest = max(np.linalg.norm(v - real_coords(z[None, :])[0]) for v in verts)
        assert circumscribed_radius(dom, z) == pytest.approx(farthest, rel=1e-9)
    box = simplex.bounding_box
    assert np.linalg.norm(box[:, 1] - box[:, 0]) > 1.2 * diameter(simplex)
    box = cube(2).bounding_box
    assert np.linalg.norm(box[:, 1] - box[:, 0]) == diameter(cube(2)) == 4.0


def test_circumscribed_radius_bounds_all_samples():
    rng = np.random.default_rng(5)
    for dom in (unit_ball(2), ellipsoid_21(),
                Polydisc(2, center=np.zeros(2, dtype=np.complex128),
                         radii=np.array([1.0, 0.5])),
                L1Ball(n=2, scale=1.0), symmetrized_bidisc()):
        z = np.zeros(2, dtype=np.complex128)
        R = circumscribed_radius(dom, z)
        pts = sample_interior(dom, 400, rng)
        assert np.max(np.linalg.norm(pts - z[None, :], axis=1)) <= R + 1e-9
    assert circumscribed_radius(square_domain(),
                                np.zeros(2, dtype=np.complex128)) == np.inf


# ---------------------------------------------------------------------------
# exact oracles and the transformation rule
# ---------------------------------------------------------------------------


def test_validate_oracle_accepts_ball_and_ellipsoid():
    validate_oracle(unit_ball(2).exact_oracle, points=50, seed=0)
    validate_oracle(ellipsoid_21().exact_oracle, points=50, seed=1)


def test_volume_element_unitary_prerotation_invariance():
    # composing the forward map with a unitary rotation of the ball fixing the
    # preimage must not change the volume element
    rng = np.random.default_rng(17)
    M = np.array([[2.0, 0.3 + 0.1j], [0.0, 1.0]], dtype=np.complex128)
    c = np.array([0.1, -0.2j])
    dom = AffineBallImage(2, matrix=M, center=c)
    z = dom.center  # preimage 0, fixed by every unitary
    v0 = exact_volume_element(dom, z)
    for _ in range(10):
        U = random_unitary(2, rng)
        rotated = AffineBallImage(2, matrix=M @ U, center=c)
        v1 = exact_volume_element(rotated, z)
        assert abs(v1 - v0) / v0 < 1e-9


def test_ball_volume_element_closed_form():
    rng = np.random.default_rng(19)
    B = unit_ball(3)
    w = uniform_ball(3, 100, rng)
    for z in w[:20]:
        v = exact_volume_element(B, z)
        expected = (1 - np.linalg.norm(z) ** 2) ** (-4)
        assert abs(v - expected) / expected < 1e-10


def test_volume_element_monotone_under_ball_nesting():
    # smaller domain has the larger volume element
    small = AffineBallImage(2, matrix=0.5 * np.eye(2, dtype=np.complex128),
                            center=np.zeros(2, dtype=np.complex128))
    big = unit_ball(2)
    z = np.array([0.1 + 0.05j, -0.2j])
    assert exact_volume_element(small, z) > exact_volume_element(big, z)


def test_volume_element_radius_scaling_at_center():
    for r in (0.25, 0.5, 2.0):
        dom = AffineBallImage(2, matrix=r * np.eye(2, dtype=np.complex128),
                              center=np.zeros(2, dtype=np.complex128))
        v = exact_volume_element(dom, np.zeros(2, dtype=np.complex128))
        assert v == pytest.approx(r ** (-4), rel=1e-12)


def test_volume_element_outside_point_raises():
    with pytest.raises(PointOutsideDomain):
        exact_volume_element(unit_ball(2), np.array([2.0 + 0j, 0j]))


def test_no_oracle_on_membership_oracle():
    with pytest.raises(UnsupportedDomain):
        exact_volume_element(symmetrized_bidisc(), np.zeros(2, dtype=np.complex128))


def test_scalar_oracle_predicate_is_dimension_mismatch():
    # one bool for the whole batch is not read row by row
    oracle = MembershipOracle(2, predicate=lambda p: bool(np.linalg.norm(p) < 1.0),
                              declared_class="convex")
    pts = np.zeros((3, 2), dtype=np.complex128)
    with pytest.raises(DimensionMismatch, match=r"shape \(\) for 3 points"):
        oracle.contains_many(pts)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_interior_stays_inside():
    rng = np.random.default_rng(23)
    for dom in (unit_ball(2), ellipsoid_21(),
                Polydisc(3, center=np.zeros(3, dtype=np.complex128),
                         radii=np.array([1.0, 0.5, 2.0])),
                L1Ball(n=2, scale=1.5),
                SiegelHalfSpace(n=2), symmetrized_bidisc()):
        pts = sample_interior(dom, 300, rng)
        assert pts.shape == (300, dom.n)
        assert np.all(dom.contains_many(pts))
    sq = square_domain()  # unbounded: needs an explicit window
    box = np.array([[-1.0, 1.0]] * 4)
    pts = sample_interior(sq, 300, rng, box=box)
    assert np.all(sq.contains_many(pts))


def test_every_backend_samples_inside_a_given_box():
    # a box of radius 0.01 around (0.2, 0.1i): direct samplers ignored it once
    center = np.array([0.2, 0.1j])
    box = polydisc_box(center, np.full(2, 0.01))
    rng = np.random.default_rng(41)
    for dom in (unit_ball(2), Polydisc(2, center=np.zeros(2), radii=np.ones(2)),
                L1Ball(n=2, scale=1.0), SiegelHalfSpace(n=2)):
        pts = sample_interior(dom, 200, rng, box=box)
        assert pts.shape == (200, 2) and np.all(dom.contains_many(pts))
        assert np.all(np.abs(pts.real - center.real) <= 0.01)
        assert np.all(np.abs(pts.imag - center.imag) <= 0.01)


def test_l1ball_sampler_is_uniform():
    # under the uniform law rho = sum |z_j| / scale has density 2n rho^(2n-1)
    n, scale, count = 4, 1.7, 2000
    pts = L1Ball(n, scale=scale).sample(count, np.random.default_rng(31))
    rho = np.sum(np.abs(pts), axis=1) / scale
    assert pts.shape == (count, n) and rho.max() < 1.0
    mean, second = 2 * n / (2 * n + 1), 2 * n / (2 * n + 2)
    assert abs(rho.mean() - mean) < 5 * np.sqrt((second - mean ** 2) / count)


def test_sample_interior_unbounded_needs_box():
    strip_like = HalfspaceConvex(2, normals=np.array([[1, 0]], dtype=np.complex128),
                                 offsets=np.array([1.0]))
    rng = np.random.default_rng(29)
    with pytest.raises(UnboundedDomain):
        sample_interior(strip_like, 10, rng)
    box = np.array([[-1.0, 0.5], [-1, 1], [-1, 1], [-1, 1]])
    pts = sample_interior(strip_like, 50, rng, box=box)
    assert np.all(strip_like.contains_many(pts))


def simplex_vertices(dom):
    # each vertex of a simplex of R^d lies on d of its d + 1 facets
    A = real_coords(dom.normals)  # Re <z, a_i> = x . A[i]
    d = A.shape[1]
    return np.array([np.linalg.solve(A[list(rows)], dom.offsets[list(rows)])
                     for rows in itertools.combinations(range(d + 1), d)])


def support_lp_box(dom):
    A = real_coords(dom.normals)
    d = A.shape[1]
    box = np.empty((d, 2))
    for i, sign in itertools.product(range(d), (1.0, -1.0)):
        c = np.zeros(d)
        c[i] = sign
        res = linprog(c, A_ub=A, b_ub=dom.offsets, bounds=[(None, None)] * d,
                      method="highs")
        assert res.status == 0
        box[i, 0 if sign > 0 else 1] = sign * res.fun
    return box


def test_polytope_sampler_is_uniform():
    rng = np.random.default_rng(41)
    simplex = random_simplex_containing_zero(np.random.default_rng(4))
    x = real_coords(sample_interior(simplex, 200_000, rng))
    sigma = x.std(axis=0) / np.sqrt(x.shape[0])
    assert np.all(np.abs(x.mean(axis=0) - simplex_vertices(simplex).mean(axis=0))
                  < 5 * sigma)
    # a coordinate of the cube [-1, 1]^4 has variance 1/3; x^2 has variance 4/45
    x = real_coords(sample_interior(cube(2), 200_000, rng))
    assert np.all(np.abs(x.var(axis=0) - 1 / 3) < 5 * np.sqrt(4 / 45 / x.shape[0]))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), simplex=st.booleans())
def test_polytope_samples_inside_and_vertex_box_matches_lp(seed, simplex):
    rng = np.random.default_rng(seed)
    dom = random_simplex_containing_zero(rng) if simplex else random_bounded_halfspace(rng)
    assert dom.bounded
    pts = sample_interior(dom, 2000, rng)
    assert pts.shape == (2000, 2)
    assert np.all(dom.contains_many(pts))
    # near-parallel facets put vertices of the simplex family up to ~1e4 out
    lp_box = support_lp_box(dom)
    assert np.max(np.abs(dom.bounding_box - lp_box)) < 1e-9 * max(1.0, np.abs(lp_box).max())


def test_thin_tilted_polytope_samples_inside():
    Q = np.linalg.qr(np.random.default_rng(43).normal(size=(4, 4)))[0]
    rows = np.vstack([Q, -Q])

    def tilted_box(half, thickness):
        return HalfspaceConvex(2, normals=rows[:, 0::2] + 1j * rows[:, 1::2],
                               offsets=np.array([half, half, half, thickness] * 2))

    thin = tilted_box(1.0, 1e-9)
    pts = sample_interior(thin, 1000, np.random.default_rng(47))
    assert np.all(thin.contains_many(pts))
    assert np.max(np.abs(real_coords(pts) @ Q[3])) <= 1e-9
    # thinner than Qhull resolves: degenerate, not a QhullError or RuntimeWarning
    for half, thickness in ((1.0, 3e-14), (1e4, 1e-11)):
        with pytest.raises(DegenerateDomain, match="triangulation failed"):
            sample_interior(tilted_box(half, thickness), 10, np.random.default_rng(47))


def test_polytope_with_empty_interior_is_degenerate():
    # 0 <= Re z_1 <= 0 inside the cube
    flat = HalfspaceConvex(2, normals=cube(2).normals,
                           offsets=np.array([0.0, 0.0, 1, 1, 1, 1, 1, 1]))
    with pytest.raises(DegenerateDomain, match="polytope has empty interior"):
        sample_interior(flat, 10, np.random.default_rng(53))
    with pytest.raises(DegenerateDomain, match="polytope has empty interior"):
        diameter(flat)


def _random_bounded_rows(rng, n):
    """Rows of R^(2n) whose cone {x : A x <= 0} is {0}: 2n + 1 centred rows
    (a simplex) or 2n + 1 to 6n Gaussian rows that pass the Stiemke LP."""
    d = 2 * n
    while True:
        if rng.random() < 0.5:
            rows = rng.normal(size=(d + 1, d))
            rows -= rows.mean(axis=0, keepdims=True)
        else:
            rows = rng.normal(size=(int(rng.integers(d + 1, 3 * d + 1)), d))
        dom = HalfspaceConvex(n, normals=rows[:, 0::2] + 1j * rows[:, 1::2],
                              offsets=np.ones(rows.shape[0]))
        if stiemke_bounded(dom):
            return rows


def test_interior_point_is_well_inside_without_an_lp():
    # 240 bounded polytopes at n = 2, 3: offsets in [0.5, 2] scaled by up to
    # 1e+-6, translated by up to 1e4 times that scale; the point must clear
    # every facet by a tenth of the inscribed-ball radius, and Qhull's
    # halfspace intersection must take it as its feasible point
    rng = np.random.default_rng(61)
    for trial in range(240):
        n = 2 + trial % 2
        rows = _random_bounded_rows(rng, n)
        scale = 10.0 ** rng.uniform(-6, 6) if trial % 3 else 1.0
        shift = rng.normal(size=2 * n) * scale * 10.0 ** rng.uniform(0, 4) * (trial % 4 > 0)
        b = rng.uniform(0.5, 2.0, rows.shape[0]) * scale + rows @ shift
        dom = HalfspaceConvex(n, normals=rows[:, 0::2] + 1j * rows[:, 1::2], offsets=b)
        x = dom.interior_point.view(np.float64)
        slack = np.min((b - rows @ x) / np.linalg.norm(rows, axis=1))
        assert dom.contains_many(dom.interior_point[None, :])[0], trial
        assert slack >= 0.1 * chebyshev_radius(dom), trial
        HalfspaceIntersection(np.hstack([rows, -b[:, None]]), x)


def test_interior_point_of_an_empty_interior_is_degenerate():
    # a bounded polytope cut by the reverse of one of its facets, at or past it
    rng = np.random.default_rng(67)
    empty = 0
    for trial in range(60):
        n = 2 + trial % 2
        rows = _random_bounded_rows(rng, n)
        b = rng.uniform(0.5, 2.0, rows.shape[0])
        k = int(rng.integers(rows.shape[0]))
        past = rng.choice([0.0, 1e-9, 1e-3, 0.5]) * np.linalg.norm(rows[k])
        rows, b = np.vstack([rows, -rows[k]]), np.append(b, -b[k] - past)
        dom = HalfspaceConvex(n, normals=rows[:, 0::2] + 1j * rows[:, 1::2], offsets=b)
        if chebyshev_radius(dom) <= 0:
            empty += 1
            with pytest.raises(DegenerateDomain, match="polytope has empty interior"):
                dom.interior_point
    assert empty >= 45


def test_sampling_is_seed_deterministic():
    dom = unit_ball(2)
    a = sample_interior(dom, 64, np.random.default_rng(99))
    b = sample_interior(dom, 64, np.random.default_rng(99))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# membership edge cases
# ---------------------------------------------------------------------------


def test_contains_is_strict():
    B = unit_ball(2)
    assert not contains(B, np.array([1.0 + 0j, 0j]))
    assert contains(B, np.array([0.999 + 0j, 0j]))
    P = Polydisc(2, center=np.zeros(2, dtype=np.complex128), radii=np.array([1.0, 1.0]))
    assert not contains(P, np.array([1.0 + 0j, 0j]))
    L = L1Ball(n=2, scale=1.0)
    assert not contains(L, np.array([0.5 + 0j, 0.5 + 0j]))
    assert contains(L, np.array([0.5 + 0j, 0.49 + 0j]))


def test_halfspace_boundedness():
    assert not square_domain().bounded  # imaginary directions are free
    assert cube(2).bounded
    # six full-rank normals that all have Re a_1 > 0 leave the ray -Re z_1 free
    rows = np.random.default_rng(37).normal(size=(6, 4))
    rows[:, 0] = np.abs(rows[:, 0]) + 0.5
    assert np.linalg.matrix_rank(rows) == 4
    cone = HalfspaceConvex(2, normals=rows[:, 0::2] + 1j * rows[:, 1::2],
                           offsets=np.ones(6))
    assert not cone.bounded
    assert not domain_from_json(STRIP).bounded


def _one_free_ray_cone(rng, d):
    """Full-rank rows of R^d whose cone {x : A x <= 0} is the ray Q e_1:
    rows (0, b) that positively span e_1's complement, plus rows (-c, b)."""
    b = rng.normal(size=(d, d - 1))
    b[-1] = -b[:-1].sum(axis=0)  # 0 = sum of the rows: they positively span R^(d-1)
    side = np.hstack([np.zeros((d, 1)), b])
    tilt = np.hstack([-rng.uniform(0.1, 1.0, (3, 1)), rng.normal(size=(3, d - 1))])
    Q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    return np.vstack([side, tilt]) @ Q.T


def test_hull_boundedness_agrees_with_the_stiemke_lp():
    rng = np.random.default_rng(59)
    verdicts = []
    for trial in range(60):
        n = 2 + trial % 2
        d = 2 * n
        rows = (_one_free_ray_cone(rng, d) if trial % 3 == 0
                else rng.normal(size=(int(rng.integers(d + 1, 3 * d)), d)))
        dom = HalfspaceConvex(n, normals=rows[:, 0::2] + 1j * rows[:, 1::2],
                              offsets=rng.uniform(0.5, 2.0, rows.shape[0]))
        assert np.linalg.matrix_rank(rows) == d
        verdicts.append(dom.bounded)
        assert dom.bounded == stiemke_bounded(dom), trial
    assert 10 <= sum(verdicts) <= 50  # both outcomes are exercised
    strip = domain_from_json(STRIP)
    assert not strip.bounded and not stiemke_bounded(strip)


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dom", [
    square_domain(),
    ellipsoid_21(),
    Polydisc(2, center=np.array([0.1 + 0.2j, 0j]), radii=np.array([1.0, 0.5])),
    L1Ball(n=3, scale=2.0),
    SiegelHalfSpace(n=2),
    symmetrized_bidisc(),
], ids=["halfspace", "ball_image", "polydisc", "l1ball", "siegel", "oracle"])
def test_domain_json_round_trip(dom):
    blob = json.dumps(domain_to_json(dom))
    back = domain_from_json(json.loads(blob))
    assert type(back) is type(dom)
    assert back.n == dom.n
    assert back.convexity_class == dom.convexity_class
    rng = np.random.default_rng(31)
    pts = sample_interior(dom, 100, rng) if dom.bounded or isinstance(
        dom, SiegelHalfSpace) else sample_interior(
        dom, 100, rng, box=np.array([[-1.0, 1.0]] * (2 * dom.n)))
    assert np.array_equal(dom.contains_many(pts), back.contains_many(pts))


def test_domain_from_json_rejects_garbage():
    with pytest.raises(ConfigInvalid):
        domain_from_json({"n": 2})
    with pytest.raises(ConfigInvalid):
        domain_from_json({"variant": "nonsense", "n": 2})
    with pytest.raises(ConfigInvalid):
        domain_from_json({"variant": "halfspace", "n": 2})
    with pytest.raises(ConfigInvalid):
        domain_from_json({"variant": "oracle", "n": 2, "predicate": "unknown_thing"})


def test_degenerate_inputs_rejected():
    with pytest.raises(ConfigInvalid):
        HalfspaceConvex(2, normals=np.array([[0, 0]], dtype=np.complex128),
                        offsets=np.array([1.0]))
    with pytest.raises(ConfigInvalid):
        Polydisc(2, center=np.zeros(2, dtype=np.complex128), radii=np.array([1.0, -1.0]))
    with pytest.raises(ConfigInvalid):
        L1Ball(n=2, scale=0.0)
    with pytest.raises(Exception):
        AffineBallImage(2, matrix=np.zeros((2, 2), dtype=np.complex128),
                        center=np.zeros(2, dtype=np.complex128))
