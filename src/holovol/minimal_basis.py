"""Iterated boundary distances within shrinking complex slices.

Starting from an interior point z, repeat n times: find the nearest boundary
point p^j = z + tau_j d^j within the current affine slice, record the distance
tau_j and the unit direction d^j, which every kernel returns exactly, then
restrict the slice to the orthogonal complement of d^j.  The distances are
nondecreasing (each step minimizes over a smaller set) and their product is
the basic length-scale invariant consumed by every certified bound downstream.

Slice-distance kernels, keyed by ``Domain.variant`` in :data:`SLICE_KERNELS`
(everything else a backend knows lives on its class in ``domains``):

==============  ==============================================================
halfspace       closed form min_i (b_i - Re<z,a_i>) / |P a_i|
ball_image      quadric projection (see geometry.nearest_on_quadric)
siegel          quadric projection (PSD Hessian + linear term)
polydisc        support-function duality on every slice ("support"):
                min_k (r_k - |z_k - c_k|) / |row_k V|
l1ball          closed form (s - |z|_1)/sqrt(k) when V spans k coordinate
                axes ("aligned"); at n = 2 the second slice is an ellipse,
                solved in closed form ("ellipse"); polar otherwise
oracle          polar first-exit search (approximate, flagged)
==============  ==============================================================

The quadric projection works in the slice's complex coordinates and bisects
its secular equation, in one scale-free variable, to adjacent floats.  The
polar search follows the fixed policy of the ``geometry`` module constants;
nothing here takes a search setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import (
    AffineBallImage,
    Domain,
    HalfspaceConvex,
    L1Ball,
    Polydisc,
    SiegelHalfSpace,
    contains,
)
from .errors import (
    DegenerateDomain,
    HolovolError,
    PointOutsideDomain,
    PointTooCloseToBoundary,
    SingularBasis,
    Unbounded,
)
from .geometry import nearest_on_quadric, polar_first_exit
from .linalg import (
    as_cvector,
    complement_within,
    orthonormal_columns,
    phase,
    safe_norm,
)

#: relative accuracy of the closed-form / projection backends
EPS_CLOSED = 1e-9
#: empirical relative accuracy of the polar-search backend
EPS_POLAR = 1e-4

#: polar search cap for oracles without an enclosing polydisc
SEARCH_RADIUS = 1e6

#: tau_1 below TAU_MIN * |z| is lost in the rounding of z: the point counts as
#: on the boundary (the threshold scales with the problem; at z = 0 it is 0)
TAU_MIN = 1e-10


@dataclass
class SliceDistance:
    tau: float
    p: np.ndarray
    method: str            # "halfspace" | "quadric" | "support" | "aligned" | "ellipse" | "polar"
    #: p - z up to a positive factor, exact: near the boundary the difference
    #: p - z itself keeps only eps|z|/tau of it
    direction: np.ndarray
    constraint_index: int | None = None


def _halfspace_slice(domain: HalfspaceConvex, z, V) -> SliceDistance:
    beta = domain.offsets - (z @ domain.normals.conj().T).real  # (m,), positive inside
    proj = domain.normals @ np.conj(V)  # rows: (V* a_i)* ... gives |P a_i| via norms
    pn = np.linalg.norm(proj, axis=1)
    scale = np.linalg.norm(domain.normals, axis=1)
    valid = pn > 1e-12 * scale
    if not valid.any():
        raise Unbounded("every constraint normal is orthogonal to the slice",
                        witness={"point": z, "slice_dim": V.shape[1]})
    ratios = np.where(valid, beta / np.where(valid, pn, 1.0), np.inf)
    i = int(np.argmin(ratios))
    tau = float(ratios[i])
    # nearest point: z + beta * P a_i / |P a_i|^2, in direction P a_i
    Pa = V @ (V.conj().T @ domain.normals[i])
    p = z + beta[i] * Pa / (pn[i] ** 2)
    return SliceDistance(tau, p, "halfspace", Pa, constraint_index=i)


def _quadric_slice(z, V, H, phi, g) -> SliceDistance:
    """Nearest boundary point z + V c of a slice whose boundary is the
    quadric c* H c + 2 Re(phi* c) + g = 0 (g < 0 at c = 0)."""
    c = nearest_on_quadric(H, phi, g)
    d = V @ c
    return SliceDistance(float(np.linalg.norm(c)), z + d, "quadric", d)


def _ball_image_slice(domain: AffineBallImage, z, V) -> SliceDistance:
    B = domain._inv @ V
    w0 = domain.to_ball(z[None, :])[0]
    g = float(np.sum(np.abs(w0) ** 2)) - 1.0
    if g >= 0:
        raise PointOutsideDomain("point outside the ball image")
    return _quadric_slice(z, V, B.conj().T @ B, B.conj().T @ w0, g)


def _siegel_slice(domain: SiegelHalfSpace, z, V) -> SliceDistance:
    g = -float(domain.defect(z[None, :])[0])  # negative inside
    B = V[:-1, :]
    phi = B.conj().T @ z[:-1] - 0.5j * np.conj(V[-1, :])
    return _quadric_slice(z, V, B.conj().T @ B, phi, g)


def _polydisc_slice(domain: Polydisc, z, V) -> SliceDistance:
    """Support-function duality: coordinate k bounds the slice through the
    halfspaces Re<e^{i phi} e_k, w - c> < r_k, and the infimum over phi of
    their distances within the slice is (r_k - |z_k - c_k|) / |row_k V|,
    reached along V conj(V_k) phase(z_k - c_k)."""
    rel = z - domain.center
    rows = np.linalg.norm(V, axis=1)
    ratios = np.divide(domain.radii - np.abs(rel), rows, out=np.full(rows.shape, np.inf),
                       where=rows > 0.0)
    j = int(np.argmin(ratios))
    tau = float(ratios[j])
    d = V @ np.conj(V[j]) * phase(rel[j])
    return SliceDistance(tau, z + (tau / rows[j]) * d, "support", d)


def _l1_slice(domain: L1Ball, z, V) -> SliceDistance:
    rows = np.linalg.norm(V, axis=1)
    axes = np.abs(rows - 1.0) <= 1e-12
    if not np.all(axes | (rows <= 1e-12)):
        if V.shape == (2, 1):
            # omega_1 - omega_2 = <u, phase(z)>: the line is orthogonal to the
            # first direction, as at minimal_basis's second step
            ph1, ph2 = phase(complex(z[0])), phase(complex(z[1]))
            omega1 = complex(V[0, 0]) * ph1.conjugate()
            omega2 = -complex(V[1, 0]) * ph2.conjugate()
            if abs(omega1 - omega2) <= 1e-12:
                return _l1_ellipse_slice(domain.scale, z, V[:, 0], 0.5 * (omega1 + omega2))
        return _polar_slice(domain, z, V)
    # V spans the coordinate axes where |row_k V| = 1: every face normal
    # (phases) projects to length sqrt(k) there, so tau = (s - |z|_1)/sqrt(k)
    slack = domain.scale - float(np.sum(np.abs(z)))  # positive inside
    k = int(axes.sum())
    d = np.where(axes, [phase(c) for c in z], 0.0)
    return SliceDistance(slack / math.sqrt(k), z + (slack / k) * d, "aligned", d)


def _l1_ellipse_slice(s: float, z, u, omega: complex) -> SliceDistance:
    """Exact distance to the boundary of {|z_1| + |z_2| < s} along the line
    z + C u, where u_1 conj(phase z_1) = -u_2 conj(phase z_2) = omega.

    With a = |z_1|, b = |z_2| and eta = zeta omega, |z_1 + zeta u_1| = |a + eta|
    and |z_2 + zeta u_2| = |b - eta|, so the slice is the ellipse
    |eta + a| + |eta - b| < s: foci -a and b, centre (b - a)/2, semi-axes s/2
    and sqrt(s^2 - sigma^2)/2 (sigma = a + b), with eta = 0 on its major axis.
    The nearest boundary point lies off the axis when s|b - a| < sigma^2, at
    cos(theta) = -s(b - a)/sigma^2, and is the near vertex otherwise; that
    includes z = 0, where every direction ties.  |zeta| = |eta|/|omega| and
    |omega| = 1/sqrt(2).  The work runs in units of s, so no scale overflows,
    and s - sigma is one correctly rounded sum, so points near the boundary
    keep their relative accuracy.
    """
    a, b = abs(complex(z[0])), abs(complex(z[1]))
    ha, hb = a / s, b / s
    sigma, delta = ha + hb, hb - ha
    if abs(delta) < sigma * sigma:
        gap = math.fsum((s, -a, -b)) / s          # 1 - sigma
        cos = -(delta / sigma) / sigma
        x = 0.5 * cos * gap * (1.0 + sigma)       # (b - a)/2 + cos(theta)/2
        y = 0.5 * math.sqrt(gap * (1.0 + sigma) * (1.0 - cos) * (1.0 + cos))
        eta = s * complex(x, y)
        tau = s * math.sqrt(2.0 * (ha / sigma) * (hb / sigma) * gap * (1.0 + sigma))
    else:
        eta = complex(0.5 * s * (delta - math.copysign(1.0, delta)), 0.0)
        tau = math.fsum((s, -max(a, b), min(a, b))) / math.sqrt(2.0)
    d = (eta / omega) * u
    return SliceDistance(tau, z + d, "ellipse", d)


def _polar_slice(domain: Domain, z, V) -> SliceDistance:
    cap = domain.circumscribed_radius(z)
    if not math.isfinite(cap):
        cap = SEARCH_RADIUS
    tau, u = polar_first_exit(domain.contains_many, z, V, cap)
    return SliceDistance(tau, z + tau * u, "polar", u)


#: Domain.variant -> kernel(domain, z, V); the caller has already checked
#: that z lies inside the domain
SLICE_KERNELS = {
    "halfspace": _halfspace_slice,
    "ball_image": _ball_image_slice,
    "siegel": _siegel_slice,
    "polydisc": _polydisc_slice,
    "l1ball": _l1_slice,
    "oracle": _polar_slice,
}


def slice_distance(domain: Domain, z, V) -> SliceDistance:
    """Distance from z to the domain boundary within the slice z + span_C(V)."""
    z = as_cvector(z, domain.n)
    V = np.asarray(V, dtype=np.complex128)
    if V.ndim != 2 or V.shape[0] != domain.n or not (1 <= V.shape[1] <= domain.n):
        raise SingularBasis(f"slice basis must be n x k with 1 <= k <= n, got {V.shape}")
    if not orthonormal_columns(V):
        raise SingularBasis("slice basis columns are not orthonormal")
    return _checked_kernel(domain, z)(domain, z, V)


def _checked_kernel(domain: Domain, z):
    """The slice kernel of the domain's variant, once z is known to lie inside."""
    if not contains(domain, z):
        raise PointOutsideDomain("slice distance requested outside the domain")
    kernel = SLICE_KERNELS.get(domain.variant)
    if kernel is None:
        raise HolovolError(f"no slice-distance backend for {type(domain).__name__}")
    return kernel


# ---------------------------------------------------------------------------
# the iterated construction
# ---------------------------------------------------------------------------


@dataclass
class MinimalBasis:
    """Result of the full n-step construction at a base point."""

    base_point: np.ndarray
    taus: np.ndarray                 # (n,) nondecreasing distances
    boundary_points: np.ndarray      # (n, n) rows p^j
    directions: np.ndarray           # (n, n) rows d^j, orthonormal
    methods: list
    constraint_indices: list

    @property
    def n(self) -> int:
        return self.taus.shape[0]

    @property
    def approximate(self) -> bool:
        return "polar" in self.methods

    @property
    def tau_rel_err(self) -> float:
        """Relative accuracy of every tau: that of the least exact backend used."""
        return EPS_POLAR if self.approximate else EPS_CLOSED


def minimal_basis(domain: Domain, z) -> MinimalBasis:
    """Run the n-step slice-distance iteration at z.

    Raises PointOutsideDomain / PointTooCloseToBoundary / Unbounded (from the
    slice backends; an unbounded slice means the domain contains a complex
    line) / SingularBasis when the collected directions fail orthogonality.
    """
    z = as_cvector(z, domain.n)
    kernel = _checked_kernel(domain, z)  # one membership test; every slice shares z
    n = domain.n
    V = np.eye(n, dtype=np.complex128)
    taus = np.empty(n)
    points = np.empty((n, n), dtype=np.complex128)
    dirs = np.empty((n, n), dtype=np.complex128)
    methods, cons = [], []
    for j in range(n):
        try:
            r = kernel(domain, z, V)
        except Unbounded as exc:
            # a slice with no boundary means the domain contains a complex line
            raise DegenerateDomain(
                f"slice {j + 1} of {n} is unbounded: {exc}",
                witness=exc.witness) from exc
        if j == 0 and r.tau < TAU_MIN * safe_norm(z):
            raise PointTooCloseToBoundary(
                f"first boundary distance {r.tau:.3e} below {TAU_MIN:g} |z|")
        # kill out-of-slice roundoff before normalizing
        d = V @ (V.conj().T @ r.direction)
        nd = safe_norm(d)
        if nd == 0:
            raise SingularBasis("degenerate boundary direction")
        d /= nd
        taus[j] = r.tau
        points[j] = r.p
        dirs[j] = d
        methods.append(r.method)
        cons.append(r.constraint_index)
        if j + 1 < n:
            V = complement_within(V, d)
    basis = MinimalBasis(z, taus, points, dirs, methods, cons)
    # ordering: each step minimizes over a subset of the previous boundary slice
    tol = max(1e-8, 2.0 * basis.tau_rel_err) * taus[-1]
    for j in range(n - 1):
        if taus[j + 1] < taus[j] - tol:
            raise HolovolError(
                f"slice distances decreased: tau_{j+2}={taus[j+1]:.12g} < tau_{j+1}={taus[j]:.12g}")
    D = dirs.T  # columns d^j
    residual = float(np.max(np.abs(D.conj().T @ D - np.eye(n))))
    if residual > 1e-5:
        raise SingularBasis(f"direction orthogonality residual {residual:.3e} > 1e-5")
    return basis


def distance_product(basis: MinimalBasis) -> float:
    """Product of the slice distances (the invariant the bounds divide by);
    inf, without a warning, when it overflows."""
    return math.prod(basis.taus.tolist())

