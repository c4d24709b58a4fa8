"""Iterated boundary distances within shrinking complex slices.

Starting from an interior point z, repeat n times: find the nearest boundary
point p^j within the current affine slice, record the distance tau_j and the
unit direction d^j = (p^j - z)/tau_j, then restrict the slice to the orthogonal
complement of d^j.  The distances are nondecreasing (each step minimizes over a
smaller set) and their product is the basic length-scale invariant consumed by
every certified bound downstream.

Slice-distance kernels, keyed by ``Domain.variant`` in :data:`SLICE_KERNELS`
(everything else a backend knows lives on its class in ``domains``):

==============  ==============================================================
halfspace       closed form min_i (b_i - Re<z,a_i>) / |P a_i|
ball_image      quadric projection (see geometry.nearest_on_quadric)
siegel          quadric projection (PSD Hessian + linear term)
polydisc, l1    closed form on coordinate-aligned slices, polar otherwise
oracle          polar first-exit search (approximate, flagged)
==============  ==============================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
from .geometry import PolarConfig, nearest_on_quadric, polar_first_exit
from .linalg import (
    as_cvector,
    complement_within,
    join_complex,
    orthonormal_columns,
    phase,
    real_form,
)

#: relative accuracy of the closed-form / projection backends
EPS_CLOSED = 1e-9
#: empirical relative accuracy of the polar-search backend
EPS_POLAR = 1e-4

#: below this first distance the point is treated as effectively on the boundary
TAU_MIN = 1e-10


@dataclass
class SliceDistance:
    tau: float
    p: np.ndarray
    method: str            # "halfspace" | "quadric" | "aligned" | "polar"
    rel_err: float
    constraint_index: int | None = None


def _aligned_coordinates(V: np.ndarray) -> list[int] | None:
    """If every column of V is a phase times a standard basis vector, return the
    coordinate indices (distinct); otherwise None."""
    n, k = V.shape
    idx = []
    for col in range(k):
        v = V[:, col]
        j = int(np.argmax(np.abs(v)))
        if abs(abs(v[j]) - 1.0) > 1e-12:
            return None
        rest = np.abs(v) ** 2
        if rest.sum() - rest[j] > 1e-24:
            return None
        idx.append(j)
    return idx if len(set(idx)) == k else None


def _halfspace_slice(domain: HalfspaceConvex, z, V, polar) -> SliceDistance:
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
    # nearest point: z + beta * P a_i / |P a_i|^2
    Pa = V @ (V.conj().T @ domain.normals[i])
    p = z + beta[i] * Pa / (pn[i] ** 2)
    return SliceDistance(tau, p, "halfspace", EPS_CLOSED, constraint_index=i)


def _ball_image_slice(domain: AffineBallImage, z, V, polar) -> SliceDistance:
    B = domain._inv @ V
    w0 = domain.to_ball(z[None, :])[0]
    g = float(np.sum(np.abs(w0) ** 2)) - 1.0
    if g >= 0:
        raise PointOutsideDomain("point outside the ball image")
    H = B.conj().T @ B
    w_lin = 2.0 * (B.T @ np.conj(w0))
    Hr, phi, gr = real_form(H, w_lin, g)
    xi = nearest_on_quadric(Hr, phi, gr)
    c = join_complex(xi)
    return SliceDistance(float(np.linalg.norm(xi)), z + V @ c, "quadric", EPS_CLOSED)


def _siegel_slice(domain: SiegelHalfSpace, z, V, polar) -> SliceDistance:
    g = -float(domain.defect(z[None, :])[0])  # negative inside
    B = V[:-1, :]
    vrow = V[-1, :]
    H = B.conj().T @ B
    w_lin = 2.0 * (B.T @ np.conj(z[:-1])) + 1j * vrow
    Hr, phi, gr = real_form(H, w_lin, g)
    xi = nearest_on_quadric(Hr, phi, gr)
    c = join_complex(xi)
    return SliceDistance(float(np.linalg.norm(xi)), z + V @ c, "quadric", EPS_CLOSED)


def _polydisc_slice(domain: Polydisc, z, V, polar) -> SliceDistance:
    coords = _aligned_coordinates(V)
    if coords is None:
        return _polar_slice(domain, z, V, polar)
    rel = z - domain.center
    slack = domain.radii[coords] - np.abs(rel[coords])
    i = int(np.argmin(slack))
    j = coords[i]
    p = z.copy()
    p[j] = domain.center[j] + domain.radii[j] * phase(rel[j])
    return SliceDistance(float(slack[i]), p, "aligned", EPS_CLOSED)


def _l1_slice(domain: L1Ball, z, V, polar) -> SliceDistance:
    coords = _aligned_coordinates(V)
    if coords is None:
        return _polar_slice(domain, z, V, polar)
    slack = domain.scale - float(np.sum(np.abs(z)))  # positive inside
    k = len(coords)
    step = slack / k
    p = z.copy()
    for j in coords:
        p[j] = z[j] + step * phase(z[j])
    return SliceDistance(slack / math.sqrt(k), p, "aligned", EPS_CLOSED)


def _polar_slice(domain: Domain, z, V, polar: PolarConfig) -> SliceDistance:
    cap = domain.circumscribed_radius(z)
    if not math.isfinite(cap):
        cap = getattr(domain, "search_radius", 1e6)
    tau, p = polar_first_exit(domain.contains_many, z, V, cap, polar)
    return SliceDistance(tau, p, "polar", EPS_POLAR)


#: Domain.variant -> kernel(domain, z, V, polar); slice_distance has already
#: checked that z lies inside the domain
SLICE_KERNELS = {
    "halfspace": _halfspace_slice,
    "ball_image": _ball_image_slice,
    "siegel": _siegel_slice,
    "polydisc": _polydisc_slice,
    "l1ball": _l1_slice,
    "oracle": _polar_slice,
}


def slice_distance(domain: Domain, z, V, polar: PolarConfig | None = None) -> SliceDistance:
    """Distance from z to the domain boundary within the slice z + span_C(V)."""
    z = as_cvector(z, domain.n)
    V = np.asarray(V, dtype=np.complex128)
    if V.ndim != 2 or V.shape[0] != domain.n or not (1 <= V.shape[1] <= domain.n):
        raise SingularBasis(f"slice basis must be n x k with 1 <= k <= n, got {V.shape}")
    if not orthonormal_columns(V):
        raise SingularBasis("slice basis columns are not orthonormal")
    if not contains(domain, z):
        raise PointOutsideDomain("slice distance requested outside the domain")
    kernel = SLICE_KERNELS.get(domain.variant)
    if kernel is None:
        raise HolovolError(f"no slice-distance backend for {type(domain).__name__}")
    return kernel(domain, z, V, polar or PolarConfig())


# ---------------------------------------------------------------------------
# the iterated construction
# ---------------------------------------------------------------------------


@dataclass
class MinimalBasis:
    """Result of the full n-step construction at a base point."""

    domain: Domain
    base_point: np.ndarray
    taus: np.ndarray                 # (n,) nondecreasing distances
    boundary_points: np.ndarray      # (n, n) rows p^j
    directions: np.ndarray           # (n, n) rows d^j, orthonormal
    slice_bases: list = field(repr=False, default=None)
    methods: list = None
    constraint_indices: list = None
    ortho_residual: float = 0.0
    tau_rel_err: float = EPS_CLOSED

    @property
    def n(self) -> int:
        return self.taus.shape[0]

    @property
    def approximate(self) -> bool:
        return "polar" in (self.methods or [])


def minimal_basis(domain: Domain, z, polar: PolarConfig | None = None) -> MinimalBasis:
    """Run the n-step slice-distance iteration at z.

    Raises PointOutsideDomain / PointTooCloseToBoundary / Unbounded (from the
    slice backends; an unbounded slice means the domain contains a complex
    line) / SingularBasis when the collected directions fail orthogonality.
    """
    z = as_cvector(z, domain.n)
    n = domain.n
    polar = polar or PolarConfig()
    V = np.eye(n, dtype=np.complex128)
    taus = np.empty(n)
    points = np.empty((n, n), dtype=np.complex128)
    dirs = np.empty((n, n), dtype=np.complex128)
    bases, methods, cons = [], [], []
    rel_err = EPS_CLOSED
    for j in range(n):
        bases.append(V)
        try:
            r = slice_distance(domain, z, V, polar)
        except Unbounded as exc:
            # a slice with no boundary means the domain contains a complex line
            raise DegenerateDomain(
                f"slice {j + 1} of {n} is unbounded: {exc}",
                witness=exc.witness) from exc
        if j == 0 and r.tau < TAU_MIN:
            raise PointTooCloseToBoundary(
                f"first boundary distance {r.tau:.3e} below {TAU_MIN:g}")
        d = r.p - z
        # kill out-of-slice roundoff before normalizing
        d = V @ (V.conj().T @ d)
        nd = np.linalg.norm(d)
        if nd == 0:
            raise SingularBasis("degenerate boundary direction")
        d /= nd
        taus[j] = r.tau
        points[j] = r.p
        dirs[j] = d
        methods.append(r.method)
        cons.append(r.constraint_index)
        rel_err = max(rel_err, r.rel_err)
        if j + 1 < n:
            V = complement_within(V, d)
    # ordering: each step minimizes over a subset of the previous boundary slice
    tol = max(1e-8, 2.0 * rel_err) * taus[-1]
    for j in range(n - 1):
        if taus[j + 1] < taus[j] - tol:
            raise HolovolError(
                f"slice distances decreased: tau_{j+2}={taus[j+1]:.12g} < tau_{j+1}={taus[j]:.12g}")
    D = dirs.T  # columns d^j
    residual = float(np.max(np.abs(D.conj().T @ D - np.eye(n))))
    if residual > 1e-5:
        raise SingularBasis(f"direction orthogonality residual {residual:.3e} > 1e-5")
    return MinimalBasis(domain, z, taus, points, dirs, bases, methods, cons,
                        residual, rel_err)


def distance_product(basis: MinimalBasis) -> float:
    """Product of the slice distances (the invariant the bounds divide by)."""
    return float(np.prod(basis.taus))

