"""Domain backends: membership, size queries, exact oracles, JSON round-trip.

Six variants are supported.  Five are concrete geometric families --
intersections of real halfspaces ``Re <z, a_i> < b_i``, affine images of the
unit ball, polydiscs, scaled l1 balls, and the Siegel half-space
``Im z_n > |z'|^2`` -- plus a black-box membership oracle for domains only
known through a predicate (the symmetrized bidisc ships as a named oracle).

Affine ball images and the Siegel half-space are biholomorphic to the ball via
an explicit map, so they carry an :class:`ExactOracle` and admit exact volume
elements; everything downstream that needs ground truth uses those two
families.

All point-valued functions accept a single vector or an (m, n) batch; batch in,
batch out.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    BadDimension,
    ConfigInvalid,
    DegenerateDomain,
    DimensionMismatch,
    HolovolError,
    NotSupporting,
    PointOutsideDomain,
    UnboundedDomain,
    UnsupportedDomain,
)
from .linalg import as_cvector, phase, safe_norm, sample_en, uniform_ball

CONVEX = "convex"
C_CONVEX = "c_convex"

#: Values above this are reported as +inf (overflow policy for volume elements).
OVERFLOW_LIMIT = 1e300


def _batch(z, n: int):
    """Coerce a point or batch of points to shape (m, n); return (array, was_single)."""
    a = np.asarray(z, dtype=np.complex128)
    if a.ndim == 1:
        if a.shape[0] != n:
            raise DimensionMismatch(f"point has length {a.shape[0]}, domain has n={n}")
        return a[None, :], True
    if a.ndim != 2 or a.shape[1] != n:
        raise DimensionMismatch(f"expected shape (m, {n}), got {a.shape}")
    return a, False


# ---------------------------------------------------------------------------
# exact oracles (ball-biholomorphic domains)
# ---------------------------------------------------------------------------


@dataclass
class ExactOracle:
    """Biholomorphism F from the unit ball onto the domain, with derivative data.

    ``forward``/``inverse`` map batches (m, n) -> (m, n); ``jacobian_det`` maps a
    batch of ball points to the complex determinants det F'(w).
    """

    n: int
    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    jacobian_det: Callable[[np.ndarray], np.ndarray]


def cayley(w: np.ndarray) -> np.ndarray:
    """Biholomorphism from the unit ball onto {Im z_n > |z'|^2}.

    Cayley(w', w_n) = ( w'/(1+w_n), i(1-w_n)/(1+w_n) ).
    """
    a, single = _batch(w, np.asarray(w).shape[-1])
    denom = 1.0 + a[:, -1]
    z = np.empty_like(a)
    z[:, :-1] = a[:, :-1] / denom[:, None]
    z[:, -1] = 1j * (1.0 - a[:, -1]) / denom
    return z[0] if single else z


def cayley_inverse(z: np.ndarray) -> np.ndarray:
    """Inverse of :func:`cayley`: w_n = (i - z_n)/(i + z_n), w' = 2i z'/(i + z_n)."""
    a, single = _batch(z, np.asarray(z).shape[-1])
    denom = 1j + a[:, -1]
    w = np.empty_like(a)
    w[:, :-1] = 2j * a[:, :-1] / denom[:, None]
    w[:, -1] = (1j - a[:, -1]) / denom
    return w[0] if single else w


def cayley_jacobian_det(w: np.ndarray, n: int) -> np.ndarray:
    """det of the Cayley derivative: -2i / (1 + w_n)^(n+1)."""
    a, single = _batch(w, n)
    d = -2j / (1.0 + a[:, -1]) ** (n + 1)
    return d[0] if single else d


# ---------------------------------------------------------------------------
# helpers shared by the backends
# ---------------------------------------------------------------------------


def _require_finite(what: str, *arrays) -> None:
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ConfigInvalid(f"{what} must be finite")


def polydisc_box(center: np.ndarray, radii) -> np.ndarray:
    """Real (2n, 2) [min, max] box around a polydisc, coordinates ordered
    (Re z_1, Im z_1, ..., Re z_n, Im z_n)."""
    box = np.empty((2 * center.shape[0], 2))
    box[0::2, 0], box[0::2, 1] = center.real - radii, center.real + radii
    box[1::2, 0], box[1::2, 1] = center.imag - radii, center.imag + radii
    return box


def _rejection_sample(domain: "Domain", count: int, rng: np.random.Generator,
                      box) -> np.ndarray:
    """Uniform samples inside `box` that `domain` accepts; fails on low acceptance."""
    n = domain.n
    box = np.asarray(box, dtype=np.float64)
    out = np.empty((0, n), dtype=np.complex128)
    attempts = 0
    while out.shape[0] < count:
        m = max(4 * count, 512)
        u = rng.random((m, 2 * n)) * (box[:, 1] - box[:, 0]) + box[:, 0]
        cand = u[:, 0::2] + 1j * u[:, 1::2]
        out = np.vstack([out, cand[domain.contains_many(cand)]])
        attempts += 1
        if attempts > 2000 and out.shape[0] < count:
            raise HolovolError("rejection sampling acceptance rate too low")
    return out[:count]


def _vec2j(v: np.ndarray) -> list:
    return [[float(np.real(x)), float(np.imag(x))] for x in v]


def _j2vec(data) -> np.ndarray:
    return np.array([complex(re, im) for re, im in data], dtype=np.complex128)


# ---------------------------------------------------------------------------
# domain variants
# ---------------------------------------------------------------------------


@dataclass
class Domain:
    """Common base: dimension, convexity class tag and the backend protocol.

    The tag is structural for the five geometric variants (all convex, hence
    also C-convex); a MembershipOracle carries whatever the caller declares,
    and that declaration is trusted (recorded in reports, never verified).

    The methods below are what every backend answers; the defaults suit a
    domain known only through membership.  Modules that import this one key
    their per-backend code by ``variant``: slice kernels in ``minimal_basis``,
    Reinhardt moments in ``bergman``, the exit-derivative normal of oracles in
    ``normalization``.
    """

    n: int

    variant = "abstract"
    convexity_class = CONVEX

    def __post_init__(self):
        if self.n < 2:
            raise BadDimension(f"domains need n >= 2, got n={self.n}")

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.diameter())

    @property
    def exact_oracle(self) -> ExactOracle | None:
        return None

    @property
    def supports_normals(self) -> bool:
        """Supporting hyperplanes are certified on convex domains and verified
        on the whole domain: by its support function, on samples of a bounded
        body, or on samples pushed through a ball biholomorphism."""
        return self.convexity_class == CONVEX and (
            self.bounded or self.exact_oracle is not None)

    def diameter(self) -> float:
        return math.inf

    def circumscribed_radius(self, z: np.ndarray) -> float:
        return math.inf

    def sample(self, count: int, rng: np.random.Generator, box=None) -> np.ndarray:
        if box is None:
            raise UnboundedDomain("rejection sampling needs a bounding box")
        return _rejection_sample(self, count, rng, box)

    def outward_normal(self, p: np.ndarray, constraint_index: int | None = None):
        raise UnsupportedDomain(
            f"no supporting-normal backend for {type(self).__name__}")

    def disc_radii(self, z: np.ndarray, U: np.ndarray) -> np.ndarray | None:
        """Per row u of U, the largest s with z + zeta u in D for |zeta| < s."""
        return None  # no closed form: verify_normalization samples

    def support(self, G: np.ndarray, z: np.ndarray) -> np.ndarray | None:
        """Per row g of G, sup over D of Re g.(x - z) (Rockafellar 1970)."""
        return None  # no closed form in use: verify_normalization samples

    def to_json(self) -> dict:
        return {"variant": self.variant, "n": self.n, "class": self.convexity_class}

    @classmethod
    def from_json(cls, n: int, data: dict) -> "Domain":
        return cls(n)


@dataclass
class HalfspaceConvex(Domain):
    """Intersection of real halfspaces { z : Re <z, a_i> < b_i }; a bounded one
    is triangulated when first needed (vertex box, exactly uniform samples)."""

    normals: np.ndarray = None
    offsets: np.ndarray = None

    variant = "halfspace"

    def __post_init__(self):
        super().__post_init__()
        self.normals = np.atleast_2d(np.asarray(self.normals, dtype=np.complex128))
        self.offsets = np.atleast_1d(np.asarray(self.offsets, dtype=np.float64))
        if self.normals.shape[1] != self.n or self.normals.shape[0] != self.offsets.shape[0]:
            raise ConfigInvalid("halfspace constraint shapes inconsistent")
        _require_finite("halfspace constraints", self.normals, self.offsets)
        if np.any(np.linalg.norm(self.normals, axis=1) == 0):
            raise ConfigInvalid("zero constraint normal")

    def contains_many(self, pts):
        lhs = (pts @ self.normals.conj().T).real  # Re <z, a_i>
        return np.all(lhs < self.offsets[None, :], axis=1)

    def _real_constraints(self):
        """Unit-row A x <= b over x = (Re z_1, Im z_1, ...), a complex vector's layout."""
        A = np.ascontiguousarray(self.normals).view(np.float64)
        norms = np.linalg.norm(A, axis=1)
        return A / norms[:, None], self.offsets / norms

    @cached_property
    def bounding_box(self) -> np.ndarray | None:
        """Real (2n, 2) [min, max] box of the vertices, or None if unbounded.

        By Stiemke's theorem {x : A x <= 0} = {0} exactly when A has full
        column rank and A^T lambda = 0 for some lambda > 0, that is, when the
        origin lies strictly inside the hull of the unit rows of A.  Qhull
        decides that; a hull too flat for Qhull is unbounded."""
        from scipy.spatial import ConvexHull, QhullError

        A, _ = self._real_constraints()
        m, d = A.shape
        if m <= d or np.linalg.matrix_rank(A) < d:
            return None
        try:
            hull = ConvexHull(A)
        except QhullError:
            return None
        # unit rows: a facet offset within roundoff of 0 leaves a free ray
        if hull.equations[:, -1].max() > -1e-12:
            return None
        verts = self._triangulation[1]
        return np.stack([verts.min(axis=0), verts.max(axis=0)], axis=1)

    @cached_property
    def interior_point(self) -> np.ndarray:
        """A strictly interior point of a bounded polytope, as a complex vector.
        With c0 solving A x = b in least squares, r = b - A c0 and s = max |r_i|,
        c0 + s y/t is inside when (a_i, -r_i/s).(y, t) < 0 and t > 0.  Such (y, t)
        exist iff the origin is outside the hull of the unit vectors along these
        rows and (0, -1) (Gordan 1873); the hull facet farthest from it has one."""
        from scipy.spatial import ConvexHull, QhullError

        A, b = self._real_constraints()
        c0 = np.linalg.lstsq(A, b, rcond=None)[0]
        r = b - A @ c0
        s = np.abs(r).max()
        if s == 0:
            raise DegenerateDomain("polytope has empty interior")
        G = np.column_stack([np.vstack([A, np.zeros(A.shape[1])]), np.append(-r / s, -1.0)])
        try:
            eq = ConvexHull(G / np.linalg.norm(G, axis=1)[:, None]).equations
        except QhullError as exc:
            raise DegenerateDomain("polytope has empty interior") from exc
        k = np.argmax(eq[:, -1])
        if eq[k, -1] > 0 and np.all(A @ (x := c0 + s * eq[k, :-2] / eq[k, -2]) < b):
            return x.view(np.complex128)
        raise DegenerateDomain("polytope has empty interior")

    @cached_property
    def _triangulation(self):
        """(apex, vertices, cone-simplex edges, cumulative volumes x d!) of a
        bounded polytope: Qhull (Barber, Dobkin & Huhdanpaa 1996) finds the
        vertices and simplicial hull facets; each is coned to the interior point."""
        from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

        A, b = self._real_constraints()
        x0 = self.interior_point.view(np.float64)  # (Re z_1, Im z_1, ...)
        try:
            with np.errstate(divide="ignore"):  # an apex on a facet fails in Qhull
                verts = HalfspaceIntersection(np.hstack([A, -b[:, None]]), x0).intersections
            facets = ConvexHull(verts).simplices
        except QhullError as exc:
            raise DegenerateDomain("polytope triangulation failed: "
                                   + str(exc).strip().splitlines()[0]) from exc
        edges = verts[facets] - x0
        return x0, verts, edges, np.cumsum(np.abs(np.linalg.det(edges)))

    def diameter(self) -> float:
        """Exact: the largest distance between two vertices (computed once)."""
        return self._diameter

    @cached_property
    def _diameter(self) -> float:
        if self.bounding_box is None:
            return math.inf
        from scipy.spatial.distance import pdist

        return float(pdist(self._triangulation[1]).max())

    def circumscribed_radius(self, z):
        """Exact: the farthest point of a polytope from z is a vertex."""
        if self.bounding_box is None:
            return math.inf
        verts = self._triangulation[1].view(np.complex128)
        return float(np.linalg.norm(verts - z, axis=1).max())

    def sample(self, count, rng, box=None):
        """Exactly uniform on a bounded polytope without a box: a simplex is
        picked by volume and weighted by normalised exponentials (Devroye
        1986, ch. V); rows that rounding puts on a facet are drawn again."""
        if box is not None or not self.bounded:
            return super().sample(count, rng, box)
        x0, _, edges, cum = self._triangulation
        out = np.empty((0, self.n), dtype=np.complex128)
        while out.shape[0] < count:
            m = count - out.shape[0]
            k = np.searchsorted(cum, rng.random(m) * cum[-1], side="right")
            w = rng.exponential(size=(m, 2 * self.n + 1))
            w /= w.sum(axis=1, keepdims=True)
            cand = (x0 + np.einsum("mi,mij->mj", w[:, 1:], edges[k])).view(np.complex128)
            keep = self.contains_many(cand)
            if not keep.any():
                raise DegenerateDomain("polytope too thin to sample its interior")
            out = np.vstack([out, cand[keep]])
        return out[:count]

    def outward_normal(self, p, constraint_index=None):
        if constraint_index is None:
            raise NotSupporting("missing active constraint index")
        return self.normals[constraint_index].astype(np.complex128)

    def disc_radii(self, z, U):
        """Constraint i allows s |<u, a_i>| <= b_i - Re <z, a_i>."""
        room = self.offsets - (self.normals.conj() @ z).real
        with np.errstate(divide="ignore"):
            return np.min(room / np.abs(U @ self.normals.conj().T), axis=1)

    def support(self, G, z):
        """Exact on a bounded polytope, where the sup is attained at a vertex
        (of the cached Qhull triangulation); None on an unbounded one."""
        if not self.bounded:
            return None
        verts = self._triangulation[1].view(np.complex128)
        return np.max((G @ (verts - z).T).real, axis=1)

    def to_json(self) -> dict:
        return {**super().to_json(),
                "constraints": [{"a": _vec2j(a), "b": float(b)}
                                for a, b in zip(self.normals, self.offsets)]}

    @classmethod
    def from_json(cls, n, data):
        cons = data["constraints"]
        return cls(n, normals=np.array([_j2vec(c["a"]) for c in cons]),
                   offsets=np.array([float(c["b"]) for c in cons]))


@dataclass
class AffineBallImage(Domain):
    """Image of the unit ball under z = M w + c with M invertible."""

    matrix: np.ndarray = None
    center: np.ndarray = None

    variant = "ball_image"

    def __post_init__(self):
        super().__post_init__()
        self.matrix = np.asarray(self.matrix, dtype=np.complex128)
        _require_finite("ball-image matrix and center", self.matrix,
                        np.asarray(self.center, dtype=np.complex128))
        self.center = as_cvector(self.center, self.n)
        if self.matrix.shape != (self.n, self.n):
            raise ConfigInvalid(f"matrix shape {self.matrix.shape} != ({self.n},{self.n})")
        sv = np.linalg.svd(self.matrix, compute_uv=False)
        if sv[-1] <= 1e-12 * sv[0]:
            raise DegenerateDomain("ball-image matrix is numerically singular")
        self._inv = np.linalg.inv(self.matrix)
        self._det = complex(np.linalg.det(self.matrix))
        self._sv = sv

    def to_ball(self, pts):
        return (pts - self.center) @ self._inv.T

    def contains_many(self, pts):
        return np.linalg.norm(self.to_ball(pts), axis=1) < 1.0

    @property
    def exact_oracle(self) -> ExactOracle:
        M, c, det = self.matrix, self.center, self._det

        def forward(w):
            return np.atleast_2d(w) @ M.T + c

        def inverse(z):
            return self.to_ball(np.atleast_2d(z))

        def jac(w):
            return np.full(np.atleast_2d(w).shape[0], det, dtype=np.complex128)

        return ExactOracle(self.n, forward, inverse, jac)

    def diameter(self) -> float:
        return 2.0 * float(self._sv[0])

    def circumscribed_radius(self, z):
        return safe_norm(z - self.center) + float(self._sv[0])

    def sample(self, count, rng, box=None):
        return self.exact_oracle.forward(uniform_ball(self.n, count, rng))

    def outward_normal(self, p, constraint_index=None):
        M = self.matrix
        return np.linalg.inv(M @ M.conj().T) @ (p - self.center)

    def disc_radii(self, z, U):
        """|w0 + zeta v|^2 <= |w0|^2 + s^2 |v|^2 + 2 s |<v, w0>| for |zeta| <= s,
        with equality at one phase, where w0 = M^-1 (z - c) and v = M^-1 u."""
        w0, V = self.to_ball(z), U @ self._inv.T
        room = 1.0 - np.vdot(w0, w0).real
        a, b = np.sum(np.abs(V) ** 2, axis=1), np.abs(V @ np.conj(w0))
        return room / (b + np.sqrt(b * b + a * room))

    def support(self, G, z):
        return (G @ (self.center - z)).real + np.linalg.norm(G @ self.matrix, axis=1)

    def to_json(self) -> dict:
        return {**super().to_json(), "matrix": [_vec2j(row) for row in self.matrix],
                "center": _vec2j(self.center)}

    @classmethod
    def from_json(cls, n, data):
        M = np.array([_j2vec(row) for row in data["matrix"]])
        return cls(n, matrix=M, center=_j2vec(data["center"]))


@dataclass
class Polydisc(Domain):
    """Product of discs { z : |z_j - c_j| < r_j }."""

    center: np.ndarray = None
    radii: np.ndarray = None

    variant = "polydisc"

    def __post_init__(self):
        super().__post_init__()
        self.radii = np.atleast_1d(np.asarray(self.radii, dtype=np.float64))
        _require_finite("polydisc center and radii", self.radii,
                        np.asarray(self.center, dtype=np.complex128))
        self.center = as_cvector(self.center, self.n)
        if self.radii.shape[0] != self.n or np.any(self.radii <= 0):
            raise ConfigInvalid("polydisc needs n positive radii")

    def contains_many(self, pts):
        return np.all(np.abs(pts - self.center) < self.radii[None, :], axis=1)

    def diameter(self) -> float:
        return 2.0 * safe_norm(self.radii)

    def circumscribed_radius(self, z):
        return safe_norm(np.abs(z - self.center) + self.radii)

    def sample(self, count, rng, box=None):
        u = rng.random((count, self.n))
        theta = rng.random((count, self.n)) * 2 * np.pi
        return self.center + self.radii * np.sqrt(u) * np.exp(1j * theta)

    def outward_normal(self, p, constraint_index=None):
        rel = p - self.center
        k = int(np.argmin(self.radii - np.abs(rel)))
        nu = np.zeros(self.n, dtype=np.complex128)
        nu[k] = phase(rel[k])
        return nu

    def disc_radii(self, z, U):
        """Coordinate k allows |z_k - c_k| + s |u_k| <= r_k."""
        with np.errstate(divide="ignore"):
            return np.min((self.radii - np.abs(z - self.center)) / np.abs(U), axis=1)

    def support(self, G, z):
        return (G @ (self.center - z)).real + np.abs(G) @ self.radii

    def to_json(self) -> dict:
        return {**super().to_json(), "center": _vec2j(self.center),
                "radii": [float(r) for r in self.radii]}

    @classmethod
    def from_json(cls, n, data):
        return cls(n, center=_j2vec(data["center"]),
                   radii=np.asarray(data["radii"], dtype=float))


@dataclass
class L1Ball(Domain):
    """Scaled l1 ball { z : sum |z_j| < scale }."""

    scale: float = 1.0

    variant = "l1ball"

    def __post_init__(self):
        super().__post_init__()
        self.scale = float(self.scale)
        if not (0 < self.scale < math.inf):
            raise ConfigInvalid("l1 ball scale must be positive and finite")

    def contains_many(self, pts):
        return np.sum(np.abs(pts), axis=1) < self.scale

    def diameter(self) -> float:
        return 2.0 * self.scale

    def circumscribed_radius(self, z):
        s = self.scale
        nz = safe_norm(z)
        return math.sqrt(nz * nz + s * s + 2.0 * s * float(np.max(np.abs(z))))

    def sample(self, count, rng, box=None):
        return self.scale * sample_en(self.n, count, rng)

    def outward_normal(self, p, constraint_index=None):
        return np.array([phase(c) if abs(c) > 0 else 0.0 for c in p],
                        dtype=np.complex128)

    def support(self, G, z):
        """sup of Re g.x over the ball is s max_k |g_k|."""
        return self.scale * np.max(np.abs(G), axis=1) - (G @ z).real

    def to_json(self) -> dict:
        return {**super().to_json(), "scale": self.scale}

    @classmethod
    def from_json(cls, n, data):
        return cls(n, scale=float(data["scale"]))


@dataclass
class SiegelHalfSpace(Domain):
    """Unbounded model domain { z : Im z_n > |z_1|^2 + ... + |z_{n-1}|^2 }."""

    variant = "siegel"

    def defect(self, pts):
        """Im z_n - |z'|^2, positive inside."""
        return pts[:, -1].imag - np.sum(np.abs(pts[:, :-1]) ** 2, axis=1)

    def contains_many(self, pts):
        return self.defect(pts) > 0.0

    @property
    def exact_oracle(self) -> ExactOracle:
        n = self.n
        return ExactOracle(
            n,
            forward=lambda w: cayley(np.atleast_2d(w)),
            inverse=lambda z: cayley_inverse(np.atleast_2d(z)),
            jacobian_det=lambda w: cayley_jacobian_det(np.atleast_2d(w), n),
        )

    def sample(self, count, rng, box=None):
        # coverage, not uniformity, is the contract
        return cayley(uniform_ball(self.n, count, rng))

    def outward_normal(self, p, constraint_index=None):
        nu = np.zeros(self.n, dtype=np.complex128)
        nu[:-1] = p[:-1]
        nu[-1] = -0.5j
        return nu

    def disc_radii(self, z, U):
        """The defect at z + zeta u is delta + Re(zeta g) - |zeta u'|^2 with
        g = -i u_n - 2 <u', z'>; its least value on |zeta| = s is delta - s|g| - s^2|u'|^2."""
        delta = self.defect(z[None, :])[0]
        q = np.sum(np.abs(U[:, :-1]) ** 2, axis=1)
        g = np.abs(-1j * U[:, -1] - 2.0 * (U[:, :-1] @ np.conj(z[:-1])))
        return 2.0 * delta / (g + np.sqrt(g * g + 4.0 * delta * q))


@dataclass
class MembershipOracle(Domain):
    """Domain known only through a membership predicate.

    The predicate takes an (m, n) complex array and returns an (m,) boolean
    array; any other shape raises DimensionMismatch.
    ``enclosing_polydisc`` -- (center, radii) -- is optional but unlocks finite
    diameters/circumscribed radii and default sampling boxes.
    """

    predicate: Callable = None
    declared_class: str = C_CONVEX
    predicate_name: str | None = None
    enclosing_polydisc: tuple | None = None

    variant = "oracle"

    def __post_init__(self):
        super().__post_init__()
        if self.declared_class not in (CONVEX, C_CONVEX):
            raise ConfigInvalid(f"unknown convexity class {self.declared_class!r}")
        self.convexity_class = self.declared_class
        if self.enclosing_polydisc is not None:
            c, r = self.enclosing_polydisc
            self.enclosing_polydisc = (as_cvector(c, self.n),
                                       np.asarray(r, dtype=np.float64))

    def contains_many(self, pts):
        out = np.asarray(self.predicate(pts))
        if out.shape != (pts.shape[0],):
            raise DimensionMismatch(
                f"predicate returned shape {out.shape} for {pts.shape[0]} points")
        return out.astype(bool)

    def diameter(self) -> float:
        if self.enclosing_polydisc is None:
            return math.inf
        return 2.0 * safe_norm(self.enclosing_polydisc[1])

    def circumscribed_radius(self, z):
        if self.enclosing_polydisc is None:
            return math.inf
        c, r = self.enclosing_polydisc
        return safe_norm(np.abs(z - c) + r)

    def sample(self, count, rng, box=None):
        if box is None and self.enclosing_polydisc is not None:
            box = polydisc_box(*self.enclosing_polydisc)
        return super().sample(count, rng, box)

    def to_json(self) -> dict:
        if self.predicate_name is None:
            raise ConfigInvalid("only named oracle predicates are serializable")
        return {**super().to_json(), "predicate": self.predicate_name}

    @classmethod
    def from_json(cls, n, data):
        unknown = sorted(set(data) - {"variant", "n", "class", "predicate"})
        if unknown:
            raise ConfigInvalid(f"unknown oracle keys: {unknown}")
        name = data["predicate"]
        meta = ORACLE_PREDICATES.get(name)
        if meta is None:
            raise ConfigInvalid(f"unknown oracle predicate {name!r}")
        if meta["n"] != n:
            raise ConfigInvalid(f"predicate {name!r} is defined for n={meta['n']}")
        return cls(n, predicate=meta["predicate"],
                   declared_class=data.get("class", meta["class"]),
                   predicate_name=name,
                   enclosing_polydisc=meta.get("enclosing_polydisc"))


#: JSON ``variant`` tag -> backend class
VARIANTS: dict[str, type[Domain]] = {
    cls.variant: cls for cls in (HalfspaceConvex, AffineBallImage, Polydisc,
                                 L1Ball, SiegelHalfSpace, MembershipOracle)}


# ---------------------------------------------------------------------------
# operations: thin public entry points over the backend protocol
# ---------------------------------------------------------------------------


def contains(domain: Domain, z) -> bool | np.ndarray:
    """Strict membership; batch in, batch out."""
    pts, single = _batch(z, domain.n)
    out = domain.contains_many(pts)
    return bool(out[0]) if single else out


def diameter(domain: Domain) -> float:
    """Diameter: exact for polydisc/ball-image/l1 and bounded halfspace
    intersections (the widest pair of vertices); a certified upper bound for
    oracles with an enclosing polydisc; +inf otherwise."""
    return domain.diameter()


def circumscribed_radius(domain: Domain, z) -> float:
    """Radius R with D contained in the ball B(z, R); certified upper bound, +inf
    for unbounded domains."""
    return domain.circumscribed_radius(as_cvector(z, domain.n))


def exact_volume_element(domain: Domain, z) -> float:
    """Exact volume element via the domain's ball oracle.

    v(z) = |det F'(w)|^-2 (1 - |w|^2)^-(n+1) at w = F^-1(z); values above
    1e300 are reported as +inf.  Raises UnsupportedDomain when no oracle is
    available and PointOutsideDomain when z is not inside.
    """
    oracle = domain.exact_oracle
    if oracle is None:
        raise UnsupportedDomain(f"{domain.variant} domain has no exact volume oracle")
    zz = as_cvector(z, domain.n)
    if not contains(domain, zz):
        raise PointOutsideDomain("volume element requested outside the domain")
    w = oracle.inverse(zz[None, :])[0]
    r2 = float(np.sum(np.abs(w) ** 2))
    jd = abs(complex(oracle.jacobian_det(w[None, :])[0]))
    v = jd ** -2 * (1.0 - r2) ** (-(domain.n + 1))
    return math.inf if v > OVERFLOW_LIMIT else float(v)


def unit_ball(n: int) -> AffineBallImage:
    """The unit ball of C^n as a trivial affine ball image."""
    return AffineBallImage(n, matrix=np.eye(n, dtype=np.complex128),
                           center=np.zeros(n, dtype=np.complex128))


def sample_interior(domain: Domain, count: int, rng: np.random.Generator,
                    box: np.ndarray | None = None) -> np.ndarray:
    """Draw `count` interior points.

    Ball images map uniform ball samples through F; polydiscs sample each disc;
    the Siegel half-space pushes ball samples through the Cayley map (coverage,
    not uniformity, is the contract).  Bounded polytopes sample their cached
    triangulation exactly.  Given `box` (real (2n, 2) bounds), halfspace and
    oracle domains rejection-sample inside it; oracles default to their
    enclosing polydisc, and unbounded polytopes need the box.
    """
    return domain.sample(count, rng, box)


# ---------------------------------------------------------------------------
# named oracle predicates and JSON round-trip
# ---------------------------------------------------------------------------


def _symmetrized_bidisc_pred(pts: np.ndarray) -> np.ndarray:
    """|s - conj(s) p| < 1 - |p|^2 characterizes pairs (s, p) = (z+w, zw), z,w in the disc."""
    s, p = pts[:, 0], pts[:, 1]
    return np.abs(s - np.conj(s) * p) < 1.0 - np.abs(p) ** 2


ORACLE_PREDICATES: dict[str, dict] = {
    "symmetrized_bidisc": {
        "predicate": _symmetrized_bidisc_pred,
        "n": 2,
        "class": C_CONVEX,
        "enclosing_polydisc": (np.zeros(2), np.array([2.0, 1.0])),
    },
}


def symmetrized_bidisc() -> MembershipOracle:
    """The symmetrized bidisc as a named membership oracle (C-convex, not convex)."""
    return MembershipOracle.from_json(2, {"predicate": "symmetrized_bidisc"})


def domain_to_json(domain: Domain) -> dict:
    """Serialize to the documented schema (complex as [re, im], matrices row-major)."""
    return domain.to_json()


def domain_from_json(data: dict) -> Domain:
    """Parse the documented schema; raises ConfigInvalid on malformed input."""
    try:
        variant, n = data["variant"], data["n"]
    except (KeyError, TypeError) as exc:
        raise ConfigInvalid(f"domain config missing variant/n: {exc}") from exc
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 2:
        raise ConfigInvalid(f"domain n must be an integer >= 2, got {n!r}")
    cls_tag = data.get("class", CONVEX)
    if cls_tag not in (CONVEX, C_CONVEX):
        raise ConfigInvalid(f"unknown convexity class {cls_tag!r}")
    cls = VARIANTS.get(variant) if isinstance(variant, str) else None
    if cls is None:
        raise ConfigInvalid(f"unknown domain variant {variant!r}")
    try:
        return cls.from_json(n, data)
    except HolovolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"malformed {variant!r} domain config: {exc}") from exc
