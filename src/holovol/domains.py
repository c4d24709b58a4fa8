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
    NoOracle,
    NotSupporting,
    PointOutsideDomain,
    UnboundedDomain,
    UnsupportedBackend,
)
from .linalg import as_cvector, phase, uniform_ball

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


def validate_oracle(oracle: ExactOracle, *, points: int = 100, seed: int = 0,
                    rel_tol: float = 1e-6) -> float:
    """Check jacobian_det against central finite differences at random ball points.

    Returns the maximum relative deviation; raises ConfigInvalid beyond rel_tol.
    Holomorphy means the complex derivative equals the directional derivative
    along the real axis, so a real-step central difference per coordinate gives
    the full complex Jacobian.
    """
    rng = np.random.default_rng(seed)
    w = uniform_ball(oracle.n, points, rng) * 0.8  # stay away from the sphere
    h = 1e-6
    worst = 0.0
    for i in range(points):
        J = np.empty((oracle.n, oracle.n), dtype=np.complex128)
        for j in range(oracle.n):
            e = np.zeros(oracle.n, dtype=np.complex128)
            e[j] = h
            J[:, j] = (oracle.forward(w[i] + e) - oracle.forward(w[i] - e)) / (2 * h)
        det_fd = np.linalg.det(J)
        det_an = oracle.jacobian_det(w[i][None, :])[0]
        rel = abs(det_fd - det_an) / max(abs(det_an), 1e-300)
        worst = max(worst, rel)
    if worst > rel_tol:
        raise ConfigInvalid(
            f"oracle jacobian_det disagrees with finite differences (rel {worst:.3e})")
    return worst


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
                      box, fallback: Callable | None = None) -> np.ndarray:
    """Uniform samples inside `box` that `domain` accepts.

    When acceptance stays too low, ``fallback(missing, rng)`` fills the rest if
    given; otherwise sampling fails.
    """
    n = domain.n
    box = np.asarray(box, dtype=np.float64)
    out = np.empty((0, n), dtype=np.complex128)
    attempts = 0
    limit = 25 if fallback else 2000
    while out.shape[0] < count:
        m = max(4 * count, 512)
        u = rng.random((m, 2 * n)) * (box[:, 1] - box[:, 0]) + box[:, 0]
        cand = u[:, 0::2] + 1j * u[:, 1::2]
        out = np.vstack([out, cand[domain.contains_many(cand)]])
        attempts += 1
        if attempts > limit and out.shape[0] < count:
            if fallback:
                return np.vstack([out, fallback(count - out.shape[0], rng)])[:count]
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
    Reinhardt moments in ``bergman``, the sampled LP normal of oracles in
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
        on interior samples of the whole domain: drawn from a bounded body, or
        pushed through a ball biholomorphism."""
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
        raise UnsupportedBackend(
            f"no supporting-normal backend for {type(self).__name__}")

    def to_json(self) -> dict:
        return {"variant": self.variant, "n": self.n, "class": self.convexity_class}

    @classmethod
    def from_json(cls, n: int, data: dict) -> "Domain":
        return cls(n)


@dataclass
class HalfspaceConvex(Domain):
    """Intersection of real halfspaces { z : Re <z, a_i> < b_i }."""

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

    def _real_lp_data(self):
        """Constraints as A x <= b over x = (Re z_1, Im z_1, ..., Re z_n, Im z_n)."""
        m = self.normals.shape[0]
        A = np.empty((m, 2 * self.n))
        A[:, 0::2] = self.normals.real
        A[:, 1::2] = self.normals.imag
        return A, self.offsets.copy()

    @cached_property
    def bounding_box(self) -> np.ndarray | None:
        """Real (2n, 2) coordinate bounding box via 4n support LPs, or None if unbounded."""
        from scipy.optimize import linprog

        A, b = self._real_lp_data()
        d = 2 * self.n
        box = np.empty((d, 2))
        for i in range(d):
            for sign, col in ((1.0, 0), (-1.0, 1)):
                c = np.zeros(d)
                c[i] = sign
                res = linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * d,
                              method="highs")
                if res.status == 3:  # unbounded
                    return None
                if res.status != 0:
                    raise HolovolError(f"support LP failed: {res.message}")
                box[i, col] = -res.fun if sign < 0 else res.fun  # [min, max]
        return box

    @cached_property
    def chebyshev_center(self) -> np.ndarray:
        """Center of the largest inscribed real ball, as a complex vector."""
        from scipy.optimize import linprog

        A, b = self._real_lp_data()
        d = 2 * self.n
        norms = np.linalg.norm(A, axis=1)
        c = np.zeros(d + 1)
        c[-1] = -1.0
        res = linprog(c, A_ub=np.hstack([A, norms[:, None]]), b_ub=b,
                      bounds=[(None, None)] * d + [(0.0, None)],
                      method="highs")
        if res.status == 3:
            raise UnboundedDomain("no finite inscribed-ball center")
        if res.status != 0 or res.x[-1] <= 0:
            raise HolovolError(f"inscribed-ball LP failed: {res.message}")
        return res.x[:d:2] + 1j * res.x[1:d:2]

    def diameter(self) -> float:
        """Certified upper bound: the diagonal of the bounding box."""
        box = self.bounding_box
        if box is None:
            return math.inf
        return float(np.linalg.norm(box[:, 1] - box[:, 0]))

    def circumscribed_radius(self, z):
        box = self.bounding_box
        if box is None:
            return math.inf
        # farthest corner of the real bounding box
        zr = np.empty(2 * self.n)
        zr[0::2], zr[1::2] = z.real, z.imag
        far = np.maximum(np.abs(box[:, 0] - zr), np.abs(box[:, 1] - zr))
        return float(np.linalg.norm(far))

    def sample(self, count, rng, box=None):
        if box is None and self.bounded:
            # thin polytopes defeat box rejection
            return _rejection_sample(self, count, rng, self.bounding_box,
                                     fallback=self._ray_samples)
        return super().sample(count, rng, box)

    def _ray_samples(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Star-shaped sampling of a bounded polytope from its Chebyshev center.

        Casts uniform sphere directions from the center of the largest inscribed
        ball and places a point at a random fraction of the exit distance.  Not
        volume-uniform, but covers the whole body with a guaranteed acceptance
        rate of one, which is what the inclusion checks need on thin polytopes.
        """
        n = self.n
        x0 = self.chebyshev_center
        slack = self.offsets - (self.normals.conj() @ x0).real
        out = np.empty((count, n), dtype=np.complex128)
        filled = 0
        while filled < count:
            m = count - filled
            u = rng.normal(size=(m, 2 * n))
            u /= np.linalg.norm(u, axis=1)[:, None]
            d = u[:, 0::2] + 1j * u[:, 1::2]
            proj = (d @ self.normals.conj().T).real
            with np.errstate(divide="ignore"):
                t = np.where(proj > 1e-14, slack[None, :] / proj, np.inf).min(axis=1)
            s = rng.random(m) ** (1.0 / (2 * n))
            pts = x0[None, :] + (s * t * (1.0 - 1e-9))[:, None] * d
            good = self.contains_many(pts)
            out[filled:filled + int(good.sum())] = pts[good]
            filled += int(good.sum())
        return out

    def outward_normal(self, p, constraint_index=None):
        if constraint_index is None:
            raise NotSupporting("missing active constraint index")
        return self.normals[constraint_index].astype(np.complex128)

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
        return float(np.linalg.norm(z - self.center)) + float(self._sv[0])

    def sample(self, count, rng, box=None):
        return self.exact_oracle.forward(uniform_ball(self.n, count, rng))

    def outward_normal(self, p, constraint_index=None):
        M = self.matrix
        return np.linalg.inv(M @ M.conj().T) @ (p - self.center)

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
        return 2.0 * float(np.linalg.norm(self.radii))

    def circumscribed_radius(self, z):
        return float(np.linalg.norm(np.abs(z - self.center) + self.radii))

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
        nz = float(np.linalg.norm(z))
        return math.sqrt(nz * nz + s * s + 2.0 * s * float(np.max(np.abs(z))))

    def sample(self, count, rng, box=None):
        # rejection from the circumscribing polydisc; acceptance is fine for n <= 4
        n = self.n
        box_dom = Polydisc(n, center=np.zeros(n), radii=np.full(n, self.scale))
        out = np.empty((0, n), dtype=np.complex128)
        while out.shape[0] < count:
            cand = box_dom.sample(max(count, 256), rng)
            out = np.vstack([out, cand[self.contains_many(cand)]])
        return out[:count]

    def outward_normal(self, p, constraint_index=None):
        return np.array([phase(c) if abs(c) > 0 else 0.0 for c in p],
                        dtype=np.complex128)

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


@dataclass
class MembershipOracle(Domain):
    """Domain known only through a membership predicate.

    The predicate takes an (m, n) complex array and returns an (m,) boolean
    array (scalar predicates are wrapped on the fly, at a large speed cost).
    ``enclosing_polydisc`` -- (center, radii) -- is optional but unlocks finite
    diameters/circumscribed radii and default sampling boxes.
    """

    predicate: Callable = None
    declared_class: str = C_CONVEX
    search_radius: float = 1e6
    refine_iters: int = 3
    predicate_name: str | None = None
    enclosing_polydisc: tuple | None = None

    variant = "oracle"

    def __post_init__(self):
        super().__post_init__()
        if self.declared_class not in (CONVEX, C_CONVEX):
            raise ConfigInvalid(f"unknown convexity class {self.declared_class!r}")
        if not (0 < self.search_radius < math.inf) or self.refine_iters < 1:
            raise ConfigInvalid(
                "oracle needs a finite search_radius > 0 and refine_iters >= 1")
        self.convexity_class = self.declared_class
        if self.enclosing_polydisc is not None:
            c, r = self.enclosing_polydisc
            self.enclosing_polydisc = (as_cvector(c, self.n),
                                       np.asarray(r, dtype=np.float64))

    def contains_many(self, pts):
        out = self.predicate(pts)
        out = np.asarray(out)
        if out.shape != (pts.shape[0],):
            # scalar predicate: evaluate row by row
            out = np.fromiter((bool(self.predicate(p)) for p in pts),
                              dtype=bool, count=pts.shape[0])
        return out.astype(bool)

    def diameter(self) -> float:
        if self.enclosing_polydisc is None:
            return math.inf
        return 2.0 * float(np.linalg.norm(self.enclosing_polydisc[1]))

    def circumscribed_radius(self, z):
        if self.enclosing_polydisc is None:
            return math.inf
        c, r = self.enclosing_polydisc
        return float(np.linalg.norm(np.abs(z - c) + r))

    def sample(self, count, rng, box=None):
        if box is None and self.enclosing_polydisc is not None:
            box = polydisc_box(*self.enclosing_polydisc)
        return super().sample(count, rng, box)

    def to_json(self) -> dict:
        if self.predicate_name is None:
            raise ConfigInvalid("only named oracle predicates are serializable")
        return {**super().to_json(), "predicate": self.predicate_name,
                "search_radius": self.search_radius, "refine_iters": self.refine_iters}

    @classmethod
    def from_json(cls, n, data):
        name = data["predicate"]
        meta = ORACLE_PREDICATES.get(name)
        if meta is None:
            raise ConfigInvalid(f"unknown oracle predicate {name!r}")
        if meta["n"] != n:
            raise ConfigInvalid(f"predicate {name!r} is defined for n={meta['n']}")
        return cls(n, predicate=meta["predicate"],
                   declared_class=data.get("class", meta["class"]),
                   search_radius=float(data.get("search_radius", 1e6)),
                   refine_iters=int(data.get("refine_iters", 3)),
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
    """Diameter: exact for polydisc/ball-image/l1; certified upper bound for
    bounded halfspace intersections (bounding-box diagonal) and oracles with an
    enclosing polydisc; +inf otherwise."""
    return domain.diameter()


def circumscribed_radius(domain: Domain, z) -> float:
    """Radius R with D contained in the ball B(z, R); certified upper bound, +inf
    for unbounded domains."""
    return domain.circumscribed_radius(as_cvector(z, domain.n))


def exact_volume_element(domain: Domain, z) -> float:
    """Exact volume element via the domain's ball oracle.

    v(z) = |det F'(w)|^-2 (1 - |w|^2)^-(n+1) at w = F^-1(z); values above
    1e300 are reported as +inf.  Raises NoOracle when no oracle is available
    and PointOutsideDomain when z is not inside.
    """
    oracle = domain.exact_oracle
    if oracle is None:
        raise NoOracle(f"{domain.variant} domain has no exact volume oracle")
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
    not uniformity, is the contract).  Halfspace and oracle domains use
    rejection sampling inside `box` (real (2n, 2) bounds), defaulting to the
    bounding box / enclosing polydisc when available.
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


def symmetrized_bidisc(search_radius: float = 8.0, refine_iters: int = 3) -> MembershipOracle:
    """The symmetrized bidisc as a named membership oracle (C-convex, not convex)."""
    return MembershipOracle.from_json(2, {"predicate": "symmetrized_bidisc",
                                          "search_radius": search_radius,
                                          "refine_iters": refine_iters})


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
