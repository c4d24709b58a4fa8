"""Affine normalization built on the iterated slice distances.

T maps the frame points p^j - z to the standard basis (rows are
conj(p^j - z)/tau_j^2, so |det T| = 1/prod tau_j).  Each coordinate disc
D e_j lies in T(D - z) because the slice ball of radius tau_j sits inside
the domain, hence the open unit l1 ball E_n = {sum |w_j| < 1} is contained
in T(D - z) whenever D is convex.

A is the lower-triangular unit-diagonal matrix assembled from supporting
hyperplanes at the frame points.  Its subdiagonal entries have modulus at
most 1, which pins the inverse entries to |beta_{j,k}| <= 2^(j-k-1) and
yields the dimensional constant c_n = sqrt((4^n - 1)/3) with

    (1/c_n) * unit ball  subset  A(E_n)  and  A(T(D - z)) subset {Re W_j < 1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .domains import (
    CONVEX,
    Domain,
    MembershipOracle,
    polydisc_box,
    sample_interior,
)
from .errors import (
    InclusionViolated,
    NotSupporting,
    SingularBasis,
    TriangularityViolated,
    UnsupportedBackend,
)
from .minimal_basis import MinimalBasis

SUPPORT_TOL = 1e-6


def c_n(n: int) -> float:
    """sqrt((4^n - 1)/3) — the radius deficit of the ball inside A(E_n)."""
    return math.sqrt((4.0 ** n - 1.0) / 3.0)


def build_T(basis: MinimalBasis) -> np.ndarray:
    diffs = basis.boundary_points - basis.base_point[None, :]
    taus = basis.taus
    if np.any(taus <= 0):
        raise SingularBasis("nonpositive slice distance")
    T = np.conj(diffs) / (taus ** 2)[:, None]
    return T


def _interior_samples(domain: Domain, basis: MinimalBasis, count: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Interior samples; unbounded bodies get a local window around the base
    point (support inequalities are testable on any subset of D)."""
    if domain.bounded:
        return sample_interior(domain, count, rng)
    box = polydisc_box(basis.base_point, 4.0 * float(basis.taus[-1]))
    return sample_interior(domain, count, rng, box=box)


def _oracle_normal_lp(domain: MembershipOracle, basis: MinimalBasis, j: int,
                      samples: int, rng: np.random.Generator) -> np.ndarray:
    """Margin-maximizing supporting functional of the guaranteed shape.

    The hyperplane at the j-th frame point can always be written
    nu = d^j + sum_{k<j} gamma_k d^k (components along later directions vanish
    because the restriction to the slice supports the inscribed slice ball).
    Maximize the worst support margin over interior samples via an LP in
    (Re gamma, Im gamma, t).
    """
    if domain.convexity_class != CONVEX:
        raise UnsupportedBackend(
            "supporting hyperplanes are only certified for convex oracles")
    p = basis.boundary_points[j]
    dirs = basis.directions
    if j == 0:
        return dirs[0].copy()
    X = _interior_samples(domain, basis, samples, rng)
    U = (X - p[None, :]) @ np.conj(dirs[: j + 1]).T  # u_{s,k} = <x_s - p, d^k>
    # constraint per sample: Re u_j + sum_k (a_k Re u_k + b_k Im u_k) + t <= 0
    A_ub = np.hstack([U[:, :j].real, U[:, :j].imag, np.ones((len(X), 1))])
    b_ub = -U[:, j].real
    c = np.zeros(2 * j + 1)
    c[-1] = -1.0
    bounds = [(-1e3, 1e3)] * (2 * j) + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise NotSupporting(f"support LP failed at step {j}: {res.message}")
    gamma = res.x[:j] + 1j * res.x[j:2 * j]
    return dirs[j] + gamma @ dirs[:j]


def supporting_normal(domain: Domain, basis: MinimalBasis, j: int, *,
                      samples: int = 512, seed: int = 0) -> np.ndarray:
    """Supporting hyperplane normal at the j-th frame point.

    Returns nu with <nu, d^j> real positive and no components along the later
    directions d^k, k > j.  Verified against interior samples; a sampled point
    on the wrong side raises NotSupporting with the witness.
    """
    rng = np.random.default_rng(seed)
    # closed form on the geometric backends, a sampled LP on oracles
    if domain.variant == "oracle":
        nu = _oracle_normal_lp(domain, basis, j, samples, rng)
    else:
        nu = domain.outward_normal(basis.boundary_points[j], basis.constraint_indices[j])
    scale = np.linalg.norm(nu)
    if scale == 0:
        raise NotSupporting(f"zero normal at step {j}")
    # components along d^k, k > j must vanish; project and measure what was cut
    coeffs = np.conj(basis.directions[: j + 1]) @ nu  # <nu, d^k> for k <= j
    proj = coeffs @ basis.directions[: j + 1]
    removed = float(np.linalg.norm(nu - proj))
    if removed > SUPPORT_TOL * scale:
        raise NotSupporting(
            f"normal at step {j} has mass {removed:.3e} outside span(d^1..d^{j + 1})",
            margin=removed / scale)
    c = coeffs[j]
    if abs(c) < 1e-12 * scale:
        raise NotSupporting(f"normal at step {j} orthogonal to d^{j + 1}")
    nu = proj * (abs(c) / c)
    # sampled one-sided check: Re<x - p, nu> <= 0 on the domain
    X = _interior_samples(domain, basis, samples, rng)
    diffs = X - basis.boundary_points[j][None, :]
    margins = -(diffs @ np.conj(nu)).real
    denom = np.linalg.norm(nu) * np.maximum(np.linalg.norm(diffs, axis=1), 1e-30)
    rel = margins / denom
    worst = int(np.argmin(rel))
    if rel[worst] < -SUPPORT_TOL:
        raise NotSupporting(
            f"sampled point crosses the hyperplane at step {j}",
            witness={"point": X[worst], "relative_margin": float(rel[worst])},
            margin=float(rel[worst]))
    return nu


@dataclass
class Normalization:
    """T, A and the supporting normals behind A, plus build diagnostics."""

    T: np.ndarray
    A: np.ndarray
    normals: np.ndarray           # rows nu_j
    det_T: complex
    alpha_max: float              # largest subdiagonal |alpha|; theory says <= 1
    triangularity_residual: float

    @property
    def n(self) -> int:
        return self.T.shape[0]

    def map_points(self, basis: MinimalBasis, pts: np.ndarray) -> np.ndarray:
        """W = A T (x - z) for a batch of points."""
        return (pts - basis.base_point[None, :]) @ (self.A @ self.T).T


def build_A(domain: Domain, basis: MinimalBasis, *,
            samples: int = 512, seed: int = 0) -> Normalization:
    n = basis.n
    T = build_T(basis)
    normals = np.stack([
        supporting_normal(domain, basis, j, samples=samples, seed=seed + j)
        for j in range(n)
    ])
    # m_j = (T^-1)^* nu_j ;  triangularity of M is the structure theorem
    M = np.linalg.solve(T.conj().T, normals.T).T
    tri = 0.0
    for j in range(n - 1):
        row = M[j]
        tri = max(tri, float(np.max(np.abs(row[j + 1:])) / np.linalg.norm(row)))
    if tri > SUPPORT_TOL:
        raise TriangularityViolated(
            f"normal coefficients along later directions reach {tri:.3e}")
    A = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        A[j, : j + 1] = np.conj(M[j, : j + 1]) / np.conj(M[j, j])
        A[j, j] = 1.0
    alpha_max = 0.0
    if n > 1:
        sub = [abs(A[j, k]) for j in range(1, n) for k in range(j)]
        alpha_max = float(max(sub))
    return Normalization(T, A, normals, complex(np.linalg.det(T)), alpha_max, tri)


# ---------------------------------------------------------------------------
# sampled inclusion checks
# ---------------------------------------------------------------------------


def sample_en(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples from E_n = {sum |w_j| < 1}, exact (no rejection).

    The moduli vector has density prop. to prod r_j on the simplex, i.e.
    R * Dirichlet(2,...,2) with R = U^(1/2n); phases are uniform.
    """
    u = rng.dirichlet(np.full(n, 2.0), size=count)
    radius = rng.random(count) ** (1.0 / (2 * n))
    moduli = u * radius[:, None]
    phases = np.exp(2j * np.pi * rng.random((count, n)))
    return moduli * phases


def lemma_margins(A: np.ndarray, W: np.ndarray) -> np.ndarray:
    """1 - ||A^{-1} w||_1 per row of W; nonnegative whenever ||w|| <= 1/c_n."""
    sol = np.linalg.solve(A, W.T).T
    return 1.0 - np.sum(np.abs(sol), axis=1)


def random_admissible_A(n: int, rng: np.random.Generator) -> np.ndarray:
    """Lower-triangular, unit diagonal, subdiagonal entries uniform in the disc."""
    A = np.eye(n, dtype=np.complex128)
    for j in range(1, n):
        r = np.sqrt(rng.random(j))
        th = 2j * np.pi * rng.random(j)
        A[j, :j] = r * np.exp(th)
    return A


def beta_excess(A: np.ndarray) -> float:
    """max over subdiagonal entries of |beta_{j,k}| - 2^(j-k-1) for B = A^{-1}.

    Nonpositive (up to roundoff) for every admissible A.
    """
    B = np.linalg.inv(A)
    n = A.shape[0]
    worst = -np.inf
    for j in range(1, n):
        for k in range(j):
            worst = max(worst, abs(B[j, k]) - 2.0 ** (j - k - 1))
    return float(worst) if n > 1 else 0.0


def verify_normalization(domain: Domain, basis: MinimalBasis, norm: Normalization,
                         *, samples: int = 512, seed: int = 0,
                         tol: float = 1e-6) -> dict:
    """Sampled verification of the three inclusions behind the bounds.

    (i)   E_n subset T(D - z): pull E_n samples back through T^{-1}.
    (ii)  (1/c_n) B^n subset A(E_n): l1 norm of A^{-1} w on a near-extremal sphere.
    (iii) A(T(D - z)) subset {Re W_j < 1}: push interior samples forward.

    Returns the minimal margin of each; raises InclusionViolated with a witness
    when a margin dips below -tol.
    """
    rng = np.random.default_rng(seed)
    n, z = basis.n, basis.base_point

    w = sample_en(n, samples, rng)
    X = z[None, :] + w @ np.linalg.inv(norm.T).T
    inside = domain.contains_many(X)
    if not inside.all():
        bad = int(np.argmin(inside))
        raise InclusionViolated("an E_n sample left the domain after T^{-1}",
                                witness={"w": w[bad], "point": X[bad]})
    en_margin = float(np.min(1.0 - np.sum(np.abs(w), axis=1)))

    g = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    dirs = g / np.linalg.norm(g, axis=1, keepdims=True)
    sphere = dirs * ((1.0 - 1e-6) / c_n(n))
    lm = lemma_margins(norm.A, sphere)
    if lm.min() < -tol:
        bad = int(np.argmin(lm))
        raise InclusionViolated("ball point left A(E_n)",
                                witness={"w": sphere[bad]}, margin=float(lm.min()))

    Y = _interior_samples(domain, basis, samples, rng)
    Wp = norm.map_points(basis, Y)
    hp = 1.0 - Wp.real
    hs_margin = float(hp.min())
    if hs_margin < -tol:
        bad = int(np.argmin(hp.min(axis=1)))
        raise InclusionViolated("domain sample crossed a normalized halfspace",
                                witness={"point": Y[bad]}, margin=hs_margin)

    return {"en_margin": en_margin, "lemma_margin": float(lm.min()),
            "halfspace_margin": hs_margin}
