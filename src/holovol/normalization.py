"""Affine normalization built on the iterated slice distances.

T maps the frame points p^j - z to the standard basis (rows are
conj(d^j)/tau_j with d^j the unit frame directions, so |det T| =
1/prod tau_j).  Each coordinate disc D e_j lies in T(D - z) because the slice
ball of radius tau_j sits inside the domain, hence the open unit l1 ball
E_n = {sum |w_j| < 1} is contained in T(D - z) whenever D is convex.

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
from scipy.optimize import linprog  # noqa: F401  (perfbench/spans.py counts LP solves here)

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
    UnsupportedDomain,
)
from .geometry import ray_exit
from .linalg import sample_en
from .minimal_basis import MinimalBasis

SUPPORT_TOL = 1e-6
#: tilt angle of the rays whose exits give the supporting normals of oracles
EXIT_STEP = 1e-4


def c_n(n: int) -> float:
    """sqrt((4^n - 1)/3) — the radius deficit of the ball inside A(E_n)."""
    return math.sqrt((4.0 ** n - 1.0) / 3.0)


def build_T(basis: MinimalBasis) -> np.ndarray:
    """Rows conj(d^j)/tau_j, so T (p^j - z) = e_j, from the exact direction
    that every slice kernel returns with p^j."""
    taus = basis.taus
    if np.any(taus <= 0):
        raise SingularBasis("nonpositive slice distance")
    return np.conj(basis.directions) / taus[:, None]


def _oracle_normal(domain: MembershipOracle, basis: MinimalBasis, j: int) -> np.ndarray:
    """Supporting normal of a convex oracle at its j-th frame point, from the
    exit radii of rays tilted off d^j.

    The normal has the form nu = d^j + sum_{k<j} gamma_k d^k (components along
    later directions vanish because the restriction to the slice supports the
    inscribed slice ball).  The ray z + r (cos t d^j + sin t e^{i phi} d^k)
    leaves a body supported by nu at r(t) with
    r'(0) = -tau_j Re(e^{i phi} conj(gamma_k)), so phi = 0 gives Re gamma_k and
    phi = pi/2 gives Im gamma_k; r'(0) is a central difference at t = +-EXIT_STEP.
    """
    if domain.convexity_class != CONVEX:
        raise UnsupportedDomain(
            "supporting hyperplanes are only certified for convex oracles")
    z, dirs, tau = basis.base_point, basis.directions, float(basis.taus[j])
    cos, sin = math.cos(EXIT_STEP), math.sin(EXIT_STEP)

    def slope(tilt):
        r = [ray_exit(domain.contains_many, z, cos * dirs[j] + sign * sin * tilt, 1.5 * tau)
             for sign in (1.0, -1.0)]
        if not all(map(math.isfinite, r)):
            raise NotSupporting(f"a ray tilted off d^{j + 1} found no exit")
        return (r[0] - r[1]) / (2.0 * EXIT_STEP)

    gamma = [-(slope(dirs[k]) + 1j * slope(1j * dirs[k])) / tau for k in range(j)]
    return dirs[j] + np.array(gamma, dtype=np.complex128) @ dirs[:j]


def supporting_normal(domain: Domain, basis: MinimalBasis, j: int) -> np.ndarray:
    """Supporting hyperplane normal at the j-th frame point.

    Closed form on the geometric backends, exit derivatives on convex oracles.
    Returns nu with <nu, d^j> real positive and no components along the later
    directions d^k, k > j; that the hyperplane supports the domain is tested
    by :func:`verify_normalization` (iii).
    """
    if domain.variant == "oracle":
        nu = _oracle_normal(domain, basis, j)
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
    return proj * (abs(c) / c)


@dataclass
class Normalization:
    """T, A and the supporting normals behind A."""

    T: np.ndarray
    A: np.ndarray
    normals: np.ndarray           # rows nu_j
    alpha_max: float              # largest subdiagonal |alpha|; theory says <= 1

    def map_points(self, basis: MinimalBasis, pts: np.ndarray) -> np.ndarray:
        """W = A T (x - z) for a batch of points."""
        return (pts - basis.base_point[None, :]) @ (self.A @ self.T).T


def build_A(domain: Domain, basis: MinimalBasis) -> Normalization:
    """T and the triangular A, read off the frame: with c_jk = <nu_j, d^k>,
    which :func:`supporting_normal` makes zero for k > j (and real positive
    for k = j), A_jk = conj(c_jk) tau_k / (c_jj tau_j)."""
    n, T = basis.n, build_T(basis)
    normals = np.stack([supporting_normal(domain, basis, j) for j in range(n)])
    taus = basis.taus.tolist()
    c = (normals @ basis.directions.conj().T).tolist()
    A = np.eye(n, dtype=np.complex128)
    alpha_max = 0.0
    for j in range(1, n):
        for k in range(j):
            A[j, k] = alpha = (c[j][k] * taus[k] / (c[j][j] * taus[j])).conjugate()
            alpha_max = max(alpha_max, abs(alpha))
    return Normalization(T, A, normals, alpha_max)


# ---------------------------------------------------------------------------
# inclusion checks
# ---------------------------------------------------------------------------


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


def lemma_bound(A: np.ndarray, r: float) -> float | None:
    """1 - max ||A^{-1} w||_1 over |w| = r where provable, else None.  With rows
    b_j of A^{-1} the max is r max_s ||sum_j s_j b_j|| over phases s: exactly
    r (|b_1|^2 + |b_2|^2 + 2|<b_1, b_2>|)^(1/2) at n = 2; at n >= 3 its upper
    bound r sum_j |b_j| gives a lower bound on the margin, kept when >= 0."""
    B = np.linalg.inv(A)
    norms = np.linalg.norm(B, axis=1)
    if B.shape[0] == 2:
        return 1.0 - r * math.sqrt(norms @ norms + 2.0 * abs(np.vdot(B[1], B[0])))
    margin = 1.0 - r * float(norms.sum())
    return margin if margin >= 0 else None


def verify_normalization(domain: Domain, basis: MinimalBasis, norm: Normalization,
                         *, samples: int = 2000, seed: int = 0,
                         tol: float = 1e-6) -> dict:
    """The three inclusions behind the bounds, each in closed form (mode
    ``exact``) where one exists and on `samples` random points (``sampled``).

    (i)   E_n subset T(D - z), E_n the hull of the unit discs of the axes: for
          convex D it holds iff each disc z + zeta T^{-1} e_j (|zeta| < 1) lies
          in D, margin rho - 1 with rho the least ``domain.disc_radii``; else
          E_n samples pulled back through T^{-1}, margin 1 - max ||w||_1.
    (ii)  (1/c_n) B^n subset A(E_n): :func:`lemma_bound`, else A^{-1} on a
          sampled near-extremal sphere.
    (iii) A(T(D - z)) subset {Re W_j < 1}, which tests the normals behind A:
          margin 1 - max_j ``domain.support`` of the rows of A T, exact on
          ball images, polydiscs, l1 balls and bounded polytopes (the max over
          their vertices); else interior samples pushed forward: on the Siegel
          half-space, whose support function is finite only where Re g_n = 0
          exactly, on unbounded polytopes and on oracles.

    Raises InclusionViolated with a witness when a margin dips below -tol.
    """
    rng = np.random.default_rng(seed)
    n, z = basis.n, basis.base_point
    frame = basis.directions * basis.taus[:, None]  # rows tau_j d^j: (T^-1)^T
    out = {}

    def settle(part, margin, mode, message, witness=None):
        out[f"{part}_margin"], out[f"{part}_mode"] = float(margin), mode
        if margin < -tol:
            raise InclusionViolated(message, witness=witness, margin=float(margin))

    if (rho := domain.disc_radii(z, frame)) is not None:
        j = int(np.argmin(rho))
        settle("en", rho[j] - 1.0, "exact", f"the disc along T^-1 e_{j + 1} left the domain",
               {"disc": j})
    else:
        w = sample_en(n, samples, rng)
        X = z[None, :] + w @ frame
        inside = domain.contains_many(X)
        if not inside.all():
            bad = int(np.argmin(inside))
            raise InclusionViolated("an E_n sample left the domain after T^{-1}",
                                    witness={"w": w[bad], "point": X[bad]})
        out.update(en_margin=float(np.min(1.0 - np.sum(np.abs(w), axis=1))),
                   en_mode="sampled")

    r = (1.0 - 1e-6) / c_n(n)
    if (lm := lemma_bound(norm.A, r)) is not None:
        settle("lemma", lm, "exact", "the ball of radius 1/c_n left A(E_n)")
    else:
        g = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
        sphere = g / np.linalg.norm(g, axis=1, keepdims=True) * r
        lms = lemma_margins(norm.A, sphere)
        bad = int(np.argmin(lms))
        settle("lemma", lms[bad], "sampled", "ball point left A(E_n)", {"w": sphere[bad]})

    if (h := domain.support(norm.A @ norm.T, z)) is not None:
        j = int(np.argmax(h))
        settle("halfspace", 1.0 - h[j], "exact",
               f"the domain crossed normalized halfspace {j + 1}", {"halfspace": j})
        return out
    # only rejection samplers of unbounded bodies take a window around z (the
    # inequalities hold on any subset of D); Siegel samples all of D by Cayley
    window = not domain.bounded and domain.exact_oracle is None
    box = polydisc_box(z, 4.0 * float(basis.taus[-1])) if window else None
    Y = sample_interior(domain, samples, rng, box=box)
    hp = np.min(1.0 - norm.map_points(basis, Y).real, axis=1)
    bad = int(np.argmin(hp))
    settle("halfspace", hp[bad], "sampled", "domain sample crossed a normalized halfspace",
           {"point": Y[bad]})
    return out
