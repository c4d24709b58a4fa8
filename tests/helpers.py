"""Helpers that only the tests use."""

import math

import numpy as np

from scipy.optimize import linprog

from holovol.domains import ExactOracle, HalfspaceConvex
from holovol.errors import ConfigInvalid, HolovolError
from holovol.linalg import as_cvector, uniform_ball


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    # Fix the phase ambiguity so the distribution does not depend on QR details.
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


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


def secular_numpy(eps, gaps, lam, phi2, g):
    """The array form of ``geometry._secular_eps``, kept as its reference: the
    scalar loop must match it bit for bit.  gaps, lam and phi2 may be lists."""
    gaps, lam, phi2 = (np.asarray(a, dtype=float) for a in (gaps, lam, phi2))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d = eps + gaps
        terms = np.where(phi2 > 0.0, phi2 * (2.0 * d + lam) / np.maximum(d * d, 1e-300), 0.0)
    s = float(np.sum(terms))
    return math.inf if not np.isfinite(s) else s + g


def real_form(H: np.ndarray, w: np.ndarray, g: float):
    """Lower ``c* H c + Re(sum w_j c_j) + g`` to a real quadratic, the reference
    for ``geometry.nearest_on_quadric`` on complex input.

    H must be Hermitian (k x k).  Returns (H_r, phi, g) with
    ``q(xi) = xi^T H_r xi + 2 phi . xi + g`` for xi = (Re c, Im c).
    """
    k = H.shape[0]
    Hr = np.empty((2 * k, 2 * k))
    Hr[:k, :k] = H.real
    Hr[k:, k:] = H.real
    Hr[:k, k:] = -H.imag
    Hr[k:, :k] = H.imag
    # Re(w_j c_j) = Re w_j * Re c_j - Im w_j * Im c_j
    phi = 0.5 * np.concatenate([w.real, -w.imag])
    return Hr, phi, float(g)


def stiemke_bounded(dom: HalfspaceConvex) -> bool:
    """Reference boundedness test for a halfspace domain: by Stiemke's theorem
    {x : A x <= 0} = {0} exactly when A has full column rank and
    A^T lambda = 0 for some lambda >= 1 (one feasibility LP)."""
    A = np.ascontiguousarray(dom.normals).view(np.float64)
    m, d = A.shape
    if m <= d or np.linalg.matrix_rank(A) < d:
        return False
    res = linprog(np.zeros(m), A_eq=A.T, b_eq=np.zeros(d),
                  bounds=[(1.0, None)] * m, method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


def chebyshev_radius(dom: HalfspaceConvex) -> float:
    """Radius of the largest real ball inside a halfspace domain, by the
    inscribed-ball LP: max r with Re <x, a_i> + |a_i| r <= b_i, r free, so an
    empty interior reads r <= 0."""
    A = np.ascontiguousarray(dom.normals).view(np.float64)
    d = A.shape[1]
    res = linprog(-np.eye(d + 1)[-1],
                  A_ub=np.hstack([A, np.linalg.norm(A, axis=1)[:, None]]),
                  b_ub=dom.offsets, bounds=[(None, None)] * (d + 1), method="highs")
    assert res.status == 0, res.message
    return float(res.x[-1])


# ---------------------------------------------------------------------------
# the proof devices of the half-space reduction: the component-wise Moebius
# map Psi and the 1/sqrt(n) polydisc scaling
# ---------------------------------------------------------------------------


class Pole(HolovolError):
    """Rational normalization map evaluated at its pole."""


def psi_map(z) -> np.ndarray:
    """Component-wise Moebius map z_j -> z_j/(2 - z_j).

    Sends the product of half-planes {Re z_j < 1} biholomorphically onto the
    unit polydisc, fixing 0; |z/(2-z)| < 1 is equivalent to Re z < 1.
    """
    z = as_cvector(z)
    den = 2.0 - z
    if np.any(np.abs(den) < 1e-12):
        raise Pole("psi has a pole at z_j = 2")
    return z / den


def psi_jacobian_det(z) -> complex:
    """det of the derivative of psi_map; each factor is 2/(2 - z_j)^2."""
    z = as_cvector(z)
    den = 2.0 - z
    if np.any(np.abs(den) < 1e-12):
        raise Pole("psi has a pole at z_j = 2")
    return complex(np.prod(2.0 / den ** 2))


def psi_det0_squared(n: int) -> float:
    """|det psi'(0)|^2 = 2^(-2n), the exact loss of the half-plane reduction."""
    return 4.0 ** (-n)


def scaling_bound_polydisc(n: int) -> float:
    """v of the unit polydisc at 0 is at least n^-n (scale by 1/sqrt(n) into
    the ball and use monotonicity)."""
    return float(n) ** (-n)
