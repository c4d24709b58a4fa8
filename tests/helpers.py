"""Helpers that only the tests use."""

import math

import numpy as np

from holovol.domains import ExactOracle
from holovol.errors import ConfigInvalid
from holovol.linalg import uniform_ball


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


def secular_numpy(t, lam, phi2, g):
    """The array form of ``geometry._secular``, kept as its reference: the
    scalar loop must match it bit for bit.  lam and phi2 may be lists."""
    lam, phi2 = np.asarray(lam, dtype=float), np.asarray(phi2, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        den = (1.0 - t * lam) ** 2
        num = phi2 * t * (2.0 - lam * t)
        terms = np.where(phi2 > 0.0, num / np.maximum(den, 1e-300), 0.0)
    s = float(np.sum(terms))
    return math.inf if not np.isfinite(s) else s + g
