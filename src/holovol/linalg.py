"""Small complex linear-algebra helpers shared across modules.

Conventions used throughout the package:

* vectors live in C^n as 1-d complex128 arrays;
* the Hermitian inner product is ``<u, v> = sum_k u_k * conj(v_k)`` (antilinear
  in the second slot);
* a slice z + V c is worked in its own complex coordinates c (a k-vector),
  so a Hermitian k x k problem stays k x k.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch


def as_cvector(z, n: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-d complex vector, optionally checking its length."""
    v = np.asarray(z, dtype=np.complex128)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise DimensionMismatch(f"expected length {n}, got {v.shape[0]}")
    if not np.all(np.isfinite(v.view(np.float64))):
        raise DimensionMismatch("vector has non-finite entries")
    return v


def safe_norm(v) -> float:
    """Euclidean norm at any scale: ``np.linalg.norm`` of v times a power of two
    near 1/max |v_k|.  That is exact, so in-range norms keep every bit."""
    e = min(max(math.frexp(float(np.abs(v).max()))[1], -1000), 1000)
    return math.ldexp(float(np.linalg.norm(v * 2.0 ** -e)), e)


def inverse_power(x: float, k: int) -> float:
    """x ** -k for x > 0; +inf where the float power would raise OverflowError."""
    try:
        return x ** -k
    except OverflowError:
        return math.inf


def phase(x: complex) -> complex:
    """x / |x|, and 1 at the origin."""
    return x / abs(x) if abs(x) > 0 else 1.0 + 0j


def orthonormal_columns(V: np.ndarray, tol: float = 1e-10) -> bool:
    """True when the columns of V are orthonormal to within tol."""
    G = V.conj().T @ V
    return bool(np.max(np.abs(G - np.eye(V.shape[1]))) <= tol)


def complement_within(V: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of ``d`` inside span(V).

    V is n x k with orthonormal columns and d is a unit vector in span(V).
    Returns n x (k-1).  Uses a complex Householder reflection mapping the
    slice coordinates of d onto e_1, which is deterministic and keeps the
    result orthonormal to machine precision.
    """
    k = V.shape[1]
    c = V.conj().T @ d  # coordinates of d in the slice, unit norm
    if k == 1:
        return np.zeros((V.shape[0], 0), dtype=np.complex128)
    # Householder u = c - e^{i phi} e_1 with phi = arg(c_1) avoids cancellation.
    phase = c[0] / abs(c[0]) if abs(c[0]) > 0 else 1.0
    u = c.copy()
    u[0] -= phase
    nu = np.linalg.norm(u)
    if nu < 1e-14:
        # d is already (a phase times) the first basis column.
        return V[:, 1:]
    u /= nu
    # H = I - 2 u u*; columns 2..k of H* are an orthonormal basis of c-perp.
    H = np.eye(k, dtype=np.complex128) - 2.0 * np.outer(u, u.conj())
    return V @ H.conj().T[:, 1:]


def uniform_ball(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples from the open unit ball of C^n (= R^{2n}), shape (count, n)."""
    g = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    radii = rng.random((count, 1)) ** (1.0 / (2 * n))
    return g / norms * radii


def sample_en(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples from the unit l1 ball E_n = {sum |w_j| < 1} of C^n, exact
    (no rejection).

    The moduli vector has density prop. to prod r_j on the simplex, i.e.
    R * Dirichlet(2,...,2) with R = U^(1/2n); phases are uniform.
    """
    u = rng.dirichlet(np.full(n, 2.0), size=count)
    radius = rng.random(count) ** (1.0 / (2 * n))
    moduli = u * radius[:, None]
    phases = np.exp(2j * np.pi * rng.random((count, n)))
    return moduli * phases
