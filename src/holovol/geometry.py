"""Slice-distance kernels: quadric projection and polar first-exit search.

Two independent routes to the same quantity -- the distance from an interior
point to the domain boundary within an affine complex slice:

* :func:`nearest_on_quadric` solves the smooth-backend case exactly.  Ball
  images and the Siegel half-space restrict, in the slice's own complex
  coordinates c, to the quadric ``q(c) = c* H c + 2 Re(phi* c) + g = 0``
  (H Hermitian PSD, g < 0 inside).  In the eigenbasis of H the minimum-norm
  boundary point is c_k = phi_k / (eps + lambda_max - lambda_k), where
  eps > 0 is the root of the secular equation of this one-constraint
  trust-region projection (More & Sorensen 1983).  One bisection in eps runs
  to adjacent floats, and the classical hard case (top eigencomponents of
  phi vanish) is handled explicitly.  After one k x k ``eigh``, each of the
  ~50 evaluations of q is a scalar loop over k floats, added left to right.

* :func:`polar_first_exit` is the generic oracle: march rays from the point
  along a deterministic direction grid on the slice sphere, bracket the first
  membership flip and narrow it by section search, then refine the best
  direction by shrinking stencil rounds (a batched pattern search, Hooke &
  Jeeves 1961).  The rays of a grid or stencil march together up to the first
  block of radii where one exits; each later membership call cuts every live
  bracket 16-fold, and rows that cannot hold the minimum drop out.  A grid or
  stencil round stops once a single row is left, the proven winner; only the
  last round's winner is narrowed to adjacent floats.  A round of half-width
  delta marches finely only within tau (1 +- 16 delta^2), all that a
  candidate delta away can still gain near the minimiser.  Each batch of
  points z + r*a is built coordinate-major and handed over as its transposed
  (rows, n) view, one membership call per CHUNK rows.  It only needs a
  membership predicate, so it doubles as the independent cross-check for
  every closed form.

The search policy is fixed by the module constants below; no function takes
a setting, and neither 1-D search has an iteration count.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import Unbounded

#: about GRID_PER_DIM^k directions in the initial grid of a k-dimensional slice
GRID_PER_DIM = 64
#: most rays in a direction grid or refinement stencil
MAX_GRID = 16384
#: stencil rounds stop once the half-width falls below this angle (radians)
STOP_ANGLE = 1e-7
#: radii per march from near 0 to the search radius
MARCH_STEPS = 64
#: most rows (points x n) per membership call
CHUNK = 200_000


def _secular_eps(eps, gaps, lam, phi2, g):
    """q(c) at c_k = phi_k / d_k, d_k = eps + (lmax - lam_k): the secular
    function in eps = 1/t - lmax, where each term is |phi_k|^2 (2 d_k + lam_k) / d_k^2.

    gaps, lam and phi2 are lists of k Python floats, which cost less here
    than arrays.  The terms are summed left to right, the order np.sum uses
    on so few, so the loop matches the array form bit for bit.  A zero d_k is
    guarded, phi2 == 0 terms are 0, and a sum that overflows is +inf.
    """
    s = 0.0
    for gk, lk, pk in zip(gaps, lam, phi2):
        if pk > 0.0:
            d = eps + gk
            s += pk * (2.0 * d + lk) / max(d * d, 1e-300)
    return s + g if math.isfinite(s) else math.inf


def nearest_on_quadric(H: np.ndarray, phi: np.ndarray, g: float) -> np.ndarray:
    """Minimum-norm c with c* H c + 2 Re(phi* c) + g = 0 (H k x k Hermitian
    PSD, g < 0); real symmetric input gives a real c.

    c = s eta, s a power of two with max|H| s^2 about 1, applied as the factor
    s (s^2 overflows when H is subnormal); that is exact, so no test below
    depends on the size of the domain.  The constraint is affine when
    lmax |g| <= 1e-15 |phi|^2, and Unbounded is raised only when H == 0 and
    phi == 0.  Otherwise q decreases in eps = 1/t - lmax, and is bisected
    until the ends are adjacent floats, from 1e-13 lmax up to
    4P/|g| + sqrt(2 P lmax/|g|), P = |phi|^2.  There q <= 0, as each term
    |phi_k|^2 (2/d_k + lam_k/d_k^2) is at most |phi_k|^2 (2/eps + lmax/eps^2),
    and the affine test keeps that end finite.  If q <= 0 already at
    1e-13 lmax, phi has (numerically) no top eigencomponent: the hard case,
    whose ties go to the projection of the first e_m onto the top eigenspace
    that is not 0, so symmetric configurations resolve to e_1-style choices.
    """
    if not g < 0:
        raise ValueError("quadric projection expects an interior point (g < 0)")
    hmax = float(np.max(np.abs(H)))
    s = math.ldexp(1.0, -(math.frexp(hmax)[1] // 2))  # c = s eta; frexp(0) gives s = 1
    H, phi = H * s * s, phi * s
    lam, Q = np.linalg.eigh(H)
    lam = np.clip(lam, 0.0, None)
    lmax = float(lam[-1])
    n2 = float(np.vdot(phi, phi).real)
    if lmax * -g <= 1e-15 * n2:
        # constraint is affine: 2 Re(phi* c) + g = 0
        if n2 == 0.0:
            raise Unbounded("slice constraint is identically negative (complex line inside)")
        return (-g / (2.0 * n2)) * phi * s
    phit = Q.conj().T @ phi
    gaps, lam_s, phi2 = (lmax - lam).tolist(), lam.tolist(), (np.abs(phit) ** 2).tolist()
    lo = 1e-13 * lmax
    if _secular_eps(lo, gaps, lam_s, phi2, g) <= 0.0:
        # hard case: the regular components at eps = 0, phi_i / (lmax - lam_i),
        # then a step along the top eigenspace that closes q
        top = lam >= lmax * (1.0 - 1e-10)
        c_reg = Q @ np.where(top, 0.0, phit / np.where(top, 1.0, lmax - lam))
        q_reg = float(np.vdot(c_reg, H @ c_reg).real + 2.0 * np.vdot(phi, c_reg).real + g)
        # deterministic unit vector in the top eigenspace: the projection of
        # the first e_m that has a component there
        Qtop = Q[:, top]
        v = Qtop @ Qtop[int(np.argmax(np.linalg.norm(Qtop, axis=1) > 1e-3))].conj()
        return (c_reg + math.sqrt(max(-q_reg, 0.0) / lmax) * (v / np.linalg.norm(v))) * s
    hi = 4.0 * n2 / -g + math.sqrt(2.0 * n2 * lmax / -g)
    while math.nextafter(lo, hi) != hi:
        mid = 0.5 * (lo + hi)
        if _secular_eps(mid, gaps, lam_s, phi2, g) > 0.0:
            lo = mid
        else:
            hi = mid
    return Q @ (phit / (0.5 * (lo + hi) + (lmax - lam))) * s


# ---------------------------------------------------------------------------
# polar first-exit search
# ---------------------------------------------------------------------------


@functools.cache
def sphere_grid(k: int) -> np.ndarray:
    """Deterministic direction grid on the unit sphere of C^k, shape (m, k).

    k = 1 is a uniform phase circle starting at e_1.  k >= 2 uses a
    hyperspherical product grid over (k-1) modulus angles and k phases, sized
    to ~GRID_PER_DIM^k points; the k coordinate directions are prepended so
    symmetric configurations resolve to coordinate solutions deterministically.
    The largest parameter axis (the first among equals) loses one point at a
    time until the whole grid fits in MAX_GRID rows or every axis is down to
    3 points.  Each grid is built on first use and returned read-only.
    """
    if k == 1:
        th = np.linspace(0.0, 2.0 * np.pi, GRID_PER_DIM, endpoint=False)
        grid = np.exp(1j * th)[:, None]
        grid.flags.writeable = False
        return grid
    params = 2 * k - 1
    sizes = [max(3, round(min(GRID_PER_DIM ** k, MAX_GRID) ** (1.0 / params)))] * params
    while math.prod(sizes) + k > MAX_GRID and max(sizes) > 3:
        sizes[sizes.index(max(sizes))] -= 1
    etas = [(np.arange(g) + 0.5) / g * (np.pi / 2) for g in sizes[:k - 1]]
    phases = [np.arange(g) / g * (2 * np.pi) for g in sizes[k - 1:]]
    mesh = np.meshgrid(*etas, *phases, indexing="ij")
    shape = mesh[0].size
    moduli = np.ones((shape, k))
    for j in range(k - 1):
        e = mesh[j].reshape(-1)
        moduli[:, j] *= np.cos(e)
        moduli[:, j + 1:] *= np.sin(e)[:, None]
    dirs = moduli.astype(np.complex128)
    for j in range(k):
        dirs[:, j] *= np.exp(1j * mesh[k - 1 + j].reshape(-1))
    grid = np.vstack([np.eye(k, dtype=np.complex128), dirs])
    grid.flags.writeable = False
    return grid


def _first_flip(inside_rows: np.ndarray, radii: np.ndarray):
    """Per-row bracket of the first sampled outside radius; (lo, hi, exited).

    lo is the radius sampled before hi (0 before the first), so the radii
    need not be evenly spaced.
    """
    first = np.argmin(inside_rows, axis=1)  # the first outside sample, else 0
    later = first > 0
    return np.where(later, radii[first - 1], 0.0), radii[first], later | ~inside_rows[:, 0]


def _ray_points(z, A, r):
    """z + r*A[i] at radii r, shared (c,) or per ray (m, c), as (m*c, n) rows ray
    by ray, bit for bit; built as (n, m, c), so each column is contiguous."""
    P = np.multiply(A.T[:, :, None], r, order="C")
    P += z[:, None, None]
    return P.reshape(A.shape[1], -1).T


def _march_brackets(contains_many, z, A, radii):
    """inside matrix for rays z + r*A[i] over increasing radii; A is (m, n).

    A march whose m rays and radii fit in CHUNK rows (points x n) is one
    membership call.  A larger one takes the radii in blocks of 1, 2, 4, ...
    up to as many as fit in CHUNK rows for all m rays, and stops after the
    first block in which any ray exits.  Columns past it stay True: a ray
    that first exits beyond that block has lo >= the least hi, so it cannot
    hold the minimum.
    """
    m, n = A.shape
    count = radii.shape[0]
    widest = max(1, CHUNK // (m * n))  # most radii per block
    if widest >= count:
        return contains_many(_ray_points(z, A, radii)).reshape(m, count)
    inside = np.ones((m, count), dtype=bool)
    c, width = 0, 1
    while c < count:
        cols = slice(c, c + width)
        rows = max(1, CHUNK // (width * n))  # rays per membership call
        for s in range(0, m, rows):
            part = inside[s:s + rows, cols]
            part[:] = contains_many(_ray_points(z, A[s:s + rows], radii[cols])).reshape(part.shape)
        if not inside[:, cols].all():
            break
        c += width
        width = min(2 * width, widest)
    return inside


_SPLIT = 16  # sections per bracket and membership call (15 interior radii)


def _section_search(contains_many, z, A, lo, hi, argmin_only=False):
    """First membership flip along the rays z + r*A[i] within brackets
    (lo, hi] (lo inside, hi outside), down to adjacent floats.

    Each call tests the 15 interior radii that cut every live bracket into 16
    equal sections and keeps the section around the first outside sample.  A
    row is finished, at the midpoint of its bracket, once lo and hi are
    adjacent floats; until then every call moves an end.  A row whose lo
    exceeds the least hi cannot hold the minimum, nor tie with it: it leaves
    the search and stays at inf.

    With argmin_only, the search stops as soon as a single row is live and
    none has finished.  That row holds the least hi and every other row's
    exit lies beyond it, so it is the proven argmin; it gets its hi, an upper
    bound on its exit, and every other row stays at inf.
    """
    m, n = A.shape
    taus = np.full(m, np.inf)
    idx = np.arange(m)  # rows still searched; lo, hi and A hold only these
    least = hi.min()
    frac = np.arange(_SPLIT + 1) / _SPLIT
    step = max(1, CHUNK // ((_SPLIT - 1) * n)) * (_SPLIT - 1)  # points per membership call
    finished = False
    while True:
        done = np.nextafter(lo, hi) == hi
        keep = ~done & (lo <= least)
        if not keep.all():
            finished = finished or bool(done.any())
            taus[idx[done]] = 0.5 * (lo[done] + hi[done])
            idx, lo, hi, A = idx[keep], lo[keep], hi[keep], A[keep]
            if not idx.size:
                return taus
        if argmin_only and idx.size == 1 and not finished:
            taus[idx] = hi
            return taus
        r = lo[:, None] + (hi - lo)[:, None] * frac
        r[:, -1] = hi
        pts = _ray_points(z, A, r[:, 1:-1])
        inside = (contains_many(pts) if pts.shape[0] <= step else
                  np.concatenate([contains_many(pts[s:s + step])
                                  for s in range(0, pts.shape[0], step)]))
        # leading inside samples count the sections below the first outside one
        first = np.logical_and.accumulate(inside.reshape(-1, _SPLIT - 1), axis=1).sum(axis=1)
        k = np.arange(idx.size)
        lo, hi = r[k, first], r[k, first + 1]
        least = min(least, hi.min())


def _tangent_frame(w_real: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the tangent space of the sphere at w_real (unit)."""
    # columns 2..d of the Householder matrix mapping e_1 -> w_real
    u = w_real.copy()
    u[0] -= math.copysign(1.0, w_real[0] if w_real[0] != 0 else 1.0)
    nu = math.sqrt(u.dot(u))
    eye = np.eye(u.shape[0])[:, 1:]
    return eye if nu < 1e-14 else eye - 2.0 * np.multiply.outer(u / nu, u[1:] / nu)


def _linspace(a: float, b: float, ticks: np.ndarray) -> np.ndarray:
    """np.linspace(a, b, ticks.size) bit for bit, ticks = np.arange(size) as floats,
    unless its step underflows to 0 (a round's would only at tau < 1e-300)."""
    r = ticks * ((b - a) / (ticks.shape[0] - 1)) + a
    r[-1] = b
    return r


def _batch_exits(contains_many, z, A, radii, argmin_only=False) -> np.ndarray:
    """First-exit radii of the rays z + r*A[i]: one march over `radii` for all
    rows, then one section search of the rows that can still hold the minimum.

    A row's exit radius lies inside its march bracket (lo, hi], so a row whose
    lo is at or above the smallest hi of an exited row cannot be the argmin;
    it is left at inf, as are rows that never exit.  argmin_only is passed to
    the section search: only the proven argmin keeps a finite value.
    """
    inside = _march_brackets(contains_many, z, A, radii)
    lo, hi, exited = _first_flip(inside, radii)
    taus = np.full(A.shape[0], np.inf)
    if exited.any():
        live = exited & (lo < hi[exited].min())
        taus[live] = _section_search(contains_many, z, A[live], lo[live], hi[live],
                                     argmin_only)
    return taus


def ray_exit(contains_many, z: np.ndarray, a: np.ndarray, reach: float) -> float:
    """First exit radius of the single ray z + r*a, marched from 0 to `reach`
    and narrowed to adjacent floats; inf when no march radius is outside."""
    radii = np.linspace(reach / MARCH_STEPS, reach, MARCH_STEPS)
    return float(_batch_exits(contains_many, z, a[None, :], radii)[0])


def _stencil(axes: int) -> np.ndarray:
    """Offsets in [-1, 1]^axes around a direction, at most MAX_GRID rows.

    One axis gets 33 offsets.  More get the tensor grid of 5 offsets per axis,
    else of 3; when even 3^axes exceeds MAX_GRID, the zero offset and the
    2*axes points +-e_i (a compass stencil).  Row 0 is always the zero offset,
    so the current direction competes in every round and wins exact ties.
    """
    for m in ((33,) if axes == 1 else (5, 3)):
        if m ** axes <= MAX_GRID:
            ticks = np.linspace(-1.0, 1.0, m)
            mesh = np.meshgrid(*[ticks] * axes, indexing="ij")
            grid = np.stack([g.reshape(-1) for g in mesh], axis=1)
            centre = grid.shape[0] // 2  # the all-zero row of an odd grid
            return np.vstack([grid[centre], grid[:centre], grid[centre + 1:]])
    eye = np.eye(axes)
    return np.vstack([np.zeros(axes), eye, -eye])


def polar_first_exit(contains_many, z: np.ndarray, V: np.ndarray, cap: float):
    """Distance to the boundary within the slice z + span_C(V), by polar search.

    Returns (tau, u), the exit z + tau u along a unit u in span_C(V); raises
    Unbounded when no grid ray exits within `cap`.  The best ray of the
    direction grid is refined by stencil rounds: every candidate direction of
    a stencil around the current best one, the current one included, marches
    and is searched in one batch; the search moves to the candidate with the
    least exit, and the stencil shrinks per round (by 12 for the 33 offsets of
    a k = 1 slice, else by 3) down to STOP_ANGLE.  A round's window
    w = min(0.3, 16 delta^2) only places its finest radii: a candidate that
    exits below it is still bracketed by the coarse radii, one not out by its
    top cannot beat the incumbent, and the section search still proves the
    winner.  The grid and each round stop their section search once the
    winner is proven, so tau is carried between rounds as an upper bound on
    the winner's exit; only the last round's winner is narrowed to adjacent
    floats, within the bracket that round's march found.  tau is an upper
    bound on the true distance, of empirical accuracy: the approximate path.
    """
    n, k = V.shape
    dirs = sphere_grid(k)
    radii = np.linspace(cap / MARCH_STEPS, cap, MARCH_STEPS)
    taus = _batch_exits(contains_many, z, dirs @ V.T, radii, argmin_only=True)
    best = int(np.argmin(taus))
    if not math.isfinite(taus[best]):
        raise Unbounded(
            f"no boundary within radius {cap:g} along {dirs.shape[0]} slice directions",
            witness={"point": z, "slice_dim": k, "radius": cap})
    tau = float(taus[best])
    w_real = np.concatenate([dirs[best].real, dirs[best].imag])

    # stencil rounds around the best direction; each march starts near 0,
    # since no bracket is assumed for the exit along a nearby ray.  Below
    # tau (1 - w) the radii are those of a uniform march to 1.3 tau; 17 radii
    # then cover the window tau (1 +- w) around the incumbent, whose ray
    # (offset 0) exits by tau, so nothing beyond the window is marched.  A
    # candidate delta away gains O(delta^2) relative, hence w ~ 16 delta^2
    offsets = _stencil(2 * k - 1)
    shrink = 12.0 if k == 1 else 3.0
    steps = MARCH_STEPS // 2
    coarse_ticks, fine_ticks = np.arange(float(steps)), np.arange(17.0)
    delta = {1: 2.0 * np.pi / GRID_PER_DIM, 2: 0.25, 3: 0.35}.get(k, 0.45)
    while delta >= STOP_ANGLE:
        cand = w_real + (delta * offsets) @ _tangent_frame(w_real).T
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        w = min(0.3, 16.0 * delta * delta)
        coarse = _linspace(1.3 * tau / steps, 1.3 * tau, coarse_ticks)
        radii = np.concatenate([coarse[coarse < tau * (1.0 - w)],
                                _linspace(tau * (1.0 - w), tau * (1.0 + w), fine_ticks)])
        # the last round, whose successor would fall below STOP_ANGLE,
        # narrows its winner to adjacent floats instead of stopping at the proof
        taus = _batch_exits(contains_many, z, (cand[:, :k] + 1j * cand[:, k:]) @ V.T,
                            radii, argmin_only=delta / shrink >= STOP_ANGLE)
        best = int(np.argmin(taus))  # exact ties go to the incumbent, row 0
        if math.isfinite(taus[best]):
            tau = float(taus[best])
            w_real = cand[best]
        delta /= shrink
    return tau, (w_real[:k] + 1j * w_real[k:]) @ V.T
