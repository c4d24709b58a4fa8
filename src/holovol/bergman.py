"""Diagonal Bergman kernel on tractable backends, plus the kernel bounds.

Two independent computation paths:

* closed forms — ball n!/pi^n (1-|z|^2)^-(n+1), polydisc product of disc
  kernels, and any exact-oracle domain via the transformation rule
  K_{F(D)}(F w) |det F'(w)|^2 = K_D(w);
* monomial moments — on complete Reinhardt domains K(z) = sum |z^alpha|^2/c_alpha
  where c_alpha is the squared L2 norm of z^alpha.  Ball, polydisc and l1-ball
  moments are exact (factorial / Dirichlet-integral formulas); generic radial
  profiles in C^2 go through adaptive quadrature.  A domain's moments are
  computed once, on first use, and kept for its later points.  The series
  runs on the domain scaled to unit size (the l1 ball s E_n on E_n), since
  K_{sD}(z) = s^{-2n} K_D(z/s).  The two paths validate each other and feed
  the kernel sandwich

      (4 pi)^-n  <=  K(z) p_D^2  <=  (2n)!/(2 pi)^n        (convex lower)
      (16 pi)^-n lower constant                            (C-convex)

  and the v/K band :func:`ratio_band`.  It is stated once per scenario, not
  checked: where v is exact, v/K = pi^n/n!, and elsewhere the certified v
  interval over K meets the band whenever the sandwich holds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from operator import getitem

import numpy as np
from scipy.integrate import quad

from .domains import (
    AffineBallImage,
    Domain,
    contains,
)
from .errors import PointOutsideDomain, TailDiverges, UnsupportedDomain
from .linalg import as_cvector
from .volume_elements import class_constant

#: shell-to-shell growth above which the geometric tail estimate is refused
TAIL_RATIO_LIMIT = 0.9


@dataclass(frozen=True)
class BergmanValue:
    value: float
    truncation_error: float  # bound on the omitted tail (0 for closed forms)
    method: str              # closed_form | reinhardt_quadrature | transformed


# ---------------------------------------------------------------------------
# monomial moments c_alpha = || z^alpha ||^2 on complete Reinhardt domains
# ---------------------------------------------------------------------------


class DiagBallMoments:
    """Ellipsoid sum |z_j|^2 / r_j^2 < 1 (the unit ball when all r_j = 1)."""

    def __init__(self, radii):
        self.radii = np.asarray(radii, dtype=float)
        self.n = len(self.radii)

    def moment(self, alpha) -> float:
        n, d = self.n, sum(alpha)
        num = math.pi ** n * float(np.prod(self.radii ** (2 * np.array(alpha) + 2)))
        num *= math.prod(math.factorial(a) for a in alpha)
        return num / math.factorial(n + d)


class PolydiscMoments:
    def __init__(self, radii):
        self.radii = np.asarray(radii, dtype=float)
        self.n = len(self.radii)

    def moment(self, alpha) -> float:
        return math.prod(
            math.pi * r ** (2 * a + 2) / (a + 1)
            for r, a in zip(self.radii, alpha))


class L1BallMoments:
    """scale * E_n; the moment is a Dirichlet integral over the radii simplex."""

    def __init__(self, n: int, scale: float):
        self.n = n
        self.scale = float(scale)

    def moment(self, alpha) -> float:
        d = sum(alpha)
        num = (2.0 * math.pi) ** self.n * self.scale ** (2 * d + 2 * self.n)
        num *= math.prod(math.factorial(2 * a + 1) for a in alpha)
        return num / math.factorial(2 * d + 2 * self.n)


class RadialProfile2D:
    """Complete Reinhardt domain in C^2: |z_1| < r_max, |z_2| < g(|z_1|).

    Moments by adaptive quadrature; independent of every closed form above,
    which is the point — it is the oracle the closed forms are tested against.
    """

    n = 2

    def __init__(self, r_max: float, profile, *, epsrel: float = 1e-12):
        self.r_max = float(r_max)
        self.profile = profile
        self.epsrel = epsrel

    def moment(self, alpha) -> float:
        a1, a2 = alpha
        val, _ = quad(
            lambda r: r ** (2 * a1 + 1) * self.profile(r) ** (2 * a2 + 2),
            0.0, self.r_max, epsabs=0.0, epsrel=self.epsrel, limit=200)
        return (2.0 * math.pi) ** 2 / (2 * a2 + 2) * val


def _unit_radii(moments_cls, radii, center):
    """Moments of the domain with radii / s, s the largest radius: then
    |w_k|^2 < 1 inside, and no power in the series overflows."""
    s = float(np.max(radii))
    return moments_cls(radii / s), center, s


def _ball_image_moments(domain: AffineBallImage):
    G = domain.matrix @ domain.matrix.conj().T
    off = G - np.diag(np.diag(G))
    if np.max(np.abs(off)) > 1e-12 * np.max(np.abs(np.diag(G))):
        raise UnsupportedDomain(
            "ball image is Reinhardt only for (unitarily) diagonal M")
    return _unit_radii(DiagBallMoments, np.sqrt(np.diag(G).real), domain.center)


#: Domain.variant -> (moments, center, scale) for complete Reinhardt backends:
#: the domain is center + scale * (the domain of the moments)
REINHARDT_MOMENTS = {
    "polydisc": lambda d: _unit_radii(PolydiscMoments, d.radii, d.center),
    "l1ball": lambda d: (L1BallMoments(d.n, 1.0), np.zeros(d.n, complex), d.scale),
    "ball_image": _ball_image_moments,
}


def reinhardt_moments_for(domain: Domain):
    """(moments, center, scale) for backends that are complete Reinhardt
    domains.  It is built once per domain instance and kept on it, so the
    moments memoized for one point serve every later point of that domain."""
    found = vars(domain).get("_reinhardt")
    if found is None:
        describe = REINHARDT_MOMENTS.get(domain.variant)
        if describe is None:
            raise UnsupportedDomain(
                f"{type(domain).__name__} has no complete Reinhardt description")
        found = domain._reinhardt = describe(domain)
    return found


@lru_cache(maxsize=None)
def _shell(total: int, parts: int) -> tuple:
    """Exponents of total degree `total` in `parts` variables, graded-lex."""
    if parts == 1:
        return ((total,),)
    return tuple((head,) + rest for head in range(total, -1, -1)
                 for rest in _shell(total - head, parts - 1))


def bergman_from_moments(moments, w, max_degree: int = 40) -> BergmanValue:
    """K at the Reinhardt-centered point w from monomial moments.

    Sums shells of fixed total degree in graded-lex order; the tail beyond
    max_degree is bounded by a geometric estimate from the last three shell
    ratios (refused via TailDiverges when the observed ratio reaches 0.9).
    The terms are Python floats, added one by one in that order.  Each
    c_alpha is computed once per moments object and kept in its ``memo``.
    """
    w = as_cvector(w, moments.n)
    m = (np.abs(w) ** 2).tolist()
    powers = [[mk ** a for a in range(max_degree + 1)] for mk in m]
    memo = vars(moments).setdefault("memo", {})
    shells = []
    value = 0.0
    for d in range(max_degree + 1):
        s = 0.0
        for alpha in _shell(d, moments.n):
            term = math.prod(map(getitem, powers, alpha))
            if term > 0.0:
                c = memo.get(alpha)
                if c is None:
                    c = memo[alpha] = moments.moment(alpha)
                s += term / c
        shells.append(s)
        value += s
    value = float(value)  # polydisc moments are numpy scalars
    if shells[-1] == 0.0:
        # monomials above some degree vanish identically at w (zero coordinates)
        return BergmanValue(value, 0.0, "reinhardt_quadrature")
    ratios = [shells[d] / shells[d - 1] for d in range(max_degree - 2, max_degree + 1)]
    ratio = max(ratios)
    if ratio >= TAIL_RATIO_LIMIT:
        raise TailDiverges(
            f"shell ratio {ratio:.3f} at degree {max_degree}; "
            "point too close to the boundary for this degree")
    tail = shells[-1] * ratio / (1.0 - ratio)
    return BergmanValue(value, tail, "reinhardt_quadrature")


def bergman_reinhardt(domain: Domain, z, max_degree: int = 40) -> BergmanValue:
    z = as_cvector(z, domain.n)
    if not contains(domain, z):
        raise PointOutsideDomain("Bergman kernel evaluated outside the domain")
    moments, center, scale = reinhardt_moments_for(domain)
    # K_{c + sD}(z) = s^{-2n} K_D((z - c)/s)
    K = bergman_from_moments(moments, (z - center) / scale, max_degree)
    try:
        factor = scale ** (-2 * domain.n)
    except OverflowError:
        factor = math.inf
    value = K.value * factor
    if not sys.float_info.min <= value <= sys.float_info.max:
        raise UnsupportedDomain(
            f"kernel {K.value:g} * scale^(-2n) = {value:g} leaves the normal "
            f"double range at scale {scale:g}")
    return BergmanValue(value, K.truncation_error * factor, K.method)


# ---------------------------------------------------------------------------
# closed forms and the transformation rule
# ---------------------------------------------------------------------------


def ball_kernel(n: int, w) -> float:
    w = as_cvector(w, n)
    s = float(np.sum(np.abs(w) ** 2))
    if s >= 1.0:
        raise PointOutsideDomain("ball kernel needs |w| < 1")
    return math.factorial(n) / math.pi ** n * (1.0 - s) ** (-(n + 1))


def bergman_closed(domain: Domain, z) -> BergmanValue:
    z = as_cvector(z, domain.n)
    if domain.variant == "polydisc":
        if not contains(domain, z):
            raise PointOutsideDomain("Bergman kernel evaluated outside the domain")
        # product of disc kernels 1/(pi r^2 (1 - u^2)^2), u = |z_k - c_k|/r_k
        u = (np.abs(z - domain.center) / domain.radii).tolist()
        value = math.prod(1.0 / (math.pi * (r * (1.0 - uk) * (1.0 + uk)) ** 2)
                          for r, uk in zip(domain.radii.tolist(), u))
        if not sys.float_info.min <= value <= sys.float_info.max:
            raise UnsupportedDomain(
                f"polydisc kernel {value:g} leaves the normal double range")
        return BergmanValue(value, 0.0, "closed_form")
    oracle = domain.exact_oracle
    if oracle is None:
        raise UnsupportedDomain(
            f"no closed-form Bergman kernel for {type(domain).__name__}")
    w = oracle.inverse(z[None, :])[0]
    det = oracle.jacobian_det(w[None, :])[0]
    value = ball_kernel(domain.n, w) / abs(det) ** 2
    return BergmanValue(value, 0.0, "transformed")


# ---------------------------------------------------------------------------
# the sandwich and the v/K comparison band
# ---------------------------------------------------------------------------


def kernel_product_bounds(convexity_class: str, n: int) -> tuple:
    """(lower, upper) constants for K(z) * p_D^2."""
    upper = math.factorial(2 * n) / (2.0 * math.pi) ** n
    return (class_constant(convexity_class) * math.pi) ** (-n), upper


def kernel_sandwich_check(convexity_class: str, n: int, K: BergmanValue,
                          pD: float, *, slack: float = 0.0) -> dict:
    """Margins of the two sandwich inequalities (negative = violation).

    The product K p_D^2 is only known inside an interval (kernel truncation,
    tau slack); the check is the sound one: that interval must meet the band.
    """
    lo_c, hi_c = kernel_product_bounds(convexity_class, n)
    pd2 = pD * pD
    p_lo = max(0.0, (K.value - K.truncation_error) * pd2 * (1.0 - slack))
    p_hi = (K.value + K.truncation_error) * pd2 * (1.0 + slack)
    return {
        "product_lo": p_lo,
        "product_hi": p_hi,
        "band": (lo_c, hi_c),
        "lower_margin": p_hi - lo_c,
        "upper_margin": hi_c - p_lo,
    }


def ratio_band(convexity_class: str, n: int) -> tuple:
    """v/K bounds: ``ge_constants`` over :func:`kernel_product_bounds`, crosswise."""
    k = class_constant(convexity_class)
    lo = math.pi ** n / (math.factorial(2 * n) * (k / 2.0 * n) ** n)
    hi = (k * math.pi * (4.0 ** n - 1.0) / 3.0) ** n
    return lo, hi
