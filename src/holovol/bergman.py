"""Diagonal Bergman kernel on tractable backends, plus the kernel bounds.

Two independent computation paths:

* closed forms — ball n!/pi^n (1-|z|^2)^-(n+1), polydisc product of disc
  kernels, and any exact-oracle domain via the transformation rule
  K_{F(D)}(F w) |det F'(w)|^2 = K_D(w);
* monomial moments — on complete Reinhardt domains K(z) = sum |z^alpha|^2/c_alpha
  where c_alpha is the squared L2 norm of z^alpha.  Ball, polydisc and l1-ball
  moments are exact (factorial / Dirichlet-integral formulas); generic radial
  profiles in C^2 go through adaptive quadrature.  The two paths validate each
  other and feed the kernel sandwich

      (4 pi)^-n  <=  K(z) p_D^2  <=  (2n)!/(2 pi)^n        (convex lower)
      (16 pi)^-n lower constant                            (C-convex)

  and the v/K comparison bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .domains import (
    CONVEX,
    C_CONVEX,
    AffineBallImage,
    Domain,
    contains,
)
from .errors import PointOutsideDomain, TailDiverges, UnsupportedDomain
from .linalg import as_cvector
from .volume_elements import Interval

#: shell-to-shell growth above which the geometric tail estimate is refused
TAIL_RATIO_LIMIT = 0.9


@dataclass(frozen=True)
class BergmanValue:
    value: float
    truncation_error: float  # bound on the omitted tail (0 for closed forms)
    method: str              # closed_form | reinhardt_quadrature | transformed

    def interval(self) -> Interval:
        return Interval(max(0.0, self.value - self.truncation_error),
                        self.value + self.truncation_error)


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


def _ball_image_moments(domain: AffineBallImage):
    G = domain.matrix @ domain.matrix.conj().T
    off = G - np.diag(np.diag(G))
    if np.max(np.abs(off)) > 1e-12 * np.max(np.abs(np.diag(G))):
        raise UnsupportedDomain(
            "ball image is Reinhardt only for (unitarily) diagonal M")
    return DiagBallMoments(np.sqrt(np.diag(G).real)), domain.center


#: Domain.variant -> (moments, Reinhardt center) for complete Reinhardt backends
REINHARDT_MOMENTS = {
    "polydisc": lambda d: (PolydiscMoments(d.radii), d.center),
    "l1ball": lambda d: (L1BallMoments(d.n, d.scale), np.zeros(d.n, complex)),
    "ball_image": _ball_image_moments,
}


def reinhardt_moments_for(domain: Domain):
    """(moments, center) for backends that are complete Reinhardt domains."""
    moments = REINHARDT_MOMENTS.get(domain.variant)
    if moments is None:
        raise UnsupportedDomain(
            f"{type(domain).__name__} has no complete Reinhardt description")
    return moments(domain)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def bergman_from_moments(moments, w, max_degree: int = 40) -> BergmanValue:
    """K at the Reinhardt-centered point w from monomial moments.

    Sums shells of fixed total degree in graded-lex order; the tail beyond
    max_degree is bounded by a geometric estimate from the last three shell
    ratios (refused via TailDiverges when the observed ratio reaches 0.9).
    """
    w = as_cvector(w, moments.n)
    m = np.abs(w) ** 2
    shells = []
    for d in range(max_degree + 1):
        s = 0.0
        for alpha in _compositions(d, moments.n):
            term = math.prod(mm ** a for mm, a in zip(m, alpha))
            if term > 0.0:
                s += term / moments.moment(alpha)
        shells.append(s)
    value = float(sum(shells))
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
    moments, center = reinhardt_moments_for(domain)
    return bergman_from_moments(moments, z - center, max_degree)


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
        rel2 = np.abs(z - domain.center) ** 2
        r2 = domain.radii ** 2
        value = float(np.prod(r2 / (math.pi * (r2 - rel2) ** 2)))
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
    if convexity_class == CONVEX:
        return (4.0 * math.pi) ** (-n), upper
    if convexity_class == C_CONVEX:
        return (16.0 * math.pi) ** (-n), upper
    raise ValueError(f"unknown convexity class {convexity_class!r}")


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
    if convexity_class == CONVEX:
        lo = math.pi ** n / (math.factorial(2 * n) * (2.0 * n) ** n)
        hi = (4.0 * math.pi * (4.0 ** n - 1.0) / 3.0) ** n
    elif convexity_class == C_CONVEX:
        lo = math.pi ** n / (math.factorial(2 * n) * (8.0 * n) ** n)
        hi = (16.0 * math.pi * (4.0 ** n - 1.0) / 3.0) ** n
    else:
        raise ValueError(f"unknown convexity class {convexity_class!r}")
    return lo, hi


def ratio_check(convexity_class: str, n: int, v_interval: Interval,
                K: BergmanValue, v_exact: float | None = None) -> dict:
    """Compare v/K against the theorem band.

    With an exact v the band must contain the (narrow) ratio interval; with
    only a certified v interval the check degrades to nonempty intersection.
    """
    band_lo, band_hi = ratio_band(convexity_class, n)
    K_lo = max(K.value - K.truncation_error, 1e-300)
    K_hi = K.value + K.truncation_error
    if v_exact is not None:
        r_lo, r_hi = v_exact / K_hi, v_exact / K_lo
        margins = (r_lo - band_lo, band_hi - r_hi)
        mode = "containment"
    else:
        r_lo, r_hi = v_interval.lo / K_hi, v_interval.hi / K_lo
        margins = (r_hi - band_lo, band_hi - r_lo)
        mode = "intersection"
    return {
        "band": (band_lo, band_hi),
        "ratio_lo": r_lo,
        "ratio_hi": r_hi,
        "lower_margin": margins[0],
        "upper_margin": margins[1],
        "mode": mode,
    }
