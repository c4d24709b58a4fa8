"""Certified two-sided bounds for the invariant volume elements.

Everything here is arithmetic on the distance product p_D = tau_1 ... tau_n:

    convex:    (4n)^-n  <=  v(z) * p_D^2  <=  ((4^n - 1)/3)^n
    C-convex:  (16n)^-n <=  v(z) * p_D^2  <=  ((4^n - 1)/3)^n

valid simultaneously for the Caratheodory and the Kobayashi-Eisenman volume
element.  Intervals are widened outward by :func:`compound_slack`: the relative
tau error eps of the basis (``MinimalBasis.tau_rel_err``) enters p_D^2 as
(1 + eps)^(2n), and a fixed factor 1 + 1e-9 covers floating-point roundoff.

Also here: the quotient lower bounds mu_n / nu_n, the diameter corollary and
the inscribed/circumscribed-ball monotonicity interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domains import CONVEX, C_CONVEX, OVERFLOW_LIMIT
from .errors import BadDimension, UnboundedDomain
from .linalg import inverse_power


def _cap(x: float) -> float:
    return math.inf if x > OVERFLOW_LIMIT else x


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] for a nonnegative quantity."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo < 0:
            raise ValueError(f"negative lower endpoint {self.lo}")
        if self.hi < self.lo:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def certified(cls, lo: float, hi: float, slack: float) -> "Interval":
        """Apply outward rounding: lo shrinks, hi grows, overflow becomes inf."""
        lo2 = max(0.0, lo * (1.0 - slack))
        hi2 = _cap(hi * (1.0 + slack))
        return cls(lo2, hi2)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def containment_margin(self, x: float) -> float:
        """min distance of x to either endpoint; negative when x is outside."""
        return min(x - self.lo, self.hi - x)

    def intersection_margin(self, other: "Interval") -> float:
        """Overlap length (negative gap when disjoint).  Two sound bounds on
        the same quantity must overlap, so a negative value is a violation."""
        return min(self.hi, other.hi) - max(self.lo, other.lo)

    def as_pair(self) -> tuple:
        return (self.lo, self.hi)


def compound_slack(tau_rel_err: float, n: int, base_slack: float = 1e-9) -> float:
    """Relative inflation for quantities of the form const / p_D^2."""
    return (1.0 + tau_rel_err) ** (2 * n) * (1.0 + base_slack) - 1.0


#: convexity class -> k of the lower constants (k n)^-n and (k pi)^-n
_CLASS_CONSTANT = {CONVEX: 4.0, C_CONVEX: 16.0}


def class_constant(convexity_class: str) -> float:
    """k = 4 for convex domains, 16 for C-convex ones: every class-dependent
    constant of the bounds is a function of it."""
    try:
        return _CLASS_CONSTANT[convexity_class]
    except KeyError:
        raise ValueError(f"unknown convexity class {convexity_class!r}") from None


def ge_constants(convexity_class: str, n: int) -> tuple:
    """(lower, upper) constants bounding v * p_D^2."""
    if n < 2:
        raise BadDimension(f"the two-sided bounds need n >= 2, got {n}")
    upper = ((4.0 ** n - 1.0) / 3.0) ** n
    return (class_constant(convexity_class) * n) ** (-n), upper


def certified_interval(convexity_class: str, n: int, pD: float, *,
                       tau_rel_err: float = 0.0) -> Interval:
    """Two-sided certified interval for v(z) given the distance product."""
    if pD <= 0 or not math.isfinite(pD):
        raise ValueError(f"distance product must be positive and finite, got {pD}")
    lo_c, hi_c = ge_constants(convexity_class, n)
    pd2 = pD * pD
    slack = compound_slack(tau_rel_err, n)
    return Interval.certified(lo_c / pd2, _cap(hi_c / pd2), slack)


def quotient_lower_bound(convexity_class: str, n: int) -> float:
    """mu_n (convex) or nu_n (C-convex): a lower bound for q = c_D / k_D."""
    if n < 2:
        raise BadDimension(f"quotient bounds need n >= 2, got {n}")
    k = class_constant(convexity_class)
    return (3.0 / (k * n * (4.0 ** n - 1.0))) ** n


def bounded_domain_lower_bound(convexity_class: str, n: int, diam: float) -> float:
    """v(z) >= 1/(4n diam^2)^n on bounded convex domains (16n for C-convex).

    Follows from the two-sided bound because every tau_j is at most diam.
    """
    if not math.isfinite(diam):
        raise UnboundedDomain("the diameter corollary needs a finite diameter")
    if diam <= 0:
        raise ValueError(f"diameter must be positive, got {diam}")
    return inverse_power(class_constant(convexity_class) * n * diam * diam, n)


def monotonicity_bounds(basis, circumscribed: float) -> Interval:
    """v(z) between the values of the circumscribed and inscribed balls.

    B(z, tau_1) inside D inside B(z, R) and v of a radius-r ball at its center
    is r^(-2n); inclusion reverses the order of the volume elements.  R may be
    +inf (unbounded domain), which drops the lower endpoint to 0.
    """
    n = basis.n
    tau1 = float(basis.taus[0])
    if circumscribed < tau1 * (1.0 - 1e-12):
        raise ValueError(
            f"circumscribed radius {circumscribed} below inscribed tau_1 {tau1}")
    lo = 0.0 if math.isinf(circumscribed) else inverse_power(circumscribed, 2 * n)
    hi = _cap(inverse_power(tau1, 2 * n))
    slack = compound_slack(basis.tau_rel_err, n)
    return Interval.certified(lo, hi, slack)
