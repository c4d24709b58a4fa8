"""Exception hierarchy for holovol.

Every failure mode that callers are expected to branch on gets its own class;
all inherit from HolovolError so library users can catch broadly.  Errors that
carry a witness (a point, a slice, a sample) store it on the instance so that
reports can reproduce the failure.
"""

from __future__ import annotations


class HolovolError(Exception):
    """Base class for all library errors; ``witness`` and ``margin`` default to None."""

    def __init__(self, message: str = "", *, witness=None, margin=None):
        super().__init__(message)
        self.witness = witness
        self.margin = margin


class DimensionMismatch(HolovolError):
    """Vector/matrix dimensions disagree with the domain dimension."""


class BadDimension(HolovolError):
    """Dimension outside the supported range (n >= 2, or n >= 1 where noted)."""


class NoOracle(HolovolError):
    """Exact volume element requested on a domain without an exact oracle."""


class PointOutsideDomain(HolovolError):
    """Query point is not strictly inside the domain."""


class PointTooCloseToBoundary(HolovolError):
    """First boundary distance below the resolvable threshold (tau_1 < 1e-10)."""


class Unbounded(HolovolError):
    """A slice of the domain contains no boundary point within the search radius.

    Carries the witness slice so degenerate domains can be reported.
    """


class DegenerateDomain(HolovolError):
    """Domain contains a complex line (detected via an unbounded slice)."""


class UnboundedDomain(HolovolError):
    """Operation requires a finite diameter but the domain is unbounded."""


class UnsupportedDomain(HolovolError):
    """Operation not available for this domain variant."""


class UnsupportedBackend(HolovolError):
    """Construction not defined for this backend (e.g. normals on a C-convex oracle)."""


class SingularBasis(HolovolError):
    """Minimal basis directions fail orthogonality beyond tolerance."""


class NotSupporting(HolovolError):
    """Candidate hyperplane fails the sampled support test."""


class TriangularityViolated(HolovolError):
    """Normalization rows have non-negligible mass above the diagonal."""


class InclusionViolated(HolovolError):
    """A sampled inclusion check found a point on the wrong side."""


class TailDiverges(HolovolError):
    """Kernel series shells do not exhibit a contracting ratio."""


class Pole(HolovolError):
    """Rational normalization map evaluated at its pole."""


class ConfigInvalid(HolovolError):
    """Scenario configuration failed validation."""


class DomainRejected(HolovolError):
    """Scenario domain rejected (degenerate or otherwise unusable)."""


class IoFailure(HolovolError):
    """Report emission failed."""
