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


class PointOutsideDomain(HolovolError):
    """Query point is not strictly inside the domain."""


class PointTooCloseToBoundary(HolovolError):
    """First boundary distance below the resolvable threshold (tau_1 < 1e-10 |z|)."""


class Unbounded(HolovolError):
    """A slice of the domain contains no boundary point within the search radius.

    Carries the witness slice so degenerate domains can be reported.
    """


class DegenerateDomain(HolovolError):
    """Domain contains a complex line (detected via an unbounded slice)."""


class UnboundedDomain(HolovolError):
    """Operation requires a finite diameter but the domain is unbounded."""


class UnsupportedDomain(HolovolError):
    """Operation not available for this domain: no exact volume oracle, no
    closed-form or moment Bergman kernel, or no supporting normals (a C-convex
    oracle, or a backend without a normal).  The harness records a check that
    raises it as skipped, not failed."""


class SingularBasis(HolovolError):
    """Minimal basis directions fail orthogonality beyond tolerance."""


class NotSupporting(HolovolError):
    """``supporting_normal`` has no usable normal at a frame point, e.g. one
    with mass outside span(d^1..d^j), or one that is zero."""


class InclusionViolated(HolovolError):
    """An inclusion check of ``verify_normalization``, exact or sampled, found
    its margin below tolerance; the witness locates the offending point."""


class TailDiverges(HolovolError):
    """Kernel series shells do not exhibit a contracting ratio."""


class ConfigInvalid(HolovolError):
    """Scenario configuration failed validation."""


class DomainRejected(HolovolError):
    """Scenario domain rejected (degenerate or otherwise unusable)."""


class IoFailure(HolovolError):
    """Report emission failed."""
