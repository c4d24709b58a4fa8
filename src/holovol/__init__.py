"""holovol — certified bounds for invariant volume elements on domains in C^n.

The pipeline: concrete domain backends (`domains`), the iterated slice-distance
construction (`minimal_basis`), the affine normalization T/A with supporting
hyperplanes (`normalization`), certified intervals for the Caratheodory /
Kobayashi-Eisenman volume elements (`volume_elements`), Bergman kernels and
comparison bands (`bergman`), and a scenario harness with a CLI (`harness`,
`cli`).
"""

__version__ = "0.1.0"

from . import errors
from .bergman import (
    BergmanValue,
    bergman_closed,
    bergman_from_moments,
    bergman_reinhardt,
    kernel_product_bounds,
    kernel_sandwich_check,
    ratio_band,
    ratio_check,
)
from .domains import (
    AffineBallImage,
    Domain,
    ExactOracle,
    HalfspaceConvex,
    L1Ball,
    MembershipOracle,
    Polydisc,
    SiegelHalfSpace,
    cayley,
    cayley_inverse,
    circumscribed_radius,
    contains,
    diameter,
    domain_from_json,
    domain_to_json,
    exact_volume_element,
    sample_interior,
    symmetrized_bidisc,
    unit_ball,
)
from .harness import (
    Scenario,
    applicable_checks,
    emit_csv,
    emit_json,
    evaluate_point,
    parse_scenario,
    run_scenario,
)
from .minimal_basis import (
    MinimalBasis,
    distance_product,
    minimal_basis,
    slice_distance,
)
from .normalization import (
    Normalization,
    beta_excess,
    build_A,
    build_T,
    c_n,
    lemma_margins,
    random_admissible_A,
    sample_en,
    supporting_normal,
    verify_normalization,
)
from .volume_elements import (
    Interval,
    QuotientBound,
    bounded_domain_lower_bound,
    certified_interval,
    ge_constants,
    monotonicity_bounds,
    psi_det0_squared,
    psi_jacobian_det,
    psi_map,
    quotient_lower_bound,
    scaling_bound_polydisc,
)

__all__ = [
    "AffineBallImage", "BergmanValue", "Domain", "ExactOracle",
    "HalfspaceConvex", "Interval", "L1Ball", "MembershipOracle", "MinimalBasis",
    "Normalization", "Polydisc", "QuotientBound", "Scenario", "SiegelHalfSpace",
    "applicable_checks", "bergman_closed", "bergman_from_moments",
    "bergman_reinhardt", "beta_excess", "bounded_domain_lower_bound",
    "build_A", "build_T", "c_n", "cayley",
    "cayley_inverse", "certified_interval", "circumscribed_radius", "contains",
    "diameter", "distance_product", "domain_from_json", "domain_to_json",
    "emit_csv", "emit_json", "errors", "evaluate_point", "exact_volume_element",
    "ge_constants", "kernel_product_bounds", "kernel_sandwich_check",
    "lemma_margins", "minimal_basis", "monotonicity_bounds", "parse_scenario",
    "psi_det0_squared", "psi_jacobian_det", "psi_map",
    "quotient_lower_bound", "random_admissible_A", "ratio_band", "ratio_check",
    "run_scenario", "sample_en", "sample_interior", "scaling_bound_polydisc",
    "slice_distance", "supporting_normal", "symmetrized_bidisc", "unit_ball",
    "verify_normalization", "__version__",
]
