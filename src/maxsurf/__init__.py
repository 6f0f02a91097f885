"""Generalized maximal surfaces in Lorentz-Minkowski 3-space.

Harmonic Laurent-plus-log series on annuli, the closed-curve singular
boundary-value solver, and the search for surfaces through a prescribed
spacelike curve with a point singularity.
"""

from .annulus import (
    CircleFunction,
    DomainError,
    HarmonicOnAnnulus,
    estimate_annulus,
    fourier_synthesize,
)
from .bjorling import (
    BjorlingData,
    BjorlingDataError,
    SolverError,
    assemble_harmonics,
    circle_identities_report,
    solve,
    validate,
)
from .interpolation import (
    InterpolationError,
    ModifiedCoefficients,
    SpacelikeCurve,
    build_surface,
    family_curve,
    modified_coeffs,
    scalar_residual,
    search_r0,
    series_residuals,
    spacelike_margin,
)
from .surface import (
    BranchPointError,
    DegenerateSurfaceError,
    MaximalSurface,
    Region,
    SingularPoint,
    SingularPointError,
    classify_point,
    conformality_residual,
    evaluate,
    gauss_map,
    is_degenerate,
    normal,
    singular_set,
    special_singularity_check,
    w_from_h,
)

__version__ = "0.1.0"
