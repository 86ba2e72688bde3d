"""Numerical laboratory for spacelike curves with null frame directions.

Synthesizes curves in Minkowski 4-space from curvature profiles by
integrating the frame equations, classifies their k-type slant-helix
structure through closed-form conditions with explicit axis vectors, and
cross-examines every verdict with a nullspace oracle that knows nothing
about the closed forms.
"""

from .axis import AxisCandidate, AxisValidation, assemble_axis, validate_axis
from .calculus import grid_derivative
from .classifier import (PN_IMPLICATIONS, PSN_IMPLICATIONS,
                         ClassificationReport, OracleResult, classify_profile,
                         implication_conflicts, oracle_detect, pn_type0_check,
                         pn_type1_check, pn_type1_axis, pn_type2_axis,
                         pn_type0_axes, psn_type1_axis, psn_type1_check,
                         psn_type2_axis, psn_type2_check)
from .errors import (ConfigError, DegenerateAxisError, EvaluationError,
                     ExpressionError, FrameError, GridMismatchError,
                     IntegrationError, LclError, OutOfDomainError,
                     ProfileError)
from .expr import parse_expression
from .fits import CheckResult, Tolerances, Verdict
from .frames import (FrameKind, canonical_frame, frenet_matrix, gram_matrix,
                     gram_residual, gram_targets)
from .hyperbolic import (SphereFit, closed_form_center,
                         fit_pseudohyperbolic, h3_membership, h3_ratio_check,
                         h3_type2_tau_form)
from .integrator import (CurveTrace, integrate_frame, resample_curvatures,
                         write_trace_csv)
from .minkowski import nullspace_min_singular, pairing, row_norm
from .profiles import CurvatureProfile, SampleTable, load_profile
from .suite import (DEFAULT_SEED, Fixture, default_suite, fixtures_from_json,
                    load_suite)
from .verifier import (FixtureResult, SuiteSummary, render_table,
                       run_theorem_suite)

__version__ = "0.1.0"

__all__ = [
    "AxisCandidate", "AxisValidation", "CheckResult",
    "ClassificationReport", "ConfigError", "CurvatureProfile", "CurveTrace",
    "DEFAULT_SEED", "DegenerateAxisError", "EvaluationError",
    "ExpressionError", "Fixture", "FrameError",
    "FrameKind", "GridMismatchError", "IntegrationError", "LclError",
    "OracleResult", "OutOfDomainError", "ProfileError",
    "SampleTable", "SphereFit", "SuiteSummary", "FixtureResult",
    "Tolerances", "Verdict", "assemble_axis",
    "canonical_frame", "classify_profile",
    "closed_form_center", "default_suite",
    "fit_pseudohyperbolic", "fixtures_from_json",
    "frenet_matrix", "gram_matrix", "gram_residual",
    "gram_targets", "grid_derivative", "h3_membership", "h3_ratio_check",
    "h3_type2_tau_form",
    "implication_conflicts", "integrate_frame", "load_profile", "load_suite",
    "nullspace_min_singular",
    "oracle_detect", "pairing", "parse_expression", "PN_IMPLICATIONS",
    "pn_type0_axes", "pn_type0_check", "pn_type1_axis", "pn_type1_check",
    "pn_type2_axis", "PSN_IMPLICATIONS", "psn_type1_axis", "psn_type1_check",
    "psn_type2_axis", "psn_type2_check", "render_table",
    "resample_curvatures",
    "row_norm", "run_theorem_suite", "validate_axis", "write_trace_csv",
]
