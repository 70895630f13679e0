"""Randomization tests for as-if random instrument and exposure assignment.

Workflow: load or synthesize a dataset, test whether the instrument
(and, comparatively, the exposure) could have come from a posited
assignment mechanism, and compare both against the randomized benchmark
on a global balance scale.
"""

__version__ = "0.1.0"

from .balance import (
    GlobalBalance,
    instrument_strength,
    iv_bias,
    mahalanobis,
    mahalanobis_from_components,
    mean_difference_covariance,
    prevalence_difference,
    scmd,
)
from .comparison import (
    CaseClassification,
    ComparisonResult,
    SeparationDiagnostics,
    classify_case,
    fit_propensities,
    separation_diagnostics,
)
from .data import (
    AssignmentVector,
    Dataset,
    TestConfig,
    load_dataset,
    read_delimited,
    validate_dataset,
    write_delimited,
)
from .errors import (
    CapExceededError,
    IvrandError,
    MechanismError,
    PropensityError,
    StatisticError,
    ValidationError,
)
from .mechanisms import (
    MechanismSpec,
    draw_bernoulli,
    draw_block,
    draw_complete,
    enumerate_complete,
)
from .propensity import PropensityModel, fit_logistic, predict
from .randtest import (
    TestResult,
    exact_test,
    per_covariate_quantiles,
    pvalue,
    run_many,
    run_test,
)
from .report import RunReport, build_report, compare_mechanisms
from .rng import DrawStream
from .synth import PRESETS, ScenarioSpec, generate, generating_probabilities

__all__ = [
    "AssignmentVector",
    "CapExceededError",
    "CaseClassification",
    "ComparisonResult",
    "Dataset",
    "DrawStream",
    "GlobalBalance",
    "IvrandError",
    "MechanismError",
    "MechanismSpec",
    "PRESETS",
    "PropensityError",
    "PropensityModel",
    "RunReport",
    "ScenarioSpec",
    "SeparationDiagnostics",
    "StatisticError",
    "TestConfig",
    "TestResult",
    "ValidationError",
    "build_report",
    "classify_case",
    "compare_mechanisms",
    "draw_bernoulli",
    "draw_block",
    "draw_complete",
    "enumerate_complete",
    "exact_test",
    "fit_logistic",
    "fit_propensities",
    "generate",
    "generating_probabilities",
    "instrument_strength",
    "iv_bias",
    "load_dataset",
    "mahalanobis",
    "mahalanobis_from_components",
    "mean_difference_covariance",
    "per_covariate_quantiles",
    "predict",
    "prevalence_difference",
    "pvalue",
    "read_delimited",
    "run_many",
    "run_test",
    "scmd",
    "separation_diagnostics",
    "validate_dataset",
    "write_delimited",
]
