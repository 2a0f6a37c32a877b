"""Tests for equality, trend, and robustness of group spread and means.

The package covers the Levene family of spread tests (mean, median, and
trimmed-mean centers, with the Hines-Hines and O'Brien small-sample
corrections), Bartlett's test and its Box-Anderson kurtosis-robust
version, a directional test for monotone spread trends, Welch's and the
adaptive heteroscedasticity-aware ANOVA, and a deterministic Monte
Carlo harness for size and power studies.
"""

from .errors import DegenerateDataError, KurtosisError, ValidationError
from .means import (
    AdaptiveConfig,
    AdaptiveResult,
    PreliminaryLevelWarning,
    adaptive_anova,
    anova_f,
    welch_anova,
)
from .numerics import (
    DistributionSpec,
    RngStream,
    chi_sq_sf,
    derive_seed,
    draw,
    f_sf,
    reg_inc_beta,
    reg_inc_gamma_lower,
    std_normal_sf,
)
from .samples import (
    MEAN,
    MEDIAN,
    CenterKind,
    DeviationSet,
    GroupedSample,
    as_center_kind,
    center,
    deviations,
    expected_mean_deviation,
    hines_hines_correct,
    obrien_scale,
    trimmed,
)
from .sim import (
    CellResult,
    Scenario,
    SimulationReport,
    compile_test_label,
    power_ordering_grid,
    run_grid,
    table1_grid,
)
from .spread import (
    TestResult,
    as_correction,
    bartlett_m,
    box_anderson_b3,
    kurtosis_estimate,
    levene_test,
)
from .trend import ScoreSet, TrendResult, trend_test

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ValidationError",
    "DegenerateDataError",
    "KurtosisError",
    "CenterKind",
    "MEAN",
    "MEDIAN",
    "trimmed",
    "as_center_kind",
    "GroupedSample",
    "DeviationSet",
    "center",
    "deviations",
    "hines_hines_correct",
    "obrien_scale",
    "expected_mean_deviation",
    "TestResult",
    "as_correction",
    "levene_test",
    "bartlett_m",
    "kurtosis_estimate",
    "box_anderson_b3",
    "ScoreSet",
    "TrendResult",
    "trend_test",
    "AdaptiveConfig",
    "AdaptiveResult",
    "PreliminaryLevelWarning",
    "anova_f",
    "welch_anova",
    "adaptive_anova",
    "reg_inc_beta",
    "reg_inc_gamma_lower",
    "f_sf",
    "chi_sq_sf",
    "std_normal_sf",
    "DistributionSpec",
    "RngStream",
    "derive_seed",
    "draw",
    "Scenario",
    "CellResult",
    "SimulationReport",
    "compile_test_label",
    "run_grid",
    "table1_grid",
    "power_ordering_grid",
]
