"""Public entry points refuse a malformed or wrong-type argument with a ``ValidationError``.

No call here may raise a bare ``ValueError``, ``TypeError`` or
``AttributeError`` from deep inside, or return a value for input it
should refuse.
"""

import functools

import pytest

from vartests import (
    AdaptiveConfig,
    DeviationSet,
    GroupedSample,
    Scenario,
    ScoreSet,
    ValidationError,
    adaptive_anova,
    anova_f,
    bartlett_m,
    box_anderson_b3,
    center,
    deviations,
    expected_mean_deviation,
    f_sf,
    hines_hines_correct,
    kurtosis_estimate,
    levene_test,
    obrien_scale,
    run_grid,
    trend_test,
    trimmed,
    welch_anova,
)
from vartests.numerics import DistributionSpec

SAMPLE = GroupedSample((("a", [1.0, 2.0, 4.0]), ("b", [2.0, 5.0, 9.0])))


# Each call, and the name of the argument its error must give.
_UNCONVERTED = {
    "from-columns-text": (lambda: GroupedSample.from_columns(["a", "b"], ["x", "y"]), "values: "),
    "group-text": (lambda: GroupedSample((("a", [1.0, "x"]), ("b", [2.0]))), "group 'a' values: "),
    "center-text": (lambda: center("abc", "mean"), "values: "),
    "center-2d": (lambda: center([[1, 2], [3, 4]], "median"), "2-D values"),
    "shape-text": (lambda: DistributionSpec("student-t", "x"), "shape: "),
    "centers-string": (lambda: DeviationSet(SAMPLE.groups, "median", "ab"), "centers must be a sequence"),
    "centers-text": (lambda: DeviationSet(SAMPLE.groups, "median", (2.0, "x")), "centers: "),
    "df-adjustment-text": (lambda: DeviationSet(SAMPLE.groups, "median", (2.0, 5.0), df_adjustment="x"), "df_adjustment: "),
    "trim-text": (lambda: trimmed("x"), "trim proportion: "),
    "sigma-text": (lambda: expected_mean_deviation("x", 3), "sigma: "),
    "level-text": (lambda: AdaptiveConfig(preliminary_level="x"), "preliminary level: "),
    "scores-text": (lambda: ScoreSet(("a", "b")), "scores: "),
    "tail-text": (lambda: f_sf("a", 1.0, 2.0), "the arguments of f_sf: "),
    "nominal-level-text": (
        lambda: Scenario("s", "normal", (5, 5), (1, 1), None, ("anova",), "x", 10, 1),
        "scenario 's' nominal level: ",
    ),
    "ratios-text": (
        lambda: Scenario("s", "normal", (5, 5), (1, "y"), None, ("anova",), 0.05, 10, 1),
        "scenario 's' sigma ratios: ",
    ),
}


@pytest.mark.parametrize("call, field", list(_UNCONVERTED.values()), ids=list(_UNCONVERTED))
def test_a_value_that_does_not_convert_is_a_validation_error_naming_the_argument(call, field):
    with pytest.raises(ValidationError) as caught:
        call()
    assert field in str(caught.value)


def test_a_shape_given_as_text_is_converted():
    assert DistributionSpec("student-t", "3") == DistributionSpec("student-t", 3.0)


_STATISTICS = {
    "levene": levene_test,
    "bartlett": bartlett_m,
    "box-anderson": box_anderson_b3,
    "kurtosis": kurtosis_estimate,
    "anova": anova_f,
    "welch": welch_anova,
    "adaptive": adaptive_anova,
    "trend": trend_test,
    "deviations": lambda sample: deviations(sample, "median"),
}
_WRONG_TYPES = {
    **{name: (functools.partial(run, [[1.0, 2.0], [3.0, 4.0]]), "GroupedSample") for name, run in _STATISTICS.items()},
    "adaptive-config": (lambda: adaptive_anova(SAMPLE, "x"), "AdaptiveConfig"),
    "hines-hines": (lambda: hines_hines_correct(SAMPLE), "DeviationSet"),
    "obrien": (lambda: obrien_scale(SAMPLE), "DeviationSet"),
    "run-grid-list": (lambda: run_grid([1]), "Scenario"),
    "run-grid-string": (lambda: run_grid("abc"), "Scenario"),
}


@pytest.mark.parametrize("call, expected", list(_WRONG_TYPES.values()), ids=list(_WRONG_TYPES))
def test_a_wrong_type_is_a_validation_error_naming_the_expected_type(call, expected):
    with pytest.raises(ValidationError, match=expected):
        call()

