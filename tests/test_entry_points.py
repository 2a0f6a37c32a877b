"""Public entry points refuse a malformed or wrong-type argument with a ``ValidationError``.

No call here may raise a bare ``ValueError``, ``TypeError`` or
``AttributeError`` from deep inside, or return a value for input it
should refuse.
"""

import functools

import pytest

from vartests import (
    DeviationSet,
    GroupedSample,
    ValidationError,
    adaptive_anova,
    anova_f,
    bartlett_m,
    box_anderson_b3,
    center,
    deviations,
    hines_hines_correct,
    kurtosis_estimate,
    levene_test,
    obrien_scale,
    run_grid,
    trend_test,
    welch_anova,
)
from vartests.numerics import DistributionSpec

SAMPLE = GroupedSample((("a", [1.0, 2.0, 4.0]), ("b", [2.0, 5.0, 9.0])))


@pytest.mark.parametrize(
    "call",
    [
        lambda: GroupedSample.from_columns(["a", "b"], ["x", "y"]),
        lambda: center("abc", "mean"),
        lambda: center([[1, 2], [3, 4]], "median"),
        lambda: DistributionSpec("student-t", "x"),
        lambda: DeviationSet(SAMPLE.groups, "median", "ab"),
        lambda: DeviationSet(SAMPLE.groups, "median", (2.0, 5.0), df_adjustment="x"),
    ],
    ids=["from-columns-text", "center-text", "center-2d", "shape-text", "centers-string", "df-adjustment-text"],
)
def test_a_value_that_does_not_convert_is_a_validation_error(call):
    with pytest.raises(ValidationError):
        call()


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

