"""Mean tests: classic F, Welch, and the adaptive two-stage procedure."""

import math

import numpy as np
import pytest
from scipy import stats

from vartests import (
    AdaptiveConfig,
    DegenerateDataError,
    GroupedSample,
    PreliminaryLevelWarning,
    ValidationError,
    adaptive_anova,
    anova_f,
    levene_test,
    welch_anova,
)


def make_sample(*arrays):
    return GroupedSample(tuple((f"g{i + 1}", np.asarray(a, dtype=float)) for i, a in enumerate(arrays)))


def welch_two_sample_oracle(x, y):
    """Squared Welch t statistic and Welch-Satterthwaite df, from scratch."""
    n1, n2 = len(x), len(y)
    v1, v2 = x.var(ddof=1), y.var(ddof=1)
    u1, u2 = v1 / n1, v2 / n2
    t = (x.mean() - y.mean()) / math.sqrt(u1 + u2)
    df = (u1 + u2) ** 2 / (u1**2 / (n1 - 1) + u2**2 / (n2 - 1))
    return t * t, df


class TestAnovaF:
    def test_hand_worked(self):
        # Groups {1,2,3} and {2,4,6}: between-SS = 6, within-SS = 10,
        # F = (6/1) / (10/4) = 2.4.
        result = anova_f(make_sample([1, 2, 3], [2, 4, 6]))
        assert result.statistic == pytest.approx(2.4, abs=1e-12)
        assert (result.df1, result.df2) == (1.0, 4.0)
        assert result.p_value == pytest.approx(0.19626117814926968, abs=1e-12)
        assert result.method == "anova"

    def test_matches_scipy(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            arrays = [rng.normal(m, 1.0, size=rng.integers(4, 20)) for m in (0.0, 0.3, 1.0)]
            ours = anova_f(make_sample(*arrays))
            ref = stats.f_oneway(*arrays)
            assert ours.statistic == pytest.approx(ref.statistic, rel=1e-10)
            assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-8, abs=1e-12)

    def test_location_shift_invariance(self):
        rng = np.random.default_rng(42)
        arrays = [rng.normal(size=8) for _ in range(3)]
        base = anova_f(make_sample(*arrays))
        moved = anova_f(make_sample(*(a + 7.5 for a in arrays)))
        assert moved.statistic == pytest.approx(base.statistic, rel=1e-9)

    def test_rescaling_leaves_both_statistics_unchanged(self):
        rng = np.random.default_rng(7)
        arrays = [rng.normal(i, 1 + i, size=6 + i) for i in range(3)]
        sample = make_sample(*arrays)
        scaled = make_sample(*(0.003 * a for a in arrays))
        assert anova_f(scaled).statistic == pytest.approx(
            anova_f(sample).statistic, rel=1e-10
        )
        welch_base = welch_anova(sample)
        welch_scaled = welch_anova(scaled)
        assert welch_scaled.statistic == pytest.approx(welch_base.statistic, rel=1e-10)
        assert welch_scaled.df2 == pytest.approx(welch_base.df2, rel=1e-10)

    def test_constant_groups_degenerate(self):
        with pytest.raises(DegenerateDataError):
            anova_f(make_sample([1, 1, 1], [2, 2, 2]))

    def test_one_observation_per_group_is_degenerate(self):
        with pytest.raises(DegenerateDataError, match="more observations than groups"):
            anova_f(make_sample([1.0], [2.0], [4.0]))

    def test_between_groups_sum_of_squares_overflow(self):
        tight = np.array([1.0, 1.0 + 1e-9, 1.0 - 1e-9])
        with pytest.raises(ValidationError, match="between-groups sum of squares overflows"):
            anova_f(make_sample(1e155 * tight, -1e155 * tight))


class TestWelch:
    def test_reduces_to_welch_t_with_two_groups(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            x = rng.normal(0.0, 1.0, size=rng.integers(3, 25))
            y = rng.normal(0.4, 3.0, size=rng.integers(3, 25))
            result = welch_anova(make_sample(x, y))
            t_sq, df = welch_two_sample_oracle(x, y)
            assert result.statistic == pytest.approx(t_sq, rel=1e-12)
            assert result.df2 == pytest.approx(df, rel=1e-12)
            ref = stats.ttest_ind(x, y, equal_var=False)
            assert result.p_value == pytest.approx(ref.pvalue, rel=1e-9, abs=1e-12)

    def test_three_group_inline_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            arrays = [rng.normal(0, s, size=n) for s, n in ((1.0, 7), (2.0, 12), (4.0, 9))]
            k = 3
            w = [a.size / a.var(ddof=1) for a in arrays]
            wsum = sum(w)
            xhat = sum(wi * a.mean() for wi, a in zip(w, arrays)) / wsum
            num = sum(wi * (a.mean() - xhat) ** 2 for wi, a in zip(w, arrays)) / (k - 1)
            h = sum((1 - wi / wsum) ** 2 / (a.size - 1) for wi, a in zip(w, arrays))
            den = 1 + 2.0 * (k - 2) / (k**2 - 1) * h
            result = welch_anova(make_sample(*arrays))
            assert result.statistic == pytest.approx(num / den, rel=1e-12)
            assert result.df2 == pytest.approx((k**2 - 1) / (3 * h), rel=1e-12)

    def test_equal_sizes_equal_variances_agree_with_classic(self):
        # Identical layout and *identical sample variances*: both tests
        # collapse to the pooled two-sample t squared.
        a = np.array([0.0, 1.0, 2.0])
        result_classic = anova_f(make_sample(a, a + 5.0))
        result_welch = welch_anova(make_sample(a, a + 5.0))
        assert abs(result_classic.statistic - result_welch.statistic) <= 1e-12
        assert result_welch.df2 == pytest.approx(result_classic.df2, rel=1e-12)

    def test_zero_variance_group_degenerate(self):
        with pytest.raises(DegenerateDataError):
            welch_anova(make_sample([3, 3, 3], [1, 2, 4]))

    def test_singleton_group_rejected(self):
        with pytest.raises(ValidationError):
            welch_anova(make_sample([1.0], [2.0, 3.0]))


class TestAdaptive:
    def test_branch_follows_preliminary_pvalue(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            arrays = [rng.normal(0, s, size=10) for s in (1.0, rng.uniform(1.0, 4.0), 1.0)]
            s = make_sample(*arrays)
            outcome = adaptive_anova(s)
            prelim = levene_test(s, "median")
            assert outcome.preliminary.statistic == pytest.approx(prelim.statistic, rel=1e-12)
            if prelim.p_value < 0.15:
                assert outcome.chosen_branch == "welch"
                assert outcome.final.statistic == pytest.approx(welch_anova(s).statistic, rel=1e-12)
            else:
                assert outcome.chosen_branch == "classic"
                assert outcome.final.statistic == pytest.approx(anova_f(s).statistic, rel=1e-12)

    @pytest.mark.parametrize("level, message", [
        ("abc", "could not convert string to float: 'abc'"),
        (None, "float() argument must be a string or a real number, not 'NoneType'"),
    ])
    def test_a_level_that_is_not_a_number_keeps_the_converters_message(self, level, message):
        with pytest.raises(ValidationError) as caught:
            AdaptiveConfig(preliminary_level=level)
        assert str(caught.value) == message

    def test_level_zero_always_classic(self):
        rng = np.random.default_rng(42)
        with pytest.warns(PreliminaryLevelWarning):
            config = AdaptiveConfig(preliminary_level=0.0)
        for _ in range(10):
            arrays = [rng.normal(0, s, size=8) for s in (1.0, 5.0, 0.2)]
            outcome = adaptive_anova(make_sample(*arrays), config)
            assert outcome.chosen_branch == "classic"

    def test_custom_preliminary_center(self):
        rng = np.random.default_rng(42)
        arrays = [rng.normal(0, s, size=9) for s in (1.0, 2.0, 3.0)]
        s = make_sample(*arrays)
        config = AdaptiveConfig(preliminary_center="mean")
        outcome = adaptive_anova(s, config)
        ref = levene_test(s, "mean")
        assert outcome.preliminary.statistic == pytest.approx(ref.statistic, rel=1e-12)
        assert outcome.preliminary.correction == "none"

    def test_level_warnings(self):
        with pytest.warns(PreliminaryLevelWarning):
            AdaptiveConfig(preliminary_level=0.05)
        with pytest.warns(PreliminaryLevelWarning):
            AdaptiveConfig(preliminary_level=0.5)
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error")
            AdaptiveConfig(preliminary_level=0.15)
            AdaptiveConfig(preliminary_level=0.25)
            AdaptiveConfig(preliminary_level=0.2)

    def test_level_validation(self):
        with pytest.raises(ValidationError):
            AdaptiveConfig(preliminary_level=1.0)
        with pytest.raises(ValidationError):
            AdaptiveConfig(preliminary_level=-0.1)

    def test_boundary_is_strict(self):
        # Reject to Welch only when p < level, not at equality: find a
        # sample, set the level exactly to its preliminary p-value, and
        # check the classic branch is kept.
        rng = np.random.default_rng(42)
        arrays = [rng.normal(0, s, size=10) for s in (1.0, 2.0, 1.0)]
        s = make_sample(*arrays)
        p = levene_test(s, "median").p_value
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("ignore", PreliminaryLevelWarning)
            outcome = adaptive_anova(s, AdaptiveConfig(preliminary_level=p))
        assert outcome.chosen_branch == "classic"
