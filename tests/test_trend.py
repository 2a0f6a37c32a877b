"""Trend-in-spread test: hand oracles, symmetries, and error cases."""

import math

import numpy as np
import pytest

from vartests import (
    DegenerateDataError,
    GroupedSample,
    ScoreSet,
    ValidationError,
    std_normal_sf,
    trend_test,
)
from vartests.trend import _trend_slope


def make_sample(*arrays):
    return GroupedSample(tuple((f"g{i + 1}", np.asarray(a, dtype=float)) for i, a in enumerate(arrays)))


class TestHandOracle:
    def test_unit_slope_construction(self):
        # Mean centers give deviations {0,1.5,1.5}, {0,3,3}, {0,4.5,4.5},
        # so the group deviation means are exactly 1, 2, 3 against scores
        # 1, 2, 3: slope 1.  Pooled within-deviation variance is 21/6 and
        # the score spread is 6, so the standard error is sqrt(3.5/6).
        s = make_sample([0, 1.5, -1.5], [0, 3, -3], [0, 4.5, -4.5])
        result = trend_test(s, scores=(1, 2, 3), center="mean")
        assert result.beta_hat == pytest.approx(1.0, abs=1e-12)
        assert result.std_error == pytest.approx(math.sqrt(3.5 / 6.0), abs=1e-12)
        assert result.z_statistic == pytest.approx(1.0 / math.sqrt(3.5 / 6.0), abs=1e-12)
        assert result.p_increasing == pytest.approx(0.095215131912762076652, abs=1e-13)
        assert result.p_decreasing == pytest.approx(1.0 - 0.095215131912762076652, abs=1e-13)
        assert result.p_two_sided == pytest.approx(2 * 0.095215131912762076652, abs=1e-13)

    def test_slope_matches_direct_formula_unequal_sizes(self):
        rng = np.random.default_rng(42)
        sizes = (4, 9, 6, 11)
        s = make_sample(*(rng.normal(0, 1 + 0.5 * i, size=n) for i, n in enumerate(sizes)))
        scores = (0.0, 1.0, 3.0, 7.0)
        result = trend_test(s, scores=scores, center="median")
        # Independent evaluation of the same quantities.
        z = [np.abs(v - np.median(v)) for v in s.values]
        means = [zi.mean() for zi in z]
        n = np.array(sizes, dtype=float)
        w = np.array(scores)
        wbar = float((n * w).sum() / n.sum())
        denom = float((n * (w - wbar) ** 2).sum())
        beta = float((n * (w - wbar) * (np.array(means) - np.mean(means))).sum() / denom)
        pooled = sum(float(((zi - m) ** 2).sum()) for zi, m in zip(z, means)) / (n.sum() - len(sizes))
        se = math.sqrt(pooled / denom)
        assert result.beta_hat == pytest.approx(beta, rel=1e-12, abs=1e-12)
        assert result.std_error == pytest.approx(se, rel=1e-12)
        assert result.z_statistic == pytest.approx(beta / se, rel=1e-12)
        assert result.p_increasing == pytest.approx(std_normal_sf(beta / se), rel=1e-12)

    def test_two_observation_groups_have_no_error_estimate(self):
        # With n_i = 2 both deviations in a group are tied, so the pooled
        # within-group deviation variance is exactly zero.  The slope
        # itself is fine (here exactly 1), but the test is degenerate.
        s = make_sample([0, 2], [0, 4], [0, 6])
        scores = (1.0, 2.0, 3.0)
        deviations = [np.array([1.0, 1.0]), np.array([2.0, 2.0]), np.array([3.0, 3.0])]  # half the gap in each group
        with np.errstate(all="ignore"):  # the standard error is 0
            beta = _trend_slope(deviations, scores, [])[0]
        assert beta == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(DegenerateDataError):
            trend_test(s, scores=scores, center="mean")


class TestSymmetries:
    def test_reversing_order_negates_the_slope(self):
        rng = np.random.default_rng(42)
        arrays = [rng.normal(0, 1 + i, size=8) for i in range(3)]
        forward = trend_test(make_sample(*arrays), scores=(1, 2, 3), center="median")
        backward = trend_test(make_sample(*arrays[::-1]), scores=(1, 2, 3), center="median")
        assert backward.beta_hat == pytest.approx(-forward.beta_hat, rel=1e-12)
        assert backward.z_statistic == pytest.approx(-forward.z_statistic, rel=1e-12)
        assert backward.p_increasing == pytest.approx(forward.p_decreasing, abs=1e-12)
        assert backward.p_two_sided == pytest.approx(forward.p_two_sided, abs=1e-12)

    def test_per_group_location_invariance(self):
        rng = np.random.default_rng(42)
        arrays = [rng.normal(0, 1 + i, size=8) for i in range(3)]
        base = trend_test(make_sample(*arrays), center="median")
        shifted = trend_test(
            make_sample(*(a + off for a, off in zip(arrays, (100.0, -3.5, 0.25)))),
            center="median",
        )
        assert shifted.beta_hat == pytest.approx(base.beta_hat, rel=1e-12)
        assert shifted.z_statistic == pytest.approx(base.z_statistic, rel=1e-12)
        assert shifted.p_two_sided == pytest.approx(base.p_two_sided, abs=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(42)
        arrays = [rng.normal(0, 1 + i, size=10) for i in range(3)]
        base = trend_test(make_sample(*arrays), center="median")
        scaled = trend_test(make_sample(*(10.0 * a for a in arrays)), center="median")
        assert scaled.beta_hat == pytest.approx(10.0 * base.beta_hat, rel=1e-12)
        assert scaled.std_error == pytest.approx(10.0 * base.std_error, rel=1e-12)
        assert scaled.z_statistic == pytest.approx(base.z_statistic, rel=1e-12)
        assert scaled.p_increasing == pytest.approx(base.p_increasing, abs=1e-12)

    def test_affine_score_invariance_of_the_decision(self):
        rng = np.random.default_rng(42)
        arrays = [rng.normal(0, 1 + i, size=9) for i in range(4)]
        s = make_sample(*arrays)
        base = trend_test(s, scores=(1, 2, 3, 4), center="median")
        affine = trend_test(s, scores=(10, 30, 50, 70), center="median")  # 20w - 10
        assert affine.beta_hat == pytest.approx(base.beta_hat / 20.0, rel=1e-10)
        assert affine.z_statistic == pytest.approx(base.z_statistic, rel=1e-10)
        assert affine.p_increasing == pytest.approx(base.p_increasing, abs=1e-12)

    def test_tail_split_is_coherent(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            s = make_sample(*(rng.normal(0, 1, size=7) for _ in range(3)))
            r = trend_test(s)
            assert r.p_increasing + r.p_decreasing == pytest.approx(1.0, abs=1e-12)
            assert r.p_two_sided == pytest.approx(min(1.0, 2 * min(r.p_increasing, r.p_decreasing)), abs=1e-15)

    def test_no_trend_in_identical_groups(self):
        block = np.array([0.0, 1.5, -1.5, 0.4])
        result = trend_test(make_sample(block, block, block), center="mean")
        assert result.beta_hat == pytest.approx(0.0, abs=1e-12)
        assert result.p_two_sided > 1.0 - 1e-9


class TestScores:
    def test_default_scores_are_linear(self):
        rng = np.random.default_rng(42)
        s = make_sample(*(rng.normal(size=6) for _ in range(4)))
        result = trend_test(s)
        assert result.scores == (1.0, 2.0, 3.0, 4.0)
        assert result.center.name == "median"

    def test_score_validation(self):
        rng = np.random.default_rng(42)
        s = make_sample(*(rng.normal(size=6) for _ in range(3)))
        with pytest.raises(ValidationError):
            trend_test(s, scores=(1, 1, 2))  # tied
        with pytest.raises(ValidationError):
            trend_test(s, scores=(1, 2))  # wrong length
        with pytest.raises(ValidationError):
            trend_test(s, scores=(1, 2, math.inf))
        with pytest.raises(ValidationError):
            ScoreSet((3.0,))

    def test_scores_that_are_not_numbers_keep_the_converters_message(self):
        s = make_sample([1.0, 2.0, 4.0], [2.0, 5.0, 9.0])
        for call in (lambda: trend_test(s, scores=("a", "b")), lambda: ScoreSet(("a", "b"))):
            with pytest.raises(ValidationError, match="^scores: could not convert string to float: 'a'$"):
                call()

    @pytest.mark.parametrize("scores", ["12", b"12"])
    def test_a_string_of_scores_is_refused(self, scores):
        with pytest.raises(ValidationError, match="^scores must be a sequence, not the string"):
            ScoreSet(scores)
        with pytest.raises(ValidationError, match="^scores must be a sequence, not the string"):
            trend_test(make_sample([1.0, 2.0], [2.0, 5.0]), scores=scores)

    def test_scores_whose_sum_of_squares_underflows_give_the_z_of_scores_1_apart(self):
        # Distinct, but their weighted sum of squares is below the smallest normal double.
        s = make_sample([1.0, 2.0, 4.0], [2.0, 5.0, 9.0])
        base, close = trend_test(s, scores=(1.0, 2.0)), trend_test(s, scores=(1e-170, 2e-170))
        assert close.z_statistic == pytest.approx(base.z_statistic, rel=1e-14)
        assert close.beta_hat == pytest.approx(base.beta_hat * 1e170, rel=1e-14)
        assert close.std_error == pytest.approx(base.std_error * 1e170, rel=1e-14)
        # A slope of 1.3 per 5e-324 has units, and is past the float maximum.
        with pytest.raises(ValidationError, match="^the trend slope overflows a float: the values are too large$"):
            trend_test(s, scores=(0.0, 5e-324))

    @pytest.mark.parametrize("factor", [1e-150, 1e300])
    def test_scores_far_from_1_give_the_z_of_scores_1_2_3(self, factor):
        rng = np.random.default_rng(7)
        s = make_sample(*(rng.normal(0.0, sigma, size=9) for sigma in (1.0, 1.5, 2.0)))
        base = trend_test(s, scores=(1.0, 2.0, 3.0))
        scaled = trend_test(s, scores=(factor, 2.0 * factor, 3.0 * factor))
        assert scaled.z_statistic == pytest.approx(base.z_statistic, rel=1e-13)
        assert scaled.beta_hat == pytest.approx(base.beta_hat / factor, rel=1e-13)
        assert scaled.std_error == pytest.approx(base.std_error / factor, rel=1e-13)

    def test_scoreset_linear(self):
        assert ScoreSet.linear(3).w == (1.0, 2.0, 3.0)
        with pytest.raises(ValidationError):
            ScoreSet.linear(1)


class TestErrors:
    def test_singleton_group_rejected(self):
        with pytest.raises(ValidationError):
            trend_test(make_sample([1.0], [2.0, 3.0], [4.0, 5.0]))

    def test_constant_groups_degenerate(self):
        with pytest.raises(DegenerateDataError):
            trend_test(make_sample([3, 3, 3], [5, 5, 5], [9, 9, 9]))
