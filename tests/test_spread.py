"""Spread tests against hand-worked oracles, scipy, and their invariants."""

import math

import numpy as np
import pytest
from scipy import stats

from vartests import (
    DegenerateDataError,
    DistributionSpec,
    GroupedSample,
    KurtosisError,
    RngStream,
    ValidationError,
    anova_f,
    bartlett_m,
    box_anderson_b3,
    deviations,
    draw,
    hines_hines_correct,
    kurtosis_estimate,
    levene_test,
    obrien_scale,
    trimmed,
)
from vartests.samples import CENTERS
from vartests.spread import CORRECTIONS


def make_sample(*arrays):
    return GroupedSample(tuple((f"g{i + 1}", np.asarray(a, dtype=float)) for i, a in enumerate(arrays)))


def random_sample(rng, k=3, lo=5, hi=25, scales=None):
    sizes = rng.integers(lo, hi, size=k)
    scales = scales or [1.0] * k
    return make_sample(*(rng.normal(0.0, s, size=n) for s, n in zip(scales, sizes)))


class TestLeveneOracle:
    def test_hand_worked_mean_center(self):
        # Groups {1,2,3} and {2,4,6}: deviations {1,0,1} and {2,0,2},
        # between-SS = 2/3, within-SS = 10/3, F = 4 * (2/3) / (10/3) = 0.8.
        result = levene_test(make_sample([1, 2, 3], [2, 4, 6]), "mean")
        assert result.statistic == pytest.approx(0.8, abs=1e-12)
        assert (result.df1, result.df2) == (1.0, 4.0)
        assert result.p_value == pytest.approx(0.42164825517619406, abs=1e-12)
        assert result.method == "levene"
        assert result.center.name == "mean"
        assert result.correction == "none"

    def test_identical_groups_give_zero(self):
        values = [3.1, 0.2, 5.5, 2.7, 4.4]
        result = levene_test(make_sample(values, values), "median")
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == pytest.approx(1.0, abs=1e-12)

    def test_matches_scipy_mean_and_median(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            s = random_sample(rng, scales=[1.0, 2.0, 0.5])
            for kind, kwargs in (("mean", {"center": "mean"}), ("median", {"center": "median"})):
                ours = levene_test(s, kind)
                ref = stats.levene(*s.values, **kwargs)
                assert ours.statistic == pytest.approx(ref.statistic, rel=1e-10)
                assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-8, abs=1e-12)

    def test_trimmed_center_inline_oracle(self):
        # Independent computation: deviations of all observations from the
        # 25%-trimmed group mean, then the plain one-way F on those.
        rng = np.random.default_rng(42)
        for _ in range(10):
            s = random_sample(rng)
            z = []
            for arr in s.values:
                cut = int(math.floor(0.25 * arr.size))
                c = np.sort(arr)[cut : arr.size - cut].mean()
                z.append(np.abs(arr - c))
            ref = stats.f_oneway(*z)
            ours = levene_test(s, "trimmed")
            assert ours.statistic == pytest.approx(ref.statistic, rel=1e-10)
            assert ours.center.trim_proportion == 0.25
        custom = levene_test(s, trimmed(0.1))
        assert custom.center.trim_proportion == 0.1

    def test_agrees_with_anova_on_deviations(self):
        # Levene's test is, by definition, the one-way ANOVA F computed on
        # the absolute deviations (corrected as requested): a deviation set
        # is a grouped sample, and the two calls must agree bit for bit.
        corrections = {"none": lambda dev: dev, "hines-hines": hines_hines_correct, "obrien": obrien_scale}
        assert tuple(corrections) == CORRECTIONS
        rng = np.random.default_rng(42)
        for _ in range(25):
            s = random_sample(rng, scales=[1.0, 3.0, 1.5])
            for kind in CENTERS:
                dev = deviations(s, kind)
                assert isinstance(dev, GroupedSample)
                for correction, correct in corrections.items():
                    if correction == "hines-hines" and kind != "median":
                        continue
                    direct = levene_test(s, kind, correction)
                    via_anova = anova_f(correct(dev))
                    assert (direct.statistic, direct.df1, direct.df2, direct.p_value) == (
                        via_anova.statistic,
                        via_anova.df1,
                        via_anova.df2,
                        via_anova.p_value,
                    )


class TestLeveneInvariance:
    def test_scale_invariance(self):
        rng = np.random.default_rng(42)
        s = random_sample(rng)
        scaled = make_sample(*(3.0 * v for v in s.values))
        for kind in ("mean", "median", "trimmed"):
            a = levene_test(s, kind)
            b = levene_test(scaled, kind)
            assert a.statistic == pytest.approx(b.statistic, rel=1e-10)

    def test_per_group_location_invariance(self):
        rng = np.random.default_rng(42)
        s = random_sample(rng)
        shifted = make_sample(*(v + d for v, d in zip(s.values, (5.0, -40.0, 1000.0))))
        for kind in ("mean", "median"):
            assert levene_test(s, kind).statistic == pytest.approx(
                levene_test(shifted, kind).statistic, rel=1e-9
            )

    def test_group_permutation_invariance(self):
        rng = np.random.default_rng(42)
        arrays = [rng.normal(0, s, size=n) for s, n in zip((1.0, 2.0, 3.0), (8, 12, 10))]
        a = levene_test(make_sample(*arrays), "median")
        b = levene_test(make_sample(arrays[2], arrays[0], arrays[1]), "median")
        assert a.statistic == pytest.approx(b.statistic, rel=1e-12)

    def test_obrien_noop_under_equal_sizes(self):
        # Equal group sizes: the common rescaling factor cancels from F.
        rng = np.random.default_rng(42)
        arrays = [rng.normal(0, s, size=9) for s in (1.0, 2.0, 0.5)]
        plain = levene_test(make_sample(*arrays), "median")
        scaled = levene_test(make_sample(*arrays), "median", "obrien")
        assert scaled.statistic == pytest.approx(plain.statistic, abs=1e-12)
        assert scaled.correction == "obrien"

    def test_obrien_changes_unequal_sizes(self):
        rng = np.random.default_rng(42)
        arrays = [rng.normal(0, 1, size=n) for n in (5, 20, 9)]
        plain = levene_test(make_sample(*arrays), "median")
        scaled = levene_test(make_sample(*arrays), "median", "obrien")
        assert scaled.statistic != pytest.approx(plain.statistic, abs=1e-9)


class TestLeveneHinesHines:
    def test_degrees_of_freedom_shrink(self):
        rng = np.random.default_rng(42)
        s = random_sample(rng, lo=5, hi=12)
        plain = levene_test(s, "median")
        fixed = levene_test(s, "median", "hines-hines")
        assert fixed.df2 == plain.df2 - s.k
        assert fixed.correction == "hines-hines"

    def test_increases_small_sample_statistic_on_average(self):
        # Removing the structural zeros removes a downward bias; across many
        # draws the corrected statistic should usually be larger.
        rng = np.random.default_rng(42)
        larger = 0
        trials = 200
        for _ in range(trials):
            s = make_sample(*(rng.normal(size=5) for _ in range(3)))
            if levene_test(s, "median", "hines-hines").statistic > levene_test(s, "median").statistic:
                larger += 1
        assert larger > trials * 0.6

    def test_requires_median_and_size_three(self):
        s = make_sample([1, 2, 3], [2, 4, 6])
        with pytest.raises(ValidationError):
            levene_test(s, "mean", "hines-hines")
        with pytest.raises(ValidationError):
            levene_test(make_sample([1, 2], [3, 4, 5]), "median", "hines-hines")


class TestLeveneErrors:
    def test_constant_groups_are_degenerate(self):
        with pytest.raises(DegenerateDataError):
            levene_test(make_sample([5, 5, 5], [7, 7, 7]), "median")

    def test_singleton_group_rejected(self):
        with pytest.raises(ValidationError):
            levene_test(make_sample([1.0], [2.0, 3.0]), "median")

    def test_unknown_names_rejected(self):
        s = make_sample([1, 2, 3], [2, 4, 6])
        with pytest.raises(ValidationError):
            levene_test(s, "mode")
        with pytest.raises(ValidationError):
            levene_test(s, "median", "winsor")


class TestBartlett:
    def test_matches_scipy(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            s = random_sample(rng, scales=[1.0, 2.0, 3.0])
            ours = bartlett_m(s)
            ref = stats.bartlett(*s.values)
            assert ours.statistic == pytest.approx(ref.statistic, rel=1e-10)
            assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-8, abs=1e-12)
            assert ours.df2 is None

    def test_equal_variances_give_zero(self):
        # Shifted copies of one group: all sample variances identical.
        base = np.array([0.0, 1.0, 2.0, 5.0])
        result = bartlett_m(make_sample(base, base + 10.0, base - 3.0))
        assert result.statistic == pytest.approx(0.0, abs=1e-10)
        assert result.p_value == pytest.approx(1.0, abs=1e-10)

    def test_raw_statistic_and_factor_exposed(self):
        rng = np.random.default_rng(42)
        s = random_sample(rng)
        result = bartlett_m(s)
        assert result.details["c_factor"] > 1.0
        assert result.details["m_raw"] == pytest.approx(
            result.statistic * result.details["c_factor"], rel=1e-12
        )

    def test_zero_variance_group_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            bartlett_m(make_sample([4, 4, 4], [1, 2, 3]))

    def test_scale_invariance(self):
        rng = np.random.default_rng(42)
        s = random_sample(rng)
        scaled = make_sample(*(0.001 * v for v in s.values))
        assert bartlett_m(s).statistic == pytest.approx(bartlett_m(scaled).statistic, rel=1e-9)


class TestKurtosis:
    def test_two_point_pattern_is_exactly_one(self):
        # All deviations have equal magnitude, the theoretical minimum.
        assert kurtosis_estimate(make_sample([-1, 1], [-1, 1])) == pytest.approx(1.0, abs=1e-12)

    def test_normal_data_near_three(self):
        s = make_sample(
            draw(DistributionSpec("normal"), 50_000, RngStream(42, 0).generator()),
            draw(DistributionSpec("normal"), 50_000, RngStream(42, 1).generator()),
        )
        assert kurtosis_estimate(s) == pytest.approx(3.0, abs=0.1)

    def test_heavy_tails_exceed_three(self):
        s = make_sample(
            draw(DistributionSpec("student-t", shape=3.0), 50_000, RngStream(42, 2).generator()),
            draw(DistributionSpec("student-t", shape=3.0), 50_000, RngStream(42, 3).generator()),
        )
        assert kurtosis_estimate(s) > 4.0

    def test_location_and_scale_invariance(self):
        rng = np.random.default_rng(42)
        arrays = [rng.normal(size=11), rng.normal(size=7)]
        base = kurtosis_estimate(make_sample(*arrays))
        moved = kurtosis_estimate(make_sample(5.0 + 2.0 * arrays[0], -3.0 + 2.0 * arrays[1]))
        assert moved == pytest.approx(base, rel=1e-9)

    def test_constant_data_degenerate(self):
        with pytest.raises(DegenerateDataError):
            kurtosis_estimate(make_sample([2, 2, 2], [2, 2, 2]))


class TestBoxAnderson:
    def test_rescales_bartlett(self):
        rng = np.random.default_rng(42)
        s = random_sample(rng)
        b3 = box_anderson_b3(s)
        kurt = kurtosis_estimate(s)
        bart = bartlett_m(s)
        assert b3.statistic == pytest.approx(bart.statistic * 2.0 / (kurt - 1.0), rel=1e-12)
        assert b3.details["kurtosis"] == pytest.approx(kurt, rel=1e-12)
        assert b3.details["bartlett_statistic"] == pytest.approx(bart.statistic, rel=1e-12)

    def test_shrinks_under_heavy_tails(self):
        # Heavy tails give kurtosis > 3, so the factor 2/(kurt-1) < 1 and
        # the robust statistic must undercut Bartlett's.
        dist = DistributionSpec("student-t", shape=3.0)
        hits = 0
        for i in range(50):
            s = make_sample(
                draw(dist, 40, RngStream(100 + i, 0).generator()),
                draw(dist, 40, RngStream(100 + i, 1).generator()),
                draw(dist, 40, RngStream(100 + i, 2).generator()),
            )
            if kurtosis_estimate(s) > 3.0:
                hits += 1
                assert box_anderson_b3(s).statistic < bartlett_m(s).statistic
        assert hits > 30

    def test_near_normal_data_changes_little(self):
        s = make_sample(
            draw(DistributionSpec("normal"), 20_000, RngStream(5, 0).generator()),
            draw(DistributionSpec("normal"), 20_000, RngStream(5, 1).generator()),
        )
        ratio = box_anderson_b3(s).statistic / max(bartlett_m(s).statistic, 1e-300)
        assert ratio == pytest.approx(1.0, abs=0.1)

    def test_low_kurtosis_raises(self):
        # Every deviation has magnitude 1 in both groups, so the pooled
        # kurtosis estimate is exactly its minimum value 1.
        with pytest.raises(KurtosisError):
            box_anderson_b3(make_sample([-1, 1, -1, 1], [4, 6, 4, 6]))


class TestResultValidation:
    def test_result_rejects_bad_values(self):
        from vartests import TestResult

        with pytest.raises(ValidationError):
            TestResult("x", -1.0, 1.0, 2.0, 0.5)
        with pytest.raises(ValidationError):
            TestResult("x", 1.0, 1.0, 2.0, 1.5)
