"""Grouped samples, centers, deviations, and the small-sample corrections."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vartests import (
    AdaptiveConfig,
    CenterKind,
    DegenerateDataError,
    DeviationSet,
    GroupedSample,
    ValidationError,
    as_center_kind,
    center,
    deviations,
    expected_mean_deviation,
    adaptive_anova,
    hines_hines_correct,
    levene_test,
    obrien_scale,
    samples,
    trend_test,
    trimmed,
)

SQRT2 = math.sqrt(2.0)


def _refusal(convert, value):
    """The message with which ``convert`` refuses ``value``."""
    try:
        convert(value)
    except (TypeError, ValueError) as exc:
        return str(exc)
    raise AssertionError(f"{convert!r} accepts {value!r}")


def make_sample(*arrays):
    return GroupedSample(tuple((f"g{i + 1}", np.asarray(a, dtype=float)) for i, a in enumerate(arrays)))


class TestCenterKind:
    def test_names(self):
        assert as_center_kind("mean").name == "mean"
        assert as_center_kind("median").trim_proportion is None
        assert as_center_kind("trimmed").trim_proportion == 0.25
        assert trimmed(0.1).trim_proportion == 0.1
        assert as_center_kind(trimmed(0.3)) == trimmed(0.3)

    def test_validation(self):
        with pytest.raises(ValidationError):
            CenterKind("mode")
        with pytest.raises(ValidationError):
            trimmed(0.5)
        with pytest.raises(ValidationError):
            trimmed(-0.01)
        with pytest.raises(ValidationError):
            as_center_kind(42)

    @pytest.mark.parametrize("proportion", ["x", [0.1], {}], ids=repr)
    def test_a_trim_proportion_that_is_not_a_number_keeps_the_converters_message(self, proportion):
        for make in (trimmed, lambda p: CenterKind("trimmed", p)):
            with pytest.raises(ValidationError) as caught:
                make(proportion)
            assert str(caught.value) == "trim proportion: " + _refusal(float, proportion)

    @pytest.mark.parametrize("name, proportion", [("median", 0.1), ("mean", 0.3), ("median", 0.25), ("mean", "x")])
    def test_a_trim_proportion_on_a_center_that_is_not_trimmed_is_refused(self, name, proportion):
        message = f"the {name} center takes no trim proportion; only a trimmed center does"
        with pytest.raises(ValidationError) as caught:
            CenterKind(name, proportion)
        assert str(caught.value) == message
        with pytest.raises(ValidationError) as caught:
            as_center_kind(f"{name}={proportion}")
        assert str(caught.value) == message

    def test_the_label_spelling_reads_back(self):
        assert as_center_kind("trimmed=0.1") == trimmed(0.1) and str(trimmed(0.1)) == "trimmed=0.1"
        assert as_center_kind(" trimmed = 0.1 ") == trimmed(0.1)
        assert as_center_kind("trimmed=0.25") == as_center_kind("trimmed") == trimmed()
        assert str(trimmed()) == "trimmed" and str(trimmed(-0.0)) == "trimmed=0.0"
        with pytest.raises(ValidationError, match=r"^trim proportion: could not convert string to float: ''$"):
            as_center_kind("trimmed=")
        with pytest.raises(ValidationError, match=r"^trim proportion must lie in \[0, 0\.5\), got 0\.7$"):
            as_center_kind("trimmed=0.7")

    def test_every_center_argument_takes_the_label_spelling(self):
        rng = np.random.default_rng(7)
        sample = make_sample(*(rng.normal(0.0, sigma, size=11) for sigma in (1.0, 2.0, 3.0)))
        for run in (
            lambda kind: levene_test(sample, kind),
            lambda kind: trend_test(sample, None, kind),
            lambda kind: adaptive_anova(sample, AdaptiveConfig(0.15, kind)),
        ):
            assert pickle.dumps(run("trimmed=0.1")) == pickle.dumps(run(trimmed(0.1)))  # the same bits

    @settings(max_examples=200)
    @given(
        kind=st.sampled_from([CenterKind("mean"), CenterKind("median")])
        | st.floats(0.0, 0.5, exclude_max=True, allow_subnormal=True).map(trimmed)
    )
    @example(kind=trimmed(0.25))
    @example(kind=trimmed(-0.0))
    @example(kind=trimmed(5e-324))
    @example(kind=trimmed(2.2250738585072e-308))
    @example(kind=trimmed(math.nextafter(0.5, 0.0)))
    def test_every_center_reads_back_from_its_spelling(self, kind):
        assert as_center_kind(str(kind)) == kind


class TestCenter:
    def test_mean_median(self):
        assert center([1.0, 2.0, 6.0], "mean") == 3.0
        assert center([1.0, 2.0, 6.0], "median") == 2.0
        assert center([1.0, 2.0, 6.0, 7.0], "median") == 4.0  # midpoint of middle pair

    def test_trimmed(self):
        # n=8, proportion 0.25: cut floor(2) from each tail, average the middle 4.
        data = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -100.0]
        assert center(data, "trimmed") == pytest.approx((2.0 + 3.0 + 4.0 + 5.0) / 4.0)
        # Small groups where the cut rounds to zero fall back to the plain mean.
        assert center([1.0, 2.0, 6.0], "trimmed") == 3.0

    def test_trimmed_is_outlier_resistant(self):
        clean = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        spiked = clean[:-1] + [1e6]
        assert abs(center(spiked, "trimmed") - center(clean, "trimmed")) < 1.0
        assert center(spiked, "mean") > 1e4

    def test_validation(self):
        with pytest.raises(ValidationError):
            center([], "mean")
        with pytest.raises(ValidationError):
            center([1.0, np.nan], "median")

    @pytest.mark.parametrize(
        "values, kind",
        [([1.7e308, 1.7e308, 1.0], "mean"), ([1.7e308, 1.7e308], "median"), ([1.7e308] * 8, "trimmed")],
    )
    def test_a_center_whose_sum_overflows_is_that_of_the_values_at_scale_1(self, values, kind):
        # Computed at 2**-1024 times the values, exactly, with no numpy warning: the suite makes one an error.
        assert center(values, kind) == np.ldexp(center(np.ldexp(values, -1024), kind), 1024)

    def test_values_near_the_float_maximum_with_a_finite_center_still_have_one(self):
        assert center([1.7e308, 1.0, 1.7e308, 1.0], "trimmed") == 0.5 * 1.7e308 + 0.5
        assert center([-1.7e308, 1.7e308], "median") == 0.0


class TestGroupedSample:
    def test_basic_properties(self):
        s = make_sample([1, 2, 3], [4, 5])
        assert s.k == 2
        assert s.labels == ("g1", "g2")
        assert s.sizes == (3, 2)
        assert s.total == 5

    def test_values_are_read_only_copies(self):
        source = np.array([1.0, 2.0, 3.0])
        s = GroupedSample((("a", source), ("b", np.array([4.0, 5.0]))))
        source[0] = 99.0
        assert s.values[0][0] == 1.0
        with pytest.raises(ValueError):
            s.values[0][0] = 7.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            GroupedSample((("only", np.array([1.0, 2.0])),))
        with pytest.raises(ValidationError):
            make_sample([1, 2], [])
        with pytest.raises(ValidationError):
            make_sample([1, 2], [np.inf, 1])
        with pytest.raises(ValidationError):
            GroupedSample((("", np.array([1.0])), ("b", np.array([2.0]))))

    @pytest.mark.parametrize(
        "groups, message",
        [
            ((("a", "12"), ("b", [3.0, 4.0])), "group 'a' values must be a sequence, not the string '12'"),
            ((("a", b"12"), ("b", [3.0, 4.0])), "group 'a' values must be a sequence, not the string b'12'"),
            ((("a", [1.0, 2.0]), ("b", np.ones((2, 2)))), "group 'b' values must be a 1-D sequence, got 2 dimensions"),
            ((("a", 5.0), ("b", [3.0, 4.0])), "group 'a' values must be a 1-D sequence, got 0 dimensions"),
            ((("a", [1.0]), ("b", [2.0]), ("a", [3.0])), "group labels must be unique, got 'a' twice"),
            ((("a", [1.0, "x"]), ("b", [2.0])), "group 'a' values: could not convert string to float: 'x'"),
        ],
        ids=["string", "bytes", "2-d", "scalar", "duplicate-label", "bad-value"],
    )
    def test_group_values_must_be_one_dimensional_and_labels_unique(self, groups, message):
        with pytest.raises(ValidationError) as caught:
            GroupedSample(groups)
        assert str(caught.value) == message

    def test_from_columns_orders_by_first_appearance(self):
        s = GroupedSample.from_columns(["b", "a", "b", "a"], [1.0, 2.0, 3.0, 4.0])
        assert s.labels == ("b", "a")
        assert s.values[0].tolist() == [1.0, 3.0]

    def test_from_columns_explicit_order(self):
        s = GroupedSample.from_columns(["b", "a", "b"], [1.0, 2.0, 3.0], group_order=["a", "b"])
        assert s.labels == ("a", "b")
        with pytest.raises(ValidationError):
            GroupedSample.from_columns(["b", "a"], [1.0, 2.0], group_order=["a", "c"])

    @pytest.mark.parametrize("k", [3, 300, 70_000])
    def test_from_columns_keeps_input_order_within_groups(self, k):
        # k spans the 8-, 16- and 32-bit label codes.
        rng = np.random.default_rng(k)
        n = max(3 * k, 3000)
        labels = [f"g{i}" for i in rng.permutation(np.arange(n) % k)]
        values = rng.standard_normal(n)
        buckets = {}
        for label, value in zip(labels, values.tolist()):
            buckets.setdefault(label, []).append(value)
        for column in (values, values.tolist()):
            s = GroupedSample.from_columns(labels, column)
            assert s.labels == tuple(buckets)
            assert [arr.tolist() for arr in s.values] == list(buckets.values())

    def test_deviation_set_is_not_built_from_columns(self):
        with pytest.raises(ValidationError, match=r"deviations\(\)"):
            DeviationSet.from_columns(["a", "a", "b", "b"], [1.0, 2.0, 3.0, 4.0])

    def test_equality_is_by_value(self):
        a, b = make_sample([1, 2, 4], [3, 5]), make_sample([1, 2, 4], [3, 5])
        assert a is not b and a == b and not a != b
        assert a != make_sample([1, 2, 4], [3, 6])
        assert a != make_sample([1, 2], [4, 3, 5])  # the same values, cut elsewhere
        assert a != GroupedSample((("g1", [1.0, 2.0, 4.0]), ("other", [3.0, 5.0])))
        assert a != a.groups and a != 1
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)

    def test_a_deviation_set_also_compares_its_center_and_corrections(self):
        # Symmetric groups: mean and median centers give the same deviations.
        sample = make_sample([1, 2, 3], [2, 4, 6])
        median = deviations(sample, "median")
        assert median == deviations(make_sample([1, 2, 3], [2, 4, 6]), "median")
        mean = deviations(sample, "mean")
        assert GroupedSample(median.groups) == GroupedSample(mean.groups) and median != mean
        assert median != hines_hines_correct(median) and median != obrien_scale(median)
        assert median != GroupedSample(median.groups) and GroupedSample(median.groups) != median
        with pytest.raises(TypeError, match="unhashable"):
            hash(median)


class TestDeviations:
    def test_median_deviations(self):
        dev = deviations(make_sample([1, 2, 4], [2, 4, 6]), "median")
        assert dev.values[0].tolist() == [1.0, 0.0, 2.0]
        assert dev.values[1].tolist() == [2.0, 0.0, 2.0]
        assert dev.centers == (2.0, 4.0)
        assert dev.df_adjustment == 0
        assert not dev.scaled

    @pytest.mark.parametrize("kind", ["mean", "median", "trimmed"])
    def test_a_center_whose_sum_overflows_gives_the_deviations_at_scale_1(self, kind):
        groups = [[1.0, 2.0, 4.0], [1.7e308, 1.7e308, 1.7e308, 1.0]]
        dev = deviations(make_sample(*groups), kind)
        small = deviations(make_sample(*(np.ldexp(g, -1000) for g in groups)), kind)
        # Rescaled by 2**-1024, g1 is subnormal: it keeps its digits down to 2**-1074 * 2**1024 = 2**-50.
        for z, z_small in zip(dev.values, small.values):
            np.testing.assert_allclose(z, np.ldexp(z_small, 1000), rtol=1e-15, atol=2.0**-50)
        np.testing.assert_allclose(dev.centers, np.ldexp(small.centers, 1000), rtol=1e-15, atol=2.0**-50)

    @pytest.mark.parametrize("kind", ["mean", "median", "trimmed"])
    def test_a_deviation_that_overflows_is_too_large_not_non_finite(self, kind):
        sample = make_sample([1.0, 2.0, 4.0], [-1.7e308, -1.7e308, -1.7e308, -1.7e308, 1.7e308])
        with pytest.raises(ValidationError, match=r"^a deviation in group 'g2' overflows a float: the values are too large$"):
            deviations(sample, kind)

    def test_deviations_are_location_invariant(self):
        rng = np.random.default_rng(42)
        base = [rng.normal(size=9), rng.normal(size=14)]
        for kind in ("mean", "median", "trimmed"):
            dev0 = deviations(make_sample(*base), kind)
            dev1 = deviations(make_sample(base[0] + 100.0, base[1] - 55.0), kind)
            for z0, z1 in zip(dev0.values, dev1.values):
                assert np.allclose(z0, z1, atol=1e-10)

    def test_deviations_scale_equivariant(self):
        rng = np.random.default_rng(42)
        base = [rng.normal(size=9), rng.normal(size=14)]
        dev0 = deviations(make_sample(*base), "median")
        dev3 = deviations(make_sample(3.0 * base[0], 3.0 * base[1]), "median")
        for z0, z3 in zip(dev0.values, dev3.values):
            assert np.allclose(3.0 * z0, z3, atol=1e-12)


class TestHinesHines:
    def test_odd_group_drops_one_zero(self):
        dev = deviations(make_sample([1, 2, 4], [2, 4, 6]), "median")
        fixed = hines_hines_correct(dev)
        assert sorted(fixed.values[0].tolist()) == [1.0, 2.0]
        assert sorted(fixed.values[1].tolist()) == [2.0, 2.0]
        assert fixed.df_adjustment == 2
        assert fixed.sizes == (2, 2)

    @pytest.mark.parametrize("kind", ["mean", "trimmed", "trimmed=0.1"])
    def test_a_center_that_is_not_the_median_is_refused(self, kind):
        dev = deviations(make_sample([1, 2, 4], [2, 4, 6]), kind)
        with pytest.raises(ValidationError) as caught:
            hines_hines_correct(dev)
        assert str(caught.value) == f"the Hines-Hines correction applies to median centers only, not to the {kind} center"

    def test_a_fold_that_overflows_is_too_large(self):
        dev = deviations(make_sample([1, 2, 3, 5], [-1.7e308, 1.7e308, -1.7e308, 1.7e308]), "median")
        with pytest.raises(ValidationError, match=r"group 'g2' overflows a float: the values are too large"):
            hines_hines_correct(dev)

    def test_even_group_folds_tied_pair(self):
        # {1,2,3,4}: median 2.5, deviations {1.5, 0.5, 0.5, 1.5}; the tied
        # smallest pair becomes a single sqrt(2) * 0.5.
        dev = deviations(make_sample([1, 2, 3, 4], [1, 2, 3, 4]), "median")
        fixed = hines_hines_correct(dev)
        for z in fixed.values:
            assert sorted(z.tolist()) == pytest.approx([SQRT2 * 0.5, 1.5, 1.5])
        assert fixed.df_adjustment == 2

    def test_every_group_loses_exactly_one(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            sizes = rng.integers(2, 12, size=3)
            sample = make_sample(*(rng.normal(size=n) for n in sizes))
            dev = deviations(sample, "median")
            fixed = hines_hines_correct(dev)
            assert fixed.sizes == tuple(n - 1 for n in dev.sizes)
            assert fixed.df_adjustment == sample.k

    def test_total_mass_even_groups_preserved_in_squares(self):
        # Folding a tied pair (z, z) into sqrt(2)*z preserves the sum of squares.
        rng = np.random.default_rng(7)
        values = rng.normal(size=6)
        dev = deviations(make_sample(values, rng.normal(size=8)), "median")
        fixed = hines_hines_correct(dev)
        for z_old, z_new in zip(dev.values, fixed.values):
            assert float(np.sum(z_new**2)) == pytest.approx(float(np.sum(z_old**2)), rel=1e-12)

    def test_requires_median_centers(self):
        dev = deviations(make_sample([1, 2, 4], [2, 4, 6]), "mean")
        with pytest.raises(ValidationError):
            hines_hines_correct(dev)

    def test_rejects_double_application(self):
        dev = deviations(make_sample([1, 2, 4], [2, 4, 6]), "median")
        with pytest.raises(ValidationError):
            hines_hines_correct(hines_hines_correct(dev))

    def test_constant_group_is_degenerate(self):
        dev = deviations(make_sample([5, 5, 5], [1, 2, 4]), "median")
        with pytest.raises(DegenerateDataError):
            hines_hines_correct(dev)

    @staticmethod
    def _stable_sort_fold(z):
        """The even-size fold as a stable sort defines it: the first two ranks are the pair."""
        n = z.shape[-1]
        order = np.argsort(z, axis=-1, kind="stable")
        kept = z * np.where(np.arange(n) == order[..., :1], SQRT2, 1.0)
        return kept[np.arange(n) != order[..., 1:2]].reshape(*z.shape[:-1], n - 1)

    @pytest.mark.parametrize("n", range(2, 41, 2))
    def test_even_groups_fold_the_pair_a_stable_sort_ranks_first(self, n):
        rng = np.random.default_rng(n)
        # Small integers: ties and runs of zeros in most rows.
        block = rng.integers(0, 4, size=(60, n)).astype(float)
        block[rng.random(block.shape) < 0.1] = np.inf
        block[0], block[1], block[2], block[3, : n // 2] = 0.0, 2.5, np.inf, 0.0
        assert samples._hines_hines([block], ["g"], [])[0].tobytes() == self._stable_sort_fold(block).tobytes()
        for row in block:
            assert samples._hines_hines([row], ["g"], [])[0].tobytes() == self._stable_sort_fold(row).tobytes()

    def test_a_large_group_folds_the_pair_a_stable_sort_ranks_first(self):
        rng = np.random.default_rng(5)
        z = np.abs(rng.integers(-300, 300, size=100_000)).astype(float)
        z[[7, 50_000]] = np.inf
        assert samples._hines_hines([z], ["g"], [])[0].tobytes() == self._stable_sort_fold(z).tobytes()


class TestObrienScale:
    def test_factors(self):
        dev = deviations(make_sample([1, 2, 4, 8], [2, 4]), "median")
        scaled = obrien_scale(dev)
        assert scaled.scaled
        # 1/sqrt(1 - 1/4) and 1/sqrt(1 - 1/2)
        np.testing.assert_allclose(scaled.values[0], dev.values[0] * 1.1547005383792515, rtol=1e-15)
        np.testing.assert_allclose(scaled.values[1], dev.values[1] * 1.4142135623730951, rtol=1e-15)

    def test_rejects_double_application(self):
        dev = deviations(make_sample([1, 2, 4], [2, 4, 6]), "median")
        with pytest.raises(ValidationError):
            obrien_scale(obrien_scale(dev))

    def test_rejects_singleton_groups(self):
        # A deviation set may hold a singleton group; rescaling it may not.
        from vartests import MEAN, DeviationSet

        dev = DeviationSet((("a", np.array([1.0, 2.0])), ("b", np.array([3.0]))), MEAN, (0.0, 0.0))
        with pytest.raises(ValidationError):
            obrien_scale(dev)


class TestExpectedMeanDeviation:
    def test_reference_value(self):
        assert expected_mean_deviation(2.0, 4) == pytest.approx(1.381976597885342, abs=1e-12)

    @pytest.mark.parametrize("sigma", ["x", None])
    def test_a_sigma_that_is_not_a_number_keeps_the_converters_message(self, sigma):
        with pytest.raises(ValidationError) as caught:
            expected_mean_deviation(sigma, 3)
        assert str(caught.value) == "sigma: " + _refusal(float, sigma)

    def test_limits(self):
        assert expected_mean_deviation(1.0, 1) == 0.0
        # n -> infinity approaches sigma * sqrt(2/pi)
        assert expected_mean_deviation(1.0, 10**9) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-9)

    def test_monotone_in_n(self):
        values = [expected_mean_deviation(1.0, n) for n in range(1, 40)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_matches_simulation(self):
        # Mean absolute deviation from the sample mean, normal data, n=4.
        rng = np.random.default_rng(42)
        draws = rng.normal(0.0, 2.0, size=(200_000, 4))
        mad = np.abs(draws - draws.mean(axis=1, keepdims=True)).mean()
        assert mad == pytest.approx(expected_mean_deviation(2.0, 4), abs=0.01)

    def test_validation(self):
        with pytest.raises(ValidationError):
            expected_mean_deviation(0.0, 5)
        with pytest.raises(ValidationError):
            expected_mean_deviation(1.0, 0)
        with pytest.raises(ValidationError):
            expected_mean_deviation(1.0, 2.5)
