"""Special functions against frozen high-precision values and identities."""

import math
import threading

import numpy as np
import pytest

from vartests import (
    DistributionSpec,
    RngStream,
    ValidationError,
    chi_sq_sf,
    derive_seed,
    draw,
    f_sf,
    reg_inc_beta,
    reg_inc_gamma_lower,
    std_normal_sf,
)
from vartests.numerics import _stream_generators


class TestLnGamma:
    # The tails call math.lgamma directly; these pin the values they rely on.
    def test_known_values(self):
        # Reference values computed with 40-digit arithmetic.
        assert abs(math.lgamma(1.0)) <= 1e-15
        assert abs(math.lgamma(2.0)) <= 1e-15
        assert math.isclose(math.lgamma(0.5), 0.57236494292470008707, abs_tol=1e-14)
        assert math.isclose(math.lgamma(5.0), 3.1780538303479456196, abs_tol=1e-13)
        assert math.isclose(math.lgamma(12.3), 18.238983407092241942, abs_tol=1e-12)
        assert math.isclose(math.lgamma(0.001), 6.9071788853838536825, abs_tol=1e-12)
        # At x = 1e6 the value is ~1.3e7, so 1e-12 absolute is below one ulp;
        # relative accuracy is the right yardstick there.
        assert math.isclose(math.lgamma(1e6), 12815504.56914761166, rel_tol=1e-14)

    def test_recurrence(self):
        # ln Gamma(x+1) = ln Gamma(x) + ln x
        rng = np.random.default_rng(42)
        for x in rng.uniform(0.01, 50.0, size=200):
            lhs = math.lgamma(x + 1.0)
            rhs = math.lgamma(x) + math.log(x)
            assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)


class TestRegIncBeta:
    def test_boundaries(self):
        assert reg_inc_beta(2.0, 3.0, 0.0) == 0.0
        assert reg_inc_beta(2.0, 3.0, 1.0) == 1.0

    def test_symmetry_point(self):
        # I_{1/2}(a, a) = 1/2 for any a.
        for a in (0.5, 1.0, 2.5, 7.0, 40.0):
            assert math.isclose(reg_inc_beta(a, a, 0.5), 0.5, abs_tol=1e-13)

    def test_known_values(self):
        assert math.isclose(reg_inc_beta(2.5, 0.5, 0.3), 0.018927124071945653504, abs_tol=1e-13)
        assert math.isclose(reg_inc_beta(0.5, 3.0, 0.9), 0.99967502532072891633, abs_tol=1e-13)

    def test_reflection_identity(self):
        # I_x(a,b) + I_{1-x}(b,a) = 1
        rng = np.random.default_rng(42)
        for _ in range(300):
            a = rng.uniform(0.1, 60.0)
            b = rng.uniform(0.1, 60.0)
            x = rng.uniform(0.0, 1.0)
            total = reg_inc_beta(a, b, x) + reg_inc_beta(b, a, 1.0 - x)
            assert math.isclose(total, 1.0, abs_tol=1e-12)

    def test_uniform_case(self):
        # I_x(1, 1) is the identity.
        for x in (0.1, 0.25, 0.5, 0.9):
            assert math.isclose(reg_inc_beta(1.0, 1.0, x), x, abs_tol=1e-14)

    def test_domain(self):
        with pytest.raises(ValidationError):
            reg_inc_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValidationError):
            reg_inc_beta(1.0, -2.0, 0.5)
        with pytest.raises(ValidationError):
            reg_inc_beta(1.0, 1.0, 1.5)
        with pytest.raises(ValidationError):
            reg_inc_beta(1.0, 1.0, -0.1)


class TestRegIncGammaLower:
    def test_boundaries_and_known(self):
        assert reg_inc_gamma_lower(3.0, 0.0) == 0.0
        assert math.isclose(reg_inc_gamma_lower(1.0, 1.0), 0.6321205588285576784, abs_tol=1e-14)
        assert math.isclose(reg_inc_gamma_lower(0.5, 0.25), 0.52049987781304653768, abs_tol=1e-13)
        assert math.isclose(reg_inc_gamma_lower(7.5, 20.0), 0.99954650186489776541, abs_tol=1e-13)

    def test_recurrence(self):
        # P(s+1, x) = P(s, x) - x^s e^{-x} / Gamma(s+1)
        rng = np.random.default_rng(42)
        for _ in range(200):
            s = rng.uniform(0.2, 40.0)
            x = rng.uniform(0.0, 60.0)
            lhs = reg_inc_gamma_lower(s + 1.0, x)
            rhs = reg_inc_gamma_lower(s, x) - math.exp(s * math.log(x) - x - math.lgamma(s + 1.0)) if x > 0 else 0.0
            assert math.isclose(lhs, rhs, abs_tol=1e-12)

    def test_monotone_in_x(self):
        values = [reg_inc_gamma_lower(2.5, x) for x in np.linspace(0.0, 30.0, 40)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        assert values[-1] <= 1.0

    def test_domain(self):
        with pytest.raises(ValidationError):
            reg_inc_gamma_lower(0.0, 1.0)
        with pytest.raises(ValidationError):
            reg_inc_gamma_lower(1.0, -1.0)


class TestFSf:
    def test_known_values(self):
        assert f_sf(0.0, 3.0, 10.0) == 1.0
        assert math.isclose(f_sf(1.0, 1.0, 1.0), 0.5, abs_tol=1e-13)
        assert math.isclose(f_sf(0.8, 1.0, 4.0), 0.42164825517619406015, abs_tol=1e-13)
        assert math.isclose(f_sf(2.4, 1.0, 4.0), 0.19626117814926968653, abs_tol=1e-13)
        assert math.isclose(f_sf(3.5, 2.0, 12.0), 0.063469615969142973431, abs_tol=1e-13)
        assert math.isclose(f_sf(0.25, 5.0, 3.0), 0.91512300245848676789, abs_tol=1e-13)

    def test_monotone_nonincreasing(self):
        grid = np.linspace(0.0, 25.0, 60)
        values = [f_sf(x, 4.0, 17.0) for x in grid]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_tail_limits(self):
        assert f_sf(1e9, 2.0, 8.0) < 1e-12
        assert f_sf(math.inf, 2.0, 8.0) == 0.0

    def test_large_df_converge_and_match_scipy(self):
        from scipy.special import fdtrc

        for d1 in (1.0, 3.0, 10.0, 1e3, 1e5, 1e6, 1e7):
            for d2 in (1e5, 1e6, 1e7):
                mean = d2 / (d2 - 2.0)
                sd = math.sqrt(2.0 * d2**2 * (d1 + d2 - 2.0) / (d1 * (d2 - 2.0) ** 2 * (d2 - 4.0)))
                for k in (-5, -2, 0, 2, 5):
                    x = mean + k * sd
                    if x > 0.0:
                        assert abs(f_sf(x, d1, d2) - fdtrc(d1, d2, x)) <= 2e-8, (x, d1, d2)

    def test_domain(self):
        with pytest.raises(ValidationError):
            f_sf(-0.5, 2.0, 3.0)
        with pytest.raises(ValidationError):
            f_sf(1.0, 0.0, 3.0)
        with pytest.raises(ValidationError):
            f_sf(1.0, 2.0, -3.0)


class TestChiSqSf:
    def test_known_values(self):
        assert chi_sq_sf(0.0, 4.0) == 1.0
        assert math.isclose(chi_sq_sf(2.0 * math.log(2.0), 2.0), 0.5, abs_tol=1e-14)
        assert math.isclose(chi_sq_sf(3.84, 1.0), 0.050043521248705098948, abs_tol=1e-13)
        assert math.isclose(chi_sq_sf(7.0, 3.0), 0.071897772496465127458, abs_tol=1e-13)

    def test_exponential_special_case(self):
        # With 2 df the chi-squared is exponential: sf(x) = exp(-x/2).
        rng = np.random.default_rng(42)
        for x in rng.uniform(0.0, 40.0, size=50):
            assert math.isclose(chi_sq_sf(x, 2.0), math.exp(-x / 2.0), rel_tol=1e-12, abs_tol=1e-300)

    def test_domain(self):
        with pytest.raises(ValidationError):
            chi_sq_sf(-1.0, 2.0)
        with pytest.raises(ValidationError):
            chi_sq_sf(1.0, 0.0)

    def test_large_df_matches_high_precision_oracle(self):
        # Bartlett and Box-Anderson on ~10**4 groups take tails at df 2e4-4e4,
        # where both gamma expansions need O(sqrt(df)) terms near the mean.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        rng = np.random.default_rng(2024)
        for k in rng.uniform(2e4, 4e4, size=60):
            for x in (k + rng.uniform(-4.0, 4.0) * math.sqrt(2.0 * k), k + 2.0, k - 2.0):
                want = mpmath.gammainc(mpmath.mpf(k) / 2, mpmath.mpf(x) / 2, mpmath.inf, regularized=True)
                assert abs(chi_sq_sf(x, k) - float(want)) <= 1e-10, (x, k)


class TestInfiniteParameters:
    """An infinite df or shape is rejected; an infinite argument has its limit."""

    @pytest.mark.parametrize(
        "fn, args, expected",
        [
            (f_sf, (1.0, math.inf, 10.0), ValidationError),
            (f_sf, (1.0, 10.0, math.inf), ValidationError),
            (chi_sq_sf, (1.0, math.inf), ValidationError),
            (reg_inc_beta, (math.inf, 1.0, 0.5), ValidationError),
            (reg_inc_beta, (1.0, math.inf, 0.5), ValidationError),
            (reg_inc_gamma_lower, (math.inf, 1.0), ValidationError),
            (reg_inc_gamma_lower, (1.0, math.inf), 1.0),
            (reg_inc_gamma_lower, (1e6, math.inf), 1.0),
            (chi_sq_sf, (math.inf, 3.0), 0.0),
            (f_sf, (math.inf, 2.0, 3.0), 0.0),
        ],
    )
    def test_infinite_parameter(self, fn, args, expected):
        if expected is ValidationError:
            with pytest.raises(ValidationError, match="finite"):
                fn(*args)
        else:
            assert fn(*args) == expected


class TestStdNormalSf:
    def test_known_values(self):
        assert std_normal_sf(0.0) == 0.5
        assert math.isclose(std_normal_sf(1.959963984540054), 0.025, abs_tol=5e-5)
        assert math.isclose(std_normal_sf(1.959963984540054), 0.025000000000000013765, abs_tol=1e-14)
        assert math.isclose(std_normal_sf(3.0), 0.0013498980316300945267, rel_tol=1e-13)

    def test_symmetry(self):
        rng = np.random.default_rng(42)
        for x in rng.uniform(-8.0, 8.0, size=200):
            assert abs(std_normal_sf(x) + std_normal_sf(-x) - 1.0) <= 1e-12

    def test_deep_tail_keeps_relative_precision(self):
        assert std_normal_sf(10.0) == pytest.approx(7.619853024160526e-24, rel=1e-12)


class TestDistributionSpec:
    def test_shape_rules(self):
        DistributionSpec("normal")
        DistributionSpec("exponential")
        DistributionSpec("student-t", shape=3.0)
        DistributionSpec("chi-squared", shape=5.0)
        with pytest.raises(ValidationError):
            DistributionSpec("student-t")
        with pytest.raises(ValidationError):
            DistributionSpec("chi-squared", shape=-1.0)
        with pytest.raises(ValidationError):
            DistributionSpec("normal", shape=3.0)
        with pytest.raises(ValidationError):
            DistributionSpec("cauchy")
        # Its draws would all be non-finite.
        with pytest.raises(ValidationError, match="finite positive shape"):
            DistributionSpec("student-t", shape=math.inf)


class TestRngStream:
    def test_same_key_same_sequence(self):
        a = draw(DistributionSpec("normal"), 1000, RngStream(42, 7).generator())
        b = draw(DistributionSpec("normal"), 1000, RngStream(42, 7).generator())
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = draw(DistributionSpec("normal"), 1000, RngStream(42, 0).generator())
        b = draw(DistributionSpec("normal"), 1000, RngStream(42, 1).generator())
        c = draw(DistributionSpec("normal"), 1000, RngStream(43, 0).generator())
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_thread_independence(self):
        # The draw for a given key must not depend on scheduling.
        reference = draw(DistributionSpec("normal"), 500, RngStream(9, 3).generator())
        results = [None] * 8

        def work(slot):
            results[slot] = draw(DistributionSpec("normal"), 500, RngStream(9, 3).generator())

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got in results:
            assert np.array_equal(got, reference)

    @pytest.mark.parametrize("spec", [DistributionSpec("normal"), DistributionSpec("exponential"),
                                      DistributionSpec("student-t", 3.0), DistributionSpec("student-t", 0.02),
                                      DistributionSpec("chi-squared", 3.0)], ids=str)
    @pytest.mark.parametrize("start", [0, 5, 517])
    def test_a_rekeyed_generator_draws_as_each_stream_would(self, spec, start):
        # The simulator draws a chunk from one generator re-keyed per replicate,
        # several groups each; Student-t interleaves normal and gamma draws.
        seed = derive_seed(7, start)
        streams = range(start, start + 9)
        rekeyed = [[draw(spec, n, rng) for n in (3, 8, 5)] for rng in _stream_generators(seed, streams)]
        alone = [[draw(spec, n, rng) for n in (3, 8, 5)] for rng in (RngStream(seed, s).generator() for s in streams)]
        for got, want in zip(rekeyed, alone):
            assert all(np.array_equal(g, w, equal_nan=True) for g, w in zip(got, want))

    def test_key_validation(self):
        with pytest.raises(ValidationError):
            RngStream(-1, 0)
        with pytest.raises(ValidationError):
            RngStream(0, 2**64)
        with pytest.raises(ValidationError):
            RngStream(1.5, 0)


class TestDeriveSeed:
    def test_stable_mapping(self):
        # Frozen: the derivation must never change across runs or versions.
        assert derive_seed(42, 0) == derive_seed(42, 0)
        first = derive_seed(42, 0)
        assert 0 <= first < 2**64
        assert derive_seed(42, 1) != first
        assert derive_seed(43, 0) != first

    def test_validation(self):
        with pytest.raises(ValidationError):
            derive_seed()
        with pytest.raises(ValidationError):
            derive_seed(1.5)


class TestSampling:
    def test_normal_moments(self):
        x = draw(DistributionSpec("normal"), 200_000, RngStream(42, 0).generator())
        assert x.mean() == pytest.approx(0.0, abs=0.01)
        assert x.std(ddof=1) == pytest.approx(1.0, abs=0.01)

    def test_exponential_moments(self):
        x = draw(DistributionSpec("exponential"), 200_000, RngStream(42, 1).generator())
        assert x.mean() == pytest.approx(1.0, abs=0.013)
        assert x.std(ddof=1) == pytest.approx(1.0, abs=0.02)

    def test_chi_squared_moments(self):
        x = draw(DistributionSpec("chi-squared", shape=3.0), 200_000, RngStream(42, 2).generator())
        assert x.mean() == pytest.approx(3.0, abs=0.04)
        assert x.var(ddof=1) == pytest.approx(6.0, rel=0.05)

    def test_student_t_matches_reference_quantiles(self):
        from scipy import stats

        x = draw(DistributionSpec("student-t", shape=3.0), 200_000, RngStream(42, 3).generator())
        for q in (0.05, 0.25, 0.5, 0.75, 0.95):
            expected = stats.t.ppf(q, 3)
            observed = np.quantile(x, q)
            # Quantile MC standard error via the density at the quantile.
            se = math.sqrt(q * (1 - q) / x.size) / stats.t.pdf(expected, 3)
            assert abs(observed - expected) < 5 * se

    def test_student_t_heavy_tails(self):
        x = draw(DistributionSpec("student-t", shape=3.0), 200_000, RngStream(42, 4).generator())
        centered = x - x.mean()
        kurt = (centered**4).mean() / (centered**2).mean() ** 2
        assert kurt > 4.0  # normal data sit near 3

    def test_size_validation(self):
        with pytest.raises(ValidationError):
            draw(DistributionSpec("normal"), 0, RngStream(1, 0).generator())
