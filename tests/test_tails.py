"""The tails on arrays: recorded bits, batch independence, and per-element errors.

Every tail and special function works elementwise, and an element's bits
must not depend on the batch it is in: the simulator computes a chunk's
p-values in one call, and its seeded output must equal one call per
replicate.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vartests.numerics as numerics
from vartests import ValidationError, chi_sq_sf, f_sf, reg_inc_beta, reg_inc_gamma_lower, std_normal_sf

# The degrees of freedom of the simulator's grids: sim-spread's plain and
# Hines-Hines Levene tests, table1 and power-ordering, then non-integer
# Welch df2.  x = 1e308 makes d2 + d1 x infinite.
_F_DF = (
    (3.0, 52.0), (3.0, 48.0), (4.0, 20.0), (4.0, 15.0), (2.0, 117.0), (2.0, 114.0),
    (2.0, 27.0), (2.0, 37.0), (2.0, 72.0),
    (2.0, 17.38372093023256), (2.0, 9.5), (3.0, 23.71),
)
_F_X = (0.0, 0.05, 0.4, 1.0, 1.6, 2.5, 4.0, 9.0, 60.0, 1e308)
# Below k + 2 the gamma series runs, above it the continued fraction.
_CHI_K = (2.0, 3.0, 4.0)
_CHI_X = (0.0, 0.1, 0.7, 1.5, 3.0, 4.5, 5.9, 6.1, 12.0, 40.0, 250.0)
_Z = (-40.0, -8.0, -1.96, -0.3, 0.0, 0.3, 1.645, 1.96, 3.0, 10.0, 38.5)
# Both sides of the beta crossover x = (a + 1) / (a + b + 2) and of the gamma one x = s + 1.
_BETA = ((26.0, 1.5, 0.5), (26.0, 1.5, 0.95), (1.5, 26.0, 0.02), (1.5, 26.0, 0.3), (0.5, 0.5, 0.5), (7.0, 3.0, 0.7),
         (7.0, 3.0, 0.6))
_GAMMA = ((1.5, 0.5), (1.5, 2.4), (1.5, 2.6), (1.5, 9.0), (20.0, 15.0), (20.0, 22.0), (0.5, 0.01), (1e4, 1e4 + 50.0))

_GRID = {
    "f_sf": (f_sf, [(x, d1, d2) for d1, d2 in _F_DF for x in _F_X]),
    "chi_sq_sf": (chi_sq_sf, [(x, k) for k in _CHI_K for x in _CHI_X]),
    "std_normal_sf": (std_normal_sf, [(z,) for z in _Z]),
    "reg_inc_beta": (reg_inc_beta, list(_BETA)),
    "reg_inc_gamma_lower": (reg_inc_gamma_lower, list(_GAMMA)),
}

# float.hex of each grid value, recorded from the scalar implementation
# that preceded the array one.
_GOLDEN_HEX = {
    "f_sf": (
        "0x1.0000000000000p+0", "0x1.f858baafee477p-1", "0x1.81d366a594a6dp-1", "0x1.99e49e79fb21ap-2",
        "0x1.9acd242cd1a90p-3", "0x1.1d3728e86d957p-4", "0x1.92a6299674b8cp-7", "0x1.18a9f24d505e4p-14",
        "0x1.3571decedec37p-54", "0x0.0p+0", "0x1.0000000000000p+0", "0x1.f856d8bd96fdep-1", "0x1.81d9a16345be2p-1",
        "0x1.9a9c7cd82bfeap-2", "0x1.9d0c53e2dd7fcp-3", "0x1.21568589c6ddap-4", "0x1.a193c736388f0p-7",
        "0x1.45e7be22675c2p-14", "0x1.4c2e341f971e3p-52", "0x0.0p+0", "0x1.0000000000000p+0",
        "0x1.fd6610e27a2aep-1", "0x1.9cd352fd8f689p-1", "0x1.b90495dc16ab2p-2", "0x1.b4abfaeb81488p-3",
        "0x1.33ccf3cb02945p-4", "0x1.f3aa19a002118p-7", "0x1.06fb37e385bf5p-12", "0x1.466367b052ca6p-34",
        "0x0.0p+0", "0x1.0000000000000p+0", "0x1.fd54d0fb129a4p-1", "0x1.9c7a9626e6f5dp-1", "0x1.c08348df03e98p-2",
        "0x1.ce3a840a0c572p-3", "0x1.63443c8bcd30dp-4", "0x1.58c08a3afff6ep-6", "0x1.54bb62ff65e3cp-11",
        "0x1.47543e1152b6cp-28", "0x0.0p+0", "0x1.0000000000000p+0", "0x1.e70a34aae0403p-1", "0x1.57abe05591916p-1",
        "0x1.7be7d180eb110p-2", "0x1.a6773b67d4a20p-3", "0x1.622576f47165bp-4", "0x1.56063f1e439bdp-6",
        "0x1.e543618a568cbp-13", "0x1.57aa0d478e369p-60", "0x0.0p+0", "0x1.0000000000000p+0",
        "0x1.e70a4698410f0p-1", "0x1.57af037565fb0p-1", "0x1.7bfd333d79228p-2", "0x1.a6b34a77bc86cp-3",
        "0x1.629dfa50041fep-4", "0x1.5726d3db4a6e8p-6", "0x1.ec990121c89e3p-13", "0x1.d1ebcbd375408p-60",
        "0x0.0p+0", "0x1.0000000000000p+0", "0x1.e7130f4454beep-1", "0x1.5934446e506c0p-1", "0x1.863ed30aa3ba6p-2",
        "0x1.c37d25e4fdaf4p-3", "0x1.9d48161a49bc6p-4", "0x1.ed12f5b0a93a0p-6", "0x1.09347ea89e8dfp-10",
        "0x1.fe5f2a0c6412dp-34", "0x0.0p+0", "0x1.0000000000000p+0", "0x1.e70ff3dac6750p-1", "0x1.58ab890640ccap-1",
        "0x1.82aaa41873fc0p-2", "0x1.b972c4e7f88bcp-3", "0x1.88a077c438a5fp-4", "0x1.b63f9683673d4p-6",
        "0x1.56722af667679p-11", "0x1.578e744e10ffcp-39", "0x0.0p+0", "0x1.0000000000000p+0",
        "0x1.e70bde4c2a222p-1", "0x1.57f636aafefb6p-1", "0x1.7de18188df846p-2", "0x1.ac037ae261680p-3",
        "0x1.6d4fd2d21a61fp-4", "0x1.711af4d1b606fp-6", "0x1.54484932d2e6cp-12", "0x1.0a9f2345c8e1cp-51",
        "0x0.0p+0", "0x1.0000000000000p+0", "0x1.e719680c9a468p-1", "0x1.5a4862cc4f0e7p-1", "0x1.8d6564e53da4ap-2",
        "0x1.d788399f84f9cp-3", "0x1.c713a0eae93b4p-4", "0x1.31070d40c04e9p-5", "0x1.1010ccc27321cp-9",
        "0x1.0e1ad93e27dc6p-26", "0x0.0p+0", "0x1.0000000000000p+0", "0x1.e728211cd16b4p-1", "0x1.5cb9058209964p-1",
        "0x1.9d3621245ff06p-2", "0x1.01e18b9cde112p-2", "0x1.12cd2dc510b47p-3", "0x1.c1ee72937193dp-5",
        "0x1.a4918a64869abp-8", "0x1.11f582aeb502fp-18", "0x0.0p+0", "0x1.0000000000000p+0", "0x1.f83e0cd2f3e5dp-1",
        "0x1.822de83bf00bcp-1", "0x1.a3e49c7bf8902p-2", "0x1.ba13e49f134b2p-3", "0x1.5805a2238c45cp-4",
        "0x1.3dcd921fc73ccp-6", "0x1.8202d6293c75cp-12", "0x1.191b26e8985dap-35", "0x0.0p+0",
    ),
    "chi_sq_sf": (
        "0x1.0000000000000p+0", "0x1.e7078b0a726a6p-1", "0x1.68cce09671f72p-1", "0x1.e3b40ebefcd7ep-2",
        "0x1.c8f87724b5c24p-3", "0x1.afb718e8457f7p-4", "0x1.acc451aa95b2cp-5", "0x1.83f6dcede0c3ap-5",
        "0x1.44e51f113d4d3p-9", "0x1.1b48655f37264p-29", "0x1.9560792d192ebp-181", "0x1.0000000000000p+0",
        "0x1.fbd21d63c12dfp-1", "0x1.bf149687ef7abp-1", "0x1.5d528967a67a0p-1", "0x1.910630b17f8d2p-2",
        "0x1.b2c5400bc2ff8p-3", "0x1.dd81012cfd03cp-4", "0x1.b5a3302c56061p-4", "0x1.e3dce0e9612dap-8",
        "0x1.6e1b2a6df2311p-27", "0x1.40e791c0f6dcep-177", "0x1.0000000000000p+0", "0x1.ff6185315e895p-1",
        "0x1.e7149597e6a72p-1", "0x1.a73d8ce71d3cep-1", "0x1.1d9b4a76f1993p-1", "0x1.5ec4c43cb8778p-2",
        "0x1.a76843d873d40p-3", "0x1.88d0594a7392dp-3", "0x1.1c487b2f15a3bp-6", "0x1.73cf050cf861fp-25",
        "0x1.8f0af74864cd9p-174",
    ),
    "std_normal_sf": (
        "0x1.0000000000000p+0", "0x1.ffffffffffffap-1", "0x1.f33379d3bd367p-1", "0x1.3c5ee2cc40b78p-1",
        "0x1.0000000000000p-1", "0x1.87423a677e90fp-2", "0x1.9979f1d2b190ep-5", "0x1.9990c58859312p-6",
        "0x1.61de1f985b5dcp-10", "0x1.26c75e84fb13bp-77", "0x0.0p+0",
    ),
    "reg_inc_beta": (
        "0x1.0cebfd219346ap-24", "0x1.c415aa68256b2p-2", "0x1.b507d02edbd10p-3", "0x1.ffd708356e925p-1",
        "0x1.0000000000004p-1", "0x1.d9f069c628808p-2", "0x1.dab32597fb438p-3",
    ),
    "reg_inc_gamma_lower": (
        "0x1.970936ca06d7cp-3", "0x1.a03c105aeefdap-1", "0x1.af3ebda788947p-1", "0x1.ffc6591840760p-1",
        "0x1.ff1a965b84753p-4", "0x1.63506d25fc7c6p-1", "0x1.cca5ea24fb332p-4", "0x1.627ab558e18dcp-1",
    ),
}


@pytest.mark.parametrize("name", sorted(_GRID))
def test_size_one_calls_keep_the_recorded_bits(name):
    fn, rows = _GRID[name]
    values = [fn(*row) for row in rows]
    assert all(type(v) is float for v in values)
    assert [v.hex() for v in values] == list(_GOLDEN_HEX[name])


@pytest.mark.parametrize("name", sorted(_GRID))
def test_one_batched_call_keeps_the_recorded_bits(name):
    fn, rows = _GRID[name]
    values = fn(*(np.array(column) for column in zip(*rows)))
    assert values.shape == (len(rows),)
    assert [v.hex() for v in values.tolist()] == list(_GOLDEN_HEX[name])


def test_scalars_broadcast_against_arrays():
    x = np.array([[0.4, 1.6], [4.0, 9.0]])
    values = f_sf(x, 3, 52)
    assert values.shape == (2, 2)
    assert values.tolist() == [[f_sf(v, 3.0, 52.0) for v in row] for row in x.tolist()]
    assert f_sf(np.array([]), 3.0, 52.0).shape == (0,)


def _assert_batch_is_its_size_one_calls(fn, rows):
    singles = []
    for row in rows:
        try:
            singles.append(fn(*row).hex())
        except ArithmeticError:
            with pytest.raises(ArithmeticError):
                fn(*(np.array(column) for column in zip(*rows)))
            return
    batched = fn(*(np.array(column) for column in zip(*rows)))
    assert [v.hex() for v in batched.tolist()] == singles


_DF = st.one_of(st.sampled_from([1.0, 2.0, 3.0, 4.0, 15.0, 27.0, 52.0, 117.0]), st.floats(0.05, 500.0))
_X = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e308, math.inf]), st.floats(0.0, 300.0))
_BATCH = {"min_size": 1, "max_size": 12}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_X, _DF, _DF), **_BATCH))
def test_an_f_batch_is_its_size_one_calls(rows):
    _assert_batch_is_its_size_one_calls(f_sf, rows)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_X, _DF), **_BATCH))
def test_a_chi_squared_batch_is_its_size_one_calls(rows):
    _assert_batch_is_its_size_one_calls(chi_sq_sf, rows)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.floats(allow_nan=False)), **_BATCH))
def test_a_normal_batch_is_its_size_one_calls(rows):
    _assert_batch_is_its_size_one_calls(std_normal_sf, rows)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_DF, _DF, st.floats(0.0, 1.0)), **_BATCH))
def test_a_beta_batch_is_its_size_one_calls(rows):
    _assert_batch_is_its_size_one_calls(reg_inc_beta, rows)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_DF, _X), **_BATCH))
def test_a_gamma_batch_is_its_size_one_calls(rows):
    _assert_batch_is_its_size_one_calls(reg_inc_gamma_lower, rows)


@pytest.mark.parametrize("failing", [(4e4, 4e4), (40004.0, 4e4)], ids=["series", "continued-fraction"])
def test_the_element_that_does_not_converge_is_named(monkeypatch, failing):
    # A smaller budget that the small-df elements still meet.
    monkeypatch.setattr(numerics, "_MAX_ITER", 40)
    with pytest.raises(ArithmeticError) as alone:
        chi_sq_sf(*failing)
    # The last two have larger caps than the failing element and converge fast.
    x, k = np.array([3.0, failing[0], 12.0, 20.0, 4e9]), np.array([4.0, failing[1], 3.0, 2e8, 2e8])
    chi_sq_sf(np.delete(x, 1), np.delete(k, 1))
    with pytest.raises(ArithmeticError) as batched:
        chi_sq_sf(x, k)
    assert str(batched.value) == str(alone.value)
    assert f"s={failing[1] / 2}, x={failing[0] / 2}" in str(alone.value)


def test_a_huge_df_raises_in_bounded_time():
    # The budget stops growing at s = 1e8: up to there the expansions
    # converge, and far beyond it they raise instead of running for hours.
    assert 0.0 < f_sf(1.0, 1e8, 1e8) < 1.0 and 0.0 < chi_sq_sf(2e8, 2e8) < 1.0
    with pytest.raises(ArithmeticError, match="failed to converge"):
        f_sf(1.0, 1e300, 1e300)
    with pytest.raises(ArithmeticError, match="failed to converge"):
        chi_sq_sf(1e14, 1e14)


def test_a_continued_fraction_that_cannot_start_raises():
    # At x == s beyond 2**53, x + 1 - s is exactly 0 and the first step divides by it.
    with pytest.raises(ZeroDivisionError, match=r"s=5e\+299, x=5e\+299"):
        chi_sq_sf(np.array([3.0, 1e300]), np.array([4.0, 1e300]))


@pytest.mark.parametrize(
    "fn, good, bad",
    [
        (f_sf, (1.0, 3.0, 52.0), (-0.5, 3.0, 52.0)),
        (f_sf, (1.0, 3.0, 52.0), (1.0, math.inf, 52.0)),
        (f_sf, (1.0, 3.0, 52.0), (1.0, 3.0, math.nan)),
        (chi_sq_sf, (1.0, 3.0), (-1.0, 3.0)),
        (chi_sq_sf, (1.0, 3.0), (1.0, -math.inf)),
        (reg_inc_beta, (2.0, 3.0, 0.5), (2.0, math.inf, 0.5)),
        (reg_inc_beta, (2.0, 3.0, 0.5), (2.0, 3.0, 1.5)),
        (reg_inc_gamma_lower, (2.0, 1.0), (math.nan, 1.0)),
        (reg_inc_gamma_lower, (2.0, 1.0), (2.0, -1.0)),
    ],
)
def test_an_array_with_a_bad_element_raises_the_scalar_error(fn, good, bad):
    with pytest.raises(ValidationError) as alone:
        fn(*bad)
    with pytest.raises(ValidationError) as batched:
        fn(*(np.array(column) for column in zip(good, bad, good)))
    assert str(batched.value) == str(alone.value)


@pytest.mark.parametrize(
    "fn, args",
    [(f_sf, ("a", 1.0, 2.0)), (chi_sq_sf, (1.0, {})), (std_normal_sf, ([1.0, "b"],)), (f_sf, ([1.0, 2.0], [3.0] * 3, 4.0))],
    ids=["string", "dict", "string-element", "shapes-that-do-not-broadcast"],
)
def test_arguments_that_do_not_convert_raise_validation_error_with_numpys_message(fn, args):
    try:
        np.broadcast_arrays(*(np.asarray(arg, dtype=float) for arg in args))
    except (TypeError, ValueError) as exc:
        message = str(exc)
    with pytest.raises(ValidationError) as caught:
        fn(*args)
    assert str(caught.value) == message
