"""Paired t, sign-flip permutation test and the channel stat map."""

import numpy as np
import pytest

from vmidecode import EpochSet, band_power, paired_t, permutation_test, stat_map
from vmidecode.errors import DegenerateInputError, RangeError, ShapeError
from vmidecode.seeding import child_rng


# ---------------------------------------------------------------------------
# Band power

def test_band_power_localizes_tone():
    t = np.arange(1000) / 250.0
    tensor = np.sin(2 * np.pi * 10.0 * t)[None, None, :]
    ep = EpochSet([0], tensor, 250, 500.0)
    in_band = band_power(ep, (8.0, 13.0))[0, 0]
    out_band = band_power(ep, (1.0, 4.0))[0, 0]
    assert in_band > 100.0 * out_band


def test_band_power_zero_signal():
    ep = EpochSet([0, 1], np.zeros((2, 3, 500)), 250, 0.0)
    np.testing.assert_array_equal(band_power(ep, (0.5, 13.0)), 0.0)


def test_band_power_white_noise_flat_spectrum():
    rng = np.random.default_rng(0)
    ep = EpochSet(np.zeros(40, dtype=int),
                  rng.standard_normal((40, 1, 2000)), 250, 0.0)
    lo, hi = 10.0, 40.0
    bp = band_power(ep, (lo, hi)).mean()
    expected = (hi - lo) / 125.0  # variance 1 spread over [0, fs/2]
    assert abs(bp - expected) / expected < 0.2


def test_band_power_validates_band():
    ep = EpochSet([0], np.zeros((1, 1, 500)), 250, 0.0)
    with pytest.raises(RangeError):
        band_power(ep, (10.0, 200.0))


@pytest.mark.parametrize("n", [19, 20])
def test_band_power_refuses_a_band_without_a_bin(n):
    # 19 samples at 250 Hz put the bins 13.2 Hz apart, none in [0.5, 13):
    # the empty band summed to 0; 20 samples put one at 12.5 Hz
    ep = EpochSet([0, 1], np.ones((2, 3, n)), 250, 0.0)
    if n == 19:
        with pytest.raises(RangeError, match="13.1579 Hz apart"):
            band_power(ep, (0.5, 13.0))
    else:
        assert band_power(ep, (0.5, 13.0)).shape == (2, 3)


# ---------------------------------------------------------------------------
# Paired t

def test_paired_t_hand_value():
    # diffs [1,2,3,4]: mean 2.5, sd 1.2910, t = 2.5 / (1.2910/2) = 3.873
    assert paired_t([1, 2, 3, 4], [0, 0, 0, 0]) == pytest.approx(3.873, abs=1e-3)


def test_paired_t_identical_inputs():
    assert paired_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_paired_t_antisymmetry():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((2, 20))
    assert paired_t(a, b) == pytest.approx(-paired_t(b, a), rel=1e-12)


def test_paired_t_shift_invariance():
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((2, 15))
    assert paired_t(a + 7.0, b + 7.0) == pytest.approx(paired_t(a, b), rel=1e-9)


def test_paired_t_zero_variance_conventions():
    assert paired_t([2.0, 2.0, 2.0], [1.0, 1.0, 1.0]) == np.inf
    assert paired_t([1.0, 1.0, 1.0], [2.0, 2.0, 2.0]) == -np.inf


def test_paired_t_validation():
    with pytest.raises(ShapeError):
        paired_t([1, 2], [1, 2, 3])
    with pytest.raises(RangeError):
        paired_t([1.0], [2.0])


# ---------------------------------------------------------------------------
# Permutation test

def test_exhaustive_p_on_planted_n4():
    # all four diffs equal and positive: of the 16 sign patterns only
    # all-plus and all-minus reach |t| = inf, so p = 2/16
    p = permutation_test([1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0],
                         n_perm=10000)
    assert p == 0.125


def test_exhaustive_matches_direct_enumeration():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(8)
    b = rng.standard_normal(8)
    p = permutation_test(a, b, n_perm=10000)
    # independent oracle: enumerate the 256 sign patterns directly
    d = a - b
    def t_of(x):
        sd = x.std(ddof=1)
        if sd == 0:
            return np.inf if x.mean() != 0 else 0.0
        return x.mean() / (sd / np.sqrt(len(x)))
    t_obs = abs(t_of(d))
    count = 0
    for bits in range(256):
        signs = np.array([1.0 if bits >> i & 1 else -1.0 for i in range(8)])
        if abs(t_of(d * signs)) >= t_obs:
            count += 1
    assert p == count / 256


def test_monte_carlo_close_to_exhaustive():
    rng = np.random.default_rng(4)
    a = rng.standard_normal(12) + 0.5
    b = rng.standard_normal(12)
    p_exact = permutation_test(a, b, n_perm=5000)       # 2^12 <= 5000
    p_mc = permutation_test(a, b, n_perm=2000,  # forced Monte Carlo
                            rng=child_rng(0, "perm"))
    assert abs(p_mc - p_exact) <= 0.02


def test_monte_carlo_p_never_zero():
    # huge effect: no permutation beats the observed statistic, yet the
    # add-one estimator keeps p > 0
    a = np.arange(20) + 100.0
    b = np.arange(20, dtype=float)
    p = permutation_test(a, b, n_perm=999, rng=child_rng(1, "perm"))
    assert 0.0 < p <= 1.0
    assert p == pytest.approx(1.0 / 1000.0)


def test_null_p_values_are_uniform():
    rng = np.random.default_rng(5)
    ps = []
    for _ in range(1000):
        d = rng.standard_normal(20)
        ps.append(permutation_test(d, np.zeros(20), n_perm=499,
                                   rng=np.random.default_rng(rng.integers(2**32))))
    ps = np.sort(ps)
    n = len(ps)
    d_plus = (np.arange(1, n + 1) / n - ps).max()
    d_minus = (ps - np.arange(n) / n).max()
    assert max(d_plus, d_minus) < 0.05


def test_permutation_validation():
    with pytest.raises(ShapeError):
        permutation_test([1, 2], [1, 2, 3])
    with pytest.raises(RangeError):
        permutation_test([1, 2], [3, 4], n_perm=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_paired_tests_refuse_non_finite_input(bad):
    # a NaN difference fails every t_perm >= t_obs comparison, which would
    # give the add-one estimator's minimum p: a false positive
    a, b = np.random.default_rng(7).standard_normal((2, 20))
    a[3] = bad
    with pytest.raises(DegenerateInputError):
        permutation_test(a, b, n_perm=1000, rng=child_rng(0, "perm"))
    with pytest.raises(DegenerateInputError):
        permutation_test(b, a, n_perm=1000, rng=child_rng(0, "perm"))
    with pytest.raises(DegenerateInputError):
        paired_t(a, b)


def test_permutation_deterministic_for_seed():
    rng = np.random.default_rng(6)
    a, b = rng.standard_normal((2, 30))
    assert permutation_test(a, b, n_perm=500, rng=child_rng(9, "perm")) == \
        permutation_test(a, b, n_perm=500, rng=child_rng(9, "perm"))


# ---------------------------------------------------------------------------
# Stat map

def _paired_sets(n_trials=12, n_ch=6, planted=(0, 3), amp=4.0, seed=0, fs=250):
    rng = np.random.default_rng(seed)
    rest = rng.standard_normal((n_trials, n_ch, 500))
    imagery = rng.standard_normal((n_trials, n_ch, 500))
    t = np.arange(500) / fs
    for ch in planted:
        imagery[:, ch, :] += amp * np.sin(2 * np.pi * 8.0 * t)
    labels = np.zeros(n_trials, dtype=int)
    return (EpochSet(labels, imagery, fs, 500.0),
            EpochSet(labels, rest, fs, -4500.0))


def test_stat_map_flags_planted_channels():
    imagery, rest = _paired_sets()
    sm = stat_map(imagery, rest, band=(0.5, 13.0), n_perm=4096, seed=0)
    assert sm.significant[0] and sm.significant[3]
    false_pos = sm.significant.sum() - 2
    assert false_pos <= 1
    assert np.all((sm.p_values >= 0.0) & (sm.p_values <= 1.0))
    assert sm.t_values[0] > 0


def test_stat_map_identical_inputs_not_significant():
    imagery, _ = _paired_sets(planted=())
    sm = stat_map(imagery, imagery, n_perm=1000, seed=0)
    assert not sm.significant.any()
    np.testing.assert_array_equal(sm.t_values, 0.0)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 5, -0.01, float("nan")])
def test_stat_map_refuses_alpha_outside_0_1(alpha):
    # alpha 5 or 1.0 marked every channel significant
    imagery, rest = _paired_sets()
    with pytest.raises(RangeError, match=rf"^alpha must be a number in "
                                         rf"\(0, 1\), got {alpha!r}$"):
        stat_map(imagery, rest, n_perm=16, alpha=alpha)


def test_stat_map_refuses_nan_channel():
    imagery, rest = _paired_sets()
    imagery.tensor[4, 2, 100] = np.nan
    with pytest.raises(DegenerateInputError):
        stat_map(imagery, rest, n_perm=1000, seed=0)


def test_stat_map_channel_reorder_permutes():
    # with exhaustive permutations (2^12 <= n_perm) the map is a pure
    # function of each channel's data, so reordering channels permutes it
    imagery, rest = _paired_sets(n_trials=12)
    perm = [5, 0, 3, 1, 4, 2]
    sm1 = stat_map(imagery, rest, n_perm=4096, seed=0)
    sm2 = stat_map(imagery.select(channel_idx=perm),
                   rest.select(channel_idx=perm), n_perm=4096, seed=0)
    np.testing.assert_allclose(sm2.t_values, sm1.t_values[perm], rtol=1e-12)
    np.testing.assert_allclose(sm2.p_values, sm1.p_values[perm], rtol=1e-12)


def test_stat_map_trial_mismatch():
    imagery, rest = _paired_sets(n_trials=8)
    with pytest.raises(ShapeError):
        stat_map(imagery, rest.select(trial_idx=range(6)))


def test_stat_map_csv(tmp_path):
    imagery, rest = _paired_sets(n_trials=6)
    sm = stat_map(imagery, rest, n_perm=256, seed=0)
    path = tmp_path / "stat.csv"
    sm.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "channel,t,p,significant"
    assert len(lines) == 7
