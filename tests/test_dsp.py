"""FFT, analytic signal, filtering, PSD and ERSP against independent oracles."""

import itertools
import subprocess
import sys

import numpy as np
import pytest
import scipy.signal as sps

from vmidecode import (EpochSet, analytic_signal, bandpass, bandpass_response,
                       downsample, ersp, fft, welch_psd)
from vmidecode.dsp import (BLOCK, _bandpass_plan, _welch_batch, _zero_phase,
                           butter_bandpass_sos, preprocess_recording)
from vmidecode.errors import EmptyInputError, RangeError


def naive_dft(x):
    """O(n^2) reference DFT, the independent oracle for the fast transform."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    k = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return x @ w.T


# ---------------------------------------------------------------------------
# FFT

def test_fft_impulse_is_flat():
    np.testing.assert_allclose(fft([1, 0, 0, 0]), np.ones(4), atol=1e-12)


def test_fft_dc_concentrates_in_bin_zero():
    np.testing.assert_allclose(fft([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-12)


def test_fft_matches_naive_dft_all_lengths_to_64():
    rng = np.random.default_rng(0)
    for n in range(1, 65):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = fft(x)
        want = naive_dft(x)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() / scale < 1e-9, f"length {n}"


def test_fft_matches_naive_dft_pipeline_lengths():
    rng = np.random.default_rng(1)
    for n in (500, 1000, 1024, 1250):
        x = rng.standard_normal(n)
        got = fft(x)
        want = naive_dft(x)
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-9


def test_parseval_1000_random_inputs():
    rng = np.random.default_rng(2)
    for n in (7, 24, 64, 250):
        x = rng.standard_normal((250, n)) + 1j * rng.standard_normal((250, n))
        spec = fft(x)
        time_e = (np.abs(x) ** 2).sum(axis=-1)
        freq_e = (np.abs(spec) ** 2).sum(axis=-1) / n
        np.testing.assert_allclose(freq_e, time_e, rtol=1e-9)


def test_fft_batched_matches_rowwise():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 30))
    batched = fft(x)
    for i in range(5):
        np.testing.assert_allclose(batched[i], fft(x[i]), rtol=1e-12)


def test_fft_empty_input():
    with pytest.raises(EmptyInputError):
        fft([])
    with pytest.raises(EmptyInputError):
        fft(np.zeros((3, 0)))


# ---------------------------------------------------------------------------
# Analytic signal

def test_analytic_signal_real_part_is_input():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(1000)
    a = analytic_signal(x)
    np.testing.assert_allclose(a.real, x, atol=1e-9)


def test_analytic_signal_kills_negative_frequencies():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(256)
    spec = fft(analytic_signal(x))
    assert np.abs(spec[129:]).max() < 1e-9


def test_analytic_signal_cosine_envelope():
    t = np.arange(250) / 250.0
    a = analytic_signal(np.cos(2 * np.pi * 10 * t))
    interior = np.abs(a)[25:-25]
    assert np.abs(interior - 1.0).max() < 0.02


def test_analytic_signal_hilbert_pair():
    # imag(analytic(sin)) = -cos on interior samples
    t = np.arange(500) / 250.0
    w = 2 * np.pi * 8
    a = analytic_signal(np.sin(w * t))
    np.testing.assert_allclose(a.imag[50:-50], -np.cos(w * t)[50:-50],
                               atol=0.02)


def test_analytic_signal_too_short():
    with pytest.raises(RangeError):
        analytic_signal([1.0, 2.0])


@pytest.mark.parametrize("shape", [(4, 64, 1000), (3, 7, 999), (1000,), (257,),
                                   (4,), (5,)])
def test_analytic_signal_is_scipy_hilbert_bit_for_bit(shape):
    # (4, 64, 1000) is the PLV pass's block of trials
    x = np.random.default_rng(shape[-1]).standard_normal(shape)
    assert np.array_equal(analytic_signal(x), sps.hilbert(x))


def test_import_loads_no_scipy():
    # scipy is a test dependency only; scipy.signal with the scipy.stats it
    # pulls in cost about 1 s of every start, scipy.linalg 0.2 s
    code = ("import sys, vmidecode; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# Band-pass

# (lo, hi, fs) bands; 20-30 and 10-40 Hz at 100 Hz centre on fs / 4, where the
# two pole pairs lie equally near the unit circle and scipy's tie rule orders
# the sections
DESIGN_GRID = [(lo, hi, fs)
               for fs in (100.0, 128.0, 250.0, 256.0, 500.0, 1000.0, 2048.0)
               for lo, hi in itertools.combinations(
                   (0.5, 1, 2, 4, 8, 10, 12, 13, 20, 25, 30, 40, 45, 60, 100,
                    200, 300, 400), 2)
               if hi < fs / 2]
ORACLE_BANDS = [(0.5, 13.0, 250.0), (0.5, 13.0, 1000.0), (1.0, 40.0, 1000.0),
                (8.0, 30.0, 500.0)]


def test_butter_bandpass_sos_is_scipy_butter_bit_for_bit():
    assert (20, 30, 100.0) in DESIGN_GRID and (10, 40, 100.0) in DESIGN_GRID
    for lo, hi, fs in DESIGN_GRID:
        want = sps.butter(2, [lo, hi], btype="bandpass", fs=fs, output="sos")
        got = butter_bandpass_sos(lo, hi, fs)
        assert np.array_equal(got, want), (lo, hi, fs)


def test_butter_bandpass_refuses_a_real_pole():
    # a band edge this low puts a digital pole on the real axis, where the
    # biquads are no rotation pairs
    with pytest.raises(RangeError, match="real pole"):
        butter_bandpass_sos(1e-100, 13.0, 100.0)
    with pytest.raises(RangeError, match="real pole"):
        bandpass(np.zeros(100), 1e-100, 13.0, 100.0)


def test_bandpass_refuses_coefficients_without_a_complex_pole_pair():
    # the poles 1 +- 2.8e-17j round to a2 = 1, a1 = -2: a double pole at 1,
    # which has no rotation form and never decays; it gave NaN
    assert butter_bandpass_sos(1e-100, 10.0, 100.0)[1, 4:].tolist() == [-2, 1]
    with pytest.raises(RangeError, match="real axis or the unit circle"):
        bandpass(np.ones(100), 1e-100, 10.0, 100.0)


def _sosfilt_zero_phase(x, lo, hi, fs):
    """The band-pass by scipy's sosfilt, forward then backward, over the
    series reflect-padded by min(12, n - 1) samples per end."""
    n = x.shape[-1]
    p = min(12, n - 1)
    padded = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(p, p)], mode="reflect",
                    reflect_type="odd")
    sos = butter_bandpass_sos(lo, hi, fs)
    y = sps.sosfilt(sos, padded, axis=-1)
    y = sps.sosfilt(sos, y[..., ::-1], axis=-1)[..., ::-1]
    return y[..., p:p + n]


def _df2t_long_double(sos, x):
    """The cascade sos run over the 1-D series x in transposed direct form II,
    in long double."""
    y = np.asarray(x, np.longdouble)
    for b0, b1, b2, _, a1, a2 in sos.astype(np.longdouble):
        out = np.empty_like(y)
        z1 = z2 = np.longdouble(0)
        for i, v in enumerate(y):
            out[i] = o = b0 * v + z1
            z1 = b1 * v - a1 * o + z2
            z2 = b2 * v - a2 * o
        y = out
    return y


@pytest.mark.parametrize("lo, hi, fs", ORACLE_BANDS)
def test_bandpass_matches_sosfilt_forward_backward(lo, hi, fs):
    x = np.random.default_rng(int(fs)).standard_normal((3, 5000)) * 40
    got = bandpass(x, lo, hi, fs)
    want = _sosfilt_zero_phase(x, lo, hi, fs)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(x).max()


def test_bandpass_matches_a_long_double_reference():
    lo, hi, fs = 0.5, 13.0, 250.0
    x = np.random.default_rng(10).standard_normal(1500) * 40
    p = 12
    padded = np.pad(x, p, mode="reflect", reflect_type="odd")
    sos = butter_bandpass_sos(lo, hi, fs)
    want = _df2t_long_double(sos, _df2t_long_double(sos, padded)[::-1])[::-1]
    got = bandpass(x, lo, hi, fs)
    assert np.abs(got - want[p:-p]).max() <= 1e-11 * np.abs(x).max()


@pytest.mark.parametrize("lo, hi, fs", ORACLE_BANDS)
def test_bandpass_response_matches_sosfreqz(lo, hi, fs):
    f = np.linspace(0.0, fs / 2, 501)
    _, h = sps.sosfreqz(butter_bandpass_sos(lo, hi, fs), worN=f, fs=fs)
    np.testing.assert_allclose(bandpass_response(lo, hi, fs, f),
                               np.abs(h) ** 2, rtol=1e-12, atol=1e-15)


def test_bandpass_passband_gain_matches_response_oracle():
    # the independent oracle evaluates |H|^2 from the biquad coefficients;
    # the forward-backward pass must realize exactly that gain
    fs = 250.0
    t = np.arange(int(10 * fs)) / fs
    x = np.sin(2 * np.pi * 10.0 * t)
    y = bandpass(x, 0.5, 13.0, fs)
    gain = float(bandpass_response(0.5, 13.0, fs, [10.0])[0])
    interior = slice(500, -500)
    measured = np.sqrt(np.mean(y[interior] ** 2)) / np.sqrt(np.mean(x[interior] ** 2))
    assert abs(measured - gain) / gain < 0.02


@pytest.mark.parametrize("lo, hi, fs", [(0.5, 13.0, 250.0), (1.0, 40.0, 1000.0),
                                       (8.0, 30.0, 500.0)])
def test_bandpass_response_matches_the_biquad_product(lo, hi, fs):
    # the per-biquad transfer-polynomial product that sosfreqz replaced
    f = np.linspace(0.0, fs / 2, 501)
    z = np.exp(-2j * np.pi * f / fs)
    h = np.ones_like(z)
    for b0, b1, b2, a0, a1, a2 in butter_bandpass_sos(lo, hi, fs):
        h *= (b0 + b1 * z + b2 * z ** 2) / (a0 + a1 * z + a2 * z ** 2)
    np.testing.assert_allclose(bandpass_response(lo, hi, fs, f),
                               np.abs(h) ** 2, rtol=1e-9, atol=1e-12)
    assert bandpass_response(lo, hi, fs, 10.0).shape == (1,)


def test_bandpass_stopband_attenuation():
    # steady-state region: the reflect-padded edges carry a broadband
    # transient that is not stopband leakage
    fs = 250.0
    t = np.arange(int(8 * fs)) / fs
    x = np.sin(2 * np.pi * 50.0 * t)
    y = bandpass(x, 0.5, 13.0, fs)
    sl = slice(500, -500)
    assert np.sqrt(np.mean(y[sl] ** 2)) <= 0.01 * np.sqrt(np.mean(x[sl] ** 2))


def test_bandpass_rejects_dc():
    # the 0.5 Hz high-pass pole settles over seconds; check past the transient
    y = bandpass(np.ones(5000), 0.5, 13.0, 250.0)
    assert np.abs(y[1250:-1250]).max() < 1e-4


def test_bandpass_is_linear():
    rng = np.random.default_rng(7)
    x, z = rng.standard_normal((2, 1000))
    lhs = bandpass(3.0 * x - 2.0 * z, 0.5, 13.0, 250.0)
    rhs = 3.0 * bandpass(x, 0.5, 13.0, 250.0) - 2.0 * bandpass(z, 0.5, 13.0, 250.0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_bandpass_zero_phase():
    # cross-correlation between a passband sine and its filtered copy
    # peaks at lag zero
    fs = 250.0
    t = np.arange(int(8 * fs)) / fs
    x = np.sin(2 * np.pi * 6.0 * t)
    y = bandpass(x, 0.5, 13.0, fs)
    xi, yi = x[250:-250], y[250:-250]
    lags = range(-10, 11)
    corr = [np.dot(xi[10:-10], yi[10 + l:len(yi) - 10 + l]) for l in lags]
    assert lags[int(np.argmax(corr))] == 0


def test_bandpass_preserves_length_and_validates_band():
    x = np.zeros(500)
    assert bandpass(x, 0.5, 13.0, 250.0).shape == (500,)
    with pytest.raises(RangeError):
        bandpass(x, 13.0, 0.5, 250.0)
    with pytest.raises(RangeError):
        bandpass(x, 0.5, 200.0, 250.0)
    with pytest.raises(EmptyInputError):
        bandpass(np.zeros(0), 0.5, 13.0, 250.0)


def _bandpass_by_concatenation(x, lo, hi, fs):
    """The band-pass as it was written before it filled one padded array;
    the padded series, zero-filled to whole blocks, runs through the same
    zero-phase kernel."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    p = min(12, n - 1)
    left = 2 * x[..., :1] - x[..., p:0:-1]
    right = 2 * x[..., -1:] - x[..., -2:-2 - p:-1]
    fill = np.zeros(x.shape[:-1] + (-(n + 2 * p) % BLOCK,))
    y = _zero_phase(_bandpass_plan(lo, hi, fs),
                    np.concatenate([left, x, right, fill], axis=-1), n + 2 * p)
    return y[..., p:p + n]


@pytest.mark.parametrize("n", [1, 2, 3, 12, 13, 14, 15, 500])
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
def test_bandpass_pads_bit_for_bit_as_by_concatenation(n, dtype):
    # n <= 13 pads n - 1 samples per end, longer series 12
    x = (np.random.default_rng(n).standard_normal((3, 2, n)) * 50).astype(dtype)
    want = _bandpass_by_concatenation(x, 1.0, 10.0, 100.0)
    got = bandpass(x, 1.0, 10.0, 100.0)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Downsampling

def test_downsample_lengths():
    assert downsample(np.zeros(1000), 4).shape == (250,)
    assert downsample(np.zeros(1001), 4).shape == (251,)  # ceil(n / factor)


def test_downsample_sine_oracle():
    # 5 Hz sine at 1000 Hz decimated by 4 equals the sine regenerated at 250 Hz
    t1k = np.arange(4000) / 1000.0
    x = np.sin(2 * np.pi * 5.0 * t1k)
    t250 = np.arange(1000) / 250.0
    want = np.sin(2 * np.pi * 5.0 * t250)
    np.testing.assert_allclose(downsample(x, 4), want, atol=1e-3)


def test_downsample_validates_factor():
    with pytest.raises(RangeError):
        downsample(np.zeros(10), 0)


def test_preprocess_recording_metadata(small_recording):
    # synthetic fixture runs at 250 Hz already; the default factor keeps fs
    rec = preprocess_recording(small_recording)
    assert rec.fs == 250
    assert rec.data.shape == small_recording.data.shape
    assert rec.events == small_recording.events


def test_preprocess_refuses_factor_not_dividing_fs(small_recording):
    # 250 / 3 Hz is no integer rate
    with pytest.raises(RangeError):
        preprocess_recording(small_recording, factor=3)


@pytest.mark.parametrize("factor", [2.5, 5.0, True])
def test_preprocess_refuses_factor_not_an_int(small_recording, factor):
    # 2.5 and 5.0 divide 250 but ended in a TypeError from slicing, and
    # decimation_factor returned True as the factor
    with pytest.raises(RangeError):
        preprocess_recording(small_recording, factor=factor)


def test_preprocess_rescales_fs_and_events():
    from vmidecode import EegRecording, Montage
    from conftest import SMALL_CHANNELS
    rng = np.random.default_rng(8)
    data = rng.standard_normal((8, 20000)).astype(np.float32)
    rec = EegRecording(Montage(SMALL_CHANNELS), 1000, data, [(400, 1)])
    out = preprocess_recording(rec)  # the default factor is 1000 // 250
    assert out.fs == 250
    assert out.data.shape == (8, 5000)
    assert out.events == [(100, 1)]


# ---------------------------------------------------------------------------
# Welch PSD

def test_welch_peak_at_tone():
    fs = 250.0
    t = np.arange(int(8 * fs)) / fs
    spec = welch_psd(np.sin(2 * np.pi * 10.0 * t), fs)
    assert spec.freqs_hz[int(np.argmax(spec.power))] == pytest.approx(10.0, abs=0.5)


def test_welch_integrates_to_variance_white_noise():
    rng = np.random.default_rng(9)
    sigma2 = 4.0
    errs = []
    for _ in range(10):
        x = rng.standard_normal(5000) * np.sqrt(sigma2)
        spec = welch_psd(x, 250.0)
        df = spec.freqs_hz[1] - spec.freqs_hz[0]
        errs.append(spec.power.sum() * df / sigma2)
    assert abs(np.mean(errs) - 1.0) < 0.1


def test_welch_two_tones_two_maxima():
    fs = 250.0
    t = np.arange(int(8 * fs)) / fs
    x = np.sin(2 * np.pi * 6.0 * t) + np.sin(2 * np.pi * 11.0 * t)
    spec = welch_psd(x, fs)
    peaked = [spec.freqs_hz[i] for i in range(1, len(spec.power) - 1)
              if spec.power[i] > spec.power[i - 1]
              and spec.power[i] > spec.power[i + 1]
              and spec.power[i] > 0.01 * spec.power.max()]
    assert any(abs(f - 6.0) <= 0.5 for f in peaked)
    assert any(abs(f - 11.0) <= 0.5 for f in peaked)


@pytest.mark.parametrize("seg", [250, 1000])
def test_welch_batch_matches_scipy_welch(seg):
    # the pipeline's lengths: 1000-sample epochs, 250-sample (1 s) segments
    x = np.random.default_rng(seg).standard_normal((2, 3, 1000))
    freqs, pxx = _welch_batch(x, 250.0, seg)
    hop = seg // 2
    want_f, want = sps.welch(x, fs=250.0, window=np.hanning(seg),
                             noverlap=seg - hop, detrend=False,
                             scaling="density")
    np.testing.assert_allclose(freqs, want_f, rtol=0, atol=1e-12)
    np.testing.assert_allclose(pxx, want, rtol=1e-12, atol=0)


def test_welch_rejects_long_segment():
    with pytest.raises(RangeError):
        welch_psd(np.zeros(100), 250.0, seg_len=200)


@pytest.mark.parametrize("n", [1, 2])
def test_welch_rejects_segments_under_3_samples(n):
    # a 2-sample Hann window is all zeros: the psd was 0 / 0, and the psd
    # stage wrote NaN for 2-sample epochs with exit 0
    with pytest.raises(RangeError, match="need 3 samples"):
        welch_psd(np.ones(n), 250.0)


def test_spectrum_csv(tmp_path):
    spec = welch_psd(np.random.default_rng(0).standard_normal(500), 250.0)
    path = tmp_path / "psd.csv"
    spec.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "frequency_hz,power"
    assert len(lines) == len(spec.freqs_hz) + 1


# ---------------------------------------------------------------------------
# ERSP

def _burst_epochs(n_trials=24, with_burst=True, seed=0, fs=250):
    """Epochs spanning -500..4500 ms with an optional 10 Hz burst after 500 ms."""
    rng = np.random.default_rng(seed)
    n = round(5.0 * fs)  # 1250 samples starting at -500 ms
    tensor = rng.standard_normal((n_trials, 1, n))
    if with_burst:
        onset = round(1.0 * fs)  # 500 ms post-onset = 1000 ms into the epoch
        t = np.arange(n - onset) / fs
        tensor[:, 0, onset:] += 3.0 * np.sin(2 * np.pi * 10.0 * t)
    return EpochSet(np.zeros(n_trials, dtype=int), tensor, fs, -500.0)


def test_ersp_grid_is_400_time_points():
    tf = ersp(_burst_epochs(n_trials=6), 0)
    assert tf.times_ms.shape == (400,)
    assert tf.values.shape == (tf.freqs_hz.size, 400)
    assert tf.freqs_hz.min() >= 3.0 and tf.freqs_hz.max() <= 50.0


def test_ersp_planted_burst_exceeds_3db():
    tf = ersp(_burst_epochs(), 0)
    f_mask = (tf.freqs_hz >= 8.0) & (tf.freqs_hz <= 12.0)
    t_mask = tf.times_ms >= 1000.0  # well after burst onset at 500 ms
    assert tf.values[np.ix_(f_mask, t_mask)].mean() > 3.0


def test_ersp_pre_onset_is_quiet():
    tf = ersp(_burst_epochs(), 0)
    t_mask = tf.times_ms < 400.0
    assert np.abs(tf.values[:, t_mask].mean()) < 1.0


def test_ersp_noise_only_is_flat():
    tf = ersp(_burst_epochs(n_trials=30, with_burst=False), 0)
    assert np.abs(tf.values).mean() < 1.0


def test_ersp_requires_baseline():
    ep = _burst_epochs(n_trials=4)
    ep = EpochSet(ep.labels, ep.tensor, ep.fs, 0.0)  # claims to start at onset
    with pytest.raises(RangeError):
        ersp(ep, 0, baseline_ms=(-500.0, 0.0))


@pytest.mark.parametrize("channel", [2, 5, -1, 1.0, True, None])
def test_ersp_refuses_a_channel_outside_the_epochs(channel):
    # 5 and 1.0 ended in numpy IndexErrors, -1 mapped the last channel
    ep = _burst_epochs(n_trials=4)
    ep = EpochSet(ep.labels, np.repeat(ep.tensor, 2, axis=1), ep.fs, ep.t0_ms)
    with pytest.raises(RangeError, match=rf"^channel must be an integer in "
                                         rf"\[0, 2\), got {channel!r}$"):
        ersp(ep, channel)


def test_tfmap_csv(tmp_path):
    tf = ersp(_burst_epochs(n_trials=4), 0)
    path = tmp_path / "ersp.csv"
    tf.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("frequency_hz,")
    assert len(lines[0].split(",")) == 401
    assert len(lines) == tf.freqs_hz.size + 1
