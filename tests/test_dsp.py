"""FFT, analytic signal, filtering, PSD and ERSP against independent oracles."""

import numpy as np
import pytest
import scipy.signal as sps

from vmidecode import (EpochSet, analytic_signal, bandpass, bandpass_response,
                       downsample, ersp, fft, welch_psd)
from vmidecode.dsp import (_welch_batch, butter_bandpass_sos,
                           preprocess_recording)
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


@pytest.mark.parametrize("n", [5, 250, 1000, 1001])
def test_analytic_signal_matches_scipy_hilbert(n):
    x = np.random.default_rng(n).standard_normal((3, n))
    np.testing.assert_allclose(analytic_signal(x), sps.hilbert(x),
                               rtol=0, atol=1e-12)


def test_analytic_signal_too_short():
    with pytest.raises(RangeError):
        analytic_signal([1.0, 2.0])


# ---------------------------------------------------------------------------
# Band-pass

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
    with pytest.raises(RangeError):
        butter_bandpass_sos(0.5, 13.0, 250.0, order=3)


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
    # synthetic fixture runs at 250 Hz already; factor 1 keeps fs
    rec = preprocess_recording(small_recording, factor=1)
    assert rec.fs == 250
    assert rec.data.shape == small_recording.data.shape
    assert rec.events == small_recording.events


def test_preprocess_rescales_fs_and_events():
    from vmidecode import EegRecording, Montage
    from conftest import SMALL_CHANNELS
    rng = np.random.default_rng(8)
    data = rng.standard_normal((8, 20000)).astype(np.float32)
    rec = EegRecording(Montage(SMALL_CHANNELS), 1000, data, [(400, 1)])
    out = preprocess_recording(rec, factor=4)
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
    tf = ersp(_burst_epochs(n_trials=6), channels=[0])[0]
    assert tf.times_ms.shape == (400,)
    assert tf.values.shape == (tf.freqs_hz.size, 400)
    assert tf.freqs_hz.min() >= 3.0 and tf.freqs_hz.max() <= 50.0


def test_ersp_planted_burst_exceeds_3db():
    tf = ersp(_burst_epochs(), channels=[0])[0]
    f_mask = (tf.freqs_hz >= 8.0) & (tf.freqs_hz <= 12.0)
    t_mask = tf.times_ms >= 1000.0  # well after burst onset at 500 ms
    assert tf.values[np.ix_(f_mask, t_mask)].mean() > 3.0


def test_ersp_pre_onset_is_quiet():
    tf = ersp(_burst_epochs(), channels=[0])[0]
    t_mask = tf.times_ms < 400.0
    assert np.abs(tf.values[:, t_mask].mean()) < 1.0


def test_ersp_noise_only_is_flat():
    tf = ersp(_burst_epochs(n_trials=30, with_burst=False), channels=[0])[0]
    assert np.abs(tf.values).mean() < 1.0


def test_ersp_requires_baseline():
    ep = _burst_epochs(n_trials=4)
    ep = EpochSet(ep.labels, ep.tensor, ep.fs, 0.0)  # claims to start at onset
    with pytest.raises(RangeError):
        ersp(ep, baseline_ms=(-500.0, 0.0), channels=[0])


def test_tfmap_csv(tmp_path):
    tf = ersp(_burst_epochs(n_trials=4), channels=[0])[0]
    path = tmp_path / "ersp.csv"
    tf.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("frequency_hz,")
    assert len(lines[0].split(",")) == 401
    assert len(lines) == tf.freqs_hz.size + 1
