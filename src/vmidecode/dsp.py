"""Numeric kernels: FFT, analytic signal, zero-phase band-pass, decimation,
Welch PSD and ERSP time-frequency maps.

The FFT is numpy's (pocketfft); ``fft`` keeps the package's empty-input
guard and complex128 output, and the tests still check it against a naive
DFT and Parseval. Real-input stages (analytic signal, Welch, ERSP) take the
one-sided ``rfft``. Filtering uses scipy-designed Butterworth biquads with
our own reflect-padded forward-backward pass.
"""

from dataclasses import dataclass

import numpy as np
import scipy.signal as sps

from .core import EegRecording, EpochSet
from .errors import EmptyInputError, RangeError

# ---------------------------------------------------------------------------
# FFT

def fft(x) -> np.ndarray:
    """Discrete Fourier transform along the last axis, any length >= 1."""
    x = np.asarray(x)
    if x.size == 0 or x.shape[-1] == 0:
        raise EmptyInputError("fft of empty input")
    return np.fft.fft(x.astype(np.complex128))


def analytic_signal(x) -> np.ndarray:
    """Analytic signal of a real series (last axis).

    The real part equals the input; negative-frequency content is zero; the
    instantaneous phase is the complex argument of the output.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    if n < 4:
        raise RangeError("analytic_signal needs length >= 4")
    # keep DC (and Nyquist, for even n), double the positive bins; ifft's
    # zero-padding to n leaves the negative frequencies at zero
    spec = np.fft.rfft(x)
    spec[..., 1:(n + 1) // 2] *= 2.0
    return np.fft.ifft(spec, n=n)


# ---------------------------------------------------------------------------
# Filtering and decimation

def butter_bandpass_sos(lo_hz: float, hi_hz: float, fs: float,
                        order: int = 4) -> np.ndarray:
    """Butterworth band-pass of the given total order as a biquad cascade."""
    if not 0.0 < lo_hz < hi_hz < fs / 2.0:
        raise RangeError(f"invalid band ({lo_hz}, {hi_hz}) Hz at fs={fs}")
    if order % 2 != 0:
        raise RangeError("band-pass order must be even")
    return sps.butter(order // 2, [lo_hz, hi_hz], btype="bandpass",
                      fs=fs, output="sos")


def _filtfilt_sos(sos: np.ndarray, x: np.ndarray, padlen: int) -> np.ndarray:
    """Forward-backward biquad-cascade filtering with reflect padding."""
    n = x.shape[-1]
    padlen = min(padlen, n - 1)
    if padlen > 0:
        left = 2 * x[..., :1] - x[..., padlen:0:-1]
        right = 2 * x[..., -1:] - x[..., -2:-2 - padlen:-1]
        ext = np.concatenate([left, x, right], axis=-1)
    else:
        ext = x
    y = sps.sosfilt(sos, ext, axis=-1)
    y = sps.sosfilt(sos, y[..., ::-1], axis=-1)[..., ::-1]
    if padlen > 0:
        y = y[..., padlen:-padlen]
    return y


def bandpass(x, lo_hz: float, hi_hz: float, fs: float):
    """Zero-phase order-4 Butterworth band-pass along the last axis.

    Applied forward then backward, so the effective magnitude response is
    the squared response of the underlying cascade and the phase is zero.
    Edges are handled by reflect-padding 3x the filter order.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] == 0:
        raise EmptyInputError("bandpass of empty input")
    sos = butter_bandpass_sos(lo_hz, hi_hz, fs)
    return _filtfilt_sos(sos, x, padlen=12)


def bandpass_response(lo_hz, hi_hz, fs, f_eval):
    """|H(f)|^2 of the zero-phase band-pass (independent of the filter path).

    Evaluates the cascade's transfer polynomials at e^{-j 2 pi f / fs}; the
    forward-backward pass squares the magnitude.
    """
    sos = butter_bandpass_sos(lo_hz, hi_hz, fs)
    z = np.exp(-2j * np.pi * np.atleast_1d(np.asarray(f_eval, float)) / fs)
    h = np.ones_like(z)
    for b0, b1, b2, a0, a1, a2 in sos:
        h *= (b0 + b1 * z + b2 * z ** 2) / (a0 + a1 * z + a2 * z ** 2)
    return np.abs(h) ** 2


def downsample(x, factor: int):
    """Keep every factor-th sample along the last axis.

    There is no anti-alias filter: the caller must have band-limited the
    signal below the new Nyquist (the pipeline calls this after the
    0.5-13 Hz band-pass).
    """
    if factor < 1:
        raise RangeError("downsample factor must be >= 1")
    x = np.asarray(x)
    return x[..., ::factor]


def preprocess_recording(rec: EegRecording, band=(0.5, 13.0),
                         factor: int = 4) -> EegRecording:
    """Band-pass every channel and decimate; event indices are rescaled."""
    data = bandpass(rec.data, band[0], band[1], rec.fs)
    data = downsample(data, factor).astype(np.float32)
    events = [(s // factor, l) for s, l in rec.events]
    return EegRecording(rec.montage, rec.fs // factor, data, events)


# ---------------------------------------------------------------------------
# Spectral estimation

@dataclass
class Spectrum:
    """One-sided power spectral density, microvolts^2 per Hz."""

    freqs_hz: np.ndarray
    power: np.ndarray

    def to_csv(self, path) -> None:
        rows = ["frequency_hz,power"]
        rows += [f"{f:.6g},{p:.10g}" for f, p in zip(self.freqs_hz, self.power)]
        with open(path, "w") as f:
            f.write("\n".join(rows) + "\n")


def _welch_batch(x: np.ndarray, fs: float, seg_len: int):
    """Averaged Hann-windowed periodograms, 50% overlap, over the last axis.

    Returns (freqs, psd) with psd shaped like x without the last axis plus a
    frequency axis. Density scaling: integrating over [0, fs/2] recovers the
    series variance.
    """
    n = x.shape[-1]
    if seg_len > n:
        raise RangeError(f"segment length {seg_len} exceeds series length {n}")
    hop = max(1, int(round(seg_len * 0.5)))
    win = np.hanning(seg_len)
    u = (win ** 2).sum()
    segs = np.lib.stride_tricks.sliding_window_view(x, seg_len, axis=-1)
    segs = segs[..., ::hop, :] * win
    spec = np.fft.rfft(segs)
    pxx = (np.abs(spec) ** 2).mean(axis=-2) / (fs * u)
    pxx[..., 1:] *= 2.0
    if seg_len % 2 == 0:
        pxx[..., -1] /= 2.0
    freqs = np.arange(seg_len // 2 + 1) * fs / seg_len
    return freqs, pxx


def welch_psd(x, fs: float, seg_len: int = None) -> Spectrum:
    """Welch PSD of a single real series (Hann window, 50% overlap)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise RangeError("welch_psd expects a 1-D series")
    if seg_len is None:
        seg_len = min(int(fs), x.shape[-1])
    freqs, pxx = _welch_batch(x, fs, seg_len)
    return Spectrum(freqs, pxx)


# ---------------------------------------------------------------------------
# ERSP

@dataclass
class TfMap:
    """Time-frequency map of dB power change versus a pre-onset baseline."""

    freqs_hz: np.ndarray
    times_ms: np.ndarray
    values: np.ndarray  # |freqs| x |times|

    def to_csv(self, path) -> None:
        head = "frequency_hz," + ",".join(f"{t:.4g}" for t in self.times_ms)
        rows = [head]
        for f, row in zip(self.freqs_hz, self.values):
            rows.append(f"{f:.6g}," + ",".join(f"{v:.6g}" for v in row))
        with open(path, "w") as f:
            f.write("\n".join(rows) + "\n")


def ersp(epochs: EpochSet, baseline_ms=(-500.0, 0.0), f_range=(3.0, 50.0),
         channels=None):
    """Event-related spectral perturbation, one TfMap per requested channel.

    Short-time FFT with a Hann window; trial-averaged power is referenced to
    the mean power over the baseline window and expressed in dB; the time
    axis is linearly resampled to exactly 400 points spanning the
    post-onset part of the epoch.
    """
    fs = epochs.fs
    t0 = epochs.t0_ms
    if t0 > baseline_ms[0]:
        raise RangeError(
            f"epochs start at {t0} ms, baseline needs {baseline_ms[0]} ms"
        )
    n = epochs.n_samples
    n_times = 400
    win = min(256, n)
    hop = max(1, (n - win) // (2 * n_times))
    if channels is None:
        channels = range(epochs.n_channels)

    window = np.hanning(win)
    starts = np.arange(0, n - win + 1, hop)
    centers_ms = (starts + win / 2.0) / fs * 1000.0 + t0
    freqs_all = np.arange(win // 2 + 1) * fs / win
    f_keep = (freqs_all >= f_range[0]) & (freqs_all <= f_range[1])
    freqs = freqs_all[f_keep]
    # baseline membership goes by frame start: with a 256-sample window at
    # 250 Hz no frame *center* can precede onset inside a 500 ms baseline
    starts_ms = starts / fs * 1000.0 + t0
    base_mask = (starts_ms >= baseline_ms[0]) & (starts_ms < baseline_ms[1])
    if not base_mask.any():
        raise RangeError("no STFT frames fall inside the baseline window")
    end_ms = t0 + n / fs * 1000.0
    times_out = np.linspace(max(0.0, centers_ms[0]), end_ms, n_times)

    maps = []
    for ch in channels:
        x = np.asarray(epochs.tensor[:, ch, :], dtype=np.float64)
        frames = np.lib.stride_tricks.sliding_window_view(x, win, axis=-1)
        frames = frames[:, ::hop, :] * window
        power = np.abs(np.fft.rfft(frames)) ** 2
        mean_power = power.mean(axis=0)[:, f_keep]          # frames x freqs
        baseline = mean_power[base_mask].mean(axis=0)       # per frequency
        db = 10.0 * np.log10(mean_power / baseline)
        values = np.empty((freqs.size, n_times))
        for i in range(freqs.size):
            values[i] = np.interp(times_out, centers_ms, db[:, i])
        maps.append(TfMap(freqs, times_out, values))
    return maps
